"""Response validation from the domain table, the fixture generator's
cluster assignment and planted partitions, and partition merges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorfuse.data import Cluster, Partition, ResponseData
from factorfuse.errors import FactorFuseError, WeightsNotSupported
from factorfuse.fixtures import make_fixture

NAN = float("nan")

# (id, kind, values, weights, expected): expected is None when the data is
# accepted, else (exception type, message)
RESPONSE_TABLE = [
    # shapes
    ("gaussian1d", "gaussian1d", [0.5, -2.0, 3.0], None, None),
    ("gaussian1d-2d", "gaussian1d", [[0.5], [1.0]], None,
     (FactorFuseError, "gaussian1d values must be (n,)")),
    ("gaussian1d-scalar", "gaussian1d", 1.0, None,
     (FactorFuseError, "gaussian1d values must be (n,)")),
    ("gaussianNd-d2", "gaussianNd", [[0.0, 1.0], [2.0, 3.0]], None, None),
    ("gaussianNd-d3", "gaussianNd", [[0.0, 1.0, 2.0]], None, None),
    ("gaussianNd-d1", "gaussianNd", [[0.0], [1.0]], None,
     (FactorFuseError, "gaussianNd values must be (n, d) with d >= 2")),
    ("gaussianNd-1d", "gaussianNd", [0.0, 1.0], None,
     (FactorFuseError, "gaussianNd values must be (n, d) with d >= 2")),
    ("gaussianNd-3d", "gaussianNd", [[[0.0, 1.0]]], None,
     (FactorFuseError, "gaussianNd values must be (n, d) with d >= 2")),
    ("binomial", "binomial", [0.0, 1.0, -0.0], None, None),
    ("binomial-2d", "binomial", [[0.0], [1.0]], None,
     (FactorFuseError, "binomial values must be (n,)")),
    ("survival", "survival", [[1.0, 1.0], [0.5, 0.0]], None, None),
    ("survival-1d", "survival", [1.0, 1.0], None,
     (FactorFuseError, "survival values must be (n, 2) time/event")),
    ("survival-3-columns", "survival", [[1.0, 1.0, 1.0]], None,
     (FactorFuseError, "survival values must be (n, 2) time/event")),
    ("unknown-kind", "poisson", [1.0], None,
     (FactorFuseError, "unknown response kind: 'poisson'")),
    # domains: the first observation outside names the reason
    ("binomial-two", "binomial", [0.0, 2.0], None,
     (FactorFuseError, "observation 1: binomial response must be 0 or 1")),
    ("binomial-half", "binomial", [0.5], None,
     (FactorFuseError, "observation 0: binomial response must be 0 or 1")),
    ("binomial-nan", "binomial", [1.0, NAN], None,
     (FactorFuseError, "observation 1: binomial response must be 0 or 1")),
    ("survival-time-zero", "survival", [[1.0, 1.0], [0.0, 1.0]], None,
     (FactorFuseError, "observation 1: invalid survival time/event pair")),
    ("survival-time-negative", "survival", [[-1.0, 0.0]], None,
     (FactorFuseError, "observation 0: invalid survival time/event pair")),
    ("survival-time-nan", "survival", [[NAN, 1.0]], None,
     (FactorFuseError, "observation 0: invalid survival time/event pair")),
    ("survival-event-two", "survival", [[1.0, 2.0]], None,
     (FactorFuseError, "observation 0: invalid survival time/event pair")),
    ("survival-event-half", "survival", [[1.0, 1.0], [1.0, 0.5]], None,
     (FactorFuseError, "observation 1: invalid survival time/event pair")),
    ("survival-event-nan", "survival", [[1.0, NAN]], None,
     (FactorFuseError, "observation 0: invalid survival time/event pair")),
    # weights
    ("weights", "gaussian1d", [1.0, 2.0], [0.5, 2.0], None),
    ("weights-binomial", "binomial", [1.0, 0.0], [1.0, 3.0], None),
    ("weights-nd", "gaussianNd", [[1.0, 2.0]], [2.0], None),
    ("weights-short", "gaussian1d", [1.0, 2.0], [1.0],
     (FactorFuseError, "weights must align with observations")),
    ("weights-2d", "gaussian1d", [1.0, 2.0], [[1.0, 1.0]],
     (FactorFuseError, "weights must align with observations")),
    ("weights-zero", "gaussian1d", [1.0, 2.0], [1.0, 0.0],
     (FactorFuseError, "weights must be strictly positive")),
    ("weights-negative", "binomial", [1.0, 0.0], [-1.0, 1.0],
     (FactorFuseError, "weights must be strictly positive")),
    ("weights-nan", "gaussianNd", [[1.0, 2.0]], [NAN],
     (FactorFuseError, "weights must be strictly positive")),
    ("weights-survival", "survival", [[1.0, 1.0]], [1.0],
     (WeightsNotSupported, "weights are not supported for survival data")),
]


@pytest.mark.parametrize("kind,values,weights,expected", [r[1:] for r in RESPONSE_TABLE],
                         ids=[r[0] for r in RESPONSE_TABLE])
def test_response_data_table(kind, values, weights, expected):
    w = None if weights is None else np.array(weights)
    if expected is None:
        data = ResponseData(kind, np.array(values), w)
        assert data.values.dtype == float and data.n == len(values)
        assert data.weights is None if w is None else data.weights.tobytes() == w.tobytes()
        return
    error, message = expected
    with pytest.raises(error) as exc:
        ResponseData(kind, np.array(values), w)
    assert type(exc.value) is error and str(exc.value) == message


# (id, make_fixture arguments, expected planted clusters as level numbers, or
# the message of the FactorFuseError raised)
BAD_PROPORTIONS = "binomial proportions must be one or more numbers in [0, 1]"
FIXTURE_TABLE = [
    ("default-half-of-k", ("gaussian", 6, 3, 1.0, 0), {}, [[1, 2], [3, 4], [5, 6]]),
    ("default-k3-one-cluster", ("binomial", 3, 3, 1.0, 0), {}, [[1, 2, 3]]),
    ("k-not-divisible", ("gaussian", 7, 2, 1.0, 1), {"n_clusters": 3},
     [[1, 2, 3], [4, 5], [6, 7]]),
    ("k-not-divisible-5-by-2", ("survival", 5, 4, 2.0, 2), {"n_clusters": 2},
     [[1, 2, 3], [4, 5]]),
    ("more-clusters-than-levels", ("gaussianNd", 3, 2, 1.0, 3), {"n_clusters": 7},
     [[1], [2], [3]]),
    ("one-cluster", ("gaussianNd", 4, 2, 1.0, 3), {"n_clusters": 1}, [[1, 2, 3, 4]]),
    ("proportions-override-clusters", ("binomial", 5, 2, 1.0, 0),
     {"n_clusters": 4, "proportions": (0.1, 0.9)}, [[1, 2, 3], [4, 5]]),
    ("equal-proportions-merge", ("binomial", 6, 2, 1.0, 0),
     {"proportions": (0.5, 0.5, 0.2)}, [[1, 2, 3, 4], [5, 6]]),
    ("proportions-bounds", ("binomial", 4, 2, 1.0, 0), {"proportions": (0.0, 1)},
     [[1, 2], [3, 4]]),
    ("proportions-array", ("binomial", 4, 2, 1.0, 0), {"proportions": np.array([0.2, 0.7])},
     [[1, 2], [3, 4]]),
] + [
    (f"proportions-{name}", ("binomial", 4, 3, 1.0, 0), {"proportions": proportions},
     BAD_PROPORTIONS)
    for name, proportions in [("empty", ()), ("above-1", (1.5, 0.2)), ("below-0", (-0.1,)),
                              ("nan", (NAN, 0.5)), ("inf", (float("inf"),)),
                              ("not-a-number", ("0.5",))]
] + [
    (f"separation-0-{kind}", (kind, 6, 2, 0.0, 4), {"n_clusters": 3}, [[1, 2, 3, 4, 5, 6]])
    for kind in ("gaussian", "gaussianNd", "binomial", "survival")
]

# fixture kind -> response kind, values per row, data.csv value columns
SHAPES = {
    "gaussian": ("gaussian1d", (), ("y",)),
    "gaussianNd": ("gaussianNd", (2,), ("y1", "y2")),
    "binomial": ("binomial", (), ("y",)),
    "survival": ("survival", (2,), ("time", "event")),
}


@pytest.mark.parametrize("args,kw,planted", [r[1:] for r in FIXTURE_TABLE],
                         ids=[r[0] for r in FIXTURE_TABLE])
def test_fixture_table(args, kw, planted):
    kind, k, n_per_group = args[:3]
    if isinstance(planted, str):
        with pytest.raises(FactorFuseError) as exc:
            make_fixture(*args, **kw)
        assert type(exc.value) is FactorFuseError and str(exc.value) == planted
        return
    fx = make_fixture(*args, **kw)
    levels = tuple(f"L{i:02d}" for i in range(1, k + 1))
    assert fx.planted == tuple(tuple(levels[i - 1] for i in c) for c in planted)
    assert fx.grouping.levels == levels
    assert fx.grouping.labels == tuple(lv for lv in levels for _ in range(n_per_group))
    response_kind, row_shape, columns = SHAPES[kind]
    assert fx.data.kind == response_kind and fx.columns == columns
    assert fx.data.values.shape == (k * n_per_group, *row_shape)
    assert fx.seed == args[4]


def test_fixture_extras():
    fx = make_fixture("gaussianNd", 4, 3, 1.0, 0, dim=3)
    assert fx.data.values.shape == (12, 3) and fx.columns == ("y1", "y2", "y3")
    assert make_fixture("gaussian", 100, 2, 1.0, 0).grouping.levels[::99] == ("L001", "L100")
    # more censoring means fewer events
    events = [make_fixture("survival", 4, 200, 1.0, 0, censor_rate=r).data.values[:, 1].sum()
              for r in (0.05, 5.0)]
    assert events[0] > events[1]
    with pytest.raises(FactorFuseError, match="unknown fixture kind"):
        make_fixture("poisson", 4, 3, 1.0, 0)


def test_partition_merge():
    part = Partition.singletons(("a", "b", "c", "d"))
    # merging b into d: the members keep merge order, at b's position
    into_d = part.merge(3, 1)
    assert into_d.labels == ("(a)", "(d)(b)", "(c)")
    assert into_d.clusters[1].members == ("d", "b")
    assert part.merge(0, 1).merge(1, 0).labels == ("(c)(a)(b)", "(d)")
    with pytest.raises(FactorFuseError, match="cannot merge a cluster with itself"):
        part.merge(0, 0)
    # positions past the end, and negative ones, which would index from the end
    for p, a, b in [(part, 0, 4), (part, 4, 0), (part, -1, 0), (part, 1, -4),
                    (into_d, 0, 3)]:
        with pytest.raises(FactorFuseError) as exc:
            p.merge(a, b)
        assert type(exc.value) is FactorFuseError
        assert str(exc.value) == f"cannot merge positions {a} and {b} of {p.size} clusters"


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(2, 12))
def test_partition_merge_labels_follow_the_members(data, k):
    # the labels that merge joins from its parts equal the definition, each
    # member in parentheses, also for a level whose name looks like a merge
    levels = ["a", "b", "a)(b", "(c)", ""][:k] + [f"L{i}" for i in range(k - 5)]
    part = Partition.singletons(levels)
    while part.size > 1:
        a, b = data.draw(st.lists(st.integers(0, part.size - 1), min_size=2, max_size=2,
                                  unique=True))
        merged = part.merge(a, b)
        lo, hi = sorted((a, b))
        # the clusters that were not merged are kept as they are
        kept = part.clusters[:lo] + part.clusters[lo + 1:hi] + part.clusters[hi + 1:]
        assert all(x is y for x, y in zip(kept, merged.clusters[:lo] + merged.clusters[lo + 1:]))
        part = merged
        assert [c.label for c in part.clusters] == [
            "".join(f"({m})" for m in c.members) for c in part.clusters]
        assert part.labels == tuple(c.label for c in part.clusters)
        assert part == Partition(tuple(Cluster(c.members) for c in part.clusters))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(2, 12))
def test_partition_positions_scan_the_members(data, k):
    # each level's position is that of the cluster whose members hold it, and
    # -1 for a level that no cluster holds
    levels = ["a", "b", "a)(b", "(c)", ""][:k] + [f"L{i}" for i in range(k - 5)]
    asked = data.draw(st.permutations(levels + ["none"]))
    part = Partition.singletons(levels)
    while True:
        scan = [next((s for s, c in enumerate(part.clusters) if lv in c.members), -1)
                for lv in asked]
        assert part.positions(asked).tolist() == scan
        if part.size == 1:
            break
        a, b = data.draw(st.lists(st.integers(0, part.size - 1), min_size=2, max_size=2,
                                  unique=True))
        part = part.merge(a, b)
