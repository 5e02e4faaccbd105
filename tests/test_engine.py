"""Merging strategies: path validity, counts, adjacency, determinism."""

import numpy as np
import pytest

from factorfuse import fit, merge_factors, ordering_statistic
from factorfuse.data import Grouping, Partition, ResponseData
from factorfuse.engine import NEAR_TIE
from factorfuse.errors import InvalidStrategy

from conftest import (
    make_binomial_data,
    make_gaussian_data,
    make_gaussian_nd_data,
    make_survival_data,
    oracle_gaussian_loglik,
    oracle_greedy_path,
    random_binomial_dataset,
    random_gaussian_dataset,
)

STRATEGIES = ("adaptive", "fast-adaptive", "fixed", "fast-fixed")


def path_merge_sequence(path):
    return [s.merged_pair for s in path.steps[1:]]


# ---------------------------------------------------------------------------
# structural validity


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_path_structure(strategy, rng):
    data, g = random_gaussian_dataset(rng, 6, 8)
    path = merge_factors(data, g, strategy)
    assert path.k == 6
    assert len(path.steps) == 6
    for i, step in enumerate(path.steps):
        assert step.model.partition.size == 6 - i
    for prev, cur in zip(path.steps, path.steps[1:]):
        assert cur.model.partition.is_coarsening_of(prev.model.partition)
        assert cur.model.loglik <= prev.model.loglik + 1e-9
    assert path.steps[-1].model.partition.size == 1


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_k2_single_merge(strategy):
    data, g = make_gaussian_data({"a": [0.0, 1.0], "b": [5.0, 6.0]})
    path = merge_factors(data, g, strategy)
    assert len(path.steps) == 2
    assert path.steps[1].merged_pair == ("(a)", "(b)")
    assert path.steps[1].model.partition.labels == ("(a)(b)",)


def test_invalid_strategy_rejected(rng):
    data, g = random_gaussian_dataset(rng, 3, 5)
    with pytest.raises(InvalidStrategy):
        merge_factors(data, g, "bogus")


def test_single_level_rejected():
    data = ResponseData("gaussian1d", np.array([1.0, 2.0]))
    g = Grouping(("a", "a"))
    with pytest.raises(InvalidStrategy):
        merge_factors(data, g, "adaptive")


# ---------------------------------------------------------------------------
# adaptive matches the brute-force greedy oracle


@pytest.mark.parametrize("kind", ["gaussian1d", "binomial"])
def test_adaptive_matches_greedy_oracle(kind, rng):
    for _ in range(8):
        k = int(rng.integers(3, 7))
        if kind == "gaussian1d":
            by = {f"G{i + 1}": list(rng.normal(i * 0.7, 1, 10)) for i in range(k)}
            data, g = make_gaussian_data(by)
        else:
            by = {
                f"G{i + 1}": list(
                    rng.binomial(1, 0.15 + 0.7 * i / k, 10).astype(float)
                )
                for i in range(k)
            }
            data, g = make_binomial_data(by)
        path = merge_factors(data, g, "adaptive")
        assert path_merge_sequence(path) == oracle_greedy_path(kind, by)


@pytest.mark.parametrize("d", [2, 3])
def test_adaptive_gaussian_nd_matches_greedy_oracle(d, rng):
    for _ in range(6):
        k = int(rng.integers(3, 7))
        by = {
            f"G{i + 1}": rng.normal(rng.uniform(0, 3, d), 1.0, (10, d))
            for i in range(k)
        }
        data, g = make_gaussian_nd_data(by)
        path = merge_factors(data, g, "adaptive")
        assert path_merge_sequence(path) == oracle_greedy_path("gaussianNd", by)


def test_near_tie_merges_lexicographic_pair():
    # Level means 0, 0.3 and 0.6 with equal spreads: merging (A, B) or (B, C)
    # is an exact analytic tie, which rounding splits in favour of (B, C).
    by = {"A": [-0.25, 0.25], "B": [0.05, 0.55], "C": [0.35, 0.85]}
    data, g = make_gaussian_data(by)
    full = Partition.singletons(g.levels)
    ab, bc = (fit(data, g, full.merge(a, b)).loglik for a, b in (("(A)", "(B)"), ("(B)", "(C)")))
    assert 0.0 < bc - ab < NEAR_TIE
    for strategy in STRATEGIES:
        path = merge_factors(data, g, strategy)
        assert path.steps[1].merged_pair == ("(A)", "(B)"), strategy


def test_identical_clusters_merge_first(rng):
    by = {
        "A": [0.0, 1.0, 2.0],
        "B": [2.0, 1.0, 0.0],
        "C": list(rng.normal(8, 1, 3)),
        "D": list(rng.normal(-8, 1, 3)),
    }
    data, g = make_gaussian_data(by)
    path = merge_factors(data, g, "adaptive")
    assert path.steps[1].merged_pair == ("(A)", "(B)")


# ---------------------------------------------------------------------------
# evaluation-count contracts


def adaptive_expected(k):
    return sum(j * (j - 1) // 2 for j in range(2, k + 1)) + k


@pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
def test_eval_counts(k, rng):
    data, g = random_gaussian_dataset(rng, k, 6)
    a = merge_factors(data, g, "adaptive")
    assert a.evaluations == adaptive_expected(k)
    fa = merge_factors(data, g, "fast-adaptive")
    assert fa.evaluations <= k * k
    fx = merge_factors(data, g, "fixed")
    assert fx.evaluations == k * (k - 1) // 2 + (k - 1) + 1
    ff = merge_factors(data, g, "fast-fixed")
    assert ff.evaluations <= 3 * k


def test_eval_breakdown_reported(rng):
    data, g = random_gaussian_dataset(rng, 5, 6)
    path = merge_factors(data, g, "fixed")
    bd = path.evaluation_breakdown
    assert sum(bd.values()) == path.evaluations
    assert bd.get("distances", 0) == 10  # k(k-1)/2 static pairwise distances


# ---------------------------------------------------------------------------
# fast strategies: ordering and adjacency


@pytest.mark.parametrize("strategy", ["fast-adaptive", "fast-fixed"])
def test_fast_merges_are_adjacent(strategy, rng):
    data, g = random_gaussian_dataset(rng, 7, 6)
    path = merge_factors(data, g, strategy)
    order = list(path.ordering)
    # replay the path over the maintained order; each merge must join
    # neighbours, and the merged cluster takes over the contiguous span
    spans = [[lv] for lv in order]
    labels = [f"({lv})" for lv in order]
    for a, b in path_merge_sequence(path):
        ia, ib = labels.index(a), labels.index(b)
        assert abs(ia - ib) == 1
        lo, hi = min(ia, ib), max(ia, ib)
        spans[lo] = spans[lo] + spans[hi]
        labels[lo] = a + b if (ia < ib) else b + a
        labels[lo] = a + b  # merge order is (a, b) as reported
        del spans[hi], labels[hi]
    assert len(labels) == 1


def test_ordering_statistic_gaussian():
    data, g = make_gaussian_data({"B": [2.0, 2.0], "A": [1.0, 1.0], "C": [3.0, 3.0]})
    assert ordering_statistic(data, g) == ("A", "B", "C")


def test_ordering_statistic_binomial():
    data, g = make_binomial_data({"X": [1, 1, 1, 1, 0], "Y": [0, 0, 0, 0, 1]})
    assert ordering_statistic(data, g) == ("Y", "X")


def test_ordering_statistic_ties_keep_level_order():
    data, g = make_gaussian_data({"A": [1.0, 3.0], "B": [2.0, 2.0], "C": [0.0, 0.0]})
    # A and B tie on mean 2; original (sorted) level order breaks the tie
    assert ordering_statistic(data, g) == ("C", "A", "B")


def test_ordering_statistic_survival():
    rows = {
        "slow": [(2.0, 1), (5.0, 1), (7.0, 0), (8.0, 1)],
        "fast": [(0.5, 1), (0.7, 1), (3.0, 1), (6.0, 1)],
    }
    data, g = make_survival_data(rows)
    # higher hazard (larger alpha) sorts later; "slow" has lower hazard
    assert ordering_statistic(data, g) == ("slow", "fast")


def test_monotone_means_fast_adaptive_equals_adaptive(rng):
    by = {f"G{i + 1}": list(rng.normal(3.0 * i, 0.5, 10)) for i in range(5)}
    data, g = make_gaussian_data(by)
    a = merge_factors(data, g, "adaptive")
    fa = merge_factors(data, g, "fast-adaptive")
    assert path_merge_sequence(a) == path_merge_sequence(fa)


# ---------------------------------------------------------------------------
# fixed strategy specifics


def test_first_merge_agreement_adaptive_vs_fixed(rng):
    for _ in range(6):
        data, g = random_gaussian_dataset(rng, 6, 8)
        a = merge_factors(data, g, "adaptive")
        f = merge_factors(data, g, "fixed")
        assert a.steps[1].merged_pair == f.steps[1].merged_pair


def test_fixed_matches_scipy_complete_linkage(rng):
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    for _ in range(5):
        k = 7
        by = {f"G{i + 1}": list(rng.normal(rng.uniform(0, 4), 1.0, 8)) for i in range(k)}
        data, g = make_gaussian_data(by)
        groups = [np.array(by[lv]) for lv in g.levels]
        full = oracle_gaussian_loglik(groups)
        # condensed LRT distance matrix: merge (a, b), every other level alone
        dist = []
        for a in range(k):
            for b in range(a + 1, k):
                rest = [x for t, x in enumerate(groups) if t not in (a, b)]
                merged = oracle_gaussian_loglik(rest + [np.concatenate([groups[a], groups[b]])])
                dist.append(2.0 * (full - merged))
        assert np.diff(np.sort(dist)).min() > 1e-6  # distinct distances
        members = {t: frozenset([lv]) for t, lv in enumerate(g.levels)}
        want = []
        for t, (x, y) in enumerate(hierarchy.linkage(np.array(dist), method="complete")[:, :2]):
            members[k + t] = members[int(x)] | members[int(y)]
            want.append({members[int(x)], members[int(y)]})
        path = merge_factors(data, g, "fixed")
        got = []
        for prev, step in zip(path.steps, path.steps[1:]):
            of = {c.label: c.member_set for c in prev.model.partition.clusters}
            got.append({of[label] for label in step.merged_pair})
        assert got == want


def test_all_strategies_share_endpoints(rng):
    data, g = random_binomial_dataset(rng, 5, 12)
    paths = [merge_factors(data, g, s) for s in STRATEGIES]
    full = paths[0].steps[0].model.loglik
    last = paths[0].steps[-1].model.loglik
    for p in paths[1:]:
        assert p.steps[0].model.loglik == pytest.approx(full, abs=1e-9)
        assert p.steps[-1].model.loglik == pytest.approx(last, abs=1e-9)


# ---------------------------------------------------------------------------
# determinism


def permutation_cases(rng):
    """gaussian1d, then weighted gaussian1d, gaussianNd and binomial data whose
    small integer responses repeat within a level under different weights."""
    yield random_gaussian_dataset(rng, 5, 9)
    g = Grouping(tuple(f"G{i % 5}" for i in range(40)))
    w = rng.uniform(0.5, 2.0, 40)
    yield ResponseData("gaussian1d", rng.integers(0, 4, 40).astype(float), w), g
    yield ResponseData("gaussianNd", rng.integers(0, 3, (40, 2)).astype(float), w), g
    yield ResponseData("binomial", rng.integers(0, 2, 40).astype(float), w), g


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_row_permutation_invariance(strategy, rng):
    for data, g in permutation_cases(rng):
        perm = rng.permutation(data.n)
        weights = None if data.weights is None else data.weights[perm]
        data2 = ResponseData(data.kind, data.values[perm], weights)
        g2 = Grouping(tuple(np.array(g.labels)[perm]))
        p1 = merge_factors(data, g, strategy)
        p2 = merge_factors(data2, g2, strategy)
        assert path_merge_sequence(p1) == path_merge_sequence(p2), data.kind
        for s1, s2 in zip(p1.steps, p2.steps):
            assert s1.model.loglik == s2.model.loglik, data.kind  # bitwise equal


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_repeat_runs_identical(strategy, rng):
    data, g = random_binomial_dataset(rng, 6, 10)
    p1 = merge_factors(data, g, strategy)
    p2 = merge_factors(data, g, strategy)
    assert path_merge_sequence(p1) == path_merge_sequence(p2)
    assert [s.model.loglik for s in p1.steps] == [s.model.loglik for s in p2.steps]


# ---------------------------------------------------------------------------
# survival paths


def test_survival_path_all_strategies(rng):
    rows = {}
    for i, rate in enumerate([0.5, 0.6, 2.0, 2.2]):
        t = rng.exponential(1.0 / rate, 15)
        e = (rng.uniform(size=15) > 0.2).astype(int)
        rows[f"G{i + 1}"] = [(max(float(x), 1e-6), int(ev)) for x, ev in zip(t, e)]
    data, g = make_survival_data(rows)
    for strategy in STRATEGIES:
        path = merge_factors(data, g, strategy)
        assert len(path.steps) == 4
        lls = [s.model.loglik for s in path.steps]
        assert all(b <= a + 1e-9 for a, b in zip(lls, lls[1:]))


def test_gaussian_nd_path(rng):
    vals, labels = [], []
    centers = {"A": (0, 0), "B": (0.2, 0.1), "C": (4, 4), "D": (4.2, 3.9)}
    for lv, c in centers.items():
        vals.append(rng.normal(c, 0.8, (12, 2)))
        labels += [lv] * 12
    data = ResponseData("gaussianNd", np.concatenate(vals))
    g = Grouping(tuple(labels))
    for strategy in STRATEGIES:
        path = merge_factors(data, g, strategy)
        assert len(path.steps) == 4
    # near clusters merge before far ones under adaptive
    first = merge_factors(data, g, "adaptive").steps[1].merged_pair
    assert set(first) in ({"(A)", "(B)"}, {"(C)", "(D)"})
