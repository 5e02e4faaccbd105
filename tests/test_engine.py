"""Merging strategies: path validity, counts, adjacency, determinism."""

import copy
import dataclasses
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from factorfuse import engine, families, fit, merge_factors, merging_history, ordering_statistic
from factorfuse.data import Grouping, Partition, ResponseData
from factorfuse.engine import NEAR_TIE, _select
from factorfuse.errors import FactorFuseError, InvalidStrategy
from factorfuse.fixtures import make_fixture

from conftest import (
    COLLIDING_LABELS,
    fitted_scorer,
    make_binomial_data,
    make_gaussian_data,
    make_gaussian_nd_data,
    make_survival_data,
    oracle_fast_fixed_path,
    oracle_gaussian_loglik,
    oracle_greedy_path,
    random_binomial_dataset,
    random_gaussian_dataset,
    reference_cox_scores,
)

STRATEGIES = ("adaptive", "fast-adaptive", "fixed", "fast-fixed")


def path_merge_sequence(path):
    return [(r.group_a, r.group_b) for r in merging_history(path)[1:]]


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
    assert path.steps[1].merged_pair == (0, 1)
    assert path_merge_sequence(path) == [("(a)", "(b)")]
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


MAKE_DATA = {"gaussian1d": make_gaussian_data, "binomial": make_binomial_data,
             "gaussianNd": make_gaussian_nd_data}


def tie_heavy_binomial():
    """24 levels of 3 rows, whose proportions are 0, 1/3, 2/3 and 1: most
    candidate merges of a step tie exactly."""
    successes = np.random.default_rng(24).permutation(np.arange(24) % 4)
    return {f"G{i + 1}": [1.0] * s + [0.0] * (3 - s) for i, s in enumerate(successes.tolist())}


@pytest.mark.parametrize("kind", ["gaussian1d", "binomial"])
def test_adaptive_matches_greedy_oracle(kind, rng):
    inputs = [tie_heavy_binomial()] if kind == "binomial" else []
    for _ in range(8):
        k = int(rng.integers(3, 7))
        if kind == "gaussian1d":
            inputs.append({f"G{i + 1}": list(rng.normal(i * 0.7, 1, 10)) for i in range(k)})
        else:
            inputs.append({
                f"G{i + 1}": list(
                    rng.binomial(1, 0.15 + 0.7 * i / k, 10).astype(float)
                )
                for i in range(k)
            })
    for by in inputs:
        path = merge_factors(*MAKE_DATA[kind](by), "adaptive")
        assert path_merge_sequence(path) == oracle_greedy_path(kind, by)


@pytest.mark.parametrize("kind", ["gaussian1d", "binomial", "gaussianNd"])
def test_fast_adaptive_matches_adjacent_greedy_oracle(kind, rng):
    # in 1-D the best pair is almost always adjacent in the ordering anyway;
    # the MDS ordering of gaussianNd means is where adjacency bites
    inputs = [tie_heavy_binomial()] if kind == "binomial" else []
    for _ in range(8):
        k = int(rng.integers(3, 9))
        if kind == "gaussian1d":
            inputs.append({f"G{i + 1}": list(rng.normal(rng.uniform(0, 3), 1, 10))
                           for i in range(k)})
        elif kind == "gaussianNd":
            inputs.append({f"G{i + 1}": rng.normal(rng.uniform(0, 3, 2), 1.0, (10, 2))
                           for i in range(k)})
        else:
            inputs.append({f"G{i + 1}": list(rng.binomial(1, rng.uniform(0.1, 0.9), 10)
                                              .astype(float)) for i in range(k)})
    for by in inputs:
        path = merge_factors(*MAKE_DATA[kind](by), "fast-adaptive")
        want = oracle_greedy_path(kind, by, order=path.ordering, adjacent=True)
        assert path_merge_sequence(path) == want


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
def test_fast_fixed_matches_adjacent_linkage_replay(k):
    for seed in range(8):
        rng = np.random.default_rng([k, seed])
        by = {f"G{i + 1}": list(rng.normal(rng.uniform(0, 3), 1, 8)) for i in range(k)}
        data, g = make_gaussian_data(by)
        path = merge_factors(data, g, "fast-fixed")
        assert path_merge_sequence(path) == oracle_fast_fixed_path(by, path.ordering)


def test_fast_fixed_keeps_the_farther_inherited_distance():
    # The three far pairs merge first and raise the residual sum of squares,
    # so when (A, B) merges the fresh distance from L to AB falls below the
    # stale d(L, A).  Complete linkage keeps the larger, and (P, Q) goes first.
    means = {"L": 0.0, "A": 1.0, "B": 1.3, "C": 10.0, "D": 10.2, "E": 20.0, "F": 20.2,
             "G": 30.0, "H": 30.2, "P": 40.0, "Q": 40.7}
    by = {lv: [m - 0.05, m + 0.05, m - 0.05, m + 0.05] for lv, m in means.items()}
    data, g = make_gaussian_data(by)
    path = merge_factors(data, g, "fast-fixed")
    assert path_merge_sequence(path) == oracle_fast_fixed_path(by, path.ordering)
    assert path_merge_sequence(path)[3:6] == [("(A)", "(B)"), ("(P)", "(Q)"), ("(L)", "(A)(B)")]


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
    ab, bc = (fit(data, g, full.merge(a, b)).loglik for a, b in ((0, 1), (1, 2)))
    assert 0.0 < bc - ab < NEAR_TIE
    for strategy in STRATEGIES:
        path = merge_factors(data, g, strategy)
        assert path_merge_sequence(path)[0] == ("(A)", "(B)"), strategy


_LABELS = st.lists(
    st.lists(st.sampled_from(["A", "B", "AB", "A1", "a"]), min_size=1, max_size=3)
    .map(lambda members: "".join(f"({m})" for m in members)),
    min_size=2, max_size=7, unique=True,
)
# few distinct scores, spaced around NEAR_TIE, make ties and near-ties; one
# per pair of up to 7 labels
_SCORES = st.lists(st.sampled_from([0.0, -0.5e-9, -1e-9, -2e-9, -1.0]), min_size=21, max_size=21)


@given(labels=_LABELS, scores=_SCORES)
@example(labels=["(A)(B)", "(A)", "(B)"], scores=[0.0] * 21)
# repeated labels: the tie between (0, 2) and (1, 2) goes to the leftmost
@example(labels=["(x)", "(x)", "(y)"], scores=[-1.0] + [0.0] * 20)
def test_select_matches_label_tuple_rule(labels, scores):
    labels = tuple(labels)
    i, j = np.triu_indices(len(labels), k=1)
    scores = np.array(scores[: len(i)])
    tied = np.flatnonzero(scores >= scores.max() - NEAR_TIE)
    want = min(tied, key=lambda t: (labels[i[t]], labels[j[t]]))
    assert _select(scores, labels, i, j) == want


def test_identical_clusters_merge_first(rng):
    by = {
        "A": [0.0, 1.0, 2.0],
        "B": [2.0, 1.0, 0.0],
        "C": list(rng.normal(8, 1, 3)),
        "D": list(rng.normal(-8, 1, 3)),
    }
    data, g = make_gaussian_data(by)
    path = merge_factors(data, g, "adaptive")
    assert path_merge_sequence(path)[0] == ("(A)", "(B)")


# ---------------------------------------------------------------------------
# gaussian1d adaptive on the line of means


_WEIGHTS = st.floats(1e-3, 1e3)
_MEANS = st.floats(-1e3, 1e3)


@given(weights=st.tuples(_WEIGHTS, _WEIGHTS, _WEIGHTS), means=st.tuples(_MEANS, _MEANS, _MEANS))
def test_ward_costs_keep_the_cheapest_merge_adjacent_in_mean_order(weights, means):
    # min(c_ij, c_jl) <= c_il for means mu_i <= mu_j <= mu_l, in exact
    # arithmetic, with the scorer's Ward weight w_i w_j / (w_i + w_j)
    w, m = zip(*sorted(zip(map(Fraction, weights), map(Fraction, means)), key=lambda wm: wm[1]))
    w = np.array(w, dtype=object)

    def cost(x, y):
        return families._ward(w, np.array([x]), np.array([y]))[0] * (m[x] - m[y]) ** 2

    assert min(cost(0, 1), cost(1, 2)) <= cost(0, 2)


def _line_steps(monkeypatch, data, g):
    """Run gaussian1d adaptive, and at each step check the pair chosen, the
    scores it was chosen from to the bit and the pairs within NEAR_TIE of the
    best against all pairs.  Returns per step whether a radius was certified,
    the number of clusters and the number of pairs the pair was chosen from."""
    steps, last, line = [], [], families.FAMILIES["gaussian1d"].line
    choose, score = engine._Likelihood.choose, engine._Clusters.score

    def recorded_line(stats, sums, model):
        value, radius = line(stats, sums, model)

        def recorded_radius(threshold):
            r = radius(threshold)
            steps[-1][0] = r is not None
            return r

        return value, recorded_radius

    def recorded_score(clusters, i, j):
        last[:] = i, j, score(clusters, i, j)
        return last[2]

    def checked(ranking, labels):
        clusters = ranking.clusters
        steps.append([None, clusters.size, 0])
        a, b = choose(ranking, labels)
        i, j, scores = last  # the pairs the pair was chosen from
        all_i, all_j = np.triu_indices(clusters.size, k=1)
        every = score(clusters, all_i, all_j)
        at = {pair: t for t, pair in enumerate(zip(all_i.tolist(), all_j.tolist()))}
        scored = [at[pair] for pair in zip(i.tolist(), j.tolist())]
        assert len(set(scored)) == len(scored)
        assert [s.hex() for s in scores.tolist()] == [every[t].hex() for t in scored]
        assert set(np.array(scored)[scores >= scores.max() - NEAR_TIE].tolist()) == set(
            np.flatnonzero(every >= every.max() - NEAR_TIE).tolist())
        want = _select(every, labels, all_i, all_j)
        assert (a, b) == (all_i[want], all_j[want])
        steps[-1][2] = len(i)
        return a, b

    monkeypatch.setitem(families.FAMILIES, "gaussian1d",
                        dataclasses.replace(families.FAMILIES["gaussian1d"], line=recorded_line))
    monkeypatch.setattr(engine._Clusters, "score", recorded_score)
    monkeypatch.setattr(engine._Likelihood, "choose", checked)
    path = merge_factors(data, g, "adaptive")
    assert len(steps) == g.k - 1
    assert path.evaluation_breakdown == expected_breakdown("adaptive", g.k)
    return steps


def test_line_route_scores_every_pair_where_equal_means_tie_beyond_the_neighbours(monkeypatch):
    # three copies each of four levels' rows: exactly equal means, so the
    # window holds pairs of copies that are not neighbours on the line and
    # every pair is scored; once the copies are merged, only neighbours are
    rng = np.random.default_rng(11)
    rows = [np.round(rng.normal(mean, 0.5, 6), 1).tolist() for mean in (0.0, 1.0, 2.0, 3.0)]
    data, g = make_gaussian_data({f"L{t}": rows[t % 4] for t in range(12)})
    steps = _line_steps(monkeypatch, data, g)
    assert all(certified for certified, _, _ in steps)
    assert steps[0][2] == 66
    assert [scored for _, _, scored in steps[-3:]] == [3, 2, 1]


def test_line_route_scores_every_pair_at_the_variance_floor(monkeypatch):
    # all responses equal: every candidate is clamped at the variance floor
    # and ties; every mean is equal, so every pair is within the radius and
    # every pair is scored
    data, g = make_gaussian_data({f"L{t}": [102.224] * 5 for t in range(8)})
    steps = _line_steps(monkeypatch, data, g)
    assert all(scored == size * (size - 1) // 2 for _, size, scored in steps)
    assert all(step.model.flags == ("degenerate_variance",) for step in merge_factors(
        data, g, "adaptive").steps)


def test_line_route_keeps_clamped_near_ties_of_distinct_means(monkeypatch):
    # constant levels 1e-7 apart beside one at 1: merging two close levels
    # leaves the variance at its floor, so those candidates tie exactly and
    # every pair is scored
    by = {f"L{t}": [t * 1e-7] * 5 for t in range(6)}
    by["far"] = [1.0] * 5
    steps = _line_steps(monkeypatch, *make_gaussian_data(by))
    assert steps[0] == [True, 7, 21]


@pytest.mark.parametrize("weight, certified", [(1e-7, True), (1e-305, False)])
def test_line_route_with_one_tiny_weight_level(weight, certified, monkeypatch):
    # a level of tiny weight far out costs little to merge with anything, so
    # the radius of the first step spans the line; with a weight beyond the
    # range the bound holds in, no radius is certified.  Either way every
    # pair is scored
    rng = np.random.default_rng(3)
    y = rng.normal(np.arange(80) % 8, 1.0)
    y[np.arange(80) % 8 == 7] += 23.0
    w = np.ones(80)
    w[np.arange(80) % 8 == 7] = weight
    data = ResponseData("gaussian1d", y, w)
    g = Grouping(tuple(f"L{t % 8}" for t in range(80)))
    steps = _line_steps(monkeypatch, data, g)
    assert steps[0] == [certified, 8, 28]


def test_line_route_scores_every_pair_where_a_pair_two_apart_is_within_the_radius(monkeypatch):
    # three levels of the same rows 1.3e-5 apart in mean: every merge lowers
    # the loglik by less than NEAR_TIE, so A-C, whose gap is more than half
    # the radius, is tied with the neighbours
    data, g = make_gaussian_data({lv: [t * 1.3e-5 - 1.0, t * 1.3e-5, t * 1.3e-5 + 1.0]
                                  for t, lv in enumerate("ABC")})
    assert _line_steps(monkeypatch, data, g)[0] == [True, 3, 3]


def test_line_route_scores_only_neighbours_without_near_ties(monkeypatch):
    fx = make_fixture("gaussian", 16, 10, 1.0, 0)
    steps = _line_steps(monkeypatch, fx.data, fx.grouping)
    assert steps == [[True, size, size - 1] for size in range(16, 1, -1)]


@pytest.mark.parametrize("k", [6, 16, 64])
def test_adaptive_equals_fast_adaptive_for_gaussian1d(k):
    # the cheapest merge is always adjacent in mean order, and a merge keeps
    # the order, so without near ties both strategies merge the same clusters
    for seed in range(10):
        fx = make_fixture("gaussian", k, 10, 1.0, seed)
        adaptive, fast = ([{frozenset(c.members) for c in step.model.partition.clusters}
                           for step in merge_factors(fx.data, fx.grouping, strategy).steps]
                          for strategy in ("adaptive", "fast-adaptive"))
        assert adaptive == fast, seed


# ---------------------------------------------------------------------------
# evaluation-count contracts


def adaptive_expected(k):
    return sum(j * (j - 1) // 2 for j in range(2, k + 1)) + k


def expected_breakdown(strategy, k):
    return {
        "adaptive": {"candidates": (k + 1) * k * (k - 1) // 6, "path": k},
        "fast-adaptive": {"candidates": k * (k - 1) // 2, "path": k},
        "fixed": {"distances": k * (k - 1) // 2, "path": k},
        "fast-fixed": {"distances": 2 * k - 3, "path": k},
    }[strategy]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 9, 16])
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
    fixtures = [make_fixture(kind, k, 20, 1.0, 0)
                for kind in ("gaussian", "binomial", "gaussianNd", "survival")]
    cases = [(data, g)] + [(f.data, f.grouping) for f in fixtures]
    for data, g in cases:
        for strategy in STRATEGIES:
            path = merge_factors(data, g, strategy)
            assert path.evaluation_breakdown == expected_breakdown(strategy, k), (
                data.kind, strategy)
            assert path.evaluations == sum(path.evaluation_breakdown.values())


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


@pytest.mark.parametrize("kind", ["gaussian", "gaussianNd", "binomial", "survival"])
def test_ordering_statistic_reads_a_full_model_in_any_cluster_order(kind):
    fx = make_fixture(kind, 6, 20, 1.0, 3)
    reversed_full = fit(fx.data, fx.grouping, Partition.singletons(fx.grouping.levels[::-1]))
    assert ordering_statistic(fx.data, fx.grouping, reversed_full) == (
        ordering_statistic(fx.data, fx.grouping))


def test_ordering_statistic_refuses_a_model_not_one_cluster_per_level():
    fx4, fx5 = (make_fixture("gaussian", k, 10, 1.0, 0) for k in (4, 5))
    singletons = Partition.singletons(fx4.grouping.levels)
    coarse = fit(fx4.data, fx4.grouping, singletons.merge(0, 1))
    full4, full5 = (fit(fx.data, fx.grouping, Partition.singletons(fx.grouping.levels))
                    for fx in (fx4, fx5))
    for fx, model in ((fx4, coarse), (fx5, full4), (fx4, full5)):
        with pytest.raises(FactorFuseError, match="not one cluster per level of the grouping"):
            ordering_statistic(fx.data, fx.grouping, model)


def test_ordering_statistic_gaussian_nd_projects_the_k_means(monkeypatch):
    fx = make_fixture("gaussianNd", 8, 25, 1.0, 0)
    project, handed = engine.mds_project_1d, []

    def recording_project(points):
        handed.append(np.shape(points))
        return project(points)

    monkeypatch.setattr(engine, "mds_project_1d", recording_project)
    ordering_statistic(fx.data, fx.grouping)
    assert handed == [(8, 2)]


@pytest.mark.parametrize("seed", range(10))
def test_gaussian_nd_order_ignores_column_scale(seed):
    # the Mahalanobis metric is invariant to rescaling a response; a factor
    # of 1024 is exact in binary, so the whitened means stay bitwise equal
    fx = make_fixture("gaussianNd", 8, 25, 1.0, seed)
    values = fx.data.values.copy()
    values[:, 1] *= 1024.0
    scaled = ResponseData(fx.data.kind, values)
    assert ordering_statistic(scaled, fx.grouping) == ordering_statistic(fx.data, fx.grouping)
    for strategy in ("fast-adaptive", "fast-fixed"):
        assert path_merge_sequence(merge_factors(scaled, fx.grouping, strategy)) == (
            path_merge_sequence(merge_factors(fx.data, fx.grouping, strategy))
        )


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
    # at k=24 merges retire rows in the middle of the distance matrix
    for k in [7] * 5 + [24] * 2:
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
            clusters = prev.model.partition.clusters
            got.append({frozenset(clusters[s].members) for s in step.merged_pair})
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
    small integer responses repeat within a level under different weights,
    then the unweighted cases of :func:`unweighted_repeat_cases`."""
    yield random_gaussian_dataset(rng, 5, 9)
    g = Grouping(tuple(f"G{i % 5}" for i in range(40)))
    w = rng.uniform(0.5, 2.0, 40)
    yield ResponseData("gaussian1d", rng.integers(0, 4, 40).astype(float), w), g
    yield ResponseData("gaussianNd", rng.integers(0, 3, (40, 2)).astype(float), w), g
    yield ResponseData("binomial", rng.integers(0, 2, 40).astype(float), w), g
    yield from unweighted_repeat_cases(rng)


def unweighted_repeat_cases(rng):
    """Unweighted gaussian1d and binomial data whose responses repeat within a
    level, and gaussian1d data whose levels mix 0.0 and -0.0; one level holds
    only -0.0, so its sum is -0.0."""
    g = Grouping(codes=np.arange(40) % 5, levels=[f"G{i}" for i in range(5)])
    yield ResponseData("gaussian1d", rng.integers(0, 4, 40).astype(float)), g
    yield ResponseData("binomial", rng.integers(0, 2, 40).astype(float)), g
    signed = rng.choice([-0.0, 0.0, -0.0, 1.5, -2.0], 40)
    signed[g.codes == 4] = -0.0
    yield ResponseData("gaussian1d", signed), g


def tie_cases(rng):
    """Weighted binomial data whose rows all tie in level and y; gaussianNd
    rows tied in level and y_1 whose further columns differ only in the sign
    of a zero, with weights, without, and tied in every column but the weight;
    fully repeated rows; and 600 runs of rows tied in level and y_1, more than
    8-bit run ids hold."""
    g = Grouping(codes=np.arange(60) % 4, levels=[f"G{i}" for i in range(4)])
    yield ResponseData("binomial", (g.codes % 2).astype(float), rng.uniform(0.5, 2.0, 60)), g
    y = np.column_stack((rng.integers(0, 2, 60), rng.choice([-0.0, 0.0], (60, 2))))
    y[:, 2][rng.random(60) < 0.3] = 1.0
    y[g.codes == 3, 1:] = -0.0
    yield ResponseData("gaussianNd", y, rng.choice([0.5, 2.0], 60)), g
    yield ResponseData("gaussianNd", y), g
    y[:, 1:] = 0.0
    yield ResponseData("gaussianNd", y, rng.uniform(0.5, 2.0, 60)), g
    rows = rng.integers(0, 6, 60)
    values = np.array([[1.5, -0.0], [1.5, 0.0], [-2.0, 3.0], [0.0, 1.0], [-0.0, 1.0], [4.0, 4.0]])
    yield ResponseData("gaussianNd", values[rows], np.array([1.0, 1.0, 2.0, 0.5, 0.5, 1.0])[rows]), g
    yield ResponseData("gaussian1d", values[rows, 0], np.array([1.0, 2.0, 1.0, 3.0, 3.0, 1.0])[rows]), g
    g = Grouping(codes=np.arange(1200) % 3, levels=["A", "B", "C"])
    y = np.column_stack((np.arange(1200) // 6, rng.integers(0, 3, 1200))).astype(float)
    yield ResponseData("gaussianNd", y, rng.choice([0.5, 1.0, 2.0], 1200)), g


def test_sorted_rows_match_the_full_lexsort(rng, monkeypatch):
    # rows are sorted by y_1, then stably by level, then only the runs tied in
    # both by the further keys: each level holds the rows
    # np.lexsort((w, y_d, ..., y_1, codes)) gives, and its sums keep their bits
    for data, g in (*permutation_cases(rng), *tie_cases(rng)):
        for perm in (np.arange(data.n), rng.permutation(data.n)):
            weights = None if data.weights is None else data.weights[perm]
            d = ResponseData(data.kind, data.values[perm], weights)
            w = np.ones(d.n) if weights is None else weights
            gg = Grouping(codes=g.codes[perm], levels=g.levels)
            stats = families.LevelStats(d, gg)
            y, ws, levels = families._sorted_rows(stats)
            order = np.lexsort((w, *d.values.reshape(d.n, -1).T[::-1], gg.codes))
            assert np.array_equal(y, d.values[order]) and np.array_equal(ws, w[order])
            assert [s.stop - s.start for s in levels] == list(gg.counts.values())
            with monkeypatch.context() as m:
                m.setattr(families, "_sorted_rows", lambda _: (d.values[order], w[order], levels))
                want = families.LevelStats(d, gg)
            names = [n for n in ("sw", "swy", "swy2", "swyyt") if hasattr(want, n)]
            assert names and all(getattr(stats, n).tobytes() == getattr(want, n).tobytes()
                                 for n in names), d.kind


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


@pytest.mark.parametrize("kind", ["gaussian", "binomial", "gaussianNd", "survival", "collision"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_kept_sums_equal_cluster_sums(kind, strategy, monkeypatch):
    # path fits read the sums the loop keeps; a fresh cluster_sums of each
    # partition must give the same bits, and so the same fit from the path's
    # scorer as it stood before the merge (a Cox path fit may adopt a
    # candidate fit kept there); a cold fit agrees to rounding
    merge = engine._Clusters.merge
    merges = []

    def checked_merge(clusters, a, b):
        before = copy.copy(clusters.scorer)  # a fit replaces the fields, never writes into them
        step = merge(clusters, a, b)
        partition = step.model.partition
        fresh = families.cluster_sums(clusters.stats, clusters.stats.cluster_rows(partition))
        assert fresh.keys() == clusters.sums.keys()
        for name, want in fresh.items():
            got = clusters.sums[name]
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), name
        refit = before.fit(partition, fresh, (a, b))
        assert (step.model.loglik, step.model.flags) == (refit.loglik, refit.flags)
        cold = families.fit_stats(clusters.stats, partition)
        assert abs(step.model.loglik - cold.loglik) <= 1e-12 * abs(cold.loglik)
        assert step.model.flags == cold.flags
        merges.append(partition)
        return step

    monkeypatch.setattr(engine._Clusters, "merge", checked_merge)
    if kind == "collision":
        data, g = make_gaussian_data(COLLIDING_LABELS)
    else:
        fx = make_fixture(kind, 12, 20, 1.0, 0)
        data, g = fx.data, fx.grouping
    merge_factors(data, g, strategy)
    assert len(merges) == g.k - 1


def _nuisance_bytes(model):
    """A model's nuisance as its keys and the pickled bytes of each value."""
    return {key: pickle.dumps(value) for key, value in (model.nuisance or {}).items()}


# what a model's nuisance holds: facts about the model, no scoring state
MODEL_FACTS = {"gaussian": {"sigma2", "rss"}, "gaussianNd": {"cov"}, "binomial": set(),
               "survival": set()}


@pytest.mark.parametrize("kind", sorted(MODEL_FACTS))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_path_models_are_never_written_once_returned(kind, strategy, monkeypatch):
    # each model is snapshotted as the loop returns it, the full model after
    # _Clusters is built and every other with its step, and reads the same
    # once the path is done: what scoring needs lives in the path's scorer
    init, merge = engine._Clusters.__init__, engine._Clusters.merge
    made, snapshots = [], []

    def recorded_init(clusters, *args):
        init(clusters, *args)
        made.append(clusters)
        snapshots.append((clusters.model, _nuisance_bytes(clusters.model)))

    def recorded_merge(clusters, a, b):
        step = merge(clusters, a, b)
        snapshots.append((step.model, _nuisance_bytes(step.model)))
        return step

    monkeypatch.setattr(engine._Clusters, "__init__", recorded_init)
    monkeypatch.setattr(engine._Clusters, "merge", recorded_merge)
    fx = make_fixture(kind, 8, 10, 1.0, 0)
    path = merge_factors(fx.data, fx.grouping, strategy)
    assert len(snapshots) == len(path.steps) == 8
    for step, (model, nuisance) in zip(path.steps, snapshots):
        assert step.model is model
        assert _nuisance_bytes(model) == nuisance
        assert nuisance.keys() <= MODEL_FACTS[kind]
    if kind == "survival":
        # the scorer holds one information, of the last fit (one cluster),
        # and one set of fits, of the last scoring call (two clusters), which
        # the last fit adopted; fixed scores only the levels, whose fits no
        # fit after the first reads
        (clusters,) = made
        scorer = clusters.scorer
        assert scorer.model is path.steps[-1].model
        assert scorer.information.shape == (0, 0)
        if strategy == "fixed":
            assert scorer.coef is None
        else:
            assert scorer.coef.shape == (1, 1) and scorer.merged == (0, 1)


def _count_rows(monkeypatch):
    """Coefficient rows that Cox evaluations read, appended to the returned list."""
    rows, evaluate = [], families._RiskSets.evaluate

    def counted(self, A):
        rows.append(len(A))
        return evaluate(self, A)

    monkeypatch.setattr(families._RiskSets, "evaluate", counted)
    return rows


def test_warm_path_fits_take_at_most_half_the_evaluations_of_cold_fits(monkeypatch):
    # each path fit starts from the fit it replaces; a cold fit starts at 0
    fx = make_fixture("survival", 16, 20, 1.0, 0)
    rows, merge, warm = _count_rows(monkeypatch), engine._Clusters.merge, []

    def counted_merge(clusters, a, b):
        del rows[:]
        step = merge(clusters, a, b)
        warm.append(sum(rows))
        return step

    monkeypatch.setattr(engine._Clusters, "merge", counted_merge)
    path = merge_factors(fx.data, fx.grouping, "adaptive")
    stats, cold = families.LevelStats(fx.data, fx.grouping), []
    for step in path.steps[1:]:
        del rows[:]
        families.fit_stats(stats, step.model.partition)
        cold.append(sum(rows))
    assert len(warm) == len(cold) == 15
    assert 2 * sum(warm) <= sum(cold)


def test_cox_newton_stops_at_the_optimum_instead_of_halving_rounding_noise(monkeypatch):
    # a converged row's full step, rejected only by rounding noise in the
    # loglik, ends the row where it stands: before that stop this path took
    # 1,263 evaluations, most of them halvings of steps too small to matter
    fx = make_fixture("survival", 64, 20, 1.0, 4)
    rows = _count_rows(monkeypatch)
    merge_factors(fx.data, fx.grouping, "fast-adaptive")
    assert len(rows) <= 1263 // 2


@pytest.mark.parametrize("strategy", ["fast-adaptive", "fast-fixed"])
def test_fast_strategies_refit_the_full_model_from_the_level_order_fit(strategy, monkeypatch):
    # the ordering reads the full model fitted in level order; step 0 refits
    # it in the new order from those coefficients, a Newton step from done
    fx = make_fixture("survival", 16, 20, 1.0, 0)
    rows, fit, fits = _count_rows(monkeypatch), families._CoxScorer.fit, []

    def counted_fit(scorer, partition, sums, merged=None):
        del rows[:]
        model = fit(scorer, partition, sums, merged)
        fits.append((scorer, model, merged, sum(rows)))
        return model

    monkeypatch.setattr(families._CoxScorer, "fit", counted_fit)
    path = merge_factors(fx.data, fx.grouping, strategy)
    (scorer, full, none, cold), (same, step0, unmerged, warm) = fits[:2]
    # one scorer fits both, the second with no merge told
    assert same is scorer and none is None and unmerged is None and step0 is path.full_model
    assert full.partition.labels == Partition.singletons(fx.grouping.levels).labels
    assert path.ordering == ordering_statistic(fx.data, fx.grouping)
    assert warm <= 2 < cold
    position = {c.members[0]: s for s, c in enumerate(full.partition.clusters)}
    alpha = full.estimates["alpha"][[position[lv] for lv in path.ordering]]
    assert np.allclose(step0.estimates["alpha"], alpha - alpha[0], rtol=1e-9, atol=1e-9)
    assert abs(step0.loglik - full.loglik) <= 1e-12 * abs(full.loglik)


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


@pytest.mark.parametrize("seed", range(5))
def test_fast_fixed_completes_on_32_survival_levels(seed):
    fx = make_fixture("survival", 32, 20, 1.0, seed)
    for strategy in ("fast-fixed", "fast-adaptive"):
        lls = [s.model.loglik for s in merge_factors(fx.data, fx.grouping, strategy).steps]
        assert len(lls) == 32
        assert all(b <= a + 1e-9 for a, b in zip(lls, lls[1:]))


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_fast_adaptive_completes_on_40_survival_levels(seed):
    # step halving compares logliks of one candidate from evaluations of
    # different sets of candidates; with risk sums that depend on the batch
    # (a BLAS GEMM), all 40 halvings of some candidate fail on some of them
    fx = make_fixture("survival", 40, 20, 1.0, seed)
    assert len(merge_factors(fx.data, fx.grouping, "fast-adaptive").steps) == 40


@pytest.mark.parametrize("cells", [1, 4096, 20000])
def test_cox_scores_do_not_depend_on_the_cell_budget(cells, monkeypatch):
    # every candidate in one evaluation on the product table, against one
    # row per evaluation (cells=1), the per-row route in blocks of 2 rows
    # (4096) and the table in blocks of 78 rows (20000), which splits the 120
    # candidates of 16 clusters.  At 10 rows per level there are 125 event
    # times, fewer than c^2: only then can the table fit the budget while a
    # block holds fewer rows than there are candidates.
    fx = make_fixture("survival", 16, 10, 1.0, 0)
    stats = families.LevelStats(fx.data, fx.grouping)
    part = Partition.singletons(fx.grouping.levels)
    evaluate, seen = families._RiskSets.evaluate, []

    def recorded(self, A):
        seen.append((self.table is not None, len(A)))
        return evaluate(self, A)

    def taken(fitted, i, j):
        # (routes taken, most rows in one evaluation) of a scoring call
        scorer, sums = fitted
        seen.clear()
        return scorer.score(sums, i, j), ({table for table, _ in seen}, max(m for _, m in seen))

    monkeypatch.setattr(families._RiskSets, "evaluate", recorded)
    for merges in ((), (0, 3, 7)):
        for a in merges:
            part = part.merge(a, a + 1)
        i, j = np.triu_indices(part.size, k=1)
        whole, route = taken(fitted_scorer(stats, part), i, j)
        assert route == ({True}, len(i))
        with monkeypatch.context() as m:
            m.setattr(families, "COX_CELLS", cells)
            blocked, route = taken(fitted_scorer(stats, part), i, j)
        assert route == {1: ({False}, 1), 4096: ({False}, 2), 20000: ({True}, 78)}[cells]
        assert np.allclose(blocked, whole, rtol=1e-12, atol=0.0)
        labels = part.labels
        assert _select(blocked, labels, i, j) == _select(whole, labels, i, j)


def test_cox_scoring_memory_is_bounded(monkeypatch):
    # 63 candidates of 64 clusters at 682 event times: the table of risk-set
    # products would take 11 MiB, so each row's Hessian is formed on its own,
    # in blocks whose (rows, 64, 682) products stay within COX_CELLS (4 MiB)
    fx = make_fixture("survival", 64, 20, 1.0, 4)
    tracemalloc.start()
    try:
        path = merge_factors(fx.data, fx.grouping, "fast-fixed")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(path.steps) == 64
    # a scoring call keeps its m candidates' fits only if their m (c - 1)
    # coefficients fit COX_CELLS
    fx = make_fixture("survival", 8, 20, 1.0, 4)
    stats = families.LevelStats(fx.data, fx.grouping)
    part = Partition.singletons(fx.grouping.levels)
    i, j = np.triu_indices(part.size, k=1)
    for cells, kept in ((len(i) * (part.size - 1) - 1, False), (len(i) * (part.size - 1), True)):
        scorer, sums = fitted_scorer(stats, part)
        with monkeypatch.context() as m:
            m.setattr(families, "COX_CELLS", cells)
            scorer.score(sums, i, j)
        assert (scorer.coef is not None) == kept
    assert scorer.coef.shape == (len(i), part.size - 1)


def test_survival_level_stats_memory_is_bounded():
    # 79,949 event times: the rows at risk R is the one table of 32 levels by
    # event times kept, and building it takes about one table more
    fx = make_fixture("survival", 32, 3125, 1.0, 0)
    tracemalloc.start()
    try:
        stats = families.LevelStats(fx.data, fx.grouping)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * stats.R.nbytes


def assert_logliks_close(path, other):
    # path logliks within 1e-12 relative, as Cox fits are compared
    got = np.array([s.model.loglik for s in path.steps])
    want = np.array([s.model.loglik for s in other.steps])
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def _newton_sizes(monkeypatch):
    """Clusters of each Cox fit run by Newton without a tie (a path or full
    model fit, not a candidate), appended to the returned list."""
    sizes, newton = [], families._cox_fit_rows

    def recorded(sets, start, tie=None):
        if tie is None:
            sizes.append(start.shape[1])
        return newton(sets, start, tie)

    monkeypatch.setattr(families, "_cox_fit_rows", recorded)
    return sizes


@pytest.mark.parametrize("strategy", ["adaptive", "fast-adaptive"])
def test_cox_path_fits_adopt_the_chosen_candidate_fit(strategy, monkeypatch):
    # scoring fits every candidate to convergence; the path fit of the chosen
    # merge is that fit, bit for bit, and only the full model runs Newton
    # (fast-adaptive fits it in level order, then in the new order)
    fx = make_fixture("survival", 16, 20, 1.0, 0)
    score, scored = families._CoxScorer.score, []

    def recorded(scorer, sums, i, j):
        scored.append((i, j, score(scorer, sums, i, j)))
        return scored[-1][2]

    sizes = _newton_sizes(monkeypatch)
    monkeypatch.setattr(families._CoxScorer, "score", recorded)
    path = merge_factors(fx.data, fx.grouping, strategy)
    assert sizes == [16] * (1 + strategy.startswith("fast-"))
    assert len(scored) == len(path.steps) - 1 == 15
    for (i, j, scores), step in zip(scored, path.steps[1:]):
        chosen = np.flatnonzero((i == step.merged_pair[0]) & (j == step.merged_pair[1]))
        assert step.model.loglik.hex() == scores[chosen[0]].hex()


def test_cox_fits_adopt_only_a_scored_merge_of_their_parent(monkeypatch):
    # a fit adopts a candidate's fit only for the pair of the scored fit's
    # clusters it is told was merged; without a merge told, or with fits one
    # merge behind, it runs Newton
    fx = make_fixture("survival", 8, 20, 1.0, 4)
    stats = families.LevelStats(fx.data, fx.grouping)
    part = Partition.singletons(fx.grouping.levels)
    scored, sums = fitted_scorer(stats, part)
    i, j = np.triu_indices(part.size, k=1)
    scores = scored.score(sums, i, j)
    sizes = _newton_sizes(monkeypatch)
    told = copy.copy(scored)
    first = part.merge(2, 5)
    told.fit(first, families.cluster_sums(stats, stats.cluster_rows(first)), (2, 5))
    reordered = Partition(first.clusters[::-1])
    for scorer, partition, merged, newton in (
            (scored, first, (2, 5), []), (scored, part.merge(0, 1), (0, 1), []),
            (scored, first, None, [7]), (scored, reordered, None, [7]),
            (told, first.merge(0, 1), (0, 1), [6])):
        del sizes[:]
        sums = families.cluster_sums(stats, stats.cluster_rows(partition))
        got = copy.copy(scorer).fit(partition, sums, merged)
        assert sizes == newton
        if not newton:
            assert got.loglik.hex() == scores[(i == merged[0]) & (j == merged[1])][0].hex()
        cold = families.fit_stats(stats, partition)
        assert abs(got.loglik - cold.loglik) <= 1e-12 * abs(cold.loglik)


def test_cox_path_fits_run_newton_without_the_candidate_hessians(monkeypatch):
    # the m candidates' Hessians are kept only if their m (c - 2)^2 entries
    # fit COX_CELLS; without them the path fit runs Newton, on the same path
    fx = make_fixture("survival", 16, 20, 1.0, 0)
    adopted = merge_factors(fx.data, fx.grouping, "adaptive")
    # 120 candidates of 16 clusters: only the first path fit runs Newton;
    # at 2 cells every path fit does but the last, whose merged partition
    # has no free coefficient
    for cells, newton in ((120 * 14**2 - 1, [16, 15]), (2, list(range(16, 1, -1)))):
        with monkeypatch.context() as m:
            sizes = _newton_sizes(m)
            m.setattr(families, "COX_CELLS", cells)
            path = merge_factors(fx.data, fx.grouping, "adaptive")
        assert sizes == newton
        assert path_merge_sequence(path) == path_merge_sequence(adopted)
        assert path.evaluation_breakdown == adopted.evaluation_breakdown
        assert_logliks_close(path, adopted)


@pytest.mark.parametrize("k", [10, 16])
def test_warm_started_cox_scores_keep_survival_paths(k, monkeypatch):
    for seed in range(10):
        fx = make_fixture("survival", k, 20, 1.0, seed)
        for strategy in STRATEGIES:
            with monkeypatch.context() as m:
                m.setattr(families._CoxScorer, "score",
                          lambda scorer, sums, i, j: reference_cox_scores(scorer.stats, sums, i, j))
                cold = merge_factors(fx.data, fx.grouping, strategy)
            warm = merge_factors(fx.data, fx.grouping, strategy)
            assert path_merge_sequence(warm) == path_merge_sequence(cold)
            # a warm path fit may adopt its candidate's fit, with its rounding
            assert_logliks_close(warm, cold)
            assert warm.evaluation_breakdown == cold.evaluation_breakdown


def test_carried_cox_fits_keep_survival_paths_and_cut_newton_rows(monkeypatch):
    # a candidate whose two clusters are both unchanged since the step before
    # starts from its fit there; without that carry (the fits one merge behind
    # dropped after each fit) the path is the same, on more Newton rows
    fx = make_fixture("survival", 16, 20, 1.0, 0)
    fit, score = families._CoxScorer.fit, families._CoxScorer.score
    evaluate = families._RiskSets.evaluate

    def uncarried(scorer, *args):
        model = fit(scorer, *args)
        scorer.coef = scorer.merged = None
        return model

    def run(fitted):
        rows, scores = [], []

        def counted(self, A):
            rows.append(len(A))
            return evaluate(self, A)

        def recorded(*args):
            scores.append(score(*args))
            return scores[-1]

        with monkeypatch.context() as m:
            m.setattr(families._RiskSets, "evaluate", counted)
            m.setattr(families._CoxScorer, "fit", fitted)
            m.setattr(families._CoxScorer, "score", recorded)
            path = merge_factors(fx.data, fx.grouping, "adaptive")
        return path, scores, sum(rows)

    carried, scores, rows = run(fit)
    plain, plain_scores, plain_rows = run(uncarried)
    assert [s.merged_pair for s in carried.steps] == [s.merged_pair for s in plain.steps]
    # path fits adopt their candidates' fits, whose rounding depends on the start
    assert_logliks_close(carried, plain)
    assert len(scores) == len(plain_scores) == 15
    for got, want in zip(scores, plain_scores):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert rows <= 0.8 * plain_rows


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
    first = path_merge_sequence(merge_factors(data, g, "adaptive"))[0]
    assert set(first) in ({"(A)", "(B)"}, {"(C)", "(D)"})
