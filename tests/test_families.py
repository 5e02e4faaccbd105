"""Family fits: closed-form cases, invariants, and error paths."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorfuse import fit, group_summary, kaplan_meier
from factorfuse.data import Grouping, Partition, ResponseData
from factorfuse.families import LevelStats, cluster_sums, fit_stats, score_pairs
from factorfuse.errors import (
    DegeneratePoints,
    EmptyCluster,
    NoEvents,
    WeightsNotSupported,
)
from factorfuse.mds import mds_project_1d

from conftest import (
    make_binomial_data,
    make_gaussian_data,
    make_survival_data,
    oracle_binomial_loglik,
    oracle_cox_alpha,
    oracle_cox_partial_loglik,
    oracle_gaussian_loglik,
    singletons_of,
)


# ---------------------------------------------------------------------------
# gaussian 1d


class TestGaussian1d:
    def test_single_cluster_closed_form(self):
        data, g = make_gaussian_data({"a": [1, 1, 2, 2]})
        m = fit(data, g, singletons_of(g))
        assert m.estimates["(a)"]["mean"] == pytest.approx(1.5)
        # frozen from an independent closed-form evaluation
        assert m.loglik == pytest.approx(-2.903165410579, abs=1e-9)

    def test_two_cluster_frozen_value(self):
        data, g = make_gaussian_data({"a": [1, 2, 3], "b": [4, 5, 6]})
        m = fit(data, g, singletons_of(g))
        assert m.loglik == pytest.approx(-7.297235874904, abs=1e-9)

    def test_unit_variance_pair(self):
        data, g = make_gaussian_data({"a": [-1.0, 1.0]})
        m = fit(data, g, singletons_of(g))
        assert m.loglik == pytest.approx(-(math.log(2 * math.pi) + 1), abs=1e-12)

    def test_zero_residual_variance_floor(self):
        data, g = make_gaussian_data({"a": [0.0, 0.0], "b": [10.0, 10.0]})
        m = fit(data, g, singletons_of(g))
        assert math.isfinite(m.loglik)
        assert "degenerate_variance" in m.flags

    def test_matches_oracle_on_random_data(self, rng):
        for _ in range(10):
            by = {f"G{i}": list(rng.normal(i, 1, 7)) for i in range(4)}
            data, g = make_gaussian_data(by)
            m = fit(data, g, singletons_of(g))
            want = oracle_gaussian_loglik([np.array(by[f"G{i}"]) for i in range(4)])
            assert m.loglik == pytest.approx(want, abs=1e-9)

    def test_weighted_equals_replicated(self, rng):
        vals = rng.normal(0, 1, 6)
        w = np.array([1.0, 2, 3, 1, 2, 1])
        labels = ("a", "a", "a", "b", "b", "b")
        dw = ResponseData("gaussian1d", vals, weights=w)
        gw = Grouping(labels)
        rep_vals = np.repeat(vals, w.astype(int))
        rep_labels = tuple(np.repeat(labels, w.astype(int)))
        dr = ResponseData("gaussian1d", rep_vals)
        gr = Grouping(rep_labels)
        mw = fit(dw, gw, singletons_of(gw))
        mr = fit(dr, gr, singletons_of(gr))
        assert mw.loglik == pytest.approx(mr.loglik, abs=1e-10)
        for lab in ("(a)", "(b)"):
            assert mw.estimates[lab]["mean"] == pytest.approx(
                mr.estimates[lab]["mean"], abs=1e-10
            )

    @given(
        shift=st.floats(-50, 50),
        scale=st.floats(0.01, 30),
    )
    @settings(max_examples=25, deadline=None)
    def test_affine_loglik_difference_invariant(self, shift, scale):
        data, g = make_gaussian_data({"a": [0.0, 1.0, 2.5], "b": [4.0, 5.5, 6.0]})
        fine = singletons_of(g)
        coarse = fine.merge("(a)", "(b)")
        d1 = fit(data, g, fine).loglik - fit(data, g, coarse).loglik
        data2 = ResponseData("gaussian1d", scale * data.values + shift)
        d2 = fit(data2, g, fine).loglik - fit(data2, g, coarse).loglik
        assert d1 == pytest.approx(d2, abs=1e-7)

    def test_empty_cluster_rejected(self):
        data, g = make_gaussian_data({"a": [1.0, 2.0]})
        part = Partition.singletons(("a", "b"))
        with pytest.raises(EmptyCluster):
            fit(data, g, part)


# ---------------------------------------------------------------------------
# gaussian nd


class TestGaussianNd:
    def test_eight_point_frozen_value(self):
        pts = np.array(
            [[0.0, 0], [1, 0], [0, 1], [1, 1], [3, 2], [4, 2], [3, 3], [4, 3]]
        )
        data = ResponseData("gaussianNd", pts)
        g = Grouping(("a",) * 4 + ("b",) * 4)
        m = fit(data, g, singletons_of(g))
        # frozen from an independent dense-matrix Gaussian density sum
        assert m.loglik == pytest.approx(-11.612661642316, abs=1e-9)

    def test_identical_clouds_merge_freely(self):
        cloud = np.array([[0.0, 0], [1, 0], [0, 1], [1, 2]])
        data = ResponseData("gaussianNd", np.concatenate([cloud, cloud]))
        g = Grouping(("a",) * 4 + ("b",) * 4)
        fine = singletons_of(g)
        coarse = fine.merge("(a)", "(b)")
        assert fit(data, g, fine).loglik == pytest.approx(
            fit(data, g, coarse).loglik, abs=1e-9
        )

    def test_collinear_data_takes_ridge_path(self):
        pts = np.array([[float(i), 2.0 * i] for i in range(8)])
        data = ResponseData("gaussianNd", pts)
        g = Grouping(("a",) * 4 + ("b",) * 4)
        m = fit(data, g, singletons_of(g))
        assert "ridged_covariance" in m.flags
        assert math.isfinite(m.loglik)

    def test_identical_points_flagged(self):
        pts = np.ones((6, 2))
        data = ResponseData("gaussianNd", pts)
        g = Grouping(("a",) * 3 + ("b",) * 3)
        m = fit(data, g, singletons_of(g))
        assert "ridged_covariance" in m.flags


# ---------------------------------------------------------------------------
# binomial


class TestBinomial:
    def test_symmetric_half(self):
        data, g = make_binomial_data({"a": [1, 1, 0, 0]})
        m = fit(data, g, singletons_of(g))
        assert m.loglik == pytest.approx(4 * math.log(0.5), abs=1e-12)
        assert m.estimates["(a)"]["p"] == pytest.approx(0.5)

    def test_degenerate_proportion_finite(self):
        data, g = make_binomial_data({"a": [1, 1, 1]})
        m = fit(data, g, singletons_of(g))
        assert m.loglik == pytest.approx(0.0, abs=1e-12)
        assert m.estimates["(a)"]["logit"] == math.inf

    def test_two_cluster_frozen_value(self):
        data, g = make_binomial_data({"a": [1, 0, 0], "b": [1, 1, 0]})
        m = fit(data, g, singletons_of(g))
        # frozen from independent Bernoulli density enumeration
        assert m.loglik == pytest.approx(-3.819085009769, abs=1e-9)

    @given(n=st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_half_proportion_identity(self, n):
        data, g = make_binomial_data({"a": [1] * n + [0] * n})
        m = fit(data, g, singletons_of(g))
        assert m.loglik == pytest.approx(2 * n * math.log(0.5), abs=1e-10)

    def test_weighted_equals_replicated(self, rng):
        vals = np.array([1.0, 0, 1, 0, 1, 1])
        w = np.array([2.0, 1, 3, 2, 1, 2])
        labels = ("a", "a", "b", "b", "b", "b")
        dw = ResponseData("binomial", vals, weights=w)
        mw = fit(dw, Grouping(labels), Partition.singletons(("a", "b")))
        dr = ResponseData("binomial", np.repeat(vals, w.astype(int)))
        gr = Grouping(tuple(np.repeat(labels, w.astype(int))))
        mr = fit(dr, gr, Partition.singletons(("a", "b")))
        assert mw.loglik == pytest.approx(mr.loglik, abs=1e-10)

    def test_matches_oracle(self, rng):
        for _ in range(10):
            by = {f"G{i}": list(rng.binomial(1, 0.3 + 0.1 * i, 9).astype(float)) for i in range(4)}
            data, g = make_binomial_data(by)
            m = fit(data, g, singletons_of(g))
            want = oracle_binomial_loglik([np.array(by[f"G{i}"]) for i in range(4)])
            assert m.loglik == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# survival / Cox


COX_ROWS = {
    "a": [(1.0, 1), (3.0, 1), (5.0, 1)],
    "b": [(2.0, 1), (4.0, 1), (6.0, 0)],
}


class TestCox:
    def test_newton_matches_golden_section(self):
        data, g = make_survival_data(COX_ROWS)
        m = fit(data, g, singletons_of(g))
        times = data.values[:, 0]
        events = data.values[:, 1]
        grp01 = np.array([0, 0, 0, 1, 1, 1])
        want = oracle_cox_alpha(times, events, grp01)
        assert m.estimates["(b)"]["alpha"] == pytest.approx(want, abs=1e-5)
        # frozen loglik from the same independent maximization
        assert m.loglik == pytest.approx(-6.338172707031, abs=1e-6)

    def test_null_model_closed_form(self):
        data, g = make_survival_data(COX_ROWS)
        one = singletons_of(g).merge("(a)", "(b)")
        m = fit(data, g, one)
        times, events = data.values[:, 0], data.values[:, 1]
        want = sum(
            -math.log(float((times >= t).sum()))
            for t, e in zip(times, events)
            if e
        )
        assert m.loglik == pytest.approx(want, abs=1e-10)
        assert m.loglik == pytest.approx(
            oracle_cox_partial_loglik(times, events, [0] * 6, 0.0), abs=1e-10
        )

    def test_symmetric_clusters_give_zero_alpha(self):
        rows = [(1.0, 1), (2.0, 0), (3.0, 1)]
        data, g = make_survival_data({"a": rows, "b": rows})
        m = fit(data, g, singletons_of(g))
        assert m.estimates["(b)"]["alpha"] == pytest.approx(0.0, abs=1e-8)

    def test_reference_cluster_is_first(self):
        data, g = make_survival_data(COX_ROWS)
        m = fit(data, g, singletons_of(g))
        assert m.estimates["(a)"]["alpha"] == 0.0
        assert m.estimates["(a)"]["reference"] is True

    def test_no_events_raises(self):
        data, g = make_survival_data({"a": [(1.0, 0)], "b": [(2.0, 0)]})
        with pytest.raises(NoEvents):
            fit(data, g, singletons_of(g))

    def test_weights_rejected(self):
        vals = np.array([[1.0, 1], [2.0, 1]])
        data = ResponseData("survival", vals, weights=np.array([1.0, 2.0]))
        g = Grouping(("a", "b"))
        with pytest.raises(WeightsNotSupported):
            fit(data, g, singletons_of(g))

    def test_tied_times_breslow(self):
        rows = {"a": [(1.0, 1), (1.0, 1), (2.0, 1)], "b": [(1.0, 1), (3.0, 0)]}
        data, g = make_survival_data(rows)
        m = fit(data, g, singletons_of(g))
        times = data.values[:, 0]
        events = data.values[:, 1]
        grp01 = np.array([0, 0, 0, 1, 1])
        want = oracle_cox_alpha(times, events, grp01)
        assert m.estimates["(b)"]["alpha"] == pytest.approx(want, abs=1e-5)


# ---------------------------------------------------------------------------
# summaries and Kaplan-Meier


class TestSummaries:
    def test_gaussian_mean(self):
        data, g = make_gaussian_data({"a": [2.0, 4.0]})
        m = fit(data, g, singletons_of(g))
        assert group_summary(m)["(a)"] == pytest.approx(3.0)

    def test_binomial_proportion(self):
        data, g = make_binomial_data({"a": [1, 1, 0, 1]})
        m = fit(data, g, singletons_of(g))
        assert group_summary(m)["(a)"] == pytest.approx(0.75)

    def test_survival_reference_hazard_ratio(self):
        data, g = make_survival_data(COX_ROWS)
        m = fit(data, g, singletons_of(g))
        assert group_summary(m)["(a)"] == pytest.approx(1.0)


class TestKaplanMeier:
    def test_all_censored_flat(self):
        t, s = kaplan_meier(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        assert len(t) == 0 and len(s) == 0

    def test_textbook_two_events(self):
        t, s = kaplan_meier(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert list(t) == [1.0, 2.0]
        assert list(s) == pytest.approx([0.5, 0.0])

    def test_mixed_five_subject_frozen(self):
        t, s = kaplan_meier(
            np.array([1.0, 2, 2, 3, 4]), np.array([1.0, 0, 1, 1, 0])
        )
        assert list(t) == [1.0, 2.0, 3.0]
        # frozen from a hand product-limit computation
        assert list(s) == pytest.approx([0.8, 0.6, 0.3])


# ---------------------------------------------------------------------------
# nesting monotonicity across all families


@pytest.mark.parametrize("kind", ["gaussian1d", "binomial"])
def test_nesting_monotonicity(kind, rng):
    for _ in range(5):
        if kind == "gaussian1d":
            by = {f"G{i}": list(rng.normal(i * 0.5, 1, 8)) for i in range(4)}
            data, g = make_gaussian_data(by)
        else:
            by = {
                f"G{i}": list(rng.binomial(1, 0.2 + 0.2 * i, 8).astype(float))
                for i in range(4)
            }
            data, g = make_binomial_data(by)
        fine = singletons_of(g)
        labels = fine.labels
        coarse = fine.merge(labels[0], labels[1])
        assert fit(data, g, fine).loglik >= fit(data, g, coarse).loglik - 1e-9


def test_equal_sufficient_stats_merge_is_free():
    data, g = make_gaussian_data({"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]})
    fine = singletons_of(g)
    coarse = fine.merge("(a)", "(b)")
    assert fit(data, g, fine).loglik == pytest.approx(
        fit(data, g, coarse).loglik, abs=1e-9
    )


# ---------------------------------------------------------------------------
# MDS projection


class TestMds:
    def test_collinear_preserves_order(self):
        pts = np.array([[0.0, 0], [1, 1], [2, 2]])
        proj = mds_project_1d(pts)
        order = np.argsort(proj)
        assert list(order) in ([0, 1, 2], [2, 1, 0])

    def test_square_corners_finite(self):
        pts = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
        proj = mds_project_1d(pts)
        assert proj.shape == (4,)
        assert np.all(np.isfinite(proj))

    def test_coincident_points_raise(self):
        pts = np.zeros((3, 2))
        with pytest.raises(DegeneratePoints):
            mds_project_1d(pts)

    def test_five_point_order_is_stress_minimal(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(0, 1, (5, 3))
        proj = mds_project_1d(pts)
        got_order = tuple(np.argsort(proj))
        # brute force: best monotone 1-D embedding order by stress-1
        from itertools import permutations

        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))

        def stress_of(order):
            pos = np.empty(5)
            pos[list(order)] = np.arange(5, dtype=float)
            dd = np.abs(pos[:, None] - pos[None, :])
            num = ((dd - d) ** 2).sum()
            den = (d**2).sum()
            return num / den

        best = min(permutations(range(5)), key=stress_of)
        assert got_order in (best, tuple(reversed(best)))

    def test_deterministic(self):
        pts = np.random.default_rng(3).normal(0, 1, (6, 2))
        a = mds_project_1d(pts)
        b = mds_project_1d(pts.copy())
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# pair scorer: every candidate merge scored from cluster sums equals its fit


def assert_scores_match_fits(data, g, merges=()):
    """Score every pair of a partition of ``g`` and compare with the fits.

    ``merges`` coarsens the singleton partition first, each entry merging the
    cluster at that position (modulo the size) with its right neighbour.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = LevelStats(data, g)
        part = singletons_of(g)
        for x in merges:
            if part.size <= 2:
                break
            a = x % (part.size - 1)
            part = part.merge(part.labels[a], part.labels[a + 1])
        i, j = np.triu_indices(part.size, k=1)
        got = score_pairs(stats, cluster_sums(stats, part), part, i, j)
        fits = [fit_stats(stats, part.merge(part.labels[a], part.labels[b])) for a, b in zip(i, j)]
    for score, m in zip(got, fits):
        assert abs(score - m.loglik) <= 1e-9 + 1e-12 * abs(m.loglik)
    return fits


def _labelled(sizes):
    return tuple(f"L{t}" for t, size in enumerate(sizes) for _ in range(size))


# The fits compute a cluster's scatter as swyy - swy^2/sw, whose rounding error
# grows with the ratio of sum(w y^2) to the scatter; the scorer adds the exact
# Ward term instead.  Small integer responses keep that ratio bounded, so the
# comparison measures the scorer rather than the fit's cancellation error.
INTS = st.integers(-5, 5).map(float)
SIZES = st.lists(st.integers(1, 5), min_size=2, max_size=6)
MERGES = st.lists(st.integers(0, 10), max_size=3)


def _weights(draw, n):
    return draw(st.one_of(st.none(), st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))


@st.composite
def gaussian_levels(draw):
    sizes = draw(SIZES)
    n = sum(sizes)
    y = draw(st.lists(INTS, min_size=n, max_size=n))
    w = _weights(draw, n)
    return ResponseData("gaussian1d", np.array(y), weights=w), Grouping(_labelled(sizes))


@st.composite
def collinear_levels(draw):
    # equal power-of-two level sizes keep every cluster sum and mean exact,
    # so both computations pass the same matrix to the ridge
    d = draw(st.integers(2, 3))
    k = draw(st.integers(2, 5))
    size = draw(st.sampled_from([1, 2, 4]))
    x = np.array(draw(st.lists(INTS, min_size=k * size * (d - 1), max_size=k * size * (d - 1))))
    x = x.reshape(k * size, d - 1)
    y = np.column_stack([x, 2.0 * x.sum(axis=1)])  # last column is a linear combination
    return ResponseData("gaussianNd", y), Grouping(_labelled([size] * k))


@st.composite
def binomial_levels(draw):
    # every level is all 0, all 1 or mixed
    kinds = draw(st.lists(st.sampled_from(["zeros", "ones", "mixed"]), min_size=2, max_size=6))
    sizes = draw(st.lists(st.integers(1, 5), min_size=len(kinds), max_size=len(kinds)))
    y = []
    for kind, size in zip(kinds, sizes):
        if kind == "mixed":
            y += draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=size, max_size=size))
        else:
            y += [float(kind == "ones")] * size
    w = _weights(draw, len(y))
    return ResponseData("binomial", np.array(y), weights=w), Grouping(_labelled(sizes))


class TestPairScorer:
    @given(case=gaussian_levels(), merges=MERGES)
    @settings(max_examples=100, deadline=None)
    def test_gaussian_1d(self, case, merges):
        assert_scores_match_fits(*case, merges)

    @given(value=st.floats(-10, 10), sizes=SIZES)
    @settings(max_examples=30, deadline=None)
    def test_constant_data_takes_variance_floor(self, value, sizes):
        g = Grouping(_labelled(sizes))
        data = ResponseData("gaussian1d", np.full(g.n, value))
        for m in assert_scores_match_fits(data, g):
            assert "degenerate_variance" in m.flags

    def test_variance_floor_stays_positive_for_subnormal_range(self):
        # 1e-12 * range**2 underflows to 0 here; the floor must still clamp
        data, g = make_gaussian_data({"a": [0.0], "b": [1.1e-308]})
        for m in assert_scores_match_fits(data, g):
            assert math.isfinite(m.loglik)
            assert "degenerate_variance" in m.flags

    @given(case=collinear_levels())
    @settings(max_examples=40, deadline=None)
    def test_collinear_gaussian_nd_is_ridged(self, case):
        for m in assert_scores_match_fits(*case):
            assert "ridged_covariance" in m.flags

    @given(case=binomial_levels(), merges=MERGES)
    @settings(max_examples=100, deadline=None)
    def test_binomial(self, case, merges):
        assert_scores_match_fits(*case, merges)

    def test_gaussian_nd(self, rng):
        for d in (2, 3):
            sizes = rng.integers(3, 8, 5)
            y = rng.normal(0, 1, (sizes.sum(), d)) + np.repeat(rng.uniform(0, 3, (5, d)), sizes, axis=0)
            data, g = ResponseData("gaussianNd", y), Grouping(_labelled(sizes))
            for merges in ((), (0, 1)):
                for m in assert_scores_match_fits(data, g, merges):
                    assert m.flags == ()

    def test_survival_scores_are_fits(self, rng):
        rows = {
            f"G{i}": [(float(t), int(e)) for t, e in zip(rng.exponential(1 + i, 6), rng.uniform(size=6) > 0.2)]
            for i in range(4)
        }
        assert_scores_match_fits(*make_survival_data(rows), merges=(1,))
