"""Family fits: closed-form cases, invariants, and error paths."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorfuse import families, fit, group_summary, kaplan_meier
from factorfuse.data import Cluster, Grouping, Partition, ResponseData
from factorfuse.engine import merge_factors
from factorfuse.families import (
    LevelStats,
    _RiskSets,
    _tie,
    cluster_sums,
    fit_stats,
)
from factorfuse.errors import (
    DegenerateData,
    DegeneratePoints,
    EmptyCluster,
    FactorFuseError,
    MonotoneLikelihood,
    NoEvents,
    RepeatedLabel,
    WeightsNotSupported,
)
from factorfuse.fixtures import make_fixture
from factorfuse.mds import mds_project_1d

import conftest
from conftest import (
    COLLIDING_LABELS,
    make_binomial_data,
    make_gaussian_data,
    make_survival_data,
    merge_sums,
    oracle_binomial_loglik,
    oracle_cox_alpha,
    oracle_cox_fit,
    oracle_cox_partial_loglik,
    oracle_gaussian_loglik,
    reference_cox_arrays,
    reference_cox_loglik_grad_hess,
    reference_cox_scores,
    reference_kaplan_meier,
    reference_level_stats,
    reference_risk_tables,
    singletons_of,
)


# ---------------------------------------------------------------------------
# gaussian 1d


class TestGaussian1d:
    def test_single_cluster_closed_form(self):
        data, g = make_gaussian_data({"a": [1, 1, 2, 2]})
        m = fit(data, g, singletons_of(g))
        assert m.estimates["mean"][0] == pytest.approx(1.5)
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
        for s in (0, 1):
            assert mw.estimates["mean"][s] == pytest.approx(
                mr.estimates["mean"][s], abs=1e-10
            )

    @given(
        shift=st.floats(-50, 50),
        scale=st.floats(0.01, 30),
    )
    @settings(max_examples=25, deadline=None)
    def test_affine_loglik_difference_invariant(self, shift, scale):
        data, g = make_gaussian_data({"a": [0.0, 1.0, 2.5], "b": [4.0, 5.5, 6.0]})
        fine = singletons_of(g)
        coarse = fine.merge(0, 1)
        d1 = fit(data, g, fine).loglik - fit(data, g, coarse).loglik
        data2 = ResponseData("gaussian1d", scale * data.values + shift)
        d2 = fit(data2, g, fine).loglik - fit(data2, g, coarse).loglik
        assert d1 == pytest.approx(d2, abs=1e-7)

    def test_empty_cluster_rejected(self):
        data, g = make_gaussian_data({"a": [1.0, 2.0]})
        part = Partition.singletons(("a", "b"))
        with pytest.raises(EmptyCluster):
            fit(data, g, part)

    @pytest.mark.parametrize("clusters", [(("a", "b"), ("b", "c")), (("a", "b", "c"), ("b",))])
    def test_overlapping_clusters_rejected(self, clusters):
        # a level in two clusters would count its rows twice
        data, g = make_gaussian_data({"a": [1.0, 2.0], "b": [3.0, 5.0], "c": [4.0, 7.0]})
        part = Partition(tuple(Cluster(c) for c in clusters))
        with pytest.raises(DegenerateData, match=r"^level 'b' is in more than one cluster$"):
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
        coarse = fine.merge(0, 1)
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

    @pytest.mark.parametrize("scale", [1e-6, 1e-5, 1e-3, 1e3])
    def test_small_covariance_is_not_ridged(self, scale):
        # singularity is relative to the covariance's own size: responses
        # scaled by s keep their fit unridged, and the loglik loses n d log s
        fx = make_fixture("gaussianNd", 8, 10, 1.0, 0)
        part = singletons_of(fx.grouping)
        base = fit(fx.data, fx.grouping, part)
        m = fit(ResponseData("gaussianNd", fx.data.values * scale), fx.grouping, part)
        n, d = fx.data.values.shape
        assert base.flags == () and m.flags == ()
        assert abs(m.loglik - (base.loglik - n * d * math.log(scale))) <= 1e-9 * n


# ---------------------------------------------------------------------------
# binomial


class TestBinomial:
    def test_symmetric_half(self):
        data, g = make_binomial_data({"a": [1, 1, 0, 0]})
        m = fit(data, g, singletons_of(g))
        assert m.loglik == pytest.approx(4 * math.log(0.5), abs=1e-12)
        assert m.estimates["p"][0] == pytest.approx(0.5)

    def test_degenerate_proportion_finite(self):
        data, g = make_binomial_data({"a": [1, 1, 1], "b": [0, 0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = fit(data, g, singletons_of(g))
        assert m.loglik == pytest.approx(0.0, abs=1e-12)
        assert m.estimates["logit"][0] == math.inf
        assert m.estimates["logit"][1] == -math.inf

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
        assert m.estimates["alpha"][1] == pytest.approx(want, abs=1e-5)
        # frozen loglik from the same independent maximization
        assert m.loglik == pytest.approx(-6.338172707031, abs=1e-6)

    def test_null_model_closed_form(self):
        data, g = make_survival_data(COX_ROWS)
        one = singletons_of(g).merge(0, 1)
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
        assert m.estimates["alpha"][1] == pytest.approx(0.0, abs=1e-8)

    def test_reference_cluster_is_first(self):
        data, g = make_survival_data(COX_ROWS)
        m = fit(data, g, singletons_of(g))
        assert m.estimates["alpha"][0] == 0.0
        assert m.partition.labels[0] == "(a)"

    def test_no_events_raises(self):
        data, g = make_survival_data({"a": [(1.0, 0)], "b": [(2.0, 0)]})
        with pytest.raises(NoEvents):
            fit(data, g, singletons_of(g))

    def test_weights_rejected(self):
        vals = np.array([[1.0, 1], [2.0, 1]])
        with pytest.raises(WeightsNotSupported):
            ResponseData("survival", vals, weights=np.array([1.0, 2.0]))

    def test_tied_times_breslow(self):
        rows = {"a": [(1.0, 1), (1.0, 1), (2.0, 1)], "b": [(1.0, 1), (3.0, 0)]}
        data, g = make_survival_data(rows)
        m = fit(data, g, singletons_of(g))
        times = data.values[:, 0]
        events = data.values[:, 1]
        grp01 = np.array([0, 0, 0, 1, 1])
        want = oracle_cox_alpha(times, events, grp01)
        assert m.estimates["alpha"][1] == pytest.approx(want, abs=1e-5)

    def test_multi_cluster_fits_match_scipy_oracle(self, rng):
        for _ in range(8):
            k = int(rng.integers(3, 6))
            sizes = rng.integers(6, 11, k)
            n = int(sizes.sum())
            # integer times tie within and across levels
            values = np.column_stack([rng.integers(1, 9, n), rng.uniform(size=n) > 0.2]).astype(float)
            data, g = ResponseData("survival", values), Grouping(_labelled(sizes))
            part = singletons_of(g)
            for _ in range(2):
                m = fit(data, g, part)
                cluster_of = {lv: c for c, cl in enumerate(part.clusters) for lv in cl.members}
                cluster = np.array([cluster_of[lv] for lv in g.labels])
                alpha, ll = oracle_cox_fit(values[:, 0], values[:, 1], cluster)
                assert m.loglik == pytest.approx(ll, abs=1e-8)
                assert np.allclose(m.estimates["alpha"], alpha, rtol=0.0, atol=1e-5)
                part = part.merge(0, part.size - 1)

    @pytest.mark.parametrize("rows", [
        # level a never has an event, so its coefficient runs to -infinity
        {"a": [(1.0, 0), (2.0, 0)], "b": [(1.5, 1), (3.0, 1)]},
        {"a": [(1.0, 0), (2.0, 0), (3.0, 0)], "b": [(1.0, 1), (2.0, 1), (4.0, 0)]},
    ])
    def test_zero_event_level_is_monotone(self, rows):
        data, g = make_survival_data(rows)
        with pytest.raises(MonotoneLikelihood, match=r"^cluster \(a\) has no events"):
            fit(data, g, singletons_of(g))


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

    def test_repeated_label_is_refused(self):
        # levels a, a)(b, b, z: merging a and b gives two clusters labelled (a)(b)
        data, g = make_gaussian_data(COLLIDING_LABELS)
        part = singletons_of(g).merge(0, 2)
        assert part.labels == ("(a)(b)", "(a)(b)", "(z)")
        with pytest.raises(RepeatedLabel, match=r"clusters share the label \(a\)\(b\)"):
            group_summary(fit(data, g, part))
        assert group_summary(fit(data, g, part.merge(0, 2))) == pytest.approx(
            {"(a)(b)(z)": np.mean(COLLIDING_LABELS["a"] + COLLIDING_LABELS["b"]
                                  + COLLIDING_LABELS["z"]), "(a)(b)": 6.0})


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

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.25, 7.0]), st.booleans()),
                    max_size=30))
    def test_matches_reference_bitwise(self, rows):
        times = np.array([t for t, _ in rows], dtype=float)
        events = np.array([e for _, e in rows], dtype=float)
        for got, want in zip(kaplan_meier(times, events), reference_kaplan_meier(times, events)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


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
        coarse = fine.merge(0, 1)
        assert fit(data, g, fine).loglik >= fit(data, g, coarse).loglik - 1e-9


def test_equal_sufficient_stats_merge_is_free():
    data, g = make_gaussian_data({"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]})
    fine = singletons_of(g)
    coarse = fine.merge(0, 1)
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
    part = singletons_of(g)
    for x in merges:
        if part.size <= 2:
            break
        a = x % (part.size - 1)
        part = part.merge(a, a + 1)
    return assert_partition_scores_match_fits(data, g, part, *np.triu_indices(part.size, k=1))


def assert_partition_scores_match_fits(data, g, part, i, j):
    """Score the pairs (i[t], j[t]) of ``part`` from its sums and its fit, and
    compare each score with the fit of the merged partition."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = LevelStats(data, g)
        got = stats.family.score(stats, cluster_sums(stats, part), i, j, fit_stats(stats, part))
        fits = [fit_stats(stats, part.merge(a, b)) for a, b in zip(i, j)]
    assert len(got) == len(fits)
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

    @given(value=st.floats(-1e6, 1e6), sizes=SIZES)
    @example(value=102.224, sizes=[3, 4])  # RSS rounding noise 2.08e-12 above a 1e-12 floor
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
        data, g = make_survival_data(rows)
        assert_scores_match_fits(data, g, merges=(1,))
        # merges into the reference cluster 0, alone and from a coarser partition
        part = singletons_of(g)
        assert_partition_scores_match_fits(data, g, part, np.array([0, 0]), np.array([1, 3]))
        coarse = part.merge(1, 2)
        assert_partition_scores_match_fits(data, g, coarse, np.array([0]), np.array([2]))
        # the last step, two clusters to one
        two = coarse.merge(0, 2)
        assert_partition_scores_match_fits(data, g, two, np.array([0]), np.array([1]))
        # single candidates, as fast-fixed refreshes one distance per merge
        for a in range(3):
            assert_partition_scores_match_fits(data, g, part, np.array([a]), np.array([a + 1]))
        # tied integer times
        tied = {
            f"T{i}": [(float(t), int(e)) for t, e in zip(rng.integers(1, 5, 8), rng.uniform(size=8) > 0.3)]
            for i in range(5)
        }
        assert_scores_match_fits(*make_survival_data(tied))
        assert_scores_match_fits(*make_survival_data(tied), merges=(0, 2))
        # 16 levels
        fx = make_fixture("survival", 16, 20, 1.0, 0)
        assert_scores_match_fits(fx.data, fx.grouping)
        assert_scores_match_fits(fx.data, fx.grouping, merges=(0, 3, 7, 9))

    def test_survival_warm_start_needs_fewer_likelihoods(self, monkeypatch):
        fx = make_fixture("survival", 16, 20, 1.0, 0)
        stats = LevelStats(fx.data, fx.grouping)
        part = singletons_of(fx.grouping)
        sums, model = cluster_sums(stats, part), fit_stats(stats, part)
        i, j = np.triu_indices(part.size, k=1)
        # coefficient vectors evaluated: rows of the lockstep fit, and one
        # per call of the cold reference; the information at the parent's
        # alpha comes with the fit, so no row is evaluated there again
        rows, calls, at_parent = [], [], []
        evaluate, breslow = _RiskSets.evaluate, conftest.breslow

        def counted_rows(self, A):
            rows.append(len(A))
            at_parent.append(len(A) == 1 and np.array_equal(A[0], model.estimates["alpha"]))
            return evaluate(self, A)

        def counted(alpha, terms):
            calls.append(1)
            return breslow(alpha, terms)

        monkeypatch.setattr(_RiskSets, "evaluate", counted_rows)
        monkeypatch.setattr(conftest, "breslow", counted)
        warm = stats.family.score(stats, sums, i, j, model)
        cold = reference_cox_scores(stats, sums, i, j)
        assert len(i) == 120
        assert sum(rows) < len(calls)
        assert not any(at_parent)
        assert np.allclose(warm, cold, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("eigenvalues", [
        [0.0] + [1.0] * 14,  # singular
        [1e-17] + [1.0] * 14,  # below the rank tolerance of 15 eps
        [-1.0] + [1.0] * 14,  # not a maximum
    ])
    def test_survival_candidates_start_pooled_without_a_usable_information(
            self, eigenvalues, monkeypatch, rng):
        # the parent's information comes with its fit; where it cannot be
        # inverted reliably, every candidate starts with the merged pair's
        # coefficients pooled by their events
        fx = make_fixture("survival", 16, 20, 1.0, 0)
        stats = LevelStats(fx.data, fx.grouping)
        part = singletons_of(fx.grouping)
        sums, model = cluster_sums(stats, part), fit_stats(stats, part)
        i, j = np.triu_indices(part.size, k=1)
        basis = np.linalg.qr(rng.normal(size=(15, 15)))[0]
        model = dataclasses.replace(model, nuisance={"information": (basis * eigenvalues) @ basis.T})
        newton, starts = families._cox_fit_rows, []

        def recorded(sets, start, tie=None):
            starts.append(start)
            return newton(sets, start, tie)

        monkeypatch.setattr(families, "_cox_fit_rows", recorded)
        scores = stats.family.score(stats, sums, i, j, model)
        at, _ = _tie(i, j, part.size)
        pooled = families._pooled_start(model.estimates["alpha"], stats.events, at, part.size - 1)
        assert np.array_equal(np.concatenate(starts), pooled)
        assert np.allclose(scores, reference_cox_scores(stats, sums, i, j), rtol=1e-12, atol=1e-9)

    def test_tied_optimum_maximises_the_quadratic_model(self, rng):
        # against the maximum of -(x - alpha)' I (x - alpha) / 2 over the
        # merged coefficients x = F beta, beta_0 = 0: F' I (F beta - alpha) = 0
        c = 6
        alpha = np.concatenate([[0.0], rng.normal(0.0, 1.0, c - 1)])
        root = rng.normal(size=(c - 1, c - 1))
        information = root @ root.T + 0.1 * np.eye(c - 1)
        inverse = np.zeros((c, c))
        inverse[1:, 1:] = np.linalg.inv(information)
        a, b = np.triu_indices(c, k=1)
        got, usable = families._tied_optimum(alpha, inverse, a, b)
        assert usable.all()
        _, fold = _tie(a, b, c)
        for t in range(len(a)):
            f = fold[t, 1:, 1:]
            want = np.linalg.solve(f.T @ information @ f, f.T @ information @ alpha[1:])
            assert got[t, 0] == 0.0
            assert np.allclose(got[t, 1:], want, rtol=1e-10, atol=1e-12)
        # a pair whose quadratic form is not positive is not usable
        indefinite = inverse.copy()
        indefinite[1:3, 1:3] = -np.eye(2)
        _, usable = families._tied_optimum(alpha, indefinite, a, b)
        assert not usable[(a == 1) & (b == 2)].any()

    def test_pooled_start_with_a_coefficient_row_per_row(self, rng):
        # carried Cox fits are pooled with one row of unit coefficients per
        # candidate: each row keeps the bits of pooling it on its own.  Unit 0
        # is alone in cluster 0 and unit 6 alone in cluster 3; unit 2 has no
        # events, and a cluster of unit 2 alone starts at 0
        events = np.array([3.0, 1.0, 0.0, 2.0, 5.0, 1.0, 4.0])
        into = np.column_stack([np.zeros(6, int), rng.integers(1, 3, (6, 5)), np.full(6, 3)])
        into[0, 1:6] = [2, 1, 2, 2, 2]
        alpha = rng.normal(0.0, 1.0, (6, 7))
        got = families._pooled_start(alpha, events, into, 4)
        for t in range(len(into)):
            assert np.array_equal(got[t], families._pooled_start(alpha[t], events, into[t:t + 1], 4)[0])
        assert np.array_equal(got[:, 3], alpha[:, 6] - alpha[:, 0])
        assert got[0, 1] == -alpha[0, 0]
        # one coefficient row for every row pools as before
        shared = families._pooled_start(alpha[1], events, into, 4)
        assert np.array_equal(shared, families._pooled_start(np.tile(alpha[1], (6, 1)), events, into, 4))


# ---------------------------------------------------------------------------
# grouping codes and level statistics against the one-level-at-a-time reference


class TestGrouping:
    def test_codes_counts_and_indices(self, rng):
        labels = tuple(rng.choice(["b", "a", "c"], 50))
        g = Grouping(labels, ("c", "a", "b"))
        assert [g.levels[c] for c in g.codes] == list(labels)
        assert g.code_of == {"c": 0, "a": 1, "b": 2}
        assert g.counts == {lv: labels.count(lv) for lv in g.levels}
        idx = g.indices()
        for lv in g.levels:
            assert np.array_equal(idx[lv], np.flatnonzero(np.array(labels) == lv))

    def test_codes_do_not_enter_equality(self):
        assert Grouping(("a", "b")) == Grouping(("a", "b"))
        assert hash(Grouping(("a", "b"))) == hash(Grouping(("a", "b")))

    def test_grouping_from_codes_equals_grouping_from_labels(self, rng):
        levels = ("c", "a", "b")
        codes = rng.permutation(np.concatenate([[0, 1, 2], rng.integers(0, 3, 47)]))
        labels = tuple(levels[c] for c in codes)
        by_codes = Grouping(codes=codes.astype(np.uint8), levels=levels)
        by_labels = Grouping(labels, levels)
        assert by_codes == by_labels and hash(by_codes) == hash(by_labels)
        assert by_codes.labels == by_labels.labels == labels
        assert by_codes.codes.dtype == by_labels.codes.dtype == np.intp
        assert np.array_equal(by_codes.codes, by_labels.codes)
        for name in ("levels", "counts", "code_of", "n", "k"):
            assert getattr(by_codes, name) == getattr(by_labels, name), name
        a, b = by_codes.indices(), by_labels.indices()
        assert a.keys() == b.keys() and all(np.array_equal(a[lv], b[lv]) for lv in a)
        # the same labels under another level order are another grouping
        assert by_codes != Grouping(labels)
        assert Grouping(codes=[], levels=()) == Grouping(())

    @pytest.mark.parametrize("codes, levels, message", [
        ([0, 3, 1], ("a", "b", "c"), "code 3 of row 1 is not an index into 3 levels"),
        ([1, 0, -1], ("a", "b"), "code -1 of row 2 is not an index into 2 levels"),
        ([0], (), "code 0 of row 0 is not an index into 0 levels"),
        ([0, 2], ("a", "b", "c"), "levels with no observations: ['b']"),
        ([0, 1], ("a", "a"), "duplicate level names"),
        ([0.0, 1.0], ("a", "b"), "codes must be a 1-d array of integers"),
        ([[0, 1]], ("a", "b"), "codes must be a 1-d array of integers"),
    ])
    def test_code_errors(self, codes, levels, message):
        with pytest.raises(FactorFuseError) as err:
            Grouping(codes=np.array(codes), levels=levels)
        assert str(err.value) == message

    def test_labels_or_codes_not_both(self):
        for kwargs in ({}, {"labels": ("a",), "codes": [0]}):
            with pytest.raises(FactorFuseError, match="either labels or codes"):
                Grouping(levels=("a",), **kwargs)

    @pytest.mark.parametrize("labels, levels, message", [
        (("a", "b"), ("a", "b", "a"), "duplicate level names"),
        (("a", "x", "b", "y"), ("a", "b"), "label 'x' not among declared levels"),
        (("b",), ("a", "b", "c"), "levels with no observations: ['a', 'c']"),
    ])
    def test_errors(self, labels, levels, message):
        with pytest.raises(FactorFuseError) as err:
            Grouping(labels, levels)
        assert str(err.value) == message


def _reference_case(rng, kind, weighted):
    k = int(rng.integers(1, 7))
    # one level long enough for numpy's blocked pairwise summation
    sizes = rng.integers(1, 12, k)
    sizes[rng.integers(k)] = rng.integers(100, 400)
    n = int(sizes.sum())
    if kind == "gaussian1d":
        y = rng.integers(-3, 4, n) * rng.choice([1.0, 0.37, 1e3])  # repeats within a level
    elif kind == "binomial":
        y = rng.integers(0, 2, n).astype(float)
    else:
        y = rng.integers(-3, 4, (n, int(rng.integers(2, 4)))) * 0.37
    w = rng.choice([0.5, 1.25, 2.0], n) if weighted else None
    return ResponseData(kind, y, w), Grouping(_labelled(sizes))


def _permuted(rng, data, g):
    perm = rng.permutation(data.n)
    w = None if data.weights is None else data.weights[perm]
    return ResponseData(data.kind, data.values[perm], w), Grouping(tuple(np.array(g.labels)[perm]))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("kind", ["gaussian1d", "binomial", "gaussianNd"])
def test_level_stats_match_reference_bitwise(kind, weighted, rng):
    for _ in range(15):
        data, g = _reference_case(rng, kind, weighted)
        for d, gg in ((data, g), _permuted(rng, data, g)):
            stats = LevelStats(d, gg)
            for name, want in reference_level_stats(d, gg).items():
                assert np.array_equal(getattr(stats, name), want), name


def _survival_case(rng, k_max):
    k = int(rng.integers(2, k_max))
    sizes = rng.integers(1, 9, k)
    n = int(sizes.sum())
    # integer times tie across levels; events tie with censorings
    values = np.column_stack([rng.integers(1, 6, n), rng.integers(0, 2, n)]).astype(float)
    values[rng.integers(n), 1] = 1.0  # a fit needs an event
    return ResponseData("survival", values), Grouping(_labelled(sizes))


def test_risk_tables_match_reference_bitwise(rng):
    for _ in range(20):
        data, g = _survival_case(rng, 7)
        for d, gg in ((data, g), _permuted(rng, data, g)):
            stats = LevelStats(d, gg)
            D, R = reference_risk_tables(d, gg)
            assert np.array_equal(stats.R, R)
            assert np.array_equal(stats.events, D.sum(axis=1))
            assert np.array_equal(stats.per_time, D.sum(axis=0))


def test_cox_tables_match_row_reference(rng):
    # the partial likelihood from a partition's tables against the row-level
    # loop reference, on partitions reached by merges in either order
    for _ in range(20):
        data, g = _survival_case(rng, 9)
        for d, gg in ((data, g), _permuted(rng, data, g)):
            stats = LevelStats(d, gg)
            part = singletons_of(gg)
            while True:
                sums = cluster_sums(stats, part)
                t, e, gi = reference_cox_arrays(d, gg, part)
                scale = 1e-12 * max(e.sum(), 1.0)
                alphas = rng.normal(0.0, 3.0, (5, part.size))
                alphas[:, 0] = 0.0
                # one row at a time on this partition's own tables
                for alpha in alphas:
                    sets = _RiskSets(sums["events"], stats.per_time, sums["R"], 1)
                    ll, grad, hess = sets.evaluate(alpha[None])
                    ll_ref, grad_ref, hess_ref = reference_cox_loglik_grad_hess(alpha, t, e, gi, part.size)
                    assert abs(ll[0] - ll_ref) <= 1e-12 * abs(ll_ref)
                    assert np.allclose(grad[0], grad_ref, rtol=1e-12, atol=scale)
                    assert np.allclose(hess[0], hess_ref, rtol=1e-12, atol=scale)
                if part.size == 1:
                    break
                # rows at once on the previous partition's tables, each with
                # the merged pair's coefficients tied and folded into one
                a, b = rng.choice(part.size, 2, replace=False)  # either order
                lo, hi = min(a, b), max(a, b)
                parent, part = sums, part.merge(a, b)
                t, e, gi = reference_cox_arrays(d, gg, part)
                alphas = rng.normal(0.0, 3.0, (5, part.size))
                alphas[:, 0] = 0.0
                at, fold = _tie(np.full(len(alphas), lo), np.full(len(alphas), hi), part.size + 1)
                tied = np.take_along_axis(alphas, at, axis=1)
                assert np.array_equal(tied, np.insert(alphas, hi, alphas[:, lo], axis=1))
                sets = _RiskSets(parent["events"], stats.per_time, parent["R"], len(tied))
                ll, grad, hess = sets.evaluate(tied)
                grad, hess = (grad[:, None] @ fold)[:, 0], fold.transpose(0, 2, 1) @ hess @ fold
                for r, alpha in enumerate(alphas):
                    ll_ref, grad_ref, hess_ref = reference_cox_loglik_grad_hess(alpha, t, e, gi, part.size)
                    assert abs(ll[r] - ll_ref) <= 1e-12 * abs(ll_ref)
                    assert np.allclose(grad[r], grad_ref, rtol=1e-12, atol=scale)
                    assert np.allclose(hess[r], hess_ref, rtol=1e-12, atol=scale)
                merged = merge_sums(parent, lo, hi)
                for name, want in cluster_sums(stats, part).items():
                    assert np.array_equal(merged[name], want), name


@pytest.mark.parametrize("k", [16, 40])
def test_cox_row_logliks_do_not_depend_on_the_other_rows(k, rng):
    # step halving compares one row's logliks from evaluations of different
    # sets of rows, so each must keep its bits whichever rows share its batch
    fx = make_fixture("survival", k, 20, 1.0, 4)
    stats = LevelStats(fx.data, fx.grouping)
    A = rng.normal(0.0, 2.0, (60, k))
    A[:, 0] = 0.0
    sets = _RiskSets(stats.events, stats.per_time, stats.R, len(A))
    # both Hessian routes: the product table at k=16 (276 event times), the
    # per-row products at k=40 (657)
    assert (sets.table is not None) == (k == 16)
    together = sets.evaluate(A)[0]
    alone = np.concatenate([sets.evaluate(row[None])[0] for row in A])
    reverse = sets.evaluate(A[::-1].copy())[0][::-1]
    assert together.tobytes() == alone.tobytes() == reverse.tobytes()


@pytest.mark.parametrize("strategy", ["adaptive", "fast-adaptive", "fixed", "fast-fixed"])
@pytest.mark.parametrize("kind", ["gaussian1d", "gaussianNd"])
def test_weight_sums_whose_product_overflows_merge(kind, strategy):
    # sum(w) * sum(w y^2) stays finite, but two clusters' weight sums of about
    # 2e160 multiply past the float range; the merge's Ward factor never forms
    # that product (pytest turns numpy's RuntimeWarning into an error)
    y = np.array([[1.0, 3], [2, 1], [2, 4], [3, 1], [4, 5], [5, 9]]) * 1e-8
    values = y[:, 0] if kind == "gaussian1d" else y
    data = ResponseData(kind, values, weights=np.full(6, 1e160))
    path = merge_factors(data, Grouping(("a", "a", "b", "b", "c", "c")), strategy)
    lls = [s.model.loglik for s in path.steps]
    assert len(lls) == 3 and all(map(math.isfinite, lls))


def test_cox_trial_steps_raise_no_numpy_warnings():
    # trial Newton steps on this fixture reach coefficients where exp(alpha)
    # overflows; on the log scale no warning reaches the caller
    fx = make_fixture("survival", 16, 20, 1.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        merge_factors(fx.data, fx.grouping, "adaptive")


@given(st.lists(st.floats(1e-300, 1e300), max_size=8), st.lists(st.floats(-700, 700), max_size=8))
def test_fit_log_and_exp_are_math_log_and_exp_bitwise(xs, ys):
    # path logliks and hazard ratios keep the bits of math.log and math.exp
    x, y = np.array(xs, float), np.array(ys, float)
    assert families._math_log(x).tobytes() == np.array([math.log(v) for v in xs], float).tobytes()
    assert families._math_exp(y).tobytes() == np.array([math.exp(v) for v in ys], float).tobytes()
