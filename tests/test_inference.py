"""LRT, chi-square tail, history, GIC profiling, and tree cutting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorfuse import (
    SelectionCriterion,
    chi_square_sf,
    cut_tree,
    fit,
    gic_profile,
    global_null_test,
    lrt,
    merge_factors,
    merging_history,
    optimal_partition_table,
)
from factorfuse.data import Cluster, Partition
from factorfuse.engine import PathStep
from factorfuse.errors import NotNested, NumericalInconsistency
from factorfuse.inference import cut_step
from factorfuse.viz import CHI_SQUARE_1_95

from conftest import (
    make_binomial_data,
    make_gaussian_data,
    oracle_chi2_sf,
    random_binomial_dataset,
    random_gaussian_dataset,
    singletons_of,
)


# ---------------------------------------------------------------------------
# chi-square tail


class TestChiSquareSf:
    def test_zero_is_one(self):
        for df in (1, 2, 5, 30):
            assert chi_square_sf(0.0, df) == 1.0

    def test_anchor_quantiles(self):
        assert chi_square_sf(3.841, 1) == pytest.approx(0.05, abs=1e-4)
        assert chi_square_sf(4.605, 2) == pytest.approx(0.10, abs=1e-4)

    def test_matches_quadrature_oracle(self):
        points = [
            (0.5, 1), (1.0, 1), (2.0, 1), (3.841, 1), (6.0, 1),
            (1.0, 2), (3.0, 2), (4.605, 2), (9.0, 2),
            (2.0, 3), (7.815, 3), (12.0, 3),
            (5.0, 5), (11.07, 5), (20.0, 5),
            (8.0, 10), (18.31, 10), (30.0, 10),
            (15.0, 20), (31.41, 20),
        ]
        assert len(points) == 20
        for x, df in points:
            assert chi_square_sf(x, df) == pytest.approx(
                oracle_chi2_sf(x, df), abs=1e-6
            )

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for x in (0.1, 1.0, 3.0, 7.5, 15.0, 40.0):
            for df in (1, 2, 4, 9, 25):
                assert chi_square_sf(x, df) == pytest.approx(
                    float(scipy_stats.chi2.sf(x, df)), rel=1e-10, abs=1e-300
                )

    @given(
        x=st.floats(0.001, 60.0),
        df=st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_x_and_df(self, x, df):
        assert 0.0 <= chi_square_sf(x, df) <= 1.0
        assert chi_square_sf(x + 0.5, df) <= chi_square_sf(x, df) + 1e-15
        assert chi_square_sf(x, df + 1) >= chi_square_sf(x, df) - 1e-15

    def test_grid_spacing_constant_is_the_95_percent_quantile(self):
        assert abs(chi_square_sf(CHI_SQUARE_1_95, 1) - 0.05) <= 1e-12


# ---------------------------------------------------------------------------
# lrt


class TestLrt:
    def test_identical_models_zero(self, gaussian_three_groups):
        data, g = gaussian_three_groups
        m = fit(data, g, singletons_of(g))
        assert lrt(m, m) == 0.0

    def test_gaussian_closed_form(self):
        data, g = make_gaussian_data({"a": [0.0, 1.0, 0.5], "b": [4.0, 5.0, 4.5]})
        fine = singletons_of(g)
        m2 = fit(data, g, fine)
        m1 = fit(data, g, fine.merge(0, 1))
        vals = data.values
        rss2 = sum(
            float(((vals[i : i + 3] - vals[i : i + 3].mean()) ** 2).sum())
            for i in (0, 3)
        )
        rss1 = float(((vals - vals.mean()) ** 2).sum())
        want = len(vals) * math.log(rss1 / rss2)
        assert lrt(m1, m2) == pytest.approx(want, abs=1e-9)

    def test_not_nested_rejected(self):
        data, g = make_gaussian_data({"a": [0.0, 1], "b": [2.0, 3], "c": [5.0, 6]})
        fine = singletons_of(g)
        m_ab = fit(data, g, fine.merge(0, 1))
        m_bc = fit(data, g, fine.merge(1, 2))
        with pytest.raises(NotNested):
            lrt(m_ab, m_bc)

    @pytest.mark.parametrize("coarse, fine, expect", [
        ((("a", "b"), ("c",)), (("a",), ("b",), ("c",)), True),
        ((("a", "b"), ("c",)), (("a", "b"), ("c",)), True),  # equal partitions
        ((("a", "b"), ("c",)), (("a",), ("b", "c")), False),  # (b)(c) straddles two clusters
        ((("a", "b"), ("c",)), (("a",), ("b",)), False),  # different level sets
        ((("a", "b"),), (("a",), ("b",), ("c",)), False),
    ])
    def test_is_coarsening_of(self, coarse, fine, expect):
        def partition(clusters):
            return Partition(tuple(Cluster(c) for c in clusters))

        assert partition(coarse).is_coarsening_of(partition(fine)) is expect

    def test_large_negative_raises(self):
        import dataclasses

        data, g = make_gaussian_data({"a": [0.0, 1], "b": [9.0, 10]})
        fine = singletons_of(g)
        m2 = fit(data, g, fine)
        m1 = fit(data, g, fine.merge(0, 1))
        # corrupt the finer model's loglik below the coarser one's
        bad = dataclasses.replace(m2, loglik=m1.loglik - 1e-3)
        with pytest.raises(NumericalInconsistency):
            lrt(m1, bad)

    def test_tiny_negative_clamped(self):
        import dataclasses

        data, g = make_gaussian_data({"a": [0.0, 1], "b": [9.0, 10]})
        fine = singletons_of(g)
        m2 = fit(data, g, fine)
        m1 = fit(data, g, fine.merge(0, 1))
        near = dataclasses.replace(m2, loglik=m1.loglik - 1e-10)
        assert lrt(m1, near) == 0.0


# ---------------------------------------------------------------------------
# global test and history


class TestGlobalAndHistory:
    def test_global_null_separated_groups(self, gaussian_three_groups):
        data, g = gaussian_three_groups
        path = merge_factors(data, g, "adaptive")
        stat, df, p = global_null_test(path)
        assert df == 2
        assert p < 1e-6
        assert stat == pytest.approx(
            2 * (path.steps[0].model.loglik - path.steps[-1].model.loglik),
            abs=1e-9,
        )

    def test_global_null_homogeneous(self, rng):
        by = {"a": list(rng.normal(0, 1, 30)), "b": list(rng.normal(0, 1, 30))}
        data, g = make_gaussian_data(by)
        path = merge_factors(data, g, "adaptive")
        _, df, p = global_null_test(path)
        assert df == 1
        assert p > 0.01

    def test_history_step0_row(self, gaussian_three_groups):
        data, g = gaussian_three_groups
        path = merge_factors(data, g, "adaptive")
        rows = merging_history(path)
        assert rows[0].step == 0
        assert rows[0].group_a == "" and rows[0].group_b == ""
        assert rows[0].pval_vs_full == 1.0
        assert rows[0].pval_vs_previous == 1.0

    def test_history_recomputation(self, rng):
        data, g = random_binomial_dataset(rng, 5, 15)
        path = merge_factors(data, g, "adaptive")
        rows = merging_history(path)
        full = path.steps[0].model.loglik
        for i, row in enumerate(rows):
            model = path.steps[i].model
            assert row.loglik == pytest.approx(model.loglik, abs=0)
            if i > 0:
                prev = path.steps[i - 1].model.loglik
                assert row.pval_vs_previous == pytest.approx(
                    chi_square_sf(max(2 * (prev - model.loglik), 0.0), 1), abs=1e-12
                )
                # df equals the number of merges performed
                assert row.pval_vs_full == pytest.approx(
                    chi_square_sf(max(2 * (full - model.loglik), 0.0), i), abs=1e-12
                )

    @staticmethod
    def _path_with_partitions(*pairs_and_partitions):
        # a 4-level path whose steps are the given (recorded pair, partition)s
        data, g = make_gaussian_data({f"L0{i}": [i, i + 0.5, 2.0 * i] for i in range(1, 5)})
        path = merge_factors(data, g, "adaptive")
        steps = [path.steps[0]] + [PathStep(pair, fit(data, g, part))
                                   for pair, part in pairs_and_partitions]
        return dataclasses.replace(path, steps=tuple(steps))

    def test_history_rejects_a_step_that_is_not_its_recorded_merge(self):
        # merges L01 and L03 but records positions 0 and 1, (L01) and (L02)
        fine = Partition.singletons(("L01", "L02", "L03", "L04"))
        path = self._path_with_partitions(((0, 1), fine.merge(0, 2)))
        with pytest.raises(NotNested, match=r"step 1 is not the merge of positions \(0, 1\)"):
            merging_history(path)

    def test_history_rejects_a_step_that_is_not_a_coarsening(self):
        fine = Partition.singletons(("L01", "L02", "L03", "L04"))
        path = self._path_with_partitions(((0, 1), fine.merge(0, 1)),
                                          ((1, 2), fine.merge(2, 3)))
        with pytest.raises(NotNested, match="step 2 is not the merge"):
            merging_history(path)
        assert not path.steps[2].model.partition.is_coarsening_of(path.steps[1].model.partition)

    def test_telescoping_identity(self, rng):
        for strategy in ("adaptive", "fixed", "fast-adaptive", "fast-fixed"):
            data, g = random_gaussian_dataset(rng, 6, 8)
            path = merge_factors(data, g, strategy)
            models = [s.model for s in path.steps]
            for i in range(1, len(models)):
                direct = lrt(models[i], models[0])
                summed = sum(
                    lrt(models[j], models[j - 1]) for j in range(1, i + 1)
                )
                assert abs(direct - summed) < 1e-8


# ---------------------------------------------------------------------------
# GIC


class TestGic:
    def test_arithmetic_identity(self, rng):
        data, g = random_gaussian_dataset(rng, 5, 10)
        path = merge_factors(data, g, "adaptive")
        prof = gic_profile(path, 2.0)
        for row, step in zip(prof.rows, path.steps):
            assert row.gic == -2 * step.model.loglik + 2.0 * row.cluster_count
            assert row.cluster_count == step.model.partition.size

    def test_trivial_arithmetic(self):
        # loglik -10 with 3 clusters at penalty 2 gives 26
        assert -2 * (-10.0) + 2.0 * 3 == 26.0

    def test_argmin_recovers_planted_three_groups(self, gaussian_three_groups):
        data, g = gaussian_three_groups
        path = merge_factors(data, g, "adaptive")
        prof = gic_profile(path, 2.0)
        exhaustive = min(
            range(len(prof.rows)), key=lambda i: (prof.rows[i].gic, i)
        )
        assert prof.argmin_step == exhaustive

    def test_penalty_monotone_coarsening(self, rng):
        for _ in range(5):
            data, g = random_binomial_dataset(rng, 8, 12)
            path = merge_factors(data, g, "adaptive")
            n = data.n
            counts = []
            for pen in (2.0, math.log(n), 500.0):
                prof = gic_profile(path, pen)
                counts.append(prof.rows[prof.argmin_step].cluster_count)
            assert counts[0] >= counts[1] >= counts[2]


# ---------------------------------------------------------------------------
# cutting


class TestCutTree:
    def test_gic_cut_matches_profile(self, rng):
        data, g = random_gaussian_dataset(rng, 6, 9)
        path = merge_factors(data, g, "adaptive")
        crit = SelectionCriterion("gic", 2.0)
        part = cut_tree(path, crit)
        prof = gic_profile(path, 2.0)
        assert part == path.steps[prof.argmin_step].model.partition

    def test_pvalue_cut_insignificant_merges_collapse(self, rng):
        by = {"a": list(rng.normal(0, 1, 40)), "b": list(rng.normal(0, 1, 40)),
              "c": list(rng.normal(0, 1, 40))}
        data, g = make_gaussian_data(by)
        path = merge_factors(data, g, "adaptive")
        rows = merging_history(path)
        if all(r.pval_vs_full > 0.05 for r in rows[1:]):
            part = cut_tree(path, SelectionCriterion("pvalue", 0.05))
            assert part.size == 1

    def test_pvalue_cut_is_latest_above_threshold(self, gaussian_three_groups):
        data, g = gaussian_three_groups
        path = merge_factors(data, g, "adaptive")
        rows = merging_history(path)
        step = cut_step(path, SelectionCriterion("pvalue", 0.05))
        assert rows[step].pval_vs_full > 0.05
        for later in range(step + 1, len(rows)):
            assert rows[later].pval_vs_full <= 0.05

    def test_loglik_cut(self, rng):
        data, g = random_gaussian_dataset(rng, 5, 10)
        path = merge_factors(data, g, "adaptive")
        full = path.steps[0].model.loglik
        step = cut_step(path, SelectionCriterion("loglik", 1.0))
        assert path.steps[step].model.loglik >= full - 1.0
        if step + 1 < len(path.steps):
            assert path.steps[step + 1].model.loglik < full - 1.0

    def test_cut_partition_valid(self, rng):
        data, g = random_binomial_dataset(rng, 6, 10)
        path = merge_factors(data, g, "adaptive")
        for crit in (
            SelectionCriterion("gic", 2.0),
            SelectionCriterion("pvalue", 0.05),
            SelectionCriterion("loglik", 2.0),
        ):
            part = cut_tree(path, crit)
            seen = [lv for c in part.clusters for lv in c.members]
            assert sorted(seen) == sorted(g.levels)

    def test_planted_binomial_recovery(self):
        rng = np.random.default_rng(99)
        probs = {"A": 0.1, "B": 0.4, "C": 0.6, "D": 0.9}
        by = {
            lv: list(rng.binomial(1, p, 500).astype(float))
            for lv, p in probs.items()
        }
        data, g = make_binomial_data(by)
        path = merge_factors(data, g, "adaptive")
        part = cut_tree(path, SelectionCriterion("gic", 2.0))
        assert part.size == 4

    def test_partition_table(self, gaussian_three_groups):
        data, g = gaussian_three_groups
        path = merge_factors(data, g, "adaptive")
        crit = SelectionCriterion("gic", 2.0)
        table = optimal_partition_table(path, crit)
        part = cut_tree(path, crit)
        assert [orig for orig, _ in table] == list(g.levels)
        for orig, pred in table:
            assert [c.label for c in part.clusters if orig in c.members] == [pred]

    def test_singleton_partition_table_uniform(self, rng):
        by = {"a": list(rng.normal(0, 1, 25)), "b": list(rng.normal(0, 1, 25))}
        data, g = make_gaussian_data(by)
        path = merge_factors(data, g, "adaptive")
        table = optimal_partition_table(path, SelectionCriterion("loglik", 1e9))
        assert len({pred for _, pred in table}) == 1

    def test_invalid_criterion_rejected(self):
        with pytest.raises(Exception):
            SelectionCriterion("gic", -1.0)
        with pytest.raises(Exception):
            SelectionCriterion("pvalue", 1.5)
        with pytest.raises(Exception):
            SelectionCriterion("nope", 0.5)
