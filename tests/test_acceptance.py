"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Criterion 5's Gaussian half is asserted exactly as specified and marked as a
strict expected failure: exact recovery of four planted pair-clusters under
the AIC cut requires the maximum of four independent chi-square(1) likelihood
ratio statistics to stay below 2, which happens with probability about
0.8427^4 = 0.504 regardless of sample size or separation, so a 95% success
rate is not attainable. The p-value criterion at 0.05 does reach the stated
rate (asymptotically exactly 0.95); see the companion binomial test.
"""

import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from factorfuse import (
    SelectionCriterion,
    chi_square_sf,
    cut_tree,
    fit,
    gic_profile,
    lrt,
    merge_factors,
    merging_history,
)
from factorfuse.cli import main as cli_main
from factorfuse.data import Grouping, Partition, ResponseData
from factorfuse.fixtures import make_fixture

from conftest import (
    make_gaussian_data,
    make_survival_data,
    oracle_chi2_sf,
    oracle_cox_alpha,
    oracle_greedy_path,
    random_binomial_dataset,
    random_gaussian_dataset,
    singletons_of,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def merge_sequence(path):
    return [(r.group_a, r.group_b) for r in merging_history(path)[1:]]


def partition_as_sets(partition: Partition):
    return {frozenset(c.members) for c in partition.clusters}


# ---------------------------------------------------------------------------


def test_criterion_1_greedy_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    for kind in ("gaussian1d", "binomial"):
        for _ in range(50):
            k = int(rng.integers(3, 9))
            if kind == "gaussian1d":
                by = {
                    f"G{i + 1}": list(rng.normal(rng.uniform(0, 3), 1, 20))
                    for i in range(k)
                }
                from conftest import make_gaussian_data as mk
            else:
                by = {
                    f"G{i + 1}": list(
                        rng.binomial(1, rng.uniform(0.15, 0.85), 20).astype(float)
                    )
                    for i in range(k)
                }
                from conftest import make_binomial_data as mk
            data, g = mk(by)
            path = merge_factors(data, g, "adaptive")
            assert merge_sequence(path) == oracle_greedy_path(kind, by)
            checked += 1
    elapsed = time.perf_counter() - t0
    report(1, "adaptive path equals brute-force greedy oracle",
           checked == 100 and elapsed < 60.0,
           f"{checked} datasets in {elapsed:.1f}s")


def test_criterion_2_telescoping_lrt():
    rng = np.random.default_rng(7)
    worst = 0.0
    for strategy in ("adaptive", "fast-adaptive", "fixed", "fast-fixed"):
        for maker in (random_gaussian_dataset, random_binomial_dataset):
            for _ in range(5):
                data, g = maker(rng, int(rng.integers(3, 8)), 12)
                path = merge_factors(data, g, strategy)
                models = [s.model for s in path.steps]
                for i in range(1, len(models)):
                    direct = lrt(models[i], models[0])
                    summed = sum(
                        lrt(models[j], models[j - 1]) for j in range(1, i + 1)
                    )
                    worst = max(worst, abs(direct - summed))
    report(2, "telescoping LRT identity on every test path",
           worst < 1e-8, f"worst gap {worst:.2e}")


def test_criterion_3_chi_square_oracle():
    anchor = chi_square_sf(3.841, 1)
    ok = 0.0499 <= anchor <= 0.0501
    points = [
        (0.5, 1), (1.0, 1), (2.0, 1), (3.841, 1), (6.0, 1),
        (1.0, 2), (3.0, 2), (4.605, 2), (9.0, 2),
        (2.0, 3), (7.815, 3), (12.0, 3),
        (5.0, 5), (11.07, 5), (20.0, 5),
        (8.0, 10), (18.31, 10), (30.0, 10),
        (15.0, 20), (31.41, 20),
    ]
    worst = 0.0
    for x, df in points:
        worst = max(worst, abs(chi_square_sf(x, df) - oracle_chi2_sf(x, df)))
    report(3, "chi-square tail matches quadrature oracle",
           ok and len(points) == 20 and worst < 1e-6,
           f"anchor {anchor:.6f}, worst gap {worst:.2e}")


def test_criterion_4_evaluation_count_contracts():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    ok = True
    details = []
    for k in (4, 8, 16, 32):
        data, g = random_gaussian_dataset(rng, k, 10)
        a = merge_factors(data, g, "adaptive")
        fa = merge_factors(data, g, "fast-adaptive")
        fx = merge_factors(data, g, "fixed")
        ff = merge_factors(data, g, "fast-fixed")
        want_a = sum(j * (j - 1) // 2 for j in range(2, k + 1)) + k
        want_fx = k * (k - 1) // 2 + (k - 1) + 1
        ok &= a.evaluations == want_a
        ok &= fa.evaluations <= k * k
        ok &= fx.evaluations == want_fx
        ok &= ff.evaluations <= 3 * k
        details.append(f"k={k}: {a.evaluations}/{fa.evaluations}/"
                       f"{fx.evaluations}/{ff.evaluations}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(4, "evaluation-count contracts for all four strategies",
           ok, "; ".join(details) + f"; {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="exact recovery of 4 planted pair-clusters under an AIC cut is "
    "bounded near P(chi2_1 < 2)^4 = 0.504; measured 44/100. The stated "
    "95/100 rate matches the p-value criterion at 0.05 instead "
    "(P(chi2_4 < 9.488) = 0.95).",
)
def test_criterion_5a_gaussian_planted_recovery():
    hits = 0
    for seed in range(100):
        fx = make_fixture("gaussian", k=8, n_per_group=200, separation=5.0, seed=seed,
                          n_clusters=4)
        path = merge_factors(fx.data, fx.grouping, "adaptive")
        part = cut_tree(path, SelectionCriterion("gic", 2.0))
        if partition_as_sets(part) == {frozenset(c) for c in fx.planted}:
            hits += 1
    report(5, "gaussian k=8 planted recovery under AIC", hits >= 95,
           f"{hits}/100 runs")


def test_criterion_5b_binomial_planted_recovery():
    hits = 0
    for seed in range(100):
        fx = make_fixture("binomial", k=4, n_per_group=500, separation=0.0, seed=seed,
                          proportions=(0.1, 0.4, 0.6, 0.9))
        path = merge_factors(fx.data, fx.grouping, "adaptive")
        part = cut_tree(path, SelectionCriterion("gic", 2.0))
        if part.size == 4:
            hits += 1
    report(5, "binomial 0.1/0.4/0.6/0.9 keeps 4 clusters", hits >= 90,
           f"{hits}/100 runs")


def test_criterion_6_gic_coarsening_monotonicity():
    rng = np.random.default_rng(21)
    ok = True
    for _ in range(20):
        data, g = random_binomial_dataset(rng, 21, 15)
        path = merge_factors(data, g, "adaptive")
        n = data.n
        counts = []
        for pen in (2.0, math.log(n), 500.0):
            prof = gic_profile(path, pen)
            counts.append(prof.rows[prof.argmin_step].cluster_count)
        ok &= counts[0] >= counts[1] >= counts[2]
    report(6, "GIC-optimal cluster count non-increasing in penalty", ok)


def test_criterion_7_cox_correctness():
    rng = np.random.default_rng(33)
    worst_alpha = 0.0
    worst_null = 0.0
    fixtures = 0
    for n in range(6, 31, 4):
        half = n // 2
        t_a = rng.exponential(1.0, half)
        t_b = rng.exponential(0.6, n - half)
        e_a = (rng.uniform(size=half) > 0.2).astype(int)
        e_b = (rng.uniform(size=n - half) > 0.2).astype(int)
        rows = {
            "a": [(max(float(t), 1e-6), int(e)) for t, e in zip(t_a, e_a)],
            "b": [(max(float(t), 1e-6), int(e)) for t, e in zip(t_b, e_b)],
        }
        data, g = make_survival_data(rows)
        m = fit(data, g, singletons_of(g))
        grp01 = np.array([0] * half + [1] * (n - half))
        want = oracle_cox_alpha(data.values[:, 0], data.values[:, 1], grp01)
        worst_alpha = max(worst_alpha, abs(m.estimates["alpha"][1] - want))

        null = fit(data, g, singletons_of(g).merge(0, 1))
        times, events = data.values[:, 0], data.values[:, 1]
        closed = sum(
            -math.log(float((times >= t).sum()))
            for t, e in zip(times, events)
            if e
        )
        worst_null = max(worst_null, abs(null.loglik - closed))
        fixtures += 1
    report(7, "Cox Newton-Raphson matches brute force and null closed form",
           worst_alpha < 1e-5 and worst_null < 1e-10,
           f"{fixtures} fixtures, alpha gap {worst_alpha:.2e}, "
           f"null gap {worst_null:.2e}")


def test_criterion_8_weighted_equals_replicated():
    rng = np.random.default_rng(44)
    worst = 0.0
    for i in range(20):
        kind = "gaussian1d" if i % 2 == 0 else "binomial"
        k = int(rng.integers(2, 5))
        n = int(rng.integers(4, 9))
        labels, vals, w = [], [], []
        for gidx in range(k):
            for _ in range(n):
                labels.append(f"G{gidx + 1}")
                if kind == "gaussian1d":
                    vals.append(float(rng.normal(gidx, 1)))
                else:
                    vals.append(float(rng.binomial(1, 0.3 + 0.1 * gidx)))
                w.append(float(rng.integers(1, 5)))
        wv = np.array(w)
        dw = ResponseData(kind, np.array(vals), weights=wv)
        gw = Grouping(tuple(labels))
        dr = ResponseData(kind, np.repeat(vals, wv.astype(int)))
        gr = Grouping(tuple(np.repeat(labels, wv.astype(int))))
        part = singletons_of(gw)
        worst = max(worst, abs(fit(dw, gw, part).loglik - fit(dr, gr, part).loglik))
    report(8, "integer-weighted fits equal row-replicated fits",
           worst < 1e-10, f"worst gap {worst:.2e}")


def test_criterion_9_affine_invariance():
    rng = np.random.default_rng(55)
    ok = True
    worst = 0.0
    for _ in range(20):
        data, g = random_gaussian_dataset(rng, int(rng.integers(3, 7)), 10)
        a = float(rng.uniform(0.1, 5.0)) * (1 if rng.uniform() < 0.5 else -1)
        b = float(rng.uniform(-10, 10))
        data2 = ResponseData("gaussian1d", a * data.values + b)
        p1 = merge_factors(data, g, "adaptive")
        p2 = merge_factors(data2, g, "adaptive")
        ok &= merge_sequence(p1) == merge_sequence(p2)
        for i in range(1, len(p1.steps)):
            l1 = lrt(p1.steps[i].model, p1.steps[0].model)
            l2 = lrt(p2.steps[i].model, p2.steps[0].model)
            worst = max(worst, abs(l1 - l2))
    report(9, "merge order and LRT invariant under affine response maps",
           ok and worst < 1e-8, f"worst LRT gap {worst:.2e}")


def test_criterion_10_deterministic_artifacts(tmp_path):
    fx = tmp_path / "fx"
    rc = cli_main(["fixture", "--kind", "gaussian", "--k", "5",
                   "--n-per-group", "12", "--separation", "2", "--seed", "9",
                   "--out", str(fx)])
    assert rc == 0
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = cli_main(["merge", "--input", str(fx / "data.csv"),
                       "--family", "gaussian", "--response", "y",
                       "--factor", "group", "--method", "adaptive",
                       "--panel-grid", "--show-split", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    ok = True
    for name in ("result.json", "history.csv", "merging_path.svg", "gic.svg"):
        ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    svg = (outs[0] / "merging_path.svg").read_text()
    ET.fromstring(svg)
    for pid in ("panel-a", "panel-b", "panel-c", "panel-d"):
        ok &= f'id="{pid}"' in svg
    report(10, "byte-identical reruns and well-formed SVG with panel ids", ok)


def test_criterion_11_adaptive_vs_fixed_divergence():
    # frozen 7-subgroup fixture: means drawn U(0,4) with default_rng(4),
    # 12 observations per subgroup; the two strategies diverge at merge 4
    rng = np.random.default_rng(4)
    means = rng.uniform(0, 4, 7)
    by = {}
    for i, m in enumerate(means):
        by[f"G{i + 1}"] = list(rng.normal(m, 1.0, 12))
    data, g = make_gaussian_data(by)
    pa = merge_factors(data, g, "adaptive")
    pf = merge_factors(data, g, "fixed")
    seq_a, seq_f = merge_sequence(pa), merge_sequence(pf)
    ok = seq_a != seq_f
    diverged = None
    for i, (ma, mf) in enumerate(zip(seq_a, seq_f)):
        if ma != mf:
            diverged = i
            break
    ok &= diverged is not None
    detail = "paths identical"
    if diverged is not None:
        # both strategies share the partition before the first divergence
        pre = pa.steps[diverged].model.partition
        assert pre == pf.steps[diverged].model.partition
        adaptive_ll = pa.steps[diverged + 1].model.loglik
        fixed_ll = fit(data, g, pre.merge(*pf.steps[diverged + 1].merged_pair)).loglik
        ok &= adaptive_ll >= fixed_ll - 1e-12
        detail = (f"diverge at merge {diverged + 1}, adaptive "
                  f"{adaptive_ll:.4f} vs fixed {fixed_ll:.4f}")
    report(11, "adaptive beats fixed at the first diverging merge", ok, detail)
