"""LRT statistics, chi-square tail probabilities, GIC, and partition cuts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import Partition
from .engine import MergingPath
from .errors import FactorFuseError, NotNested, NumericalInconsistency
from .families import FittedModel

LRT_NOISE_TOL = 1e-9


# ------------------------------------------------------------------ #
# Chi-square upper tail via the regularized incomplete gamma function
# ------------------------------------------------------------------ #


def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized gamma P(a, x) by power series; for x < a + 1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(1000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-15:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized gamma Q(a, x) by continued fraction; for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi_square_sf(x: float, df: int) -> float:
    """P(X >= x) for X ~ chi-square with ``df`` degrees of freedom."""
    if x < 0:
        raise FactorFuseError("chi-square statistic must be nonnegative")
    if df < 1:
        raise FactorFuseError("degrees of freedom must be >= 1")
    if x == 0.0:
        return 1.0
    a = df / 2.0
    h = x / 2.0
    if h < a + 1.0:
        q = 1.0 - _gamma_p_series(a, h)
    else:
        q = _gamma_q_contfrac(a, h)
    return min(1.0, max(0.0, q))


# ------------------------------------------------------------------ #
# LRT and history
# ------------------------------------------------------------------ #


def lrt(m_small: FittedModel, m_large: FittedModel) -> float:
    """2 * (loglik_large - loglik_small) for nested models (small = coarser)."""
    if not m_small.partition.is_coarsening_of(m_large.partition):
        raise NotNested("first model must be a coarsening of the second")
    return _lrt_stat(m_small.loglik, m_large.loglik)


def _lrt_stat(loglik_small: float, loglik_large: float) -> float:
    """2 * (loglik_large - loglik_small), with a negative value within
    LRT_NOISE_TOL read as 0."""
    stat = 2.0 * (loglik_large - loglik_small)
    if stat < 0.0:
        if stat >= -LRT_NOISE_TOL:
            return 0.0
        raise NumericalInconsistency(
            f"nested model has higher loglik by {-stat / 2.0:g}"
        )
    return stat


def global_null_test(path: MergingPath) -> tuple[float, int, float]:
    """k-sample global test: last (single-cluster) model against the full one."""
    stat = lrt(path.steps[-1].model, path.full_model)
    df = path.k - 1
    return stat, df, chi_square_sf(stat, df)


@dataclass(frozen=True)
class HistoryRow:
    step: int
    group_a: str
    group_b: str
    loglik: float
    pval_vs_full: float
    pval_vs_previous: float


def merging_history(path: MergingPath) -> list[HistoryRow]:
    """One row per step: the labels of the merged clusters and the p-values of
    the step's model against the full model and the previous one.

    Each step must be its recorded ``merged_pair`` merged in the previous
    step's partition, else :class:`NotNested` is raised; then every step is
    nested in the full model too.
    """
    full = path.full_model.loglik
    rows = [HistoryRow(0, "", "", full, 1.0, 1.0)]
    for i, (prev, step) in enumerate(zip(path.steps, path.steps[1:]), start=1):
        before = prev.model.partition
        if before.merge(*step.merged_pair) != step.model.partition:
            raise NotNested(f"step {i} is not the merge of positions {step.merged_pair} "
                            "in the previous step")
        stat_prev = _lrt_stat(step.model.loglik, prev.model.loglik)
        stat_full = _lrt_stat(step.model.loglik, full)
        a, b = (before.labels[s] for s in step.merged_pair)
        rows.append(HistoryRow(i, a, b, step.model.loglik,
                               chi_square_sf(stat_full, i), chi_square_sf(stat_prev, 1)))
    return rows


# ------------------------------------------------------------------ #
# GIC and optimal-partition selection
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class GicRow:
    step: int
    loglik: float
    cluster_count: int
    gic: float


@dataclass(frozen=True)
class GicProfile:
    penalty: float
    rows: tuple[GicRow, ...]
    argmin_step: int


def check_penalty(penalty: float) -> None:
    """A GIC penalty must be finite and positive."""
    if not (math.isfinite(penalty) and penalty > 0):
        raise FactorFuseError("GIC penalty must be finite and positive")


def gic_profile(path: MergingPath, penalty: float) -> GicProfile:
    check_penalty(penalty)
    rows = []
    for i, step in enumerate(path.steps):
        count = step.model.partition.size
        rows.append(
            GicRow(i, step.model.loglik, count, -2.0 * step.model.loglik + penalty * count)
        )
    # earliest step wins ties, favoring the finer partition
    argmin = min(range(len(rows)), key=lambda i: (rows[i].gic, i))
    return GicProfile(penalty=penalty, rows=tuple(rows), argmin_step=argmin)


CRITERIA = ("gic", "pvalue", "loglik")


@dataclass(frozen=True)
class SelectionCriterion:
    """How to pick one model on the path: ``kind`` is one of :data:`CRITERIA`."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in CRITERIA:
            raise FactorFuseError(f"unknown selection criterion: {self.kind!r}")
        if self.kind == "gic":
            check_penalty(self.value)
        if self.kind == "pvalue" and not 0.0 < self.value < 1.0:
            raise FactorFuseError("p-value threshold must be in (0, 1)")
        if self.kind == "loglik" and not math.isfinite(self.value):
            raise FactorFuseError("log-likelihood threshold must be finite")


def cut_step(path: MergingPath, criterion: SelectionCriterion, *,
             history: list[HistoryRow] | None = None, gic: GicProfile | None = None) -> int:
    """Index of the selected step on the path.

    ``history`` and ``gic`` may pass the path's :func:`merging_history` and
    a :func:`gic_profile` of it, so that neither is built again; a profile
    under another penalty than the criterion's is not read.
    """
    if criterion.kind == "gic":
        if gic is None or gic.penalty != criterion.value:
            gic = gic_profile(path, criterion.value)
        return gic.argmin_step
    # the last step that the criterion keeps, else the full model
    if criterion.kind == "pvalue":
        rows = merging_history(path) if history is None else history
        return max((r.step for r in rows if r.pval_vs_full > criterion.value), default=0)
    floor = path.full_model.loglik - criterion.value
    return max((i for i, s in enumerate(path.steps) if s.model.loglik >= floor), default=0)


def cut_tree(path: MergingPath, criterion: SelectionCriterion) -> Partition:
    return path.steps[cut_step(path, criterion)].model.partition


def optimal_partition_table(
    path: MergingPath, criterion: SelectionCriterion, *, step: int | None = None
) -> list[tuple[str, str]]:
    """(orig level, cluster label) per original level, in level order, in the
    partition that ``criterion`` selects; ``step`` may pass the step that
    :func:`cut_step` selected, so that it is not selected again."""
    if step is None:
        step = cut_step(path, criterion)
    partition = path.steps[step].model.partition
    return [(lv, partition.labels[s]) for lv, s in
            zip(path.levels, partition.positions(path.levels).tolist())]
