"""Maximum-likelihood fits for the four model families.

What differs between the families is kept in one :class:`Family` record per
response kind, in :data:`FAMILIES`: how per-level statistics are built,
which of them are summed per cluster, the fit, the pair score, the per-level
ordering value, the estimate :func:`group_summary` reports, and the response
panels the plot accepts.  The engine, the plots and the CLI read the record
instead of switching on the kind.

Every fit is a pure function of (response data, grouping, partition) and
reads per-level sufficient statistics, computed once per dataset in
:class:`LevelStats` and invariant under row permutations of the input
(bitwise): Gaussian and binomial sums from one sort of the rows by level,
value and weight; for survival (Cox, Breslow ties), each level's events and
rows at risk at each event time, and the events per event time, which all
partitions share.  Fits and the family's ``score`` (for many candidate
merges at once) read the same per-cluster sums (:func:`cluster_sums`); the
engine fits only the partition it chooses.

The shared nuisance parameters (sigma^2 for gaussian1d, the pooled
covariance for gaussianNd) are profiled: each partition gets the pooled MLE
so that nested partitions differ by exactly one degree of freedom per merge.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import (
    BINOMIAL,
    GAUSSIAN_1D,
    GAUSSIAN_ND,
    SURVIVAL,
    Grouping,
    Partition,
    ResponseData,
)
from .errors import (
    DegenerateData,
    DegeneratePoints,
    EmptyCluster,
    MonotoneLikelihood,
    NoEvents,
    NonConvergence,
    RepeatedLabel,
    SingularCovariance,
)

LOG_2PI = math.log(2.0 * math.pi)

# Newton-Raphson settings for the Cox fit
COX_TOL = 1e-8
COX_MAX_ITER = 50
# Cells in the largest array a Cox evaluation builds, the table of risk-set
# products or the per-row products of a block of rows (see _RiskSets)
COX_CELLS = 1 << 19

# The fits take logarithms with math.log and the scorers with numpy's
# vectorised log, which can differ from it in the last bit; the fits keep
# math.log so that path log-likelihoods do not change, and math.exp so that
# hazard ratios do not.
def _math_log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), float, len(x))


def _math_exp(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.exp, x.tolist()), float, len(x))


@dataclass(frozen=True)
class FittedModel:
    """ML estimates and maximized log-likelihood for one partition.

    ``estimates`` maps each estimate name to an array with a row per cluster
    in partition order: ``mean`` (Gaussian, (c,) or (c, d)), ``p`` and
    ``logit`` (binomial), ``alpha`` and ``hazard_ratio`` (survival, whose
    reference cluster is at position 0).
    """

    family: str
    partition: Partition
    loglik: float
    estimates: dict[str, np.ndarray]
    nuisance: dict | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.loglik):
            raise DegenerateData("non-finite log-likelihood")


@dataclass(frozen=True)
class Family:
    """What one model family adds to the shared merging machinery."""

    # (stats) -> None: sets the per-level statistics
    level_stats: Callable
    # per-level statistics that cluster_sums adds up per cluster
    sums: tuple[str, ...]
    # (stats, partition, cluster sums, parent) -> FittedModel; ``parent`` is
    # None or a fit of the same levels that the fit may start from, or whose
    # scoring may already have fitted ``partition``
    fit: Callable
    # (stats, cluster sums, i, j, fitted model of the partition the sums are
    # of) -> loglik with each pair (i[t], j[t]) merged, which equals the fit
    # of the merged partition up to rounding
    score: Callable
    # (full model, positions, 1-D projection) -> ordering value of the clusters
    # at ``positions``; gaussianNd projects their means in the Mahalanobis metric
    order_value: Callable
    # the estimate group_summary reports per cluster
    estimate: str
    # response panels the plot accepts for this family, default first
    panels: tuple[str, ...]
    # nuisance entries only ``score`` and the next ``fit`` read, dropped from
    # a fit once replaced
    scoring_only: tuple[str, ...] = ()
    # None, or for a family whose ``score`` falls as a merge cost grows that
    # grows with the gap between two clusters' values on a line:
    # (stats, cluster sums, their fitted model) -> (value per cluster, radius), radius(threshold)
    # a gap r such that every pair whose values differ by at least r, as
    # computed, scores below ``threshold``; or None where none is certified
    line: Callable | None = None


class LevelStats:
    """Per-level sufficient statistics for a (data, grouping) pair."""

    def __init__(self, data: ResponseData, grouping: Grouping):
        if data.n != grouping.n:
            raise DegenerateData("response and grouping lengths differ")
        self.data = data
        self.grouping = grouping
        self.family = FAMILIES[data.kind]
        self.levels = grouping.levels
        self.family.level_stats(self)

    def cluster_rows(self, partition: Partition) -> list[np.ndarray]:
        """Member level indices per cluster, in declared level order."""
        out = []
        for c in partition.clusters:
            rows = sorted(self.grouping.code_of[m] for m in c.members)
            if not rows:
                raise EmptyCluster(c.label)
            out.append(np.asarray(rows, dtype=int))
        return out


def fit(data: ResponseData, grouping: Grouping, partition: Partition) -> FittedModel:
    """Fit the family determined by ``data.kind`` on ``partition``."""
    return fit_stats(LevelStats(data, grouping), partition)


def fit_stats(stats: LevelStats, partition: Partition,
              parent: FittedModel | None = None) -> FittedModel:
    """Fit from precomputed level statistics, after checking that
    ``partition`` holds each level once; the merge loop fits its full model here.

    When ``parent``, a fit of the same levels, is given, a Cox fit starts
    each cluster at the event-weighted mean of its levels' coefficients in
    ``parent``, unless ``partition`` merges two of its clusters and scoring
    ``parent`` kept that candidate's fit: then that fit is returned without a
    Newton step.  The other families ignore ``parent``.
    """
    have = frozenset(stats.levels)
    members = Counter(m for c in partition.clusters for m in c.members)
    missing = members.keys() - have
    if missing:
        raise EmptyCluster(
            "partition names levels with no observations: %s"
            % ", ".join(sorted(missing))
        )
    shared = [m for m, n in members.items() if n > 1]
    if shared:
        raise DegenerateData(f"level {shared[0]!r} is in more than one cluster")
    if members.keys() != have:
        raise DegenerateData("partition does not cover the grouping levels")
    return stats.family.fit(stats, partition, cluster_sums(stats, partition), parent)


def cluster_sums(stats: LevelStats, partition: Partition) -> dict[str, np.ndarray]:
    """Level statistics summed per cluster: one row per cluster of ``partition``.

    Each row adds up its levels in declared order; the engine re-sums a merged
    cluster's row the same way, so its path fits read the same bits.
    """
    rows = stats.cluster_rows(partition)
    # add.reduce sums along the first axis like .sum(axis=0), with less call overhead
    return {
        name: np.array([np.add.reduce(getattr(stats, name)[r]) for r in rows])
        for name in stats.family.sums
    }


def _sorted_rows(stats: LevelStats) -> tuple[np.ndarray, np.ndarray, list[slice]]:
    """Responses and weights in the order of np.lexsort((w, y_d, ..., y_1,
    codes)) up to rows tied in every key, and each level's slice: a sort by
    y_1, then a stable one by level (8- or 16-bit codes take numpy's radix
    sort), then a lexsort of only the runs tied in both by the further keys.
    Rows tied in every key differ at most in the sign of a zero, which no sum
    sees (a sum of zeros is -0 only when all are -0)."""
    y, grouping = stats.data.values, stats.grouping
    w = np.ones(len(y)) if stats.data.weights is None else stats.data.weights
    columns = y.reshape(len(y), -1).T
    order = np.argsort(columns[0])
    codes = grouping.codes.astype(np.min_scalar_type(grouping.k))[order]
    order = order[np.argsort(codes, kind="stable")]
    keys = tuple(columns[:0:-1]) if stats.data.weights is None else (w, *columns[:0:-1])
    if keys:
        first, codes = columns[0][order], grouping.codes[order]
        tied = np.zeros(len(y) + 1, bool)  # tied[t]: row t has the level and y_1 of row t - 1
        tied[1:-1] = (codes[1:] == codes[:-1]) & (first[1:] == first[:-1])
        rows = np.flatnonzero(tied[:-1] | tied[1:])
        if len(rows):
            run = np.cumsum(~tied[rows])  # run ids from 1, in the smallest type that holds them
            sub, run = order[rows], run.astype(np.min_scalar_type(run[-1]))
            order[rows] = sub[np.lexsort((*(key[sub] for key in keys), run))]
    ends = np.cumsum(list(grouping.counts.values())).tolist()
    return y[order], w[order], [slice(a, b) for a, b in zip([0] + ends, ends)]


def _pooled(per_cluster: np.ndarray) -> np.ndarray:
    """Sum over clusters, strictly left to right as the fits have always
    summed, so that path log-likelihoods keep their values to the bit."""
    return np.cumsum(per_cluster, axis=0)[-1]


def _ward(sw: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """w_i w_j / (w_i + w_j): the scatter a merge adds per squared mean gap."""
    # the fraction is at most 1, so no product of two weight sums can overflow
    return sw[i] / (sw[i] + sw[j]) * sw[j]


def _estimate(key: str) -> Callable:
    """Order clusters by one scalar estimate of the full model."""
    def value(model: FittedModel, positions, project) -> np.ndarray:
        return model.estimates[key][positions]
    return value


# ------------------------------------------------------------------ #
# Gaussian
# ------------------------------------------------------------------ #


def _moment_stats(stats: LevelStats) -> None:
    """Weighted count, sum and sum of squares of a scalar response per level."""
    y, w, levels = _sorted_rows(stats)
    with np.errstate(over="ignore", invalid="ignore"):  # Gaussian: see _check_moments
        wy = w * y
        stats.sw = np.array([w[s].sum() for s in levels])
        stats.swy = np.array([wy[s].sum() for s in levels])
        stats.swy2 = np.array([(wy[s] * y[s]).sum() for s in levels])


def _check_moments(stats: LevelStats, squares: np.ndarray) -> None:
    """Raise unless sum(w) * sum(w y^2) is finite, ``squares`` holding each
    level's sum(w y^2): by Cauchy-Schwarz it bounds swy^2 = (sum w y)^2, the
    product the fits and scorers form per cluster."""
    with np.errstate(over="ignore"):
        bound = float(stats.sw.sum()) * float(squares.sum())
    if not math.isfinite(bound):
        raise DegenerateData("responses too large or not finite: "
                             "sum(w) * sum(w y^2) is not finite")


# The variance floor lies above the rounding noise of swy2 - swy^2/sw.  A sum
# whose terms pass through at most h additions errs by at most h*u times the
# sum of their moduli, u = eps/2 (Higham 2002, sec. 4.2).  Per cluster, the
# errors of swy2 (terms rounded twice), swy (signed terms, bounded through
# Cauchy-Schwarz by sqrt(sw swy2)), sw, the square and the division add up to
# (h+2 + 2(h+1) + h + 2)u swy2 = (2h+3)eps swy2, so sigma^2 = RSS/sum(w) errs
# by at most (2h+3)eps sum(w y^2)/sum(w).  numpy's sum takes a term through at
# most 26 additions in a run of 128 and one more per halving beyond: h <= 50
# within a level of < 2^31 rows, plus k - 1 to join levels into a cluster,
# summed at once or merged one by one.  Hence the multiple 2(k + 49) + 3.
def _gaussian_1d_stats(stats: LevelStats) -> None:
    _moment_stats(stats)
    _check_moments(stats, stats.swy2)
    y = stats.data.values
    rng = float(y.max() - y.min()) if len(y) else 0.0
    stats.total = float(stats.sw.sum())  # the n of every log-likelihood
    mean_square = float(stats.swy2.sum() / stats.total) if len(y) else 0.0
    noise = (2 * (len(stats.levels) + 49) + 3) * np.finfo(float).eps * mean_square
    # tiny keeps the floor positive where rng**2 and the noise underflow
    stats.var_floor = max(1e-12 * rng * rng if rng > 0 else 1e-12, np.finfo(float).tiny, noise)


def _rss_loglik(stats: LevelStats, rss, log):
    """Log-likelihood and sigma^2, clamped at the variance floor, of a
    pooled residual sum of squares ``rss`` (or an array of them)."""
    n = stats.total
    sigma2 = np.maximum(np.maximum(rss, 0.0) / n, stats.var_floor)
    return -0.5 * n * (LOG_2PI + log(sigma2) + 1.0), sigma2


def _fit_gaussian_1d(stats: LevelStats, partition: Partition, sums, parent=None) -> FittedModel:
    rss = float(_pooled(sums["swy2"] - sums["swy"] * sums["swy"] / sums["sw"]))
    loglik, sigma2 = _rss_loglik(stats, rss, math.log)
    return FittedModel(
        family=GAUSSIAN_1D,
        partition=partition,
        loglik=loglik,
        estimates={"mean": sums["swy"] / sums["sw"]},
        nuisance={"sigma2": float(sigma2), "rss": rss},
        flags=("degenerate_variance",) if sigma2 == stats.var_floor else (),
    )


def _score_gaussian_1d(stats: LevelStats, sums, i, j, model) -> np.ndarray:
    # merging adds the Ward term w_i w_j / (w_i + w_j) * (mu_i - mu_j)^2 to the RSS
    sw = sums["sw"]
    mu = sums["swy"] / sw
    return _rss_loglik(stats, model.nuisance["rss"] + _ward(sw, i, j) * (mu[i] - mu[j]) ** 2,
                       np.log)[0]


def _gaussian_1d_line(stats: LevelStats, sums, model):
    """Cluster means, as the scorer computes them, and their radius function.

    A pair's computed score is a non-increasing function of its computed Ward
    term fl(W fl(g g)), g = fl(mu_i - mu_j): every operation after it is
    correctly rounded and monotone, and so is np.log.  With w the least
    cluster weight, w_i w_j / (w_i + w_j) >= w / 2, and three roundings keep the
    computed W at least ``lower`` below (its factor 1 - 4 eps < (1 - u)^2 /
    (1 + u)), while W and the division in it stay in the normal range.  So a
    pair with |g| >= r has a Ward term of at least fl(lower fl(r r)), and
    scores at most the scorer's value there.  r inverts the score at the
    threshold (a little beyond), and is returned only if that value is below
    the threshold; else None, as where every such value is clamped at the
    variance floor."""
    sw = sums["sw"]

    def radius(threshold: float) -> float | None:
        n, least = stats.total, float(sw.min())
        if not least > 2.0**-1000 * max(n, 1.0):
            return None
        lower = 0.5 * least * (1.0 - 2.0**-50)  # 1 - 4 eps
        rss = model.nuisance["rss"]
        try:
            added = n * math.exp(-2.0 * threshold / n - LOG_2PI - 1.0) - rss
        except OverflowError:
            return None
        r = math.sqrt(max(added, 0.0) / lower) * (1.0 + 2.0**-10)
        bound = lower * (r * r)
        below = math.isfinite(bound) and (
            _rss_loglik(stats, rss + np.array([bound]), np.log)[0][0] < threshold)
        return r if below else None

    return sums["swy"] / sw, radius


def _gaussian_nd_stats(stats: LevelStats) -> None:
    y, w, levels = _sorted_rows(stats)
    with np.errstate(over="ignore", invalid="ignore"):  # see _check_moments
        stats.sw = np.array([w[s].sum() for s in levels])
        stats.swy = np.array([(w[s, None] * y[s]).sum(axis=0) for s in levels])
        stats.swyyt = np.array([np.einsum("i,ij,ik->jk", w[s], y[s], y[s]) for s in levels])
    _check_moments(stats, stats.swyyt.diagonal(axis1=1, axis2=2))


def _scatter_loglik(stats: LevelStats, sums, added=0.0):
    """Log-likelihood, covariance and ridge flags of the pooled scatter
    matrix of ``sums`` plus ``added`` (shape ``(d, d)`` or ``(m, d, d)``)."""
    swy, sw = sums["swy"], sums["sw"]
    n, d = float(stats.sw.sum()), swy.shape[1]
    scatter = _pooled(sums["swyyt"] - swy[:, :, None] * swy[:, None, :] / sw[:, None, None])
    cov, flags = _ensure_nonsingular((scatter + added) / n, d)
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * n * (d * LOG_2PI + logdet + d), cov, flags


def _fit_gaussian_nd(stats: LevelStats, partition: Partition, sums, parent=None) -> FittedModel:
    loglik, cov, flags = _scatter_loglik(stats, sums)
    return FittedModel(
        family=GAUSSIAN_ND,
        partition=partition,
        loglik=loglik,
        estimates={"mean": sums["swy"] / sums["sw"][:, None]},
        nuisance={"cov": cov},
        flags=flags,
    )


def _score_gaussian_nd(stats: LevelStats, sums, i, j, model) -> np.ndarray:
    # merging adds the Ward scatter w_i w_j / (w_i + w_j) * delta delta^T
    sw = sums["sw"]
    mu = sums["swy"] / sw[:, None]
    delta = mu[i] - mu[j]
    ward = _ward(sw, i, j)[:, None, None] * delta[:, :, None] * delta[:, None, :]
    return _scatter_loglik(stats, sums, ward)[0]


def _ensure_nonsingular(cov: np.ndarray, d: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Ridge the covariance matrices (shape ``(..., d, d)``) that are
    numerically singular: whose least eigenvalue is at most 1e-10 times
    their mean eigenvalue, whatever the scale of the responses.  Raise if
    one stays singular."""
    trace = np.trace(cov, axis1=-2, axis2=-1) / d
    singular = np.linalg.eigvalsh(cov).min(axis=-1) <= 1e-10 * trace
    if not singular.any():
        return cov, ()
    # one ridge attempt, then give up
    ridge = np.where(singular, 1e-8 * np.maximum(trace, 1e-8), 0.0)
    fixed = cov + ridge[..., None, None] * np.eye(d)
    if np.linalg.eigvalsh(fixed[singular]).min() > 0:
        return fixed, ("ridged_covariance",)
    raise SingularCovariance("pooled covariance singular after ridge")


def _projected_means(model: FittedModel, positions, project) -> np.ndarray:
    """1-D projection of the means of the clusters at ``positions`` in the
    Mahalanobis metric of the pooled covariance; means that all coincide tie."""
    means = model.estimates["mean"][positions]
    chol = np.linalg.cholesky(model.nuisance["cov"])
    # z = chol^-1 mean by forward substitution: unlike a pivoting solve, it
    # leaves z bitwise equal if a response column is scaled by a power of two
    z = np.empty_like(means)
    for c in range(len(chol)):
        z[:, c] = (means[:, c] - z[:, :c] @ chol[c, :c]) / chol[c, c]
    try:
        return project(z)
    except DegeneratePoints:
        return np.zeros(len(means))


# ------------------------------------------------------------------ #
# Binomial
# ------------------------------------------------------------------ #


def _binomial_loglik(sw: np.ndarray, swy: np.ndarray, log=np.log) -> np.ndarray:
    """Per-cluster binomial log-likelihood with 0*log 0 == 0."""
    p = swy / sw
    ll = np.where(p > 0.0, swy * log(np.where(p > 0.0, p, 1.0)), 0.0)
    return ll + np.where(p < 1.0, (sw - swy) * log(np.where(p < 1.0, 1.0 - p, 1.0)), 0.0)


def _fit_binomial(stats: LevelStats, partition: Partition, sums, parent=None) -> FittedModel:
    sw, swy = sums["sw"], sums["swy"]
    p = swy / sw
    with np.errstate(divide="ignore"):  # p = 0 or 1 gives a logit of -inf or inf
        estimates = {"p": p, "logit": np.log(p / (1.0 - p))}
    return FittedModel(
        family=BINOMIAL,
        partition=partition,
        loglik=float(_pooled(_binomial_loglik(sw, swy, _math_log))),
        estimates=estimates,
        nuisance=None,
    )


def _score_binomial(stats: LevelStats, sums, i, j, model) -> np.ndarray:
    # only the merged pair's own term changes
    sw, swy = sums["sw"], sums["swy"]
    ll = _binomial_loglik(sw, swy)
    merged = _binomial_loglik(sw[i] + sw[j], swy[i] + swy[j])
    return float(ll.sum()) - ll[i] - ll[j] + merged


# ------------------------------------------------------------------ #
# Cox proportional hazards (Breslow ties)
# ------------------------------------------------------------------ #


def _survival_stats(stats: LevelStats) -> None:
    """What the Breslow partial likelihood reads, over the T distinct event
    times: ``R[l, t]`` counts level l's rows at risk at time t, ``events[l]``
    level l's events, and ``per_time[t]`` all events at t, whatever the partition."""
    t, e = stats.data.values.T
    codes, k, event = stats.grouping.codes, len(stats.levels), e == 1.0
    times = np.unique(t[event])
    T = len(times)
    stats.events = np.bincount(codes, event, k)
    stats.per_time = np.bincount(np.searchsorted(times, t[event]), minlength=T).astype(float)
    # all of a level's rows start at risk; each drops out after its own time
    leave = codes * (T + 1) + np.searchsorted(times, t, side="right")
    R = np.bincount(leave, np.full(len(t), -1.0), k * (T + 1)).reshape(k, T + 1)
    R[:, 0] += np.bincount(codes, minlength=k)
    stats.R = np.cumsum(R[:, :T], axis=1)


class _RiskSets:
    """The Breslow partial likelihood of one partition's ``events``, ``per_time``
    and ``R``, with its gradient and Hessian, for rows of cluster coefficients at once.

    A row's log-likelihood is summed without BLAS, whose results for one row
    can change with the number of rows beside it: step halving compares a
    row's values from evaluations of different sets of rows.

    A Hessian takes one of two routes, chosen from the c clusters, T event
    times and the ``rows`` evaluated at once.  Where several rows are and the
    T x c(c+1)/2 table of products R_ti R_tj fits ``COX_CELLS``, it is built
    once and one GEMM against it gives every row's Hessian; otherwise each
    row's is (R q_t) R^T, batched.  Evaluations of at most ``block`` rows
    keep the largest array, table or (b, c, T) products, within the budget.
    """

    def __init__(self, events: np.ndarray, per_time: np.ndarray, R: np.ndarray, rows: int):
        c, T = R.shape
        self.events, self.per_time, self.R, self.table = events, per_time, R, None
        if rows == 1 or T * c * (c + 1) // 2 > COX_CELLS:
            self.block = max(1, COX_CELLS // (c * max(T, c)))
            return
        # a table row of R_ti R_tj per time and entry (i, j), i <= j
        self.upper, self.entry = _table_entries(c)
        self.table = (R[self.upper[0]] * R[self.upper[1]]).T
        self.block = max(1, COX_CELLS // max(T, c * c))

    def evaluate(self, A: np.ndarray):
        """Log-likelihood (m,), gradient (m, c) and Hessian (m, c, c) at each
        row of coefficients ``A`` (m, c).  Each cluster weighs exp(A - max A)
        <= 1, so nothing overflows; a risk set whose weights all underflow
        gives a non-finite value, which the caller rejects."""
        R, diagonal = self.R, np.arange(A.shape[1])
        with np.errstate(all="ignore"):
            x = A - A.max(axis=1, keepdims=True)
            w = np.exp(x)
            total = np.einsum("mc,ct->mt", w, R)  # row by row, unlike w @ R
            loglik = np.einsum("mc,c->m", x, self.events) - np.einsum(
                "mt,t->m", np.log(total), self.per_time)
            q = self.per_time / total
            expected = w * (q @ R.T)
            q /= total
            if self.table is None:
                hess = ((R * q[:, None, :]) @ R.T) * (w[:, :, None] * w[:, None, :])
            else:
                i, j = self.upper
                hess = ((q @ self.table) * (w[:, i] * w[:, j]))[:, self.entry]
            hess[:, diagonal, diagonal] -= expected
        return loglik, self.events - expected, hess


@functools.lru_cache(maxsize=64)
def _table_entries(c: int):
    """The entries (i, j), i <= j, of a c x c Hessian that the table of
    risk-set products holds, and where each entry is among them; built once
    per c for every scoring call at c clusters."""
    upper, entry = np.triu_indices(c), np.empty((c, c), int)
    entry[upper] = entry[upper[::-1]] = np.arange(len(upper[0]))
    for shared in (*upper, entry):  # every later call reads these arrays
        shared.flags.writeable = False
    return upper, entry


def _solve_steps(grad: np.ndarray, hess: np.ndarray):
    """Newton steps -hess^-1 grad of stacked rows, and which rows' Hessians
    are singular (their steps are left at 0)."""
    try:
        return np.linalg.solve(-hess, grad[..., None])[..., 0], np.zeros(len(grad), bool)
    except np.linalg.LinAlgError:
        steps, singular = np.zeros_like(grad), np.zeros(len(grad), bool)
        for t in range(len(grad)):
            try:
                steps[t] = np.linalg.solve(-hess[t], grad[t])
            except np.linalg.LinAlgError:
                singular[t] = True
        return steps, singular


def _tied(a: np.ndarray, b: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Row t: ``positions`` once clusters a[t] < b[t] merge: b goes to a, those after b up one."""
    return np.where(positions == b[:, None], a[:, None], positions - (positions > b[:, None]))


def _tie(a: np.ndarray, b: np.ndarray, c: int):
    """Row t ties clusters a[t] < b[t] of c: the position of each cluster's
    coefficient among the c - 1 of the merged partition (:func:`_tied`), and
    the derivative of the c coefficients by the c - 1, which folds a gradient
    g and Hessian H into the merged coefficients as g @ F and F^T H F."""
    clusters = np.arange(c)
    at = _tied(a, b, clusters)
    fold = np.zeros((len(a), c, c - 1))
    fold[np.arange(len(a))[:, None], clusters, at] = 1.0
    return at, fold


def _cox_fit_rows(sets: _RiskSets, start: np.ndarray, tie=None):
    """Maximise the partial likelihood of ``sets`` from each row of ``start``.

    Each row of ``start`` holds the coefficients of a partition's clusters,
    the reference ``start[:, 0] == 0`` first.  Without ``tie`` that
    partition is the one whose tables ``sets`` holds; with ``tie``, which
    :func:`_tie` gives for clusters a < b, row t fits it with the clusters
    a[t] and b[t] merged, which is the same partial likelihood with both
    coefficients tied.

    Newton-Raphson on the free coefficients halves steps that lower the
    loglik or reach non-finite values, and stops once a step gains less than
    ``COX_TOL``.  A row also stops where it stands when its full step is
    rejected, yet loses less than ``COX_TOL`` and its Newton decrement
    1/2 g^T (-H)^-1 g, the gain the step predicts (Boyd and Vandenberghe,
    *Convex Optimization*, sec. 9.5.1), is under ``COX_TOL`` too: it is at
    the optimum, and rounding noise in the loglik, a sum over the event
    times, outweighs the gain left.  As in R's ``survival::coxph``, a
    coefficient is infinite if its remaining Newton step exceeds both
    ``COX_TOL`` and ``sqrt(COX_TOL) |alpha|``.  The rows step in lockstep,
    each leaving once it converges or fails.

    Returns the coefficients, log-likelihoods and free-coefficient Hessians
    of the fits, and (row, error) of the first row that failed, or None.
    """
    m, n = start.shape
    if tie is not None:
        at, fold = tie[0], tie[1][:, :, 1:]  # the free coefficients

    def evaluate(rows, coef):
        if tie is None:
            ll, grad, hess = sets.evaluate(coef)
            return ll, grad[:, 1:], hess[:, 1:, 1:]
        ll, grad, hess = sets.evaluate(coef[np.arange(len(rows))[:, None], at[rows]])
        f = fold[rows]
        with np.errstate(all="ignore"):  # non-finite values are rejected below
            return ll, (grad[:, None] @ f)[:, 0], f.transpose(0, 2, 1) @ hess @ f

    failed: dict[int, Exception] = {}

    def fail(rows, error):
        failed.update(dict.fromkeys(rows.tolist(), error))

    coef, active, converged = start.copy(), np.arange(m), np.zeros(m, bool)
    ll, grad, hess = evaluate(active, coef)
    for iteration in range(COX_MAX_ITER + 1):
        step, singular = _solve_steps(grad[active], hess[active])
        done = converged[active]
        if done.any() or singular.any():
            fail(active[singular], NonConvergence("singular Hessian in Cox fit"))
            # rows whose last step gained less than COX_TOL leave, unless the
            # step left on some coefficient says it is infinite
            done &= ~singular
            left = np.abs(step[done])
            infinite = ((left > COX_TOL) & (left > math.sqrt(COX_TOL) * np.abs(coef[active[done], 1:]))).any(axis=1)
            fail(active[done][infinite], MonotoneLikelihood("Cox coefficient may be infinite"))
            # no row after the first failed one can be the first to fail
            going = ~done & ~singular & (active < min(failed, default=m))
            step, active = step[going], active[going]
        if not len(active) or iteration == COX_MAX_ITER:
            break
        pending = np.arange(len(active))
        for halvings in range(40):
            if not len(pending):
                break
            rows = active[pending]
            trial = coef[rows]
            trial[:, 1:] += 0.5**halvings * step[pending]
            ll_new, grad_new, hess_new = evaluate(rows, trial)
            ok = ((ll_new >= ll[rows] - 1e-12) & np.isfinite(ll_new)
                  & np.isfinite(grad_new).all(axis=1) & np.isfinite(hess_new).all(axis=(1, 2)))
            if len(rows) == m and ok.all():  # all rows stepped: keep the trial's arrays
                converged = np.abs(ll_new - ll) < COX_TOL
                coef, ll, grad, hess = trial, ll_new, grad_new, hess_new
                pending = pending[:0]
                break
            rejected = ~ok
            if not halvings and rejected.any():
                # a full step that loses less than COX_TOL where the Newton
                # decrement is under COX_TOL too: the row stands at its optimum
                decrement = 0.5 * np.einsum("ij,ij->i", grad[rows], step[pending])
                stop = rejected & (decrement < COX_TOL) & (ll[rows] - ll_new < COX_TOL)
                converged[rows[stop]] = True
                rejected &= ~stop
            rows = rows[ok]
            converged[rows] = np.abs(ll_new[ok] - ll[rows]) < COX_TOL
            coef[rows], ll[rows], grad[rows], hess[rows] = trial[ok], ll_new[ok], grad_new[ok], hess_new[ok]
            pending = pending[rejected]
        if len(pending):
            fail(active[pending], NonConvergence("step halving failed in Cox fit"))
            active = active[active < min(failed, default=m)]
    fail(active, NonConvergence("Cox Newton-Raphson did not converge"))
    return coef, ll, hess, min(failed.items()) if failed else None


def _fit_cox(stats: LevelStats, partition: Partition, sums, parent=None) -> FittedModel:
    """The Cox fit of ``partition``.  If it merges clusters a < b of
    ``parent``, leaving the others unchanged, and scoring ``parent`` kept
    that candidate's fit with its Hessian (:func:`_score_cox`), the fit is
    adopted: the candidate's coefficients, its score as the loglik, bit for
    bit, and minus its Hessian as the information.  Otherwise Newton runs
    from ``parent``'s coefficients pooled by events, or from 0 without one."""
    if not len(stats.per_time):
        raise NoEvents("survival data has no uncensored events")
    c = len(sums["R"])
    never, eventless = ~sums["R"].any(axis=1), sums["events"] == 0
    if never.any():
        raise NonConvergence(f"cluster {partition.labels[np.argmax(never)]} has no row at risk "
                             "at any event time: its Cox coefficient is not identifiable")
    if eventless.any():
        raise MonotoneLikelihood(f"cluster {partition.labels[np.argmax(eventless)]} has no "
                                 "events: its Cox coefficient may be infinite")
    carry, adopted = {}, None
    if parent is None:
        start = np.zeros((1, c))
    else:
        # each level carries its parent cluster's coefficient and its events
        prev, now = parent.partition.positions(stats.levels), partition.positions(stats.levels)
        alpha = parent.estimates["alpha"][prev]
        if "fits" in parent.nuisance:  # the parent's candidate fits, for the next scoring
            fits = parent.nuisance["fits"]
            carry["carried"] = (*fits[:3], prev, now, alpha)
            adopted = _adopted_row(fits, prev, now)
        if adopted is None:
            start = _pooled_start(alpha, stats.events, now[None], c)
    if adopted is None:
        coef, ll, hess, failed = _cox_fit_rows(
            _RiskSets(sums["events"], stats.per_time, sums["R"], 1), start)
        if failed:
            raise failed[1]
        fitted, loglik, information = coef[0], ll[0], -hess[0]
    else:
        # scoring fitted this very merge to convergence: its fit is this one
        _, _, coef, ll, hess = fits
        fitted, loglik, information = coef[adopted].copy(), ll[adopted], -hess[adopted]
    return FittedModel(family=SURVIVAL, partition=partition, loglik=float(loglik),
                       estimates={"alpha": fitted, "hazard_ratio": _math_exp(fitted)},
                       nuisance={"information": information, **carry})


def _adopted_row(fits, prev: np.ndarray, now: np.ndarray) -> int | None:
    """The row of a parent's candidate fits (i, j, coefficients, logliks,
    Hessians or None; see :func:`_score_cox`) that fitted the partition whose
    level positions are ``now``, from the parent's ``prev``: clusters
    i[t] < j[t] merged and every other cluster unchanged.  None if no row
    did or the Hessians were not kept."""
    fi, fj, _, _, hess = fits
    moved = np.flatnonzero(prev != now)
    if hess is None or not len(moved):
        return None
    first = moved[np.argmin(prev[moved])]  # a level of cluster b, which went into a
    a, b = now[first:first + 1], prev[first:first + 1]
    row = np.flatnonzero((fi == a) & (fj == b))
    return int(row[0]) if len(row) and np.array_equal(now, _tied(a, b, prev)[0]) else None


def _pooled_start(alpha: np.ndarray, events: np.ndarray, into: np.ndarray, c: int) -> np.ndarray:
    """Starting coefficients of c clusters from a finer fit: unit u (a level
    or a cluster) has coefficient alpha[u] (or alpha[t, u]) and events[u]
    events, and row t puts it into cluster into[t, u].  A cluster starts at
    the event-weighted mean of its units' coefficients (at 0 if they hold no
    events), and each row is shifted so that cluster 0 is the reference."""
    m = len(into)
    cells = (into + c * np.arange(m)[:, None]).ravel()
    weights = np.tile(events, m)
    total = np.bincount(cells, weights, m * c)[cells]
    # a unit alone in its cluster has share 1 and keeps its coefficient's bits
    share = np.divide(weights, total, out=np.zeros_like(weights), where=total > 0)
    start = np.bincount(cells, (share.reshape(into.shape) * alpha).ravel(), m * c).reshape(m, c)
    return start - start[:, :1]


def _inverse_information(information: np.ndarray) -> np.ndarray | None:
    """Inverse of the ``information`` of the c - 1 free coefficients, padded
    with a zero row and column for the reference; None where it is not
    positive definite by the rank tolerance of ``numpy.linalg.matrix_rank``:
    least eigenvalue at most (c - 1) eps times the largest."""
    try:
        values, vectors = np.linalg.eigh(information)
    except np.linalg.LinAlgError:
        return None
    if not values[0] > len(values) * np.finfo(float).eps * values[-1]:  # also false for NaN
        return None
    inverse = np.zeros((len(values) + 1,) * 2)  # np.pad would take longer than the rest
    inverse[1:, 1:] = (vectors / values) @ vectors.T
    return inverse


def _tied_optimum(alpha, inverse, a, b):
    """Row t: the maximum of the parent fit's quadratic model with clusters
    a[t] and b[t] tied, b[t] dropped and cluster 0 the reference; and which
    rows are usable.

    The parent fit ``alpha`` maximises the partial likelihood, so near it
    the likelihood is alpha's value less half the information quadratic
    form of the distance from alpha.  Under alpha_a = alpha_b its maximum
    is alpha - u (alpha_a - alpha_b) / (u_a - u_b), with u the inverse
    information (``inverse``) times e_a - e_b (Nocedal and Wright,
    *Numerical Optimization*, sec. 16.1).  Rows where u_a - u_b is not
    positive and finite are not usable."""
    rows = np.arange(len(a))
    with np.errstate(all="ignore"):
        u = (inverse[:, a] - inverse[:, b]).T
        curvature = u[rows, a] - u[rows, b]
        start = alpha - u * ((alpha[a] - alpha[b]) / curvature)[:, None]
    keep = np.arange(len(alpha) - 1)
    start = start[rows[:, None], keep + (keep >= b[:, None])]
    usable = np.isfinite(curvature) & (curvature > 0) & np.isfinite(start).all(axis=1)
    return start - start[:, :1], usable


def _carried_rows(model: FittedModel, i, j) -> np.ndarray:
    """Per candidate (i[t], j[t]), the row of the carried fits (:func:`_fit_cox`)
    of the same two clusters, both unchanged since; -1 where there is none."""
    fi, fj, coef, prev, now, _ = model.nuisance["carried"]
    into = np.zeros(coef.shape[1] + 1, int)  # the cluster each previous one went into
    into[prev] = now
    was = np.full(model.partition.size, -1)  # and the one it was, if unchanged
    if (into[prev] == now).all():  # a coarsening of the previous partition
        was[into] = np.arange(len(into))
        was[np.bincount(into, minlength=len(was)) != 1] = -1
    p, q = was[i], was[j]
    # the fits' pairs are sorted as the engine's are; unsorted ones are found less often
    keys, want = fi * len(into) + fj, p * len(into) + q
    found = np.searchsorted(keys, want).clip(max=len(keys) - 1)
    return np.where((p >= 0) & (q >= 0) & (keys[found] == want), found, -1)


def _score_cox(stats: LevelStats, sums, i, j, model: FittedModel) -> np.ndarray:
    # the partial likelihood has no closed-form merge update: fit every
    # candidate by Newton, in blocks of rows within the budget, from its fit
    # in the previous call if both its clusters are unchanged (read level by
    # level, moved by the path fit's change); else at the tied optimum of the
    # current fit's quadratic model, or with the merged pair pooled by events
    # where the information is singular.  Fits within the budget are kept
    # with their logliks, and with their Hessians within the budget too: the
    # path fit of the chosen merge adopts them (see _fit_cox).
    labels, alpha = model.partition.labels, model.estimates["alpha"]
    c = len(sums["R"])
    sets = _RiskSets(sums["events"], stats.per_time, sums["R"], len(i))
    inverse = _inverse_information(model.nuisance["information"])
    carried = _carried_rows(model, i, j) if "carried" in model.nuisance else np.full(len(i), -1)
    keep = len(i) * (c - 1) <= COX_CELLS
    hessians = keep and len(i) * (c - 2) ** 2 <= COX_CELLS
    scores, fits, hess = [], [], []
    for s in range(0, len(i), sets.block):
        a, b, rows = i[s:s + sets.block], j[s:s + sets.block], carried[s:s + sets.block]
        tie, start, cold = _tie(a, b, c), np.empty((len(a), c - 1)), rows < 0
        pooled = cold.copy()
        if inverse is not None:
            start[cold], usable = _tied_optimum(alpha, inverse, a[cold], b[cold])
            pooled[cold] = ~usable
        if pooled.any():
            start[pooled] = _pooled_start(alpha, sets.events, tie[0][pooled], c - 1)
        if not cold.all():
            fi, fj, fitted, prev, now, before = model.nuisance["carried"]
            rows = rows[~cold]
            level = fitted[rows[:, None], _tied(fi[rows], fj[rows], prev)] + (alpha[now] - before)
            start[~cold] = _pooled_start(level, stats.events, tie[0][~cold][:, now], c - 1)
        coef, ll, h, failed = _cox_fit_rows(sets, start, tie)
        if failed:
            row, exc = failed
            raise type(exc)(f"{exc}: candidate merge of {labels[a[row]]} and {labels[b[row]]} "
                            f"at {len(labels)} clusters") from exc
        scores.append(ll)
        if keep:
            fits.append(coef)
        if hessians:
            hess.append(h)
    scores = np.concatenate(scores)
    if keep:
        model.nuisance["fits"] = (i, j, np.concatenate(fits), scores,
                                  np.concatenate(hess) if hessians else None)
    return scores


# ------------------------------------------------------------------ #
# The family records
# ------------------------------------------------------------------ #


FAMILIES = {
    GAUSSIAN_1D: Family(
        level_stats=_gaussian_1d_stats, sums=("sw", "swy", "swy2"), fit=_fit_gaussian_1d,
        score=_score_gaussian_1d, order_value=_estimate("mean"), estimate="mean",
        panels=("means", "boxplot", "frequency"), line=_gaussian_1d_line,
    ),
    GAUSSIAN_ND: Family(
        level_stats=_gaussian_nd_stats, sums=("sw", "swy", "swyyt"), fit=_fit_gaussian_nd,
        score=_score_gaussian_nd, order_value=_projected_means, estimate="mean",
        panels=("frequency",),
    ),
    BINOMIAL: Family(
        level_stats=_moment_stats, sums=("sw", "swy"), fit=_fit_binomial,
        score=_score_binomial, order_value=_estimate("p"), estimate="p",
        panels=("proportion", "frequency"),
    ),
    SURVIVAL: Family(
        level_stats=_survival_stats, sums=("events", "R"), fit=_fit_cox,
        score=_score_cox, order_value=_estimate("alpha"), estimate="hazard_ratio",
        panels=("survival", "frequency"), scoring_only=("information", "fits", "carried"),
    ),
}


def group_summary(model: FittedModel) -> dict:
    """Per-cluster scalar (or vector) summary keyed by cluster label; raises
    :class:`RepeatedLabel` when two clusters share a label."""
    labels = model.partition.labels
    summary = dict(zip(labels, model.estimates[FAMILIES[model.family].estimate]))
    if len(summary) < len(labels):
        repeated = next(lb for i, lb in enumerate(labels) if lb in labels[:i])
        raise RepeatedLabel(f"clusters share the label {repeated}; "
                            "read model.estimates by position instead")
    return summary


def kaplan_meier(times: np.ndarray, events: np.ndarray):
    """Product-limit estimate; returns (event_times, survival_after).

    The curve is right-continuous with S(0) = 1; ``survival_after[i]`` is
    the value just after ``event_times[i]``.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    order = np.lexsort((events, times))
    times, events = times[order], events[order]
    event_times, first = np.unique(times, return_index=True)
    deaths = np.add.reduceat(events.astype(int), first)
    at_risk = len(times) - first
    died = deaths > 0
    return event_times[died], np.cumprod(1.0 - deaths[died] / at_risk[died])
