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
rows at risk at every event time.  Fits and :func:`score_pairs`, which scores
many candidate merges at once, read the same per-cluster sums
(:func:`cluster_sums`); the engine fits only the partition it chooses.

The shared nuisance parameters (sigma^2 for gaussian1d, the pooled
covariance for gaussianNd) are profiled: each partition gets the pooled MLE
so that nested partitions differ by exactly one degree of freedom per merge.
"""

from __future__ import annotations

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
    SingularCovariance,
)

LOG_2PI = math.log(2.0 * math.pi)

# Newton-Raphson settings for the Cox fit
COX_TOL = 1e-8
COX_MAX_ITER = 50

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
    # (stats, partition, cluster sums) -> FittedModel
    fit: Callable
    # (stats, cluster sums, i, j, fitted model of the partition the sums are
    # of) -> loglik with each pair (i[t], j[t]) merged
    score: Callable
    # (full model, positions, 1-D projection) -> ordering value of the clusters
    # at ``positions``; gaussianNd projects their means in the Mahalanobis metric
    order_value: Callable
    # the estimate group_summary reports per cluster
    estimate: str
    # response panels the plot accepts for this family, default first
    panels: tuple[str, ...]


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


def fit_stats(stats: LevelStats, partition: Partition) -> FittedModel:
    """Fit from precomputed level statistics, after checking that
    ``partition`` holds each level once; the merge loop fits its full model here."""
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
    return stats.family.fit(stats, partition, cluster_sums(stats, partition))


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


def merge_sums(sums: dict[str, np.ndarray], a: int, b: int) -> dict[str, np.ndarray]:
    """Cluster sums after merging clusters a < b: row b is added to row a
    and dropped, as :meth:`Partition.merge` places the merged cluster at a."""
    merged = {}
    for name, s in sums.items():
        merged[name] = np.delete(s, b, axis=0)
        merged[name][a] += s[b]
    return merged


def score_pairs(stats: LevelStats, sums: dict[str, np.ndarray],
                i: np.ndarray, j: np.ndarray, model: FittedModel) -> np.ndarray:
    """Log-likelihood of ``model.partition``, whose :func:`cluster_sums` are
    ``sums`` and whose fit is ``model``, with clusters ``i[t]`` and ``j[t]``
    merged, for every t.  Survival warm-starts each candidate's fit from
    ``model``; the other families read only the sums.

    Each value equals ``fit_stats(stats, merged).loglik`` up to rounding.
    """
    return stats.family.score(stats, sums, i, j, model)


def _sorted_rows(stats: LevelStats) -> tuple[np.ndarray, np.ndarray, list[slice]]:
    """Responses and weights sorted by level, then response, then weight, and
    each level's slice: sums over a slice do not depend on the row order."""
    y, grouping = stats.data.values, stats.grouping
    w = np.ones(len(y)) if stats.data.weights is None else stats.data.weights
    keys = (y,) if y.ndim == 1 else y.T[::-1]  # lexsort sorts by the last key first
    order = np.lexsort((w, *keys, grouping.codes))
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
    mean_square = float(stats.swy2.sum() / stats.sw.sum()) if len(y) else 0.0
    noise = (2 * (len(stats.levels) + 49) + 3) * np.finfo(float).eps * mean_square
    # tiny keeps the floor positive where rng**2 and the noise underflow
    stats.var_floor = max(1e-12 * rng * rng if rng > 0 else 1e-12, np.finfo(float).tiny, noise)


def _rss_loglik(stats: LevelStats, sums, log, added=0.0):
    """Log-likelihood and sigma^2, clamped at the variance floor, of the
    pooled residual sum of squares of ``sums`` plus ``added``."""
    n = float(stats.sw.sum())
    rss = _pooled(sums["swy2"] - sums["swy"] * sums["swy"] / sums["sw"]) + added
    sigma2 = np.maximum(np.maximum(rss, 0.0) / n, stats.var_floor)
    return -0.5 * n * (LOG_2PI + log(sigma2) + 1.0), sigma2


def _fit_gaussian_1d(stats: LevelStats, partition: Partition, sums) -> FittedModel:
    loglik, sigma2 = _rss_loglik(stats, sums, math.log)
    return FittedModel(
        family=GAUSSIAN_1D,
        partition=partition,
        loglik=loglik,
        estimates={"mean": sums["swy"] / sums["sw"]},
        nuisance={"sigma2": float(sigma2)},
        flags=("degenerate_variance",) if sigma2 == stats.var_floor else (),
    )


def _score_gaussian_1d(stats: LevelStats, sums, i, j, model) -> np.ndarray:
    # merging adds the Ward term w_i w_j / (w_i + w_j) * (mu_i - mu_j)^2 to the RSS
    sw = sums["sw"]
    mu = sums["swy"] / sw
    return _rss_loglik(stats, sums, np.log, _ward(sw, i, j) * (mu[i] - mu[j]) ** 2)[0]


def _gaussian_nd_stats(stats: LevelStats) -> None:
    y, w, levels = _sorted_rows(stats)
    with np.errstate(over="ignore", invalid="ignore"):  # see _check_moments
        wy = w[:, None] * y
        stats.sw = np.array([w[s].sum() for s in levels])
        stats.swy = np.array([wy[s].sum(axis=0) for s in levels])
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


def _fit_gaussian_nd(stats: LevelStats, partition: Partition, sums) -> FittedModel:
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
    numerically singular; raise if one stays singular."""
    trace = np.trace(cov, axis1=-2, axis2=-1) / d
    singular = np.linalg.eigvalsh(cov).min(axis=-1) <= 1e-10 * np.maximum(1.0, trace)
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


def _fit_binomial(stats: LevelStats, partition: Partition, sums) -> FittedModel:
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
    """Tables over the T distinct event times: ``D[l, t]`` counts level l's
    events at time t and ``R[l, t]`` its rows at risk then."""
    t, e = stats.data.values.T
    codes, k = stats.grouping.codes, len(stats.levels)
    times = np.unique(t[e == 1.0])
    T = len(times)
    at = codes[e == 1.0] * T + np.searchsorted(times, t[e == 1.0])
    stats.D = np.bincount(at, minlength=k * T).reshape(k, T).astype(float)
    # count each level's rows by the event times they reach; sum from the last
    reach = codes * (T + 1) + np.searchsorted(times, t, side="right")
    rows = np.bincount(reach, minlength=k * (T + 1)).reshape(k, T + 1)
    stats.R = np.cumsum(rows[:, :0:-1], axis=1)[:, ::-1].astype(float)


def _breslow_terms(D: np.ndarray, R: np.ndarray):
    """Events per cluster, events per time, and log R (-inf where no row is
    at risk): all the partial likelihood reads from a partition's tables."""
    log_r = np.log(R, out=np.full(R.shape, -np.inf), where=R > 0)
    return np.add.reduce(D, axis=1), np.add.reduce(D, axis=0), log_r


def _breslow(alpha: np.ndarray, terms):
    """Breslow partial log-likelihood with gradient and Hessian; each risk
    set's sum of R exp(alpha) is a log-sum-exp, so nothing overflows."""
    per_cluster, per_time, log_r = terms
    x = log_r + alpha[:, None]
    top = x.max(axis=0)  # finite: some row is at risk at every event time
    share = np.exp(x - top)
    total = np.add.reduce(share, axis=0)
    share /= total
    loglik = float(alpha @ per_cluster - per_time @ (top + np.log(total)))
    expected = share @ per_time
    hess = (share * per_time) @ share.T
    hess.flat[:: len(hess) + 1] -= expected
    return loglik, per_cluster - expected, hess


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Newton step on the free coefficients alpha[1:]."""
    try:
        return np.linalg.solve(-hess[1:, 1:], grad[1:])
    except np.linalg.LinAlgError as exc:
        raise NonConvergence("singular Hessian in Cox fit") from exc


def _cox_newton(D: np.ndarray, R: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients (reference ``alpha[0] = 0``) and maximised partial
    log-likelihood of the clusters whose tables are ``D`` and ``R``.

    Newton-Raphson from ``alpha`` (with ``alpha[0] == 0``) halves steps that
    lower the loglik and stops once a step gains less than ``COX_TOL``.  As
    in R's ``survival::coxph``, a coefficient is infinite if its remaining
    Newton step exceeds both ``COX_TOL`` and ``sqrt(COX_TOL) |alpha|``.
    """
    terms = _breslow_terms(D, R)
    ll, grad, hess = _breslow(alpha, terms)
    for _ in range(COX_MAX_ITER):
        step = _newton_step(grad, hess)  # empty for one cluster: done at once
        for halvings in range(40):
            trial = alpha.copy()
            trial[1:] += 0.5**halvings * step
            ll_new, grad_new, hess_new = _breslow(trial, terms)
            if ll_new >= ll - 1e-12:
                break
        else:
            raise NonConvergence("step halving failed in Cox fit")
        delta = ll_new - ll
        alpha, ll, grad, hess = trial, ll_new, grad_new, hess_new
        if abs(delta) < COX_TOL:
            left = np.abs(_newton_step(grad, hess))
            if np.any((left > COX_TOL) & (left > math.sqrt(COX_TOL) * np.abs(alpha[1:]))):
                raise MonotoneLikelihood("Cox coefficient may be infinite")
            return alpha, ll
    raise NonConvergence("Cox Newton-Raphson did not converge")


def _fit_cox(stats: LevelStats, partition: Partition, sums) -> FittedModel:
    if stats.D.shape[1] == 0:
        raise NoEvents("survival data has no uncensored events")
    alpha, ll = _cox_newton(sums["D"], sums["R"], np.zeros(len(sums["D"])))
    return FittedModel(family=SURVIVAL, partition=partition, loglik=ll,
                       estimates={"alpha": alpha, "hazard_ratio": _math_exp(alpha)})


def _score_cox(stats: LevelStats, sums, i, j, model: FittedModel) -> np.ndarray:
    # the partial likelihood has no closed-form merge update: fit each
    # candidate's merged tables by Newton from the current fit, with the
    # merged pair's coefficients pooled by their events; a converged fit
    # leaves no cluster without events
    labels, alpha = model.partition.labels, model.estimates["alpha"]
    events = np.add.reduce(sums["D"], axis=1)
    scores = []
    for a, b in zip(i.tolist(), j.tolist()):
        merged = merge_sums(sums, a, b)
        start = np.delete(alpha, b)
        start[a] = (events[a] * alpha[a] + events[b] * alpha[b]) / (events[a] + events[b])
        start -= start[0]
        try:
            scores.append(_cox_newton(merged["D"], merged["R"], start)[1])
        except (NonConvergence, MonotoneLikelihood) as exc:
            raise type(exc)(f"{exc}: candidate merge of {labels[a]} and {labels[b]} "
                            f"at {len(labels)} clusters") from exc
    return np.array(scores)


# ------------------------------------------------------------------ #
# The family records
# ------------------------------------------------------------------ #


FAMILIES = {
    GAUSSIAN_1D: Family(
        level_stats=_gaussian_1d_stats, sums=("sw", "swy", "swy2"), fit=_fit_gaussian_1d,
        score=_score_gaussian_1d, order_value=_estimate("mean"), estimate="mean",
        panels=("means", "boxplot", "frequency"),
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
        level_stats=_survival_stats, sums=("D", "R"), fit=_fit_cox,
        score=_score_cox, order_value=_estimate("alpha"), estimate="hazard_ratio",
        panels=("survival", "frequency"),
    ),
}


def group_summary(model: FittedModel) -> dict:
    """Per-cluster scalar (or vector) summary keyed by cluster label."""
    return dict(zip(model.partition.labels, model.estimates[FAMILIES[model.family].estimate]))


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
