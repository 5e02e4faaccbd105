"""Maximum-likelihood fits for the four model families.

What differs between the families is kept in one :class:`Family` record per
response kind, in :data:`FAMILIES`: how per-level statistics are built,
which of them are summed per cluster, the fit, the pair score, the per-level
ordering value, the estimate :func:`group_summary` reports, and the response
panels the plot accepts.  The engine, the plots and the CLI read the record
instead of switching on the kind.

Every fit is a pure function of (response data, grouping, partition).  The
Gaussian and binomial families reduce to per-level sufficient statistics,
computed once per dataset in :class:`LevelStats` from observations sorted by
value and then weight, which makes log-likelihoods invariant under row
permutations of the input (bitwise, not just up to rounding).  Fits and
:func:`score_pairs`, which scores many candidate merges at once, read the
same per-cluster sums (:func:`cluster_sums`) through the same log-likelihood
helpers; the engine fits only the partition it chooses.

The shared nuisance parameters (sigma^2 for gaussian1d, the pooled
covariance for gaussianNd) are profiled: each partition gets the pooled MLE
so that nested partitions differ by exactly one degree of freedom per merge.
"""

from __future__ import annotations

import math
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
    EmptyCluster,
    MonotoneLikelihood,
    NoEvents,
    NonConvergence,
    SingularCovariance,
    WeightsNotSupported,
)

LOG_2PI = math.log(2.0 * math.pi)

# Newton-Raphson settings for the Cox fit
COX_TOL = 1e-8
COX_MAX_ITER = 50
COX_ALPHA_CAP = 20.0

# The fits take logarithms with math.log and the scorers with numpy's
# vectorised log, which can differ from it in the last bit; the fits keep
# math.log so that path log-likelihoods do not change.
_math_log = np.vectorize(math.log, otypes=[float])


@dataclass(frozen=True)
class FittedModel:
    """ML estimates and maximized log-likelihood for one partition."""

    family: str
    partition: Partition
    loglik: float
    estimates: dict
    nuisance: dict | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.loglik):
            raise DegenerateData("non-finite log-likelihood")


@dataclass(frozen=True)
class Family:
    """What one model family adds to the shared merging machinery."""

    # (stats, observation rows per level) -> None: sets the per-level statistics
    level_stats: Callable
    # per-level statistics that cluster_sums adds up per cluster
    sums: tuple[str, ...]
    # (stats, partition, cluster sums) -> FittedModel
    fit: Callable
    # (stats, cluster sums, partition, i, j) -> loglik with each pair merged
    score: Callable
    # (stats, full model or None, 1-D projection) -> ordering value per level
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
        self._index = {lv: i for i, lv in enumerate(self.levels)}
        self.family.level_stats(self, grouping.indices())

    def cluster_rows(self, partition: Partition) -> list[np.ndarray]:
        """Member level indices per cluster, in declared level order."""
        out = []
        for c in partition.clusters:
            rows = sorted(self._index[m] for m in c.members)
            if not rows:
                raise EmptyCluster(c.label)
            out.append(np.asarray(rows, dtype=int))
        return out


def fit(data: ResponseData, grouping: Grouping, partition: Partition, counter=None) -> FittedModel:
    """Fit the family determined by ``data.kind`` on ``partition``."""
    stats = LevelStats(data, grouping)
    return fit_stats(stats, partition, counter)


def fit_stats(stats: LevelStats, partition: Partition, counter=None) -> FittedModel:
    """Fit from precomputed level statistics (the engine's hot path)."""
    have = frozenset(stats.levels)
    missing = partition.level_set() - have
    if missing:
        raise EmptyCluster(
            "partition names levels with no observations: %s"
            % ", ".join(sorted(missing))
        )
    if partition.level_set() != have:
        raise DegenerateData("partition does not cover the grouping levels")
    if counter is not None:
        counter.increment()
    return stats.family.fit(stats, partition, cluster_sums(stats, partition))


def cluster_sums(stats: LevelStats, partition: Partition) -> dict[str, np.ndarray]:
    """Level statistics summed per cluster: one row per cluster of ``partition``.

    A merge of clusters a and b turns into ``row a += row b`` and dropping
    row b, so the engine keeps these up to date without refitting.
    """
    rows = stats.cluster_rows(partition)
    # add.reduce sums along the first axis like .sum(axis=0), with less call overhead
    return {
        name: np.array([np.add.reduce(getattr(stats, name)[r]) for r in rows])
        for name in stats.family.sums
    }


def score_pairs(stats: LevelStats, sums: dict[str, np.ndarray], partition: Partition,
                i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Log-likelihood of ``partition`` with clusters ``i[t]`` and ``j[t]``
    merged, for every t.

    ``sums`` are the :func:`cluster_sums` of ``partition``.  Each value
    equals ``fit_stats(stats, merged).loglik`` up to rounding.
    """
    return stats.family.score(stats, sums, partition, i, j)


def _sorted_level(data: ResponseData, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One level's responses and weights, sorted by response and then by
    weight, so that sums over them do not depend on the input row order."""
    y = data.values[rows]
    w = np.ones(len(rows)) if data.weights is None else data.weights[rows]
    keys = (y,) if y.ndim == 1 else y.T[::-1]  # lexsort sorts by the last key first
    order = np.lexsort((w, *keys))
    return y[order], w[order]


def _pooled(per_cluster: np.ndarray) -> np.ndarray:
    """Sum over clusters, strictly left to right as the fits have always
    summed, so that path log-likelihoods keep their values to the bit."""
    return np.cumsum(per_cluster, axis=0)[-1]


def _ward(sw: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """w_i w_j / (w_i + w_j): the scatter a merge adds per squared mean gap."""
    return sw[i] * sw[j] / (sw[i] + sw[j])


def _level_means(stats: LevelStats, full_model, project) -> np.ndarray:
    return stats.swy / stats.sw


# ------------------------------------------------------------------ #
# Gaussian
# ------------------------------------------------------------------ #


def _moment_stats(stats: LevelStats, idx: dict) -> None:
    """Weighted count, sum and sum of squares of a scalar response per level."""
    k = len(stats.levels)
    stats.sw, stats.swy, stats.swy2 = np.empty(k), np.empty(k), np.empty(k)
    for i, lv in enumerate(stats.levels):
        y, w = _sorted_level(stats.data, idx[lv])
        stats.sw[i] = w.sum()
        stats.swy[i] = (w * y).sum()
        stats.swy2[i] = (w * y * y).sum()


def _gaussian_1d_stats(stats: LevelStats, idx: dict) -> None:
    _moment_stats(stats, idx)
    y = stats.data.values
    rng = float(y.max() - y.min()) if len(y) else 0.0
    # tiny keeps the floor positive where rng**2 underflows
    stats.var_floor = max(1e-12 * rng * rng, np.finfo(float).tiny) if rng > 0 else 1e-12


def _rss_loglik(stats: LevelStats, sums, log, added=0.0):
    """Log-likelihood and sigma^2, clamped at the variance floor, of the
    pooled residual sum of squares of ``sums`` plus ``added``."""
    n = float(stats.sw.sum())
    rss = _pooled(sums["swy2"] - sums["swy"] * sums["swy"] / sums["sw"]) + added
    sigma2 = np.maximum(np.maximum(rss, 0.0) / n, stats.var_floor)
    return -0.5 * n * (LOG_2PI + log(sigma2) + 1.0), sigma2


def _fit_gaussian_1d(stats: LevelStats, partition: Partition, sums) -> FittedModel:
    loglik, sigma2 = _rss_loglik(stats, sums, math.log)
    means = (sums["swy"] / sums["sw"]).tolist()
    return FittedModel(
        family=GAUSSIAN_1D,
        partition=partition,
        loglik=loglik,
        estimates={c.label: {"mean": mu} for c, mu in zip(partition.clusters, means)},
        nuisance={"sigma2": float(sigma2)},
        flags=("degenerate_variance",) if sigma2 == stats.var_floor else (),
    )


def _score_gaussian_1d(stats: LevelStats, sums, partition, i, j) -> np.ndarray:
    # merging adds the Ward term w_i w_j / (w_i + w_j) * (mu_i - mu_j)^2 to the RSS
    sw = sums["sw"]
    mu = sums["swy"] / sw
    return _rss_loglik(stats, sums, np.log, _ward(sw, i, j) * (mu[i] - mu[j]) ** 2)[0]


def _gaussian_nd_stats(stats: LevelStats, idx: dict) -> None:
    k, d = len(stats.levels), stats.data.values.shape[1]
    stats.sw, stats.swy, stats.swyyt = np.empty(k), np.empty((k, d)), np.empty((k, d, d))
    for i, lv in enumerate(stats.levels):
        y, w = _sorted_level(stats.data, idx[lv])
        stats.sw[i] = w.sum()
        stats.swy[i] = (w[:, None] * y).sum(axis=0)
        stats.swyyt[i] = np.einsum("i,ij,ik->jk", w, y, y)


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
    means = sums["swy"] / sums["sw"][:, None]
    return FittedModel(
        family=GAUSSIAN_ND,
        partition=partition,
        loglik=loglik,
        estimates={c.label: {"mean": mu} for c, mu in zip(partition.clusters, means)},
        nuisance={"cov": cov},
        flags=flags,
    )


def _score_gaussian_nd(stats: LevelStats, sums, partition, i, j) -> np.ndarray:
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


def _projected_means(stats: LevelStats, full_model, project) -> np.ndarray:
    """Weighted level means of the 1-D projection of all observations."""
    proj = project(stats.data.values)
    w = stats.data.weights if stats.data.weights is not None else np.ones(stats.data.n)
    idx = stats.grouping.indices()
    return np.array([(proj[idx[lv]] * w[idx[lv]]).sum() / w[idx[lv]].sum() for lv in stats.levels])


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
    est = {}
    for c, p in zip(partition.clusters, (swy / sw).tolist()):
        logit = -math.inf if p <= 0.0 else math.inf if p >= 1.0 else math.log(p / (1.0 - p))
        est[c.label] = {"p": p, "logit": logit}
    return FittedModel(
        family=BINOMIAL,
        partition=partition,
        loglik=float(_pooled(_binomial_loglik(sw, swy, _math_log))),
        estimates=est,
        nuisance=None,
    )


def _score_binomial(stats: LevelStats, sums, partition, i, j) -> np.ndarray:
    # only the merged pair's own term changes
    sw, swy = sums["sw"], sums["swy"]
    ll = _binomial_loglik(sw, swy)
    merged = _binomial_loglik(sw[i] + sw[j], swy[i] + swy[j])
    return float(ll.sum()) - ll[i] - ll[j] + merged


# ------------------------------------------------------------------ #
# Cox proportional hazards (Breslow ties)
# ------------------------------------------------------------------ #


def _survival_stats(stats: LevelStats, idx: dict) -> None:
    if stats.data.weights is not None:
        raise WeightsNotSupported("survival fits do not accept weights")
    t, e = stats.data.values.T
    stats.times, stats.events = {}, {}
    for lv in stats.levels:
        rows = idx[lv]
        order = np.lexsort((e[rows], t[rows]))
        stats.times[lv] = t[rows][order]
        stats.events[lv] = e[rows][order]
    stats.n_events = int(e.sum())


def _cox_arrays(stats: LevelStats, partition: Partition):
    times, events, cluster_ix = [], [], []
    for j, c in enumerate(partition.clusters):
        for m in sorted(c.members, key=stats._index.__getitem__):
            times.append(stats.times[m])
            events.append(stats.events[m])
            cluster_ix.append(np.full(len(stats.times[m]), j, dtype=int))
    t = np.concatenate(times)
    e = np.concatenate(events)
    g = np.concatenate(cluster_ix)
    order = np.lexsort((g, e, t))
    return t[order], e[order], g[order]


def _cox_loglik_grad_hess(alpha, t, e, g, n_clusters):
    """Breslow partial log-likelihood with gradient and Hessian.

    ``alpha`` has one entry per cluster; entry 0 is the reference and is
    held at zero by the caller.  Risk sets are suffix sets of the
    time-sorted sample; tied event times share the risk set anchored at the
    first index of the tie group.
    """
    n = len(t)
    ea = np.exp(alpha)[g]
    # suffix sums, overall and per cluster
    z = np.cumsum(ea[::-1])[::-1]
    zc = np.zeros((n_clusters, n))
    for r in range(n_clusters):
        contrib = np.where(g == r, ea, 0.0)
        zc[r] = np.cumsum(contrib[::-1])[::-1]
    first_ge = np.searchsorted(t, t, side="left")
    ev = np.flatnonzero(e == 1.0)
    anchors = first_ge[ev]
    s = z[anchors]
    sc = zc[:, anchors]  # (n_clusters, n_events)
    loglik = float(np.sum(alpha[g[ev]] - np.log(s)))
    frac = sc / s  # (n_clusters, n_events)
    grad = np.bincount(g[ev], minlength=n_clusters).astype(float) - frac.sum(axis=1)
    hess = np.einsum("re,se->rs", frac, frac) - np.diag(frac.sum(axis=1))
    return loglik, grad, hess


def _fit_cox(stats: LevelStats, partition: Partition, sums) -> FittedModel:
    if stats.n_events == 0:
        raise NoEvents("survival data has no uncensored events")
    t, e, g = _cox_arrays(stats, partition)
    c = partition.size
    alpha = np.zeros(c)
    ll, grad, hess = _cox_loglik_grad_hess(alpha, t, e, g, c)
    if c > 1:
        free = slice(1, c)
        converged = False
        for _ in range(COX_MAX_ITER):
            try:
                step = np.linalg.solve(-hess[free, free], grad[free])
            except np.linalg.LinAlgError as exc:
                raise NonConvergence("singular Hessian in Cox fit") from exc
            scale = 1.0
            for _ in range(40):
                trial = alpha.copy()
                trial[free] += scale * step
                ll_new, grad_new, hess_new = _cox_loglik_grad_hess(trial, t, e, g, c)
                if ll_new >= ll - 1e-12:
                    break
                scale *= 0.5
            else:
                raise NonConvergence("step halving failed in Cox fit")
            delta = ll_new - ll
            alpha, ll, grad, hess = trial, ll_new, grad_new, hess_new
            if np.max(np.abs(alpha)) > COX_ALPHA_CAP:
                raise MonotoneLikelihood("Cox coefficient diverged")
            if abs(delta) < COX_TOL:
                converged = True
                break
        if not converged:
            raise NonConvergence("Cox Newton-Raphson did not converge")
    est = {}
    for j, cl in enumerate(partition.clusters):
        est[cl.label] = {
            "alpha": float(alpha[j]),
            "hazard_ratio": float(math.exp(alpha[j])),
            "reference": j == 0,
        }
    return FittedModel(
        family=SURVIVAL,
        partition=partition,
        loglik=ll,
        estimates=est,
        nuisance=None,
    )


def _score_cox(stats: LevelStats, sums, partition: Partition, i, j) -> np.ndarray:
    # the partial likelihood has no closed-form merge update: fit each candidate
    labels = partition.labels
    return np.array([
        fit_stats(stats, partition.merge(labels[a], labels[b])).loglik
        for a, b in zip(i.tolist(), j.tolist())
    ])


def _log_hazard_ratios(stats: LevelStats, full_model, project) -> np.ndarray:
    if full_model is None:
        full_model = fit_stats(stats, Partition.singletons(stats.levels))
    return np.array([full_model.estimates[f"({lv})"]["alpha"] for lv in stats.levels])


# ------------------------------------------------------------------ #
# The family records
# ------------------------------------------------------------------ #


FAMILIES = {
    GAUSSIAN_1D: Family(
        level_stats=_gaussian_1d_stats, sums=("sw", "swy", "swy2"), fit=_fit_gaussian_1d,
        score=_score_gaussian_1d, order_value=_level_means, estimate="mean",
        panels=("means", "boxplot", "frequency"),
    ),
    GAUSSIAN_ND: Family(
        level_stats=_gaussian_nd_stats, sums=("sw", "swy", "swyyt"), fit=_fit_gaussian_nd,
        score=_score_gaussian_nd, order_value=_projected_means, estimate="mean",
        panels=("frequency",),
    ),
    BINOMIAL: Family(
        level_stats=_moment_stats, sums=("sw", "swy"), fit=_fit_binomial,
        score=_score_binomial, order_value=_level_means, estimate="p",
        panels=("proportion", "frequency"),
    ),
    SURVIVAL: Family(
        level_stats=_survival_stats, sums=(), fit=_fit_cox,
        score=_score_cox, order_value=_log_hazard_ratios, estimate="hazard_ratio",
        panels=("survival", "frequency"),
    ),
}


def group_summary(model: FittedModel) -> dict:
    """Per-cluster scalar (or vector) summary keyed by cluster label."""
    key = FAMILIES[model.family].estimate
    return {label: est[key] for label, est in model.estimates.items()}


def kaplan_meier(times: np.ndarray, events: np.ndarray):
    """Product-limit estimate; returns (event_times, survival_after).

    The curve is right-continuous with S(0) = 1; ``survival_after[i]`` is
    the value just after ``event_times[i]``.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    order = np.lexsort((events, times))
    times, events = times[order], events[order]
    out_t, out_s = [], []
    s = 1.0
    n_at_risk = len(times)
    i = 0
    while i < len(times):
        t0 = times[i]
        j = i
        d = 0
        while j < len(times) and times[j] == t0:
            d += int(events[j])
            j += 1
        if d > 0:
            s *= 1.0 - d / n_at_risk
            out_t.append(t0)
            out_s.append(s)
        n_at_risk -= j - i
        i = j
    return np.asarray(out_t), np.asarray(out_s)
