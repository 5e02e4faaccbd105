"""Maximum-likelihood fits for the four model families.

Every fit is a pure function of (response data, grouping, partition).  The
Gaussian and binomial families reduce to per-level sufficient statistics,
computed once per dataset in :class:`LevelStats` and summed per cluster, so
a single fit costs O(number of clusters).  Per-level reductions are done on
value-sorted observations, which makes log-likelihoods invariant under row
permutations of the input (bitwise, not just up to rounding).

:func:`score_pairs` gives the log-likelihood after merging each of many
cluster pairs at once, from per-cluster sums (:func:`cluster_sums`), with
the same formulas as the fits.  The engine scores candidates with it and
fits only the partition it chooses.

The shared nuisance parameters (sigma^2 for gaussian1d, the pooled
covariance for gaussianNd) are profiled: each partition gets the pooled MLE
so that nested partitions differ by exactly one degree of freedom per merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


class LevelStats:
    """Per-level sufficient statistics for a (data, grouping) pair."""

    def __init__(self, data: ResponseData, grouping: Grouping):
        if data.n != grouping.n:
            raise DegenerateData("response and grouping lengths differ")
        self.data = data
        self.grouping = grouping
        self.kind = data.kind
        self.levels = grouping.levels
        self._index = {lv: i for i, lv in enumerate(self.levels)}
        idx = grouping.indices()

        w = data.weights
        if self.kind == SURVIVAL and w is not None:
            raise WeightsNotSupported("survival fits do not accept weights")

        if self.kind in (GAUSSIAN_1D, BINOMIAL):
            y = data.values
            self.sw = np.empty(len(self.levels))
            self.swy = np.empty(len(self.levels))
            self.swy2 = np.empty(len(self.levels))
            for i, lv in enumerate(self.levels):
                rows = idx[lv]
                yl = y[rows]
                wl = np.ones_like(yl) if w is None else w[rows]
                order = np.lexsort((wl, yl))
                yl, wl = yl[order], wl[order]
                self.sw[i] = wl.sum()
                self.swy[i] = (wl * yl).sum()
                self.swy2[i] = (wl * yl * yl).sum()
            if self.kind == GAUSSIAN_1D:
                rng = float(y.max() - y.min()) if data.n else 0.0
                self.var_floor = 1e-12 * rng * rng if rng > 0 else 1e-12
        elif self.kind == GAUSSIAN_ND:
            y = data.values
            d = data.dim
            self.sw = np.empty(len(self.levels))
            self.swy = np.empty((len(self.levels), d))
            self.swyyt = np.empty((len(self.levels), d, d))
            for i, lv in enumerate(self.levels):
                rows = idx[lv]
                yl = y[rows]
                wl = np.ones(len(rows)) if w is None else w[rows]
                order = np.lexsort(tuple(yl[:, j] for j in reversed(range(d))))
                yl, wl = yl[order], wl[order]
                self.sw[i] = wl.sum()
                self.swy[i] = (wl[:, None] * yl).sum(axis=0)
                self.swyyt[i] = np.einsum("i,ij,ik->jk", wl, yl, yl)
        else:  # survival
            t = data.values[:, 0]
            e = data.values[:, 1]
            self.times = {}
            self.events = {}
            n_events = 0
            for lv in self.levels:
                rows = idx[lv]
                order = np.lexsort((e[rows], t[rows]))
                self.times[lv] = t[rows][order]
                self.events[lv] = e[rows][order]
                n_events += int(e[rows].sum())
            self.n_events = n_events

    def cluster_rows(self, partition: Partition) -> list[np.ndarray]:
        """Member level indices per cluster, in declared level order."""
        out = []
        for c in partition.clusters:
            rows = sorted(self._index[m] for m in c.members)
            if not rows:
                raise EmptyCluster(c.label)
            out.append(np.asarray(rows, dtype=int))
        return out


def fit(
    data: ResponseData,
    grouping: Grouping,
    partition: Partition,
    counter=None,
) -> FittedModel:
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
    if stats.kind == GAUSSIAN_1D:
        return _fit_gaussian_1d(stats, partition)
    if stats.kind == GAUSSIAN_ND:
        return _fit_gaussian_nd(stats, partition)
    if stats.kind == BINOMIAL:
        return _fit_binomial(stats, partition)
    return _fit_cox(stats, partition)


# per-cluster sums each family's pair scorer reads; survival has none
_SUMS = {
    GAUSSIAN_1D: ("sw", "swy", "swy2"),
    GAUSSIAN_ND: ("sw", "swy", "swyyt"),
    BINOMIAL: ("sw", "swy"),
    SURVIVAL: (),
}


def cluster_sums(stats: LevelStats, partition: Partition) -> dict[str, np.ndarray]:
    """Level statistics summed per cluster: one row per cluster of ``partition``.

    A merge of clusters a and b turns into ``row a += row b`` and dropping
    row b, so the engine keeps these up to date without refitting.
    """
    rows = stats.cluster_rows(partition)
    return {
        name: np.array([getattr(stats, name)[r].sum(axis=0) for r in rows])
        for name in _SUMS[stats.kind]
    }


def score_pairs(
    stats: LevelStats,
    sums: dict[str, np.ndarray],
    partition: Partition,
    i: np.ndarray,
    j: np.ndarray,
) -> np.ndarray:
    """Log-likelihood of ``partition`` with clusters ``i[t]`` and ``j[t]``
    merged, for every t.

    ``sums`` are the :func:`cluster_sums` of ``partition``.  Each value
    equals ``fit_stats(stats, merged).loglik`` up to rounding.
    """
    if stats.kind == GAUSSIAN_1D:
        return _score_gaussian_1d(stats, sums, i, j)
    if stats.kind == GAUSSIAN_ND:
        return _score_gaussian_nd(stats, sums, i, j)
    if stats.kind == BINOMIAL:
        return _score_binomial(sums, i, j)
    return _score_cox(stats, partition, i, j)


def _ward(sw: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """w_i w_j / (w_i + w_j): the scatter a merge adds per squared mean gap."""
    return sw[i] * sw[j] / (sw[i] + sw[j])


# ------------------------------------------------------------------ #
# Gaussian
# ------------------------------------------------------------------ #


def _fit_gaussian_1d(stats: LevelStats, partition: Partition) -> FittedModel:
    rows = stats.cluster_rows(partition)
    n = float(stats.sw.sum())
    rss = 0.0
    means = {}
    for c, r in zip(partition.clusters, rows):
        sw = float(stats.sw[r].sum())
        swy = float(stats.swy[r].sum())
        swy2 = float(stats.swy2[r].sum())
        mu = swy / sw
        rss += swy2 - swy * swy / sw
        means[c.label] = {"mean": mu}
    sigma2 = max(rss, 0.0) / n
    flags = ()
    if sigma2 < stats.var_floor:
        sigma2 = stats.var_floor
        flags = ("degenerate_variance",)
    loglik = -0.5 * n * (LOG_2PI + math.log(sigma2) + 1.0)
    return FittedModel(
        family=GAUSSIAN_1D,
        partition=partition,
        loglik=loglik,
        estimates=means,
        nuisance={"sigma2": sigma2},
        flags=flags,
    )


def _score_gaussian_1d(stats: LevelStats, sums, i, j) -> np.ndarray:
    # merging adds the Ward term w_i w_j / (w_i + w_j) * (mu_i - mu_j)^2 to the RSS
    sw, swy, swy2 = sums["sw"], sums["swy"], sums["swy2"]
    n = float(stats.sw.sum())
    rss = float(np.sum(swy2 - swy * swy / sw))
    mu = swy / sw
    sigma2 = np.maximum(rss + _ward(sw, i, j) * (mu[i] - mu[j]) ** 2, 0.0) / n
    sigma2 = np.maximum(sigma2, stats.var_floor)
    return -0.5 * n * (LOG_2PI + np.log(sigma2) + 1.0)


def _fit_gaussian_nd(stats: LevelStats, partition: Partition) -> FittedModel:
    rows = stats.cluster_rows(partition)
    n = float(stats.sw.sum())
    d = stats.data.dim
    scatter = np.zeros((d, d))
    means = {}
    for c, r in zip(partition.clusters, rows):
        sw = float(stats.sw[r].sum())
        swy = stats.swy[r].sum(axis=0)
        swyyt = stats.swyyt[r].sum(axis=0)
        mu = swy / sw
        scatter += swyyt - np.outer(swy, swy) / sw
        means[c.label] = {"mean": mu}
    cov, flags = _ensure_nonsingular(scatter / n, d)
    _, logdet = np.linalg.slogdet(cov)
    loglik = -0.5 * n * (d * LOG_2PI + logdet + d)
    return FittedModel(
        family=GAUSSIAN_ND,
        partition=partition,
        loglik=loglik,
        estimates=means,
        nuisance={"cov": cov},
        flags=flags,
    )


def _score_gaussian_nd(stats: LevelStats, sums, i, j) -> np.ndarray:
    # merging adds the Ward scatter w_i w_j / (w_i + w_j) * delta delta^T
    sw, swy, swyyt = sums["sw"], sums["swy"], sums["swyyt"]
    n = float(stats.sw.sum())
    d = stats.data.dim
    scatter = (swyyt - swy[:, :, None] * swy[:, None, :] / sw[:, None, None]).sum(axis=0)
    mu = swy / sw[:, None]
    delta = mu[i] - mu[j]
    ward = _ward(sw, i, j)[:, None, None] * delta[:, :, None] * delta[:, None, :]
    cov, _ = _ensure_nonsingular((scatter + ward) / n, d)
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * n * (d * LOG_2PI + logdet + d)


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


# ------------------------------------------------------------------ #
# Binomial
# ------------------------------------------------------------------ #


def _fit_binomial(stats: LevelStats, partition: Partition) -> FittedModel:
    rows = stats.cluster_rows(partition)
    loglik = 0.0
    est = {}
    for c, r in zip(partition.clusters, rows):
        sw = float(stats.sw[r].sum())
        swy = float(stats.swy[r].sum())
        p = swy / sw
        # 0*log 0 == 0 convention keeps degenerate proportions finite
        ll = 0.0
        if p > 0.0:
            ll += swy * math.log(p)
        if p < 1.0:
            ll += (sw - swy) * math.log(1.0 - p)
        loglik += ll
        if p <= 0.0:
            logit = -math.inf
        elif p >= 1.0:
            logit = math.inf
        else:
            logit = math.log(p / (1.0 - p))
        est[c.label] = {"p": p, "logit": logit}
    return FittedModel(
        family=BINOMIAL,
        partition=partition,
        loglik=loglik,
        estimates=est,
        nuisance=None,
    )


def _binomial_loglik(sw: np.ndarray, swy: np.ndarray) -> np.ndarray:
    """Per-cluster binomial log-likelihood with 0*log 0 == 0, as in the fit."""
    p = swy / sw
    ll = np.where(p > 0.0, swy * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return ll + np.where(p < 1.0, (sw - swy) * np.log(np.where(p < 1.0, 1.0 - p, 1.0)), 0.0)


def _score_binomial(sums, i, j) -> np.ndarray:
    # only the merged pair's own term changes
    sw, swy = sums["sw"], sums["swy"]
    ll = _binomial_loglik(sw, swy)
    merged = _binomial_loglik(sw[i] + sw[j], swy[i] + swy[j])
    return float(ll.sum()) - ll[i] - ll[j] + merged


# ------------------------------------------------------------------ #
# Cox proportional hazards (Breslow ties)
# ------------------------------------------------------------------ #


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


def _fit_cox(stats: LevelStats, partition: Partition) -> FittedModel:
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


def _score_cox(stats: LevelStats, partition: Partition, i, j) -> np.ndarray:
    # the partial likelihood has no closed-form merge update: fit each candidate
    labels = partition.labels
    return np.array([
        fit_stats(stats, partition.merge(labels[a], labels[b])).loglik
        for a, b in zip(i.tolist(), j.tolist())
    ])


# ------------------------------------------------------------------ #
# Summaries
# ------------------------------------------------------------------ #


def group_summary(model: FittedModel) -> dict:
    """Per-cluster scalar (or vector) summary keyed by cluster label."""
    out = {}
    for label, est in model.estimates.items():
        if model.family in (GAUSSIAN_1D, GAUSSIAN_ND):
            out[label] = est["mean"]
        elif model.family == BINOMIAL:
            out[label] = est["p"]
        else:
            out[label] = est["hazard_ratio"]
    return out


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
