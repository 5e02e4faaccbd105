"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid reusing factorfuse internals: Gaussian and
binomial log-likelihoods are closed-form re-derivations, the two-cluster Cox
oracle is a golden-section search over the partial likelihood, the
multi-cluster one maximises a row-level partial likelihood with scipy, and the
chi-square oracle integrates the density with adaptive Simpson quadrature.
The loop references below are not oracles: they pin vectorised or
warm-started code to the plain version it replaced, and some reuse its parts.
"""

from __future__ import annotations

import csv
import math
from itertools import compress
from pathlib import Path

import numpy as np
import pytest

from factorfuse import cli
from factorfuse.data import (BINOMIAL, DOMAINS, GAUSSIAN_1D, GAUSSIAN_ND, SURVIVAL, Grouping,
                             Partition, ResponseData)
from factorfuse.errors import MonotoneLikelihood, NonConvergence, WeightsNotSupported
from factorfuse.families import COX_MAX_ITER, COX_TOL


# ---------------------------------------------------------------------------
# dataset builders


# Levels a, b, a)(b and z, with b near a and z near a)(b: once a and b merge,
# the clusters {a, b} and {a)(b} share the label (a)(b), and only their
# positions tell them apart
COLLIDING_LABELS = {
    "a": [0.0, 1.0, 2.0], "b": [0.1, 1.1, 2.1],
    "a)(b": [5.0, 6.0, 7.0], "z": [5.2, 6.2, 7.2],
}


def make_gaussian_data(values_by_level: dict[str, list[float]]):
    vals, labels = [], []
    for lv, vs in values_by_level.items():
        vals.extend(float(v) for v in vs)
        labels.extend([lv] * len(vs))
    data = ResponseData("gaussian1d", np.array(vals))
    return data, Grouping(tuple(labels))


def make_binomial_data(values_by_level: dict[str, list[int]]):
    vals, labels = [], []
    for lv, vs in values_by_level.items():
        vals.extend(float(v) for v in vs)
        labels.extend([lv] * len(vs))
    data = ResponseData("binomial", np.array(vals))
    return data, Grouping(tuple(labels))


def make_survival_data(rows_by_level: dict[str, list[tuple[float, int]]]):
    vals, labels = [], []
    for lv, rows in rows_by_level.items():
        for t, e in rows:
            vals.append([float(t), float(e)])
            labels.append(lv)
    data = ResponseData("survival", np.array(vals))
    return data, Grouping(tuple(labels))


def random_gaussian_dataset(rng, k, n_per_group, spread=2.0):
    means = rng.uniform(0, spread, k)
    by = {}
    for i, m in enumerate(means):
        by[f"G{i + 1}"] = list(rng.normal(m, 1.0, n_per_group))
    return make_gaussian_data(by)


def make_gaussian_nd_data(values_by_level: dict[str, np.ndarray]):
    vals, labels = [], []
    for lv, vs in values_by_level.items():
        vals.append(np.asarray(vs, float))
        labels.extend([lv] * len(vs))
    data = ResponseData("gaussianNd", np.concatenate(vals))
    return data, Grouping(tuple(labels))


def random_binomial_dataset(rng, k, n_per_group):
    probs = rng.uniform(0.1, 0.9, k)
    by = {}
    for i, p in enumerate(probs):
        by[f"G{i + 1}"] = list(rng.binomial(1, p, n_per_group).astype(float))
    return make_binomial_data(by)


# ---------------------------------------------------------------------------
# closed-form likelihood oracles


def oracle_gaussian_loglik(groups: list[np.ndarray]) -> float:
    allv = np.concatenate(groups)
    n = len(allv)
    rss = sum(float(((g - g.mean()) ** 2).sum()) for g in groups)
    s2 = rss / n
    return -n / 2.0 * (math.log(2 * math.pi) + math.log(s2) + 1.0)


def oracle_pooled_scatter_loglik(groups: list[np.ndarray]) -> float:
    """Pooled-covariance profile loglik, -n/2 * (d log 2pi + log det(W/n) + d),
    with W the sum of each cluster's scatter about its own mean."""
    n, d = sum(len(g) for g in groups), groups[0].shape[1]
    scatter = sum((g - g.mean(axis=0)).T @ (g - g.mean(axis=0)) for g in groups)
    _, logdet = np.linalg.slogdet(scatter / n)
    return -n / 2.0 * (d * math.log(2 * math.pi) + logdet + d)


def oracle_binomial_loglik(groups: list[np.ndarray]) -> float:
    total = 0.0
    for g in groups:
        p = float(np.mean(g))
        for y in g:
            if y >= 0.5:
                total += math.log(p) if p > 0 else 0.0
            else:
                total += math.log(1 - p) if p < 1 else 0.0
    return total


def oracle_cox_partial_loglik(times, events, grp01, alpha: float) -> float:
    """Breslow partial log-likelihood for two clusters, cluster 1 at alpha."""
    times = np.asarray(times, float)
    events = np.asarray(events, float)
    eta = np.where(np.asarray(grp01) == 1, alpha, 0.0)
    ll = 0.0
    for i in np.argsort(times, kind="stable"):
        if events[i]:
            risk = times >= times[i]
            ll += eta[i] - math.log(float(np.exp(eta[risk]).sum()))
    return ll


def oracle_cox_alpha(times, events, grp01, lo=-20.0, hi=20.0) -> float:
    """Golden-section maximization of the two-cluster partial likelihood."""
    gr = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - gr * (b - a)
    c2 = a + gr * (b - a)
    f1 = oracle_cox_partial_loglik(times, events, grp01, c1)
    f2 = oracle_cox_partial_loglik(times, events, grp01, c2)
    for _ in range(300):
        if f1 > f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = oracle_cox_partial_loglik(times, events, grp01, c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = oracle_cox_partial_loglik(times, events, grp01, c2)
    return (a + b) / 2


def oracle_cox_multi_loglik(times, events, cluster, alpha):
    """Breslow partial log-likelihood and gradient for any number of
    clusters, walked event row by event row over its risk set."""
    times, alpha = np.asarray(times, float), np.asarray(alpha, float)
    cluster = np.asarray(cluster)
    eta = alpha[cluster]
    ll, grad = 0.0, np.zeros(len(alpha))
    for i in np.flatnonzero(np.asarray(events)):
        risk = times >= times[i]
        w = np.exp(eta[risk])
        ll += eta[i] - math.log(float(w.sum()))
        grad[cluster[i]] += 1.0
        grad -= np.bincount(cluster[risk], weights=w, minlength=len(alpha)) / w.sum()
    return ll, grad


def oracle_cox_fit(times, events, cluster):
    """Coefficients (cluster 0 the reference at 0) and maximised partial
    log-likelihood, by BFGS on the row-level likelihood."""
    from scipy.optimize import minimize

    n_clusters = int(np.max(cluster)) + 1

    def negative(free):
        ll, grad = oracle_cox_multi_loglik(times, events, cluster, np.r_[0.0, free])
        return -ll, -grad[1:]

    res = minimize(negative, np.zeros(n_clusters - 1), jac=True, method="BFGS",
                   options={"gtol": 1e-11, "maxiter": 1000})
    return np.r_[0.0, res.x], -float(res.fun)


# ---------------------------------------------------------------------------
# chi-square quadrature oracle


def _chi2_pdf(x: float, df: int) -> float:
    if x <= 0:
        return 0.0
    half = df / 2.0
    return math.exp((half - 1) * math.log(x) - x / 2 - half * math.log(2) - math.lgamma(half))


def _simpson(f, a, b, n=2000):
    xs = np.linspace(a, b, 2 * n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (2 * n)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def oracle_chi2_sf(x: float, df: int) -> float:
    """Upper tail by quadrature of the density over [x, far-tail cutoff]."""
    if x <= 0:
        return 1.0
    hi = max(x, df) + 80.0 + 12.0 * math.sqrt(2.0 * df)
    lo = max(x, 1e-12)
    return float(_simpson(lambda t: _chi2_pdf(t, df), lo, hi, n=4000))


# ---------------------------------------------------------------------------
# greedy brute-force path oracle (shares nothing with the engine)


def _oracle_fit_loglik(kind, values_by_level, partition_members) -> float:
    groups = []
    for members in partition_members:
        g = np.concatenate([np.asarray(values_by_level[lv], float) for lv in members])
        groups.append(g)
    if kind == "gaussian1d":
        return oracle_gaussian_loglik(groups)
    if kind == "binomial":
        return oracle_binomial_loglik(groups)
    if kind == "gaussianNd":
        return oracle_pooled_scatter_loglik(groups)
    raise ValueError(kind)


def oracle_greedy_path(kind, values_by_level: dict[str, list[float]], order=None,
                       adjacent=False):
    """Exhaustive greedy merge sequence: at each step try every pair, keep the
    merge with the highest post-merge loglik, ties broken lexicographically by
    the pair's cluster labels.  Clusters start in ``order`` (default: sorted
    level names) and a merged cluster takes its left child's place; with
    ``adjacent`` only neighbours in that order are tried."""
    clusters = [((lv,), f"({lv})") for lv in (order or sorted(values_by_level))]
    sequence = []
    while len(clusters) > 1:
        cands = []
        n = len(clusters)
        for i in range(n):
            for j in range(i + 1, min(i + 2, n) if adjacent else n):
                a, b = clusters[i], clusters[j]
                trial = [c[0] for c in clusters if c not in (a, b)]
                trial.append(a[0] + b[0])
                ll = _oracle_fit_loglik(kind, values_by_level, trial)
                cands.append((ll, a[1], b[1], i, j))
        top = max(c[0] for c in cands)
        # exact analytic ties can differ by float rounding between this
        # oracle and the engine; break near-ties lexicographically
        tied = [c for c in cands if c[0] >= top - 1e-9]
        _, _, _, i, j = min(tied, key=lambda c: (c[1], c[2]))
        a, b = clusters[i], clusters[j]
        sequence.append((a[1], b[1]))
        merged = (a[0] + b[0], a[1] + b[1])
        clusters = [c for c in clusters if c not in (a, b)]
        clusters.insert(i, merged)
    return sequence


def oracle_fast_fixed_path(values_by_level: dict[str, list[float]], order):
    """Replay of adjacent dynamic complete linkage on a gaussian1d response.

    Clusters start in ``order``; LRT distances are kept only between
    neighbours.  The closest neighbours merge, distances within 1e-9 of the
    closest tie and go to the lexicographically smallest label pair.  When A
    and B merge between neighbours L and R, the smaller of d(L, A) and d(B, R)
    (d(L, A) on a tie) is maxed with a freshly measured distance to AB, the
    other with d(A, B).
    """
    clusters = [(lv,) for lv in order]

    def label(c):
        return "".join(f"({lv})" for lv in c)

    def loglik(partition):
        return _oracle_fit_loglik("gaussian1d", values_by_level, partition)

    def distance(x, y):
        rest = [c for c in clusters if c not in (x, y)]
        return max(0.0, 2.0 * (loglik(clusters) - loglik(rest + [x + y])))

    dist = {(x, y): distance(x, y) for x, y in zip(clusters, clusters[1:])}
    sequence = []
    while dist:
        closest = min(dist.values())
        tied = [pair for pair, d in dist.items() if d <= closest + 1e-9]
        a, b = min(tied, key=lambda pair: (label(pair[0]), label(pair[1])))
        sequence.append((label(a), label(b)))
        at = clusters.index(a)
        left = clusters[at - 1] if at > 0 else None
        right = clusters[at + 2] if at + 2 < len(clusters) else None
        clusters[at:at + 2] = [a + b]
        d_ab = dist.pop((a, b))
        d_left = dist.pop((left, a), None)
        d_right = dist.pop((b, right), None)
        left_tighter = d_left is not None and (d_right is None or d_left <= d_right)
        if d_left is not None:
            dist[(left, a + b)] = max(d_left, distance(left, a + b) if left_tighter else d_ab)
        if d_right is not None:
            dist[(a + b, right)] = max(d_right, d_ab if left_tighter else distance(a + b, right))
    return sequence


# ---------------------------------------------------------------------------
# per-level statistics reference: each level's rows found by comparing labels,
# then sorted and summed on their own


def _reference_sorted_level(data, rows):
    y = data.values[rows]
    w = np.ones(len(rows)) if data.weights is None else data.weights[rows]
    keys = (y,) if y.ndim == 1 else y.T[::-1]  # lexsort sorts by the last key first
    order = np.lexsort((w, *keys))
    return y[order], w[order]


def reference_level_stats(data, grouping) -> dict[str, np.ndarray]:
    """Per-level sums of a gaussian1d, binomial or gaussianNd response, one
    level at a time, sorted by response and then weight within the level."""
    labels = np.asarray(grouping.labels, dtype=object)
    sums: dict[str, list] = {"sw": [], "swy": [], "swy2" if data.values.ndim == 1 else "swyyt": []}
    for lv in grouping.levels:
        y, w = _reference_sorted_level(data, np.flatnonzero(labels == lv))
        sums["sw"].append(w.sum())
        if y.ndim == 1:
            sums["swy"].append((w * y).sum())
            sums["swy2"].append((w * y * y).sum())
        else:
            sums["swy"].append((w[:, None] * y).sum(axis=0))
            sums["swyyt"].append(np.einsum("i,ij,ik->jk", w, y, y))
    return {name: np.array(v) for name, v in sums.items()}


def reference_cox_arrays(data, grouping, partition):
    """Time, event and cluster position of every row, concatenated level by
    level within each cluster and sorted by time, event and cluster."""
    labels = np.asarray(grouping.labels, dtype=object)
    t_all, e_all = data.values.T
    position = {lv: i for i, lv in enumerate(grouping.levels)}
    times, events, cluster_ix = [], [], []
    for j, c in enumerate(partition.clusters):
        for m in sorted(c.members, key=position.__getitem__):
            rows = np.flatnonzero(labels == m)
            order = np.lexsort((e_all[rows], t_all[rows]))
            times.append(t_all[rows][order])
            events.append(e_all[rows][order])
            cluster_ix.append(np.full(len(rows), j, dtype=int))
    t, e, g = np.concatenate(times), np.concatenate(events), np.concatenate(cluster_ix)
    order = np.lexsort((g, e, t))
    return t[order], e[order], g[order]


def reference_risk_tables(data, grouping):
    """Events and rows at risk of each level at each distinct event time,
    counted one level and one time at a time."""
    labels = np.asarray(grouping.labels, dtype=object)
    t_all, e_all = data.values.T
    event_times = sorted(set(t_all[e_all == 1.0].tolist()))
    D = np.zeros((len(grouping.levels), len(event_times)))
    R = np.zeros_like(D)
    for l, lv in enumerate(grouping.levels):
        t, e = t_all[labels == lv], e_all[labels == lv]
        for s, time in enumerate(event_times):
            D[l, s] = np.count_nonzero((t == time) & (e == 1.0))
            R[l, s] = np.count_nonzero(t >= time)
    return D, R


# ---------------------------------------------------------------------------
# loop references for vectorised survival code


def reference_cox_loglik_grad_hess(alpha, t, e, g, n_clusters):
    """Breslow partial log-likelihood, gradient and Hessian, with each
    cluster's risk-set suffix sums taken one cluster at a time."""
    n = len(t)
    ea = np.exp(alpha)[g]
    z = np.cumsum(ea[::-1])[::-1]
    zc = np.zeros((n_clusters, n))
    for r in range(n_clusters):
        contrib = np.where(g == r, ea, 0.0)
        zc[r] = np.cumsum(contrib[::-1])[::-1]
    first_ge = np.searchsorted(t, t, side="left")
    ev = np.flatnonzero(e == 1.0)
    anchors = first_ge[ev]
    s = z[anchors]
    sc = zc[:, anchors]
    loglik = float(np.sum(alpha[g[ev]] - np.log(s)))
    frac = sc / s
    grad = np.bincount(g[ev], minlength=n_clusters).astype(float) - frac.sum(axis=1)
    hess = np.einsum("re,se->rs", frac, frac) - np.diag(frac.sum(axis=1))
    return loglik, grad, hess


def merge_sums(sums, a, b):
    """Cluster sums after merging clusters a < b: row b is added to row a
    and dropped, as ``Partition.merge`` places the merged cluster at a."""
    merged = {}
    for name, s in sums.items():
        merged[name] = np.delete(s, b, axis=0)
        merged[name][a] += s[b]
    return merged


def breslow(alpha, terms):
    """Breslow partial log-likelihood with gradient and Hessian of one
    coefficient vector, from ``terms``: the events per cluster, the events
    per time and log R, all it reads from a partition.  Each risk set's sum
    of R exp(alpha) is a log-sum-exp over the clusters at risk, so nothing
    overflows."""
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


def _newton_step(grad, hess):
    try:
        return np.linalg.solve(-hess[1:, 1:], grad[1:])
    except np.linalg.LinAlgError as exc:
        raise NonConvergence("singular Hessian in Cox fit") from exc


def cox_newton(events, per_time, R, alpha):
    """One Cox fit of the events per cluster and per time and the rows at
    risk ``R``, Newton-Raphson from ``alpha`` (``alpha[0] == 0``) on one
    coefficient vector, with the step halving, tolerance and divergence rule
    of the fits in ``families``."""
    # log R is -inf where no row is at risk
    terms = events, per_time, np.log(R, out=np.full(R.shape, -np.inf), where=R > 0)
    ll, grad, hess = breslow(alpha, terms)
    for _ in range(COX_MAX_ITER):
        step = _newton_step(grad, hess)
        for halvings in range(40):
            trial = alpha.copy()
            trial[1:] += 0.5**halvings * step
            ll_new, grad_new, hess_new = breslow(trial, terms)
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


def reference_cox_scores(stats, sums, i, j, model=None):
    """Cox candidate scores fitted cold: Newton from alpha = 0 on each
    candidate's merged sums, one candidate and one coefficient vector at a
    time, with log-sum-exp risk sets; ``model`` is unused."""
    merged = (merge_sums(sums, a, b) for a, b in zip(i.tolist(), j.tolist()))
    return np.array([cox_newton(m["events"], stats.per_time, m["R"], np.zeros(len(m["R"])))[1]
                     for m in merged])


def reference_kaplan_meier(times, events):
    """Product-limit estimate walked tie group by tie group."""
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


# ---------------------------------------------------------------------------
# whole-file ingest reference: every row kept as a list, then the named
# columns picked out, and each row's label stripped and tested on its own


def _reference_load_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise cli.DataError(f"{path}: empty file")
            return header, [row for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise cli.DataError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise cli.DataError(f"cannot read {path}: line {reader.line_num}: {exc}") from exc


def _reference_column(header: list[str], rows: list[list[str]], name: str) -> list[str]:
    j = {h: i for i, h in enumerate(header)}[name]
    return [row[j] if j < len(row) else "" for row in rows]


def reference_build_dataset(args):
    """``cli._build_dataset`` as a whole-file read with per-row label checks."""
    header, rows = _reference_load_csv(Path(args.input))

    if args.family == "survival":
        if not args.time or not args.event:
            raise cli.ConfigError("survival needs --time and --event columns")
        response_cols = [args.time, args.event]
    else:
        response_cols = args.response or []
        if not response_cols:
            raise cli.ConfigError("--response is required for this family")
        if args.family == "binomial" and len(response_cols) != 1:
            raise cli.ConfigError("binomial takes exactly one --response column")
    kind = {"survival": SURVIVAL, "binomial": BINOMIAL}.get(
        args.family, GAUSSIAN_1D if len(response_cols) == 1 else GAUSSIAN_ND)
    domain = DOMAINS[kind]
    needed = [*response_cols, args.factor]
    if args.weights:
        needed.append(args.weights)
    missing_cols = [c for c in needed if c not in header]
    if missing_cols:
        raise cli.DataError(f"missing columns: {missing_cols}")

    def numbers(name: str) -> np.ndarray:
        return np.fromiter(map(cli._parse_float, _reference_column(header, rows, name)),
                           float, len(rows))

    labels = [cell.strip() for cell in _reference_column(header, rows, args.factor)]
    values = np.column_stack([numbers(c) for c in response_cols])
    usable = np.fromiter((lab.lower() not in cli._MISSING for lab in labels), bool, len(rows))
    usable &= ~np.isnan(values).any(axis=1)
    bad_domain = usable & domain.outside(values)
    w = numbers(args.weights) if args.weights else np.ones(len(rows))
    raising = np.flatnonzero(bad_domain | (usable & (w <= 0)))
    if len(raising):
        i = raising[0]
        reason = domain.reason if bad_domain[i] else "weights must be positive"
        raise cli.DataError(f"row {i + 1}: {reason}")
    kept = usable & ~np.isnan(w)

    if not kept.any():
        raise cli.DataError("no usable rows after rejecting invalid ones")
    labels = list(compress(labels, kept.tolist()))
    distinct = sorted(set(labels))
    if len(distinct) < 2:
        raise cli.DataError("need at least 2 factor levels")

    abbrev = cli.abbreviate_levels(distinct)
    values = values[kept]
    try:
        data = ResponseData(kind, values[:, 0] if domain.scalar else values,
                            w[kept] if args.weights else None)
    except WeightsNotSupported as exc:
        raise cli.DataError(str(exc)) from exc
    grouping = Grouping(tuple(map(abbrev.__getitem__, labels)), tuple(sorted(abbrev.values())))
    meta = {
        "rows": len(rows),
        "accepted": len(labels),
        "rejectedRows": (np.flatnonzero(~kept) + 1).tolist(),
        "levelNames": {abbrev[lv]: lv for lv in distinct},
    }
    return data, grouping, meta


# ---------------------------------------------------------------------------
# pytest fixtures


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def gaussian_three_groups():
    by = {
        "A": [0.1, -0.2, 0.3, 0.05, -0.1],
        "B": [0.2, 0.0, -0.3, 0.15, 0.1],
        "C": [3.1, 2.8, 3.3, 3.0, 2.9],
    }
    return make_gaussian_data(by)


def singletons_of(grouping: Grouping) -> Partition:
    return Partition.singletons(grouping.levels)
