"""Deterministic synthetic datasets with planted cluster structure.

:func:`make_fixture` makes every kind in one loop: levels ``L01``, ``L02``,
... fall into contiguous runs, one per cluster (the first ``k % n_clusters``
runs one level longer); each level draws ``n_per_group`` values from its
cluster's parameter; and the planted partition groups levels by parameter
value, so clusters with equal parameters (``separation`` 0) are one.  Per
kind, :data:`FIXTURE_KINDS` gives the response kind and a function of the
cluster parameters, the data.csv value columns and the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .data import (
    BINOMIAL,
    GAUSSIAN_1D,
    GAUSSIAN_ND,
    SURVIVAL,
    Grouping,
    ResponseData,
)
from .errors import FactorFuseError


@dataclass(frozen=True)
class Fixture:
    data: ResponseData
    grouping: Grouping
    planted: tuple[tuple[str, ...], ...]  # clusters of level names
    seed: int
    columns: tuple[str, ...]  # data.csv names of the value columns


def _gaussian(n_clusters, separation):
    """Unit-sigma normal groups; cluster means ``separation`` apart."""
    means = tuple(c * separation for c in range(n_clusters))
    return means, ("y",), lambda rng, mean, n: rng.normal(mean, 1.0, n)


def _gaussian_nd(n_clusters, separation, dim=2):
    """Unit-covariance normal groups; cluster means ``separation`` apart
    along the diagonal."""
    direction = np.ones(dim) / math.sqrt(dim)
    means = tuple(tuple(c * separation * direction) for c in range(n_clusters))
    columns = tuple(f"y{j + 1}" for j in range(dim))
    return means, columns, lambda rng, mean, n: rng.normal(np.asarray(mean), 1.0, (n, dim))


def _binomial(n_clusters, separation, proportions=None):
    """Bernoulli groups; cluster success probabilities spread on the logit
    scale by ``separation`` unless explicit ``proportions`` are given."""
    if proportions is not None:
        probs = tuple(float(p) if isinstance(p, Real) else math.nan for p in proportions)
        if not probs or not all(0 <= p <= 1 for p in probs):
            raise FactorFuseError("binomial proportions must be one or more numbers in [0, 1]")
    else:
        center = (n_clusters - 1) / 2.0
        probs = tuple(1.0 / (1.0 + math.exp(-separation * (c - center)))
                      for c in range(n_clusters))
    return probs, ("y",), lambda rng, p, n: rng.binomial(1, p, n).astype(float)


def _survival(n_clusters, separation, censor_rate=0.25):
    """Exponential survival times; cluster log hazard ratios ``separation``
    apart, with independent exponential censoring."""

    def draw(rng, alpha, n):
        rate = math.exp(alpha)
        t_event = rng.exponential(1.0 / rate, n)
        t_censor = rng.exponential(1.0 / (rate * censor_rate), n)
        e = (t_event <= t_censor).astype(float)
        return np.column_stack([np.maximum(np.minimum(t_event, t_censor), 1e-9), e])

    return tuple(c * separation for c in range(n_clusters)), ("time", "event"), draw


# fixture kind -> (response kind, (n_clusters, separation, **extras) ->
# (one hashable parameter per cluster, data.csv value columns,
#  (rng, parameter, n) -> n values))
FIXTURE_KINDS = {
    "gaussian": (GAUSSIAN_1D, _gaussian),
    "gaussianNd": (GAUSSIAN_ND, _gaussian_nd),
    "binomial": (BINOMIAL, _binomial),
    "survival": (SURVIVAL, _survival),
}


def make_fixture(kind: str, k: int, n_per_group: int, separation: float, seed: int,
                 n_clusters: int | None = None, **kw) -> Fixture:
    """A dataset of ``k`` levels with ``n_per_group`` rows each, whose levels
    fall into ``n_clusters`` clusters (default ``k // 2``, at least 1).

    Extras per kind: ``dim`` (gaussianNd, default 2), ``proportions``
    (binomial: one success probability per cluster, which sets the cluster
    count) and ``censor_rate`` (survival, default 0.25).
    """
    if kind not in FIXTURE_KINDS:
        raise FactorFuseError(f"unknown fixture kind: {kind!r}")
    if (k < 2 or n_per_group < 2 or (n_clusters is not None and n_clusters < 1)
            or not math.isfinite(separation)):
        raise FactorFuseError("fixtures need k >= 2, n_per_group >= 2, n_clusters >= 1 "
                              "and a finite separation")
    response_kind, clusters = FIXTURE_KINDS[kind]
    params, columns, draw = clusters(n_clusters or max(1, k // 2), separation, **kw)
    base, extra = divmod(k, len(params))
    cluster_of = [c for c in range(len(params)) for _ in range(base + (c < extra))]
    width = max(2, len(str(k)))
    levels = tuple(f"L{i + 1:0{width}d}" for i in range(k))
    rng = np.random.default_rng(seed)
    values = np.concatenate([draw(rng, params[c], n_per_group) for c in cluster_of])
    planted: dict = {}
    for lv, c in zip(levels, cluster_of):
        planted.setdefault(params[c], []).append(lv)
    return Fixture(
        data=ResponseData(response_kind, values),
        grouping=Grouping(codes=np.repeat(np.arange(k), n_per_group), levels=levels),
        planted=tuple(map(tuple, planted.values())),
        seed=seed,
        columns=columns,
    )
