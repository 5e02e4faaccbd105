"""Deterministic synthetic datasets with planted cluster structure."""

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
    ResponseData,
)
from .errors import FactorFuseError


@dataclass(frozen=True)
class Fixture:
    data: ResponseData
    grouping: Grouping
    planted: tuple[tuple[str, ...], ...]  # clusters of level names
    seed: int


def _level_names(k: int) -> tuple[str, ...]:
    width = max(2, len(str(k)))
    return tuple(f"L{i + 1:0{width}d}" for i in range(k))


def _assign_clusters(k: int, n_clusters: int) -> list[int]:
    """Round-robin-free contiguous assignment of k levels to clusters."""
    base, extra = divmod(k, n_clusters)
    out = []
    for c in range(n_clusters):
        out.extend([c] * (base + (1 if c < extra else 0)))
    return out


def _planted_partition(levels, cluster_of, params) -> tuple[tuple[str, ...], ...]:
    """Group levels by *effective* parameter value; equal params merge."""
    by_value: dict = {}
    for lv, c in zip(levels, cluster_of):
        by_value.setdefault(params[c], []).append(lv)
    return tuple(tuple(v) for v in by_value.values())


def make_gaussian(
    k: int,
    n_per_group: int,
    separation: float,
    seed: int,
    n_clusters: int | None = None,
) -> Fixture:
    """1-D Gaussian groups with unit sigma; cluster means separation apart."""
    _check(k, n_per_group, n_clusters)
    n_clusters = n_clusters or max(1, k // 2)
    rng = np.random.default_rng(seed)
    levels = _level_names(k)
    cluster_of = _assign_clusters(k, n_clusters)
    means = tuple(c * separation for c in range(n_clusters))
    values, labels = [], []
    for lv, c in zip(levels, cluster_of):
        values.append(rng.normal(means[c], 1.0, n_per_group))
        labels.extend([lv] * n_per_group)
    data = ResponseData(GAUSSIAN_1D, np.concatenate(values))
    return Fixture(
        data=data,
        grouping=Grouping(tuple(labels), levels),
        planted=_planted_partition(levels, cluster_of, means),
        seed=seed,
    )


def make_gaussian_nd(
    k: int,
    n_per_group: int,
    separation: float,
    seed: int,
    n_clusters: int | None = None,
    dim: int = 2,
) -> Fixture:
    _check(k, n_per_group, n_clusters)
    n_clusters = n_clusters or max(1, k // 2)
    rng = np.random.default_rng(seed)
    levels = _level_names(k)
    cluster_of = _assign_clusters(k, n_clusters)
    direction = np.ones(dim) / math.sqrt(dim)
    means = tuple(
        tuple(c * separation * direction) for c in range(n_clusters)
    )
    values, labels = [], []
    for lv, c in zip(levels, cluster_of):
        values.append(rng.normal(np.asarray(means[c]), 1.0, (n_per_group, dim)))
        labels.extend([lv] * n_per_group)
    data = ResponseData(GAUSSIAN_ND, np.concatenate(values))
    return Fixture(
        data=data,
        grouping=Grouping(tuple(labels), levels),
        planted=_planted_partition(levels, cluster_of, means),
        seed=seed,
    )


def make_binomial(
    k: int,
    n_per_group: int,
    separation: float,
    seed: int,
    n_clusters: int | None = None,
    proportions: tuple[float, ...] | None = None,
) -> Fixture:
    """Bernoulli groups; cluster success probabilities spread on the logit
    scale by ``separation`` unless explicit ``proportions`` are given."""
    _check(k, n_per_group, n_clusters)
    if proportions is not None:
        n_clusters = len(proportions)
        probs = tuple(float(p) for p in proportions)
    else:
        n_clusters = n_clusters or max(1, k // 2)
        center = (n_clusters - 1) / 2.0
        probs = tuple(
            1.0 / (1.0 + math.exp(-separation * (c - center)))
            for c in range(n_clusters)
        )
    rng = np.random.default_rng(seed)
    levels = _level_names(k)
    cluster_of = _assign_clusters(k, n_clusters)
    values, labels = [], []
    for lv, c in zip(levels, cluster_of):
        values.append(rng.binomial(1, probs[c], n_per_group).astype(float))
        labels.extend([lv] * n_per_group)
    data = ResponseData(BINOMIAL, np.concatenate(values))
    return Fixture(
        data=data,
        grouping=Grouping(tuple(labels), levels),
        planted=_planted_partition(levels, cluster_of, probs),
        seed=seed,
    )


def make_survival(
    k: int,
    n_per_group: int,
    separation: float,
    seed: int,
    n_clusters: int | None = None,
    censor_rate: float = 0.25,
) -> Fixture:
    """Exponential survival times; cluster log hazard ratios ``separation``
    apart, with independent exponential censoring."""
    _check(k, n_per_group, n_clusters)
    n_clusters = n_clusters or max(1, k // 2)
    rng = np.random.default_rng(seed)
    levels = _level_names(k)
    cluster_of = _assign_clusters(k, n_clusters)
    alphas = tuple(c * separation for c in range(n_clusters))
    values, labels = [], []
    for lv, c in zip(levels, cluster_of):
        rate = math.exp(alphas[c])
        t_event = rng.exponential(1.0 / rate, n_per_group)
        t_censor = rng.exponential(1.0 / (rate * censor_rate), n_per_group)
        t = np.minimum(t_event, t_censor)
        e = (t_event <= t_censor).astype(float)
        values.append(np.column_stack([np.maximum(t, 1e-9), e]))
        labels.extend([lv] * n_per_group)
    data = ResponseData(SURVIVAL, np.concatenate(values))
    return Fixture(
        data=data,
        grouping=Grouping(tuple(labels), levels),
        planted=_planted_partition(levels, cluster_of, alphas),
        seed=seed,
    )


_MAKERS = {
    "gaussian": make_gaussian,
    "gaussianNd": make_gaussian_nd,
    "binomial": make_binomial,
    "survival": make_survival,
}


def make_fixture(kind: str, k: int, n_per_group: int, separation: float, seed: int, **kw) -> Fixture:
    if kind not in _MAKERS:
        raise FactorFuseError(f"unknown fixture kind: {kind!r}")
    return _MAKERS[kind](k, n_per_group, separation, seed, **kw)


def _check(k: int, n_per_group: int, n_clusters: int | None):
    if k < 2:
        raise FactorFuseError("fixtures need k >= 2 groups")
    if n_per_group < 2:
        raise FactorFuseError("fixtures need at least 2 observations per group")
    if n_clusters is not None and n_clusters < 1:
        raise FactorFuseError("fixtures need at least 1 cluster")
