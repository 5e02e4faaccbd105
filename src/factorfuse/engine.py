"""Merging-path construction: the four fusing strategies.

All strategies produce a :class:`MergingPath` of k nested models, from the
full model (one cluster per level) down to a single cluster:

* ``adaptive``       scores every candidate pair at every step,
* ``fast-adaptive``  orders levels once and scores only adjacent pairs,
* ``fixed``          builds one pairwise LRT distance matrix and runs
                     complete-linkage clustering on it,
* ``fast-fixed``     keeps complete-linkage distances only between adjacent
                     clusters in the initial order, refreshing a single
                     distance per merge.

Candidates are scored from per-cluster sufficient statistics and the fit of
the current partition (:func:`~factorfuse.families.score_pairs`); only the
chosen partition is fitted.  An :class:`EvalCounter` counts candidates
scored and path models fitted, so the evaluation-cost contract of each
strategy can be asserted.  Every strategy picks its pair with
:func:`_select`: scores within ``NEAR_TIE`` of the best are tied and the
lexicographically smallest pair of cluster labels wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Grouping, Partition, ResponseData
from .errors import InvalidStrategy
from .families import (FAMILIES, FittedModel, LevelStats, cluster_sums, fit_stats, merge_sums,
                       score_pairs)
from .mds import mds_project_1d

STRATEGIES = ("adaptive", "fast-adaptive", "fixed", "fast-fixed")

# candidate scores this close to the best are tied (absolute, in loglik units)
NEAR_TIE = 1e-9


class EvalCounter:
    """Candidates scored and models fitted, per category."""

    def __init__(self):
        self._counts: dict[str, int] = {}

    def increment(self, category: str = "fit", n: int = 1):
        self._counts[category] = self._counts.get(category, 0) + n

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def breakdown(self) -> dict[str, int]:
        return dict(self._counts)


@dataclass(frozen=True)
class PathStep:
    """One model on the path; ``merged_pair`` is None for the full model."""

    merged_pair: tuple[str, str] | None
    model: FittedModel


@dataclass(frozen=True)
class MergingPath:
    steps: tuple[PathStep, ...]
    strategy: str
    evaluations: int
    evaluation_breakdown: dict[str, int]
    ordering: tuple[str, ...]
    levels: tuple[str, ...]
    n_obs: int

    @property
    def k(self) -> int:
        return len(self.levels)

    @property
    def full_model(self) -> FittedModel:
        return self.steps[0].model


# ------------------------------------------------------------------ #
# Level ordering for the fast strategies
# ------------------------------------------------------------------ #


def ordering_statistic(
    data: ResponseData,
    grouping: Grouping,
    full_model: FittedModel | None = None,
) -> tuple[str, ...]:
    """Levels sorted by an estimate of the full model (one cluster per level).

    gaussian1d -> mean; binomial -> success proportion; survival -> log
    hazard ratio; gaussianNd -> the 1-D non-metric MDS projection of the k
    estimated means in the Mahalanobis metric of the pooled covariance.  The
    full model is fitted in level order unless ``full_model`` is given.  Ties,
    including gaussianNd means that all coincide, keep the original level order.
    """
    if full_model is None:
        full_model = fit_stats(LevelStats(data, grouping), Partition.singletons(grouping.levels))
    value = FAMILIES[data.kind].order_value(full_model, grouping.levels, mds_project_1d)
    return tuple(grouping.levels[t] for t in np.argsort(value, kind="stable"))


# ------------------------------------------------------------------ #
# Strategy drivers
# ------------------------------------------------------------------ #


def merge_factors(
    data: ResponseData,
    grouping: Grouping,
    strategy: str = "adaptive",
) -> MergingPath:
    if grouping.k < 2:
        raise InvalidStrategy("need at least 2 factor levels to merge")
    if strategy == "adaptive":
        return _drive_adaptive(data, grouping, adjacent_only=False)
    if strategy == "fast-adaptive":
        return _drive_adaptive(data, grouping, adjacent_only=True)
    if strategy == "fixed":
        return _drive_fixed(data, grouping)
    if strategy == "fast-fixed":
        return _drive_fast_fixed(data, grouping)
    raise InvalidStrategy(strategy)


def _select(scores: np.ndarray, labels, i: np.ndarray, j: np.ndarray) -> int:
    """Index of the best candidate pair (``labels[i[t]]``, ``labels[j[t]]``).

    Higher scores are better.  Scores within ``NEAR_TIE`` of the best are
    tied, so exact analytic ties that rounding splits still resolve to the
    lexicographically smallest pair of labels.
    """
    tied = np.flatnonzero(scores >= scores.max() - NEAR_TIE)
    # the labels are distinct, so pairs of their ranks sort as the label pairs do
    rank = np.argsort(sorted(range(len(labels)), key=labels.__getitem__))
    return int(tied[np.lexsort((rank[j[tied]], rank[i[tied]]))[0]])


class _Clusters:
    """The current partition with its per-cluster sums and its fitted model,
    merged in step."""

    def __init__(self, stats: LevelStats, model: FittedModel):
        self.stats = stats
        self.model = model
        self.sums = cluster_sums(stats, model.partition)

    @property
    def partition(self) -> Partition:
        return self.model.partition

    @property
    def size(self) -> int:
        return self.partition.size

    @property
    def labels(self) -> tuple[str, ...]:
        return self.partition.labels

    def score(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Log-likelihood after merging each pair (i[t], j[t])."""
        return score_pairs(self.stats, self.sums, i, j, self.model)

    def merge(self, a: int, b: int, counter: EvalCounter) -> PathStep:
        """Merge the clusters at positions a < b and fit the result."""
        labels = self.labels
        self.model = fit_stats(self.stats, self.partition.merge(labels[a], labels[b]))
        self.sums = merge_sums(self.sums, a, b)
        counter.increment("path")
        return PathStep((labels[a], labels[b]), self.model)


def _result(steps, strategy, counter, ordering, data, grouping) -> MergingPath:
    return MergingPath(
        steps=tuple(steps),
        strategy=strategy,
        evaluations=counter.total,
        evaluation_breakdown=counter.breakdown(),
        ordering=ordering,
        levels=grouping.levels,
        n_obs=data.n,
    )


def _adjacent(size: int) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(size - 1)
    return i, i + 1


def _drive_adaptive(data, grouping, adjacent_only: bool) -> MergingPath:
    stats = LevelStats(data, grouping)
    counter = EvalCounter()
    if adjacent_only:
        ordering, model0 = _ordered_full_model(stats, counter)
    else:
        ordering = ()
        model0 = fit_stats(stats, Partition.singletons(grouping.levels))
        counter.increment("path")
    clusters = _Clusters(stats, model0)
    steps = [PathStep(None, model0)]
    while clusters.size > 1:
        if adjacent_only:
            i, j = _adjacent(clusters.size)
        else:
            i, j = np.triu_indices(clusters.size, k=1)
        counter.increment("candidates", len(i))
        best = _select(clusters.score(i, j), clusters.labels, i, j)
        steps.append(clusters.merge(i[best], j[best], counter))
    strategy = "fast-adaptive" if adjacent_only else "adaptive"
    return _result(steps, strategy, counter, ordering, data, grouping)


def _ordered_full_model(stats, counter):
    """Full model plus the level ordering used by the fast strategies.

    The ordering reads the full model fitted in level order; the full model
    refitted in the new order is counted as a path fit, the first is not.
    """
    full = fit_stats(stats, Partition.singletons(stats.levels))
    ordering = ordering_statistic(stats.data, stats.grouping, full)
    model0 = fit_stats(stats, Partition.singletons(ordering))
    counter.increment("path")
    return ordering, model0


def _lrt_distance(base_loglik: float, merged_loglik):
    return np.maximum(0.0, 2.0 * (base_loglik - merged_loglik))


def _drive_fixed(data, grouping) -> MergingPath:
    stats = LevelStats(data, grouping)
    counter = EvalCounter()
    model0 = fit_stats(stats, Partition.singletons(grouping.levels))
    counter.increment("path")
    clusters = _Clusters(stats, model0)

    # static pairwise LRT distances: merge (i, j) with all others singleton
    k = grouping.k
    i, j = np.triu_indices(k, k=1)
    counter.increment("distances", len(i))
    dist = np.zeros((k, k))
    dist[i, j] = dist[j, i] = _lrt_distance(model0.loglik, clusters.score(i, j))

    steps = [PathStep(None, model0)]
    while clusters.size > 1:
        i, j = np.triu_indices(clusters.size, k=1)
        best = _select(-dist[i, j], clusters.labels, i, j)
        a, b = i[best], j[best]
        # Lance-Williams update for complete linkage: the merged cluster is as
        # far from each other cluster as the farther of its two children
        dist[a] = dist[:, a] = np.maximum(dist[a], dist[b])
        dist = np.delete(np.delete(dist, b, axis=0), b, axis=1)
        steps.append(clusters.merge(a, b, counter))
    return _result(steps, "fixed", counter, (), data, grouping)


def _drive_fast_fixed(data, grouping) -> MergingPath:
    stats = LevelStats(data, grouping)
    counter = EvalCounter()
    ordering, model0 = _ordered_full_model(stats, counter)
    clusters = _Clusters(stats, model0)

    i, j = _adjacent(clusters.size)
    counter.increment("distances", len(i))
    dist = _lrt_distance(model0.loglik, clusters.score(i, j)).tolist()

    steps = [PathStep(None, model0)]
    while clusters.size > 1:
        i, j = _adjacent(clusters.size)
        best = _select(-np.array(dist), clusters.labels, i, j)
        d_ab = dist[best]
        steps.append(clusters.merge(best, best + 1, counter))
        left = dist[best - 1] if best > 0 else None
        right = dist[best + 1] if best + 1 < len(dist) else None
        dist[best : best + 2] = []  # drop the merged adjacency; reinsert below
        # Complete-linkage update for the two refreshed adjacencies.  Only
        # one fresh LRT distance per merge keeps the O(k) scoring budget: the
        # tighter inherited side is re-measured against the new cluster, the
        # other side falls back to the merged pair's own distance.
        new_left = new_right = None
        if left is not None and (right is None or left <= right):
            fresh = _fresh_distance(clusters, best - 1, counter)
            new_left = max(left, fresh)
            if right is not None:
                new_right = max(right, d_ab)
        elif right is not None:
            fresh = _fresh_distance(clusters, best, counter)
            new_right = max(right, fresh)
            if left is not None:
                new_left = max(left, d_ab)
        if new_right is not None:
            dist.insert(best, new_right)
        if new_left is not None:
            dist[best - 1] = new_left
    return _result(steps, "fast-fixed", counter, ordering, data, grouping)


def _fresh_distance(clusters, a, counter) -> float:
    """LRT distance between the adjacent clusters at positions a and a + 1."""
    counter.increment("distances")
    merged = clusters.score(np.array([a]), np.array([a + 1]))[0]
    return float(_lrt_distance(clusters.model.loglik, merged))
