"""Merging-path construction: the four fusing strategies.

Every strategy produces a :class:`MergingPath` of k nested models, from the
full model (one cluster per level) down to a single cluster, by merging one
pair of clusters per step.  The strategies differ in two choices:

* the candidate pairs of a step: every pair of clusters, or only the
  neighbours in a 1-D ordering of the levels (the ``fast-`` strategies, see
  :func:`ordering_statistic`); a merged cluster keeps its place in the order;
* how the candidates are ranked: ``adaptive`` ranks them by the
  log-likelihood after the merge, scored afresh at every step; ``fixed``
  ranks them by a complete-linkage LRT distance, measured once between
  levels and carried through the merges.  ``fast-fixed`` keeps distances
  only between neighbours and measures a single fresh distance per merge.

Candidates are scored from per-cluster sufficient statistics and the fit of
the current partition by the family record's ``score``; only the chosen
partition is fitted.  A merge re-sums only the merged cluster, and the path
fit reads the sums the loop keeps.  Where the family's clusters lie on a line
(``Family.line``, gaussian1d), ``adaptive`` scores the neighbours on the
line, and every pair only on a step where the family cannot certify that
the other pairs score below the near-tie window of the best.  The path
counts the candidates each strategy is defined to score, distances measured
and path models fitted, so the evaluation-cost contract of each strategy can
be asserted.  Every strategy picks its pair with :func:`_select`: scores
within ``NEAR_TIE`` of the best are tied and the lexicographically smallest
pair of cluster labels wins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import Grouping, Partition, ResponseData
from .errors import FactorFuseError, InvalidStrategy
from .families import FAMILIES, FittedModel, LevelStats, cluster_sums, fit_stats
from .mds import mds_project_1d

STRATEGIES = ("adaptive", "fast-adaptive", "fixed", "fast-fixed")

# candidate scores this close to the best are tied (absolute, in loglik units)
NEAR_TIE = 1e-9


@dataclass(frozen=True)
class PathStep:
    """One model on the path; ``merged_pair`` holds the positions (a, b), a < b,
    of the clusters merged in the previous step's partition (None for the full
    model), and :func:`~factorfuse.inference.merging_history` their labels."""

    merged_pair: tuple[int, int] | None
    model: FittedModel


@dataclass(frozen=True)
class MergingPath:
    steps: tuple[PathStep, ...]
    strategy: str
    evaluation_breakdown: dict[str, int]
    ordering: tuple[str, ...]
    levels: tuple[str, ...]

    @property
    def evaluations(self) -> int:
        return sum(self.evaluation_breakdown.values())

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
    full model is fitted in level order unless ``full_model`` is given, in any
    cluster order.  Ties, including gaussianNd means that all coincide, keep
    the original level order.
    """
    if full_model is None:
        full_model = fit_stats(LevelStats(data, grouping), Partition.singletons(grouping.levels))
    partition = full_model.partition
    positions = partition.positions(grouping.levels)
    if sorted(positions.tolist()) != list(range(partition.size)) or (
            len(partition.level_set()) != grouping.k):
        raise FactorFuseError("full model is not one cluster per level of the grouping")
    value = FAMILIES[data.kind].order_value(full_model, positions, mds_project_1d)
    return tuple(grouping.levels[t] for t in np.argsort(value, kind="stable"))


# ------------------------------------------------------------------ #
# The merge loop
# ------------------------------------------------------------------ #


def merge_factors(
    data: ResponseData,
    grouping: Grouping,
    strategy: str = "adaptive",
) -> MergingPath:
    if grouping.k < 2:
        raise InvalidStrategy("need at least 2 factor levels to merge")
    if strategy not in _RANKINGS:
        raise InvalidStrategy(strategy)
    fast = strategy.startswith("fast-")
    stats = LevelStats(data, grouping)
    ordering, full = (), None
    if fast:
        # the ordering reads a full model fitted in level order; the path
        # starts from the full model refitted in the new order, from that fit
        full = fit_stats(stats, Partition.singletons(grouping.levels))
        ordering = ordering_statistic(data, grouping, full)
    clusters = _Clusters(stats, Partition.singletons(ordering or grouping.levels), full)
    ranking = _RANKINGS[strategy](clusters)
    steps = [PathStep(None, clusters.model)]
    while clusters.size > 1:
        a, b = ranking.choose(clusters.model.partition.labels)
        steps.append(clusters.merge(a, b))
        ranking.merged(a, b)
    return MergingPath(
        steps=tuple(steps),
        strategy=strategy,
        evaluation_breakdown=dict(clusters.counts),
        ordering=ordering,
        levels=grouping.levels,
    )


def _select(scores: np.ndarray, labels, i: np.ndarray, j: np.ndarray) -> int:
    """Index of the best candidate pair (``labels[i[t]]``, ``labels[j[t]]``).

    Higher scores are better.  Scores within ``NEAR_TIE`` of the best are
    tied, so exact analytic ties that rounding splits still resolve to the
    lexicographically smallest pair of labels; only the labels at the
    distinct positions of tied pairs are compared, left positions first.
    """
    tied = np.flatnonzero(scores >= scores.max() - NEAR_TIE)
    if len(tied) == 1:
        return int(tied[0])
    for side in (i, j):
        smallest = min(np.flatnonzero(np.bincount(side[tied])).tolist(), key=labels.__getitem__)
        tied = tied[side[tied] == smallest]
    return int(tied[0])


def _choose(scores: np.ndarray, labels, i: np.ndarray, j: np.ndarray) -> tuple[int, int]:
    """The positions (a, b) of the pair :func:`_select` picks."""
    best = _select(scores, labels, i, j)
    return int(i[best]), int(j[best])


def _adjacent(size: int) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(size - 1)
    return i, i + 1


class _Clusters:
    """The current partition, per cluster its level codes in declared order and
    its sums, and its fitted model, merged in step; and the evaluations spent.
    Each fit starts from the one before it (see :func:`fit_stats`)."""

    def __init__(self, stats: LevelStats, partition: Partition, parent: FittedModel | None):
        self.stats = stats
        self.model = fit_stats(stats, partition, parent)
        self.codes = stats.cluster_rows(partition)
        self.sums = cluster_sums(stats, partition)
        self.counts = Counter(path=1)

    @property
    def size(self) -> int:
        return self.model.partition.size

    def score(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Log-likelihood after merging each pair (i[t], j[t]); the caller
        counts the evaluations."""
        return self.stats.family.score(self.stats, self.sums, i, j, self.model)

    def distance(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """LRT distance of merging each pair (i[t], j[t])."""
        self.counts["distances"] += len(i)
        return np.maximum(0.0, 2.0 * (self.model.loglik - self.score(i, j)))

    def merge(self, a: int, b: int) -> PathStep:
        """Merge the clusters at positions a < b and fit the result; the merged
        cluster takes position a and the clusters after b move up by one.  Only
        the merged cluster is summed afresh, as :func:`cluster_sums` sums it."""
        stats, codes = self.stats, self.codes
        codes[a] = np.sort(np.concatenate((codes[a], codes.pop(b))))
        kept = np.arange(len(codes))
        kept[b:] += 1  # every row but b
        self.sums = {name: s[kept] for name, s in self.sums.items()}
        for name, s in self.sums.items():
            s[a] = np.add.reduce(getattr(stats, name)[codes[a]])
        partition = self.model.partition.merge(a, b)
        replaced, self.model = self.model, stats.family.fit(stats, partition, self.sums, self.model)
        for state in stats.family.scoring_only:  # only the current fit is scored
            replaced.nuisance.pop(state, None)
        self.counts["path"] += 1
        return PathStep((a, b), self.model)


# ------------------------------------------------------------------ #
# Rankings: each step's pair (higher scores merge first) and the
# bookkeeping after each merge
# ------------------------------------------------------------------ #


class _Likelihood:
    """Every pair of clusters scored by the log-likelihood after its merge.

    Where the family's clusters lie on a line (``Family.line``), the
    neighbours on the line are scored first.  If every other pair is at least
    the radius apart at which the family certifies that it scores below the
    near-tie window of the best neighbour, as on most steps, the best score
    and every pair tied with it are among the neighbours, and :func:`_select`
    picks from them the pair it picks from all pairs.  Otherwise every pair
    is scored.  The count is of every pair, which ``adaptive`` is defined to
    score."""

    def __init__(self, clusters: _Clusters):
        self.clusters = clusters

    def choose(self, labels) -> tuple[int, int]:
        clusters, c = self.clusters, self.clusters.size
        clusters.counts["candidates"] += c * (c - 1) // 2
        if clusters.stats.family.line is not None:
            value, radius = clusters.stats.family.line(clusters.stats, clusters.sums, clusters.model)
            order = np.argsort(value, kind="stable")
            i, j = np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])
            scores = clusters.score(i, j)
            r = radius(scores.max() - NEAR_TIE)
            # every pair but the neighbours spans a pair two apart on the
            # line, so is at least as far apart
            line = value[order]
            if r is not None and (line[2:] - line[:-2] >= r).all():
                return _choose(scores, labels, i, j)
        self.pairs = i, j = np.triu_indices(c, k=1)  # kept: see _CompleteLinkage
        return _choose(clusters.score(i, j), labels, i, j)

    def merged(self, a, b):
        pass


class _NeighbourLikelihood(_Likelihood):
    """Each pair of neighbouring clusters scored by the log-likelihood after
    its merge."""

    def choose(self, labels) -> tuple[int, int]:
        i, j = _adjacent(self.clusters.size)
        self.clusters.counts["candidates"] += len(i)
        return _choose(self.clusters.score(i, j), labels, i, j)


class _CompleteLinkage:
    """Complete linkage on the LRT distances between pairs of levels, each
    measured with all other levels singleton; ``row[s]`` is the row of ``dist``
    that holds the cluster at position s."""

    def __init__(self, clusters: _Clusters):
        i, j = np.triu_indices(clusters.size, k=1)
        self.dist = np.zeros((clusters.size, clusters.size))
        self.dist[i, j] = self.dist[j, i] = clusters.distance(i, j)
        self.row = np.arange(clusters.size)

    def choose(self, labels) -> tuple[int, int]:
        # the pairs are kept until the next step's replace them: freed with
        # the scores, the heap goes back to the system and the next step
        # faults it in again (``fixed`` on gaussian k=1024: twice the page
        # faults, a third more time)
        self.pairs = i, j = np.triu_indices(len(self.row), k=1)
        return _choose(-self.dist[self.row[i], self.row[j]], labels, i, j)

    def merged(self, a, b):
        # Lance-Williams update for complete linkage: the merged cluster is as
        # far from each other cluster as the farther of its two children
        dist, ra, rb = self.dist, self.row[a], self.row[b]
        dist[ra] = dist[:, ra] = np.maximum(dist[ra], dist[rb])
        self.row = np.delete(self.row, b)


class _AdjacentLinkage:
    """Complete linkage kept only between neighbouring clusters:
    ``dist[s]`` is the distance between the clusters at s and s + 1."""

    def __init__(self, clusters: _Clusters):
        self.clusters = clusters
        self.dist = clusters.distance(*_adjacent(clusters.size)).tolist()

    def choose(self, labels) -> tuple[int, int]:
        return _choose(-np.array(self.dist), labels, *_adjacent(len(self.dist) + 1))

    def merged(self, a, b):
        # Complete-linkage update for the two adjacencies of the new cluster.
        # Only one fresh LRT distance per merge keeps the O(k) scoring budget:
        # the tighter inherited side is re-measured against the new cluster,
        # the other side falls back to the merged pair's own distance.
        dist = self.dist
        d_ab = dist.pop(a)
        sides = [s for s in (a - 1, a) if 0 <= s < len(dist)]
        tight = min(sides, key=dist.__getitem__, default=None)
        for s in sides:
            new = self.clusters.distance(np.array([s]), np.array([s + 1]))[0] if s == tight else d_ab
            dist[s] = max(dist[s], float(new))


_RANKINGS = {
    "adaptive": _Likelihood,
    "fast-adaptive": _NeighbourLikelihood,
    "fixed": _CompleteLinkage,
    "fast-fixed": _AdjacentLinkage,
}
