"""Core data containers: response data, grouping factor, and partitions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FactorFuseError

GAUSSIAN_1D = "gaussian1d"
GAUSSIAN_ND = "gaussianNd"
BINOMIAL = "binomial"
SURVIVAL = "survival"

KINDS = (GAUSSIAN_1D, GAUSSIAN_ND, BINOMIAL, SURVIVAL)


@dataclass(frozen=True)
class ResponseData:
    """Per-observation response payload for one of the four model families.

    ``values`` is a float array shaped:

    * ``(n,)`` for gaussian1d (real) and binomial (0/1),
    * ``(n, d)`` with ``d >= 2`` for gaussianNd,
    * ``(n, 2)`` for survival, columns ``time`` (positive) and ``event`` (0/1).

    ``weights`` are optional positive per-observation weights (default 1).
    """

    kind: str
    values: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FactorFuseError(f"unknown response kind: {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.kind == GAUSSIAN_1D:
            if values.ndim != 1:
                raise FactorFuseError("gaussian1d values must be 1-D")
        elif self.kind == GAUSSIAN_ND:
            if values.ndim != 2 or values.shape[1] < 2:
                raise FactorFuseError("gaussianNd values must be (n, d) with d >= 2")
        elif self.kind == BINOMIAL:
            if values.ndim != 1 or not np.all((values == 0.0) | (values == 1.0)):
                raise FactorFuseError("binomial values must be 0/1")
        elif self.kind == SURVIVAL:
            if values.ndim != 2 or values.shape[1] != 2:
                raise FactorFuseError("survival values must be (n, 2) time/event")
            if not np.all(values[:, 0] > 0):
                raise FactorFuseError("survival times must be strictly positive")
            ev = values[:, 1]
            if not np.all((ev == 0.0) | (ev == 1.0)):
                raise FactorFuseError("survival event indicator must be 0/1")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.n,):
                raise FactorFuseError("weights must align with observations")
            if not np.all(w > 0):
                raise FactorFuseError("weights must be strictly positive")
            object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Grouping:
    """Observation-to-level assignment for the grouping factor.

    ``levels`` is the ordered list of distinct level names.  When not given
    it defaults to the sorted distinct labels, which keeps every downstream
    tie-break invariant under row permutations of the input.
    """

    labels: tuple[str, ...]
    levels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if not self.levels:
            object.__setattr__(self, "levels", tuple(sorted(set(labels))))
        else:
            object.__setattr__(self, "levels", tuple(str(x) for x in self.levels))
        known = set(self.levels)
        if len(known) != len(self.levels):
            raise FactorFuseError("duplicate level names")
        for lab in labels:
            if lab not in known:
                raise FactorFuseError(f"label {lab!r} not among declared levels")
        counts = {lv: 0 for lv in self.levels}
        for lab in labels:
            counts[lab] += 1
        if any(c == 0 for c in counts.values()):
            empty = [lv for lv, c in counts.items() if c == 0]
            raise FactorFuseError(f"levels with no observations: {empty}")
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return len(self.levels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def indices(self) -> dict[str, np.ndarray]:
        """Observation index array per level."""
        labels = np.asarray(self.labels, dtype=object)
        return {lv: np.flatnonzero(labels == lv) for lv in self.levels}


def cluster_label(members_in_merge_order: tuple[str, ...]) -> str:
    return "".join(f"({m})" for m in members_in_merge_order)


@dataclass(frozen=True)
class Cluster:
    """One cluster of original levels; ``members`` keeps merge order."""

    members: tuple[str, ...]

    @property
    def label(self) -> str:
        return cluster_label(self.members)

    @property
    def member_set(self) -> frozenset[str]:
        return frozenset(self.members)


@dataclass(frozen=True)
class Partition:
    """An ordered, disjoint, exhaustive grouping of the original levels.

    Cluster order is meaningful: the fast strategies merge only clusters
    adjacent in this order, and a merged cluster takes the position of its
    left child.
    """

    clusters: tuple[Cluster, ...]

    @staticmethod
    def singletons(levels) -> "Partition":
        return Partition(tuple(Cluster((lv,)) for lv in levels))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.clusters)

    @property
    def size(self) -> int:
        return len(self.clusters)

    def level_set(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.clusters:
            out.update(c.members)
        return frozenset(out)

    def label_of(self, level: str) -> str:
        for c in self.clusters:
            if level in c.member_set:
                return c.label
        raise KeyError(level)

    def merge(self, label_a: str, label_b: str) -> "Partition":
        """Merge two clusters; the result sits at the left child's position
        and its label is the concatenation in merge order."""
        idx = {c.label: i for i, c in enumerate(self.clusters)}
        ia, ib = idx[label_a], idx[label_b]
        if ia == ib:
            raise FactorFuseError("cannot merge a cluster with itself")
        a, b = self.clusters[ia], self.clusters[ib]
        # merged cluster replaces the leftmost of the pair; member order is
        # merge order (a then b), which drives the concatenated label
        merged = Cluster(a.members + b.members)
        new = []
        for i, c in enumerate(self.clusters):
            if i == min(ia, ib):
                new.append(merged)
            elif i in (ia, ib):
                continue
            else:
                new.append(c)
        return Partition(tuple(new))

    def is_coarsening_of(self, finer: "Partition") -> bool:
        """True if every cluster of ``finer`` is contained in one of ours."""
        if self.level_set() != finer.level_set():
            return False
        mine = [c.member_set for c in self.clusters]
        for fc in finer.clusters:
            if not any(fc.member_set <= m for m in mine):
                return False
        return True
