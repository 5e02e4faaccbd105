"""Core data containers: response data, grouping factor, and partitions.

The rules a response of each kind must meet are declared once, in
:data:`DOMAINS`: the shape of its values, the rows outside its domain and
why, and whether it takes weights.  :class:`ResponseData` validates from the
table, and the CLI takes its ingest row masks and messages from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import FactorFuseError, WeightsNotSupported

GAUSSIAN_1D = "gaussian1d"
GAUSSIAN_ND = "gaussianNd"
BINOMIAL = "binomial"
SURVIVAL = "survival"


@dataclass(frozen=True)
class Domain:
    """The responses one kind accepts."""

    # number of value columns: 1 holds (n,) values, None any d >= 2
    columns: int | None
    # the value shape, as error messages name it
    shape: str
    # value columns that must be > 0, and columns that must be 0 or 1
    positive: tuple[int, ...]
    indicators: tuple[int, ...]
    # why a row outside the domain is rejected
    reason: str
    # whether per-observation weights are accepted
    weights: bool

    @property
    def scalar(self) -> bool:
        return self.columns == 1

    def outside(self, values: np.ndarray) -> np.ndarray:
        """Mask of the rows of (n, c) ``values`` outside the domain; a NaN in
        a positive or indicator column is outside."""
        bad = np.zeros(len(values), dtype=bool)
        for j in self.positive:
            bad |= ~(values[:, j] > 0)
        for j in self.indicators:
            bad |= ~np.isin(values[:, j], (0, 1))
        return bad


DOMAINS = {
    GAUSSIAN_1D: Domain(1, "(n,)", (), (), "", weights=True),
    GAUSSIAN_ND: Domain(None, "(n, d) with d >= 2", (), (), "", weights=True),
    BINOMIAL: Domain(1, "(n,)", (), (0,), "binomial response must be 0 or 1", weights=True),
    SURVIVAL: Domain(2, "(n, 2) time/event", (0,), (1,),
                     "invalid survival time/event pair", weights=False),
}


@dataclass(frozen=True)
class ResponseData:
    """Per-observation response payload for one of the four model families.

    ``values`` is a float array shaped as :data:`DOMAINS` declares:

    * ``(n,)`` for gaussian1d (real) and binomial (0/1),
    * ``(n, d)`` with ``d >= 2`` for gaussianNd,
    * ``(n, 2)`` for survival, columns ``time`` (positive) and ``event`` (0/1).

    ``weights`` are optional positive per-observation weights (default 1);
    survival takes none.
    """

    kind: str
    values: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in DOMAINS:
            raise FactorFuseError(f"unknown response kind: {self.kind!r}")
        domain = DOMAINS[self.kind]
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        d = values.shape[1] if values.ndim == 2 else 1
        if values.ndim != (1 if domain.scalar else 2) or not (
                d == domain.columns or domain.columns is None and d >= 2):
            raise FactorFuseError(f"{self.kind} values must be {domain.shape}")
        rows = values.reshape(len(values), d)
        outside = np.flatnonzero(domain.outside(rows))
        if len(outside):
            raise FactorFuseError(f"observation {outside[0]}: {domain.reason}")
        if self.weights is not None:
            if not domain.weights:
                raise WeightsNotSupported(f"weights are not supported for {self.kind} data")
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.n,):
                raise FactorFuseError("weights must align with observations")
            if not np.all(w > 0):
                raise FactorFuseError("weights must be strictly positive")
            object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, init=False, eq=False)
class Grouping:
    """Observation-to-level assignment for the grouping factor.

    ``levels`` is the ordered list of distinct level names.  Give either each
    row's label, ``Grouping(labels, levels)``, or each row's index into
    ``levels``, ``Grouping(codes=codes, levels=levels)``.  With labels,
    ``levels`` defaults to the sorted distinct labels, which keeps every
    downstream tie-break invariant under row permutations of the input.

    Each row's level is stored once, as ``codes[r]``, the index into
    ``levels`` of row r's level, from which every per-level statistic is
    built; ``labels`` is derived from the codes when read.  ``code_of`` maps
    a level to its index and ``counts`` to its number of rows.
    """

    levels: tuple[str, ...]
    codes: np.ndarray = field(repr=False)
    code_of: dict[str, int] = field(repr=False)
    counts: dict[str, int] = field(repr=False)

    def __init__(self, labels=None, levels=(), *, codes=None):
        levels = tuple(map(str, levels))
        if (labels is None) == (codes is None):
            raise FactorFuseError("a grouping takes either labels or codes")
        if labels is not None:
            labels = tuple(map(str, labels))
            levels = levels or tuple(sorted(set(labels)))
        code_of = {lv: i for i, lv in enumerate(levels)}
        if len(code_of) != len(levels):
            raise FactorFuseError("duplicate level names")
        if labels is not None:
            codes = np.fromiter(map(code_of.get, labels, repeat(-1)), np.intp, len(labels))
            unknown = np.flatnonzero(codes < 0)
            if len(unknown):
                raise FactorFuseError(f"label {labels[unknown[0]]!r} not among declared levels")
        else:
            codes = np.asarray(codes)
            if codes.ndim != 1 or codes.dtype.kind not in "iu" and codes.size:
                raise FactorFuseError("codes must be a 1-d array of integers")
            codes = codes.astype(np.intp)
            outside = np.flatnonzero((codes < 0) | (codes >= len(levels)))
            if len(outside):
                raise FactorFuseError(f"code {codes[outside[0]]} of row {outside[0]} "
                                      f"is not an index into {len(levels)} levels")
        counts = dict(zip(levels, np.bincount(codes, minlength=len(levels)).tolist()))
        empty = [lv for lv, c in counts.items() if c == 0]
        if empty:
            raise FactorFuseError(f"levels with no observations: {empty}")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "code_of", code_of)
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grouping):
            return NotImplemented
        return self.levels == other.levels and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((self.levels, self.codes.tobytes()))

    @property
    def labels(self) -> tuple[str, ...]:
        """Each row's level name."""
        return tuple(np.array(self.levels, dtype=object)[self.codes])

    @property
    def k(self) -> int:
        return len(self.levels)

    @property
    def n(self) -> int:
        return len(self.codes)

    def indices(self) -> dict[str, np.ndarray]:
        """Observation index array per level, in ascending row order."""
        rows = np.argsort(self.codes, kind="stable")
        return dict(zip(self.levels, np.split(rows, np.cumsum(list(self.counts.values()))[:-1])))


@dataclass(frozen=True)
class Cluster:
    """One cluster of original levels; ``members`` keeps merge order, which
    the label follows: each member in parentheses.  The label is worked out
    once, when not given; :meth:`Partition.merge` gives it as the two parts'
    labels joined."""

    members: tuple[str, ...]
    label: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.label is None:
            object.__setattr__(self, "label", "".join(f"({m})" for m in self.members))


@dataclass(frozen=True)
class Partition:
    """An ordered, disjoint, exhaustive grouping of the original levels.

    A cluster is identified by its position.  Cluster order is meaningful:
    the fast strategies merge only clusters adjacent in this order, and a
    merged cluster takes the position of its left child.  The cluster labels
    are display text in cluster order, worked out once when not given; they
    can repeat, as when a level name contains ``)(``.
    """

    clusters: tuple[Cluster, ...]
    labels: tuple[str, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(c.label for c in self.clusters))

    @staticmethod
    def singletons(levels) -> "Partition":
        return Partition(tuple(Cluster((lv,)) for lv in levels))

    @property
    def size(self) -> int:
        return len(self.clusters)

    def level_set(self) -> frozenset[str]:
        return frozenset(m for c in self.clusters for m in c.members)

    def positions(self, levels) -> np.ndarray:
        """The position of the cluster that holds each of ``levels``, -1
        where none holds it."""
        at = {m: s for s, c in enumerate(self.clusters) for m in c.members}
        return np.array([at.get(lv, -1) for lv in levels], dtype=int)

    def merge(self, a: int, b: int) -> "Partition":
        """Merge the clusters at positions a and b, in either order; the members
        are a's then b's, and the result sits at the smaller position."""
        c = self.clusters
        if not (0 <= a < len(c) and 0 <= b < len(c)):
            raise FactorFuseError(f"cannot merge positions {a} and {b} of {len(c)} clusters")
        if a == b:
            raise FactorFuseError("cannot merge a cluster with itself")
        lo, hi = sorted((a, b))
        merged = Cluster(c[a].members + c[b].members, c[a].label + c[b].label)
        labels = self.labels
        return Partition(c[:lo] + (merged,) + c[lo + 1:hi] + c[hi + 1:],
                         labels[:lo] + (merged.label,) + labels[lo + 1:hi] + labels[hi + 1:])

    def is_coarsening_of(self, finer: "Partition") -> bool:
        """True if every cluster of ``finer`` is contained in one of ours: the
        two hold the same levels, and each cluster of ``finer`` meets only one
        of ours."""
        levels = self.level_set()
        if levels != finer.level_set():
            return False
        levels = list(levels)
        pairs = set(zip(finer.positions(levels).tolist(), self.positions(levels).tolist()))
        return len(pairs) == len({f for f, _ in pairs})
