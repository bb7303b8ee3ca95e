"""The temporal graph type, seeded generators, and the delta-clique predicate.

Vertices are 0-indexed.  Edges are canonical pairs (u, v) with u < v, stored
as parallel numpy arrays sorted lexicographically by (u, v).  A temporal graph
carries one real label per edge in [0, 1]; a vertex set Q is a delta-temporal
clique when Q is complete in the underlying graph and the labels of its
internal edges all fit in a closed window of width delta.  A static graph is
a temporal graph whose labels are all 0: its delta-cliques are its cliques,
for every delta.

A graph's arrays are read-only.  The constructor copies the arrays it is
given, since its caller may still write them; the generators and
`TemporalGraph.from_columns` build fresh arrays for the graph and hand them
over without a copy.  Complete instances share one set of pair columns,
`_complete_pairs(n)`, cached for the last n asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np


class NotADeltaClique(ValueError):
    """A vertex set failed the delta-clique predicate."""


class MissingEdge(NotADeltaClique):
    """The set is not complete in the underlying graph."""


class IntervalTooWide(NotADeltaClique):
    """The set is complete but its label interval exceeds delta."""


def _as_edge_arrays(n: int, u, v) -> tuple[np.ndarray, np.ndarray]:
    if n > np.iinfo(np.int64).max:
        raise OverflowError("n must fit in a 64-bit integer")
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ValueError("edge endpoint arrays must be 1-d and equal length")
    if u.size:
        if u.min() < 0 or v.max() >= n:
            raise ValueError("vertex ids must lie in [0, n)")
        if not (u < v).all():
            raise ValueError("edges must be canonical pairs with u < v")
        # compare (u, v) pairs directly: a key like u * n + v wraps in int64
        u0, u1, v0, v1 = u[:-1], u[1:], v[:-1], v[1:]
        same = u0 == u1
        if not ((u0 < u1) | (same & (v0 < v1))).all():
            if (same & (v0 == v1)).any():
                raise ValueError("duplicate edge in edge list")
            raise ValueError("edges must be sorted lexicographically by (u, v)")
    return u, v


def _sort_key(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stable order of the pairs (u, v), lexicographic by u then v."""
    return np.lexsort((v, u))


def _columns(rows: list, k: int) -> list[list]:
    """The k columns of a list of k-item rows.  Not zip(*rows): its one
    iterator per row sets off the cyclic garbage collector, 0.41 s against
    0.05 s for 499,500 rows."""
    return [list(map(itemgetter(j), rows)) for j in range(k)]


def _canonical_pairs(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint columns in any order as canonical pairs u < v, sorted, with
    the stable order that sorts them; ids that do not fit in int64 raise
    OverflowError."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    u = np.minimum(a, b)
    v = np.maximum(a, b)
    if (u == v).any():
        raise ValueError("self-loops are not allowed")
    order = _sort_key(u, v)
    return u[order], v[order], order


@dataclass(frozen=True, eq=False)
class TemporalGraph:
    """A simple graph with one label in [0, 1] per edge, canonically ordered.

    Every array is validated and then stored read-only.  `TemporalGraph(n, u,
    v, labels)` stores copies, because its caller may still hold and write
    the arrays it passed.  The package's own builders go through `_adopt`
    instead, which freezes the arrays in place: the rule is that only code
    that has just built an array for this graph, and keeps no writable
    reference to it, may pass it to `_adopt`.  Those are the generators'
    labels and kept pairs, the shared read-only `_complete_pairs` columns,
    and the fresh sorted columns of `from_columns` (the path `io` reads
    through).
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self._store(copy=True)

    @classmethod
    def _adopt(cls, n: int, u: np.ndarray, v: np.ndarray, labels: np.ndarray) -> "TemporalGraph":
        """The graph over arrays built for it, validated as by the
        constructor and frozen in place instead of copied."""
        tg = cls.__new__(cls)
        for name, value in (("n", n), ("u", u), ("v", v), ("labels", labels)):
            object.__setattr__(tg, name, value)
        tg._store(copy=False)
        return tg

    def _store(self, copy: bool) -> None:
        """Validate the fields and store the arrays read-only, copied first
        when `copy`."""
        if self.n < 1:
            raise ValueError("n must be at least 1")
        u, v = _as_edge_arrays(self.n, self.u, self.v)
        labels = np.asarray(self.labels, dtype=np.float64)
        if labels.shape != u.shape:
            raise ValueError("labels must align with edges")
        # NaN fails both comparisons, so it is rejected with the infinities
        if not ((labels >= 0.0) & (labels <= 1.0)).all():
            raise ValueError("labels must be finite and lie in [0, 1]")
        for name, arr in (("u", u), ("v", v), ("labels", labels)):
            if copy:
                arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_columns(cls, n: int, a, b, labels) -> "TemporalGraph":
        """Build from endpoint and label columns in any edge order; pairs are
        canonicalized."""
        u, v, order = _canonical_pairs(a, b)
        return cls._adopt(n, u, v, np.asarray(labels, dtype=np.float64)[order])

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]]) -> "TemporalGraph":
        """Build from (u, v, label) triples in any order; pairs are canonicalized."""
        return cls.from_columns(n, *_columns(list(edges), 3))

    @property
    def m(self) -> int:
        return int(self.u.size)

    def edge_list(self) -> list[tuple[int, int, float]]:
        return list(zip(self.u.tolist(), self.v.tolist(), self.labels.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.labels, other.labels)
        )


def _pair_index(n: int, a, b):
    """Row-major index of canonical pairs (a, b), a < b, in the complete edge
    order; a and b may be ints or integer arrays of one shape."""
    return a * (2 * n - a - 1) // 2 + (b - a - 1)


@dataclass(frozen=True)
class CliqueResult:
    """A witnessed clique: sorted vertices plus its label interval."""

    vertices: tuple[int, ...]
    size: int
    interval_min: float
    interval_max: float

    def __post_init__(self) -> None:
        if self.size != len(self.vertices):
            raise ValueError("size must equal the number of vertices")
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("vertices must be sorted and distinct")
        if self.interval_min > self.interval_max:
            raise ValueError("interval_min must not exceed interval_max")

    @property
    def width(self) -> float:
        return self.interval_max - self.interval_min


@lru_cache(maxsize=1)
def _complete_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical (u, v) columns of K_n, equal to `np.triu_indices(n, 1)`
    but built without its n x n mask.  Sweeps run n-major, so only the last
    n is cached.  The columns are read-only views of read-only arrays, so no
    graph sharing them can make them writable again."""
    rows = np.arange(n - 1, 0, -1, dtype=np.int64)  # row a holds n - 1 - a pairs
    u = np.repeat(np.arange(n - 1, dtype=np.int64), rows)
    # pair i of the whole list, in row a starting at s_a, is (a, i - (s_a - a - 1))
    shift = np.cumsum(rows) - rows - np.arange(1, n, dtype=np.int64)
    v = np.arange(u.size, dtype=np.int64) - np.repeat(shift, rows)
    u.setflags(write=False)
    v.setflags(write=False)
    return u.view(), v.view()


def generate_random_complete(n: int, seed: int) -> TemporalGraph:
    """Complete graph on n vertices with i.i.d. uniform-[0,1) edge labels.

    Deterministic in (n, seed); the labels come from one numpy PCG64 stream
    in canonical edge order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    iu, iv = _complete_pairs(n)
    rng = np.random.default_rng(seed)
    return TemporalGraph._adopt(n, iu, iv, rng.random(iu.size))


def generate_er(n: int, p: float, seed: int) -> TemporalGraph:
    """Erdos-Renyi G(n, p) as a static graph: each canonical pair kept
    independently with prob p, every kept edge labeled 0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    iu, iv = _complete_pairs(n)
    rng = np.random.default_rng(seed)
    keep = rng.random(iu.size) < p
    return TemporalGraph._adopt(n, iu[keep], iv[keep], np.zeros(int(keep.sum())))


def _clique_labels(tg: TemporalGraph, verts: Sequence[int]) -> np.ndarray:
    """Labels of all internal edges of the sorted `verts`, in row-major pair
    order; raises MissingEdge naming the first missing pair."""
    rows = []
    for i, a in enumerate(verts[:-1]):
        lo, hi = np.searchsorted(tg.u, (a, a + 1))
        want = np.asarray(verts[i + 1 :], dtype=np.int64)
        idx = lo + np.searchsorted(tg.v[lo:hi], want)
        hit = idx < hi
        hit[hit] = tg.v[idx[hit]] == want[hit]
        if not hit.all():
            raise MissingEdge(f"missing edge ({a}, {want[np.argmin(hit)]})")
        rows.append(tg.labels[idx])
    return np.concatenate(rows)


def delta_clique_check(tg: TemporalGraph, vertices, delta: float) -> CliqueResult:
    """Validate a delta-temporal clique and return its witnessed interval.

    Raises MissingEdge when the set is not complete in the underlying graph
    and IntervalTooWide when its label interval exceeds delta.  Sets of size
    0 or 1 vacuously pass with the degenerate interval [0, 0].
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    verts = sorted(int(x) for x in vertices)
    if len(set(verts)) != len(verts):
        raise ValueError("vertex set contains duplicates")
    if verts and not (0 <= verts[0] and verts[-1] < tg.n):
        raise ValueError("vertex ids must lie in [0, n)")
    if len(verts) <= 1:
        return CliqueResult(tuple(verts), len(verts), 0.0, 0.0)
    labels = _clique_labels(tg, verts)
    lo = float(labels.min())
    hi = float(labels.max())
    if hi - lo > delta:
        raise IntervalTooWide(
            f"label interval [{lo}, {hi}] has width {hi - lo} > delta={delta}"
        )
    return CliqueResult(tuple(verts), len(verts), lo, hi)


def is_delta_clique(tg: TemporalGraph, vertices, delta: float) -> bool:
    """Boolean form of `delta_clique_check`."""
    try:
        delta_clique_check(tg, vertices, delta)
    except NotADeltaClique:
        return False
    return True
