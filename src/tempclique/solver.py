"""Maximum delta-temporal-clique solvers.

Three routes with one contract: find a largest vertex set that is complete in
the underlying graph with all internal labels inside a closed width-delta
window.

* bruteforce: subset enumeration, guarded to n <= 20; the reference oracle.
* exact: every optimum's label interval starts at some edge label, so sweep
  the windows [label(e), label(e) + delta] anchored at each edge e in label
  order, maintaining the window graph incrementally as a bitset adjacency,
  and inside each window search only cliques containing the anchor edge's
  endpoints with a branch-and-bound using greedy-coloring upper bounds.  The
  bitsets use bit positions renumbered from time to time by descending
  window degree, which tightens the coloring bounds; the witness is then
  re-derived in vertex-id order, so it equals that of an id-order search.
* heuristic: randomized greedy plus (1,2)-swap local search over a spread of
  anchored windows, vectorized with numpy; valid but not necessarily optimal.

Both sweeps admit a label x into the window anchored at t when x - t <= delta,
the test `delta_clique_check` applies to a witness's interval.  All routes
re-validate their witness through `delta_clique_check` before returning, so a
returned clique is always sound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

import numpy as np

from .graphs import (
    CliqueResult,
    StaticGraph,
    TemporalGraph,
    delta_clique_check,
)
from .seeds import derive_seed

BRUTEFORCE_MAX_N = 20

# Heuristic search effort: anchored windows searched, greedy restarts per
# window, local-search rounds and plateau moves per restart, and the size of
# the pool each greedy step picks from.  Tuned on complete instances with
# n = 1000, delta = 0.5 (they reliably reach size >= 12 there); smaller
# instances are insensitive to them.
_ANCHORS = 24
_RESTARTS = 8
_IMPROVE_ROUNDS = 120
_PLATEAU_MOVES = 30
_GREEDY_POOL = 3

_VALID_MODES = ("bruteforce", "exact", "heuristic")


class InfeasibleConfigError(ValueError):
    """The requested configuration cannot be run within its guard rails."""


@dataclass
class SolverConfig:
    """Knobs shared by the solve entry points: the solver mode, and an
    optional wall-time budget in seconds (None runs unbudgeted; NaN is
    rejected, since no elapsed time compares against it)."""

    mode: str = "exact"
    time_budget: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in _VALID_MODES:
            raise ValueError(f"mode must be one of {_VALID_MODES}")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("time_budget must be nonnegative")


@dataclass(frozen=True)
class SolveResult:
    """A witnessed clique plus run metadata."""

    clique: CliqueResult
    optimal: bool
    mode: str
    wall_time: float


class _SearchState:
    __slots__ = ("best_size", "best", "deadline", "timed_out", "nodes")

    def __init__(self, best_size: int, deadline: float | None):
        self.best_size = best_size
        self.best: tuple[int, ...] | None = None
        self.deadline = deadline
        self.timed_out = False
        self.nodes = 0  # B&B nodes visited


def _color_order(adj: list[int], P: int) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set P; vertices sorted by color class.

    bounds[i] is an upper bound on the largest clique inside order[:i + 1].
    """
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = P
    while rest:
        color += 1
        Q = rest
        while Q:
            b = Q & -Q
            w = b.bit_length() - 1
            rest ^= b
            Q = (Q ^ b) & ~adj[w]
            order.append(w)
            bounds.append(color)
    return order, bounds


def _expand(adj: list[int], P: int, rstack: list[int], state: _SearchState) -> None:
    """Tomita-style branch and bound over candidates P extending clique rstack."""
    state.nodes += 1
    if state.deadline is not None:
        if not state.nodes & 1023 and time.perf_counter() > state.deadline:
            state.timed_out = True
        if state.timed_out:
            return
    rsize = len(rstack)
    order, bounds = _color_order(adj, P)
    for i in range(len(order) - 1, -1, -1):
        if rsize + bounds[i] <= state.best_size:
            return
        w = order[i]
        rstack.append(w)
        newP = P & adj[w]
        if newP:
            _expand(adj, newP, rstack, state)
        elif rsize + 1 > state.best_size:
            state.best_size = rsize + 1
            state.best = tuple(rstack)
        rstack.pop()
        P &= ~(1 << w)
        if state.timed_out:
            return


def greedy_static_clique(g: StaticGraph) -> tuple[int, ...]:
    """Deterministic greedy clique: repeatedly take the candidate of maximum
    degree within the remaining candidate set (smallest id on ties)."""
    adj = g.adjacency_masks
    cand = (1 << g.n) - 1
    clique: list[int] = []
    while cand:
        best_v, best_d = -1, -1
        Q = cand
        while Q:
            b = Q & -Q
            w = b.bit_length() - 1
            Q ^= b
            d = (adj[w] & cand).bit_count()
            if d > best_d:
                best_v, best_d = w, d
        clique.append(best_v)
        cand &= adj[best_v]
    return tuple(sorted(clique))


def static_max_clique(g: StaticGraph) -> tuple[int, ...]:
    """Sorted vertices of a maximum clique of a static graph (branch and bound
    with coloring, seeded with the greedy clique)."""
    state = _SearchState(0, None)
    state.best = greedy_static_clique(g)
    state.best_size = len(state.best)
    _expand(g.adjacency_masks, (1 << g.n) - 1, [], state)
    return tuple(sorted(state.best))


def _mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def max_delta_clique_bruteforce(tg: TemporalGraph, delta: float) -> CliqueResult:
    """Reference solver: enumerate all vertex subsets.

    Ties on size break to the lexicographically smallest sorted vertex tuple.
    Refuses n > 20.
    """
    if tg.n > BRUTEFORCE_MAX_N:
        raise InfeasibleConfigError(
            f"bruteforce subset enumeration refuses n={tg.n} > {BRUTEFORCE_MAX_N}"
        )
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    n = tg.n
    adj = [0] * n
    lab: dict[int, float] = {}  # keyed by the two-bit mask of the pair
    for a, b, t in tg.edge_list():
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        lab[(1 << a) | (1 << b)] = t
    best_verts: tuple[int, ...] = (0,)
    best_size = 1
    best_lo = best_hi = 0.0
    for mask in range(3, 1 << n):
        size = mask.bit_count()
        if size < 2 or size < best_size:
            continue
        rest = mask
        ok = True
        while rest:
            b = rest & -rest
            a = b.bit_length() - 1
            rest ^= b
            if (mask ^ b) & ~adj[a]:
                ok = False
                break
        if not ok:
            continue
        verts = _mask_vertices(mask)
        lo, hi = 2.0, -1.0
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                t = lab[(1 << a) | (1 << b)]
                if t < lo:
                    lo = t
                if t > hi:
                    hi = t
            if hi - lo > delta:
                ok = False
                break
        if not ok:
            continue
        if size > best_size or (size == best_size and verts < best_verts):
            best_verts, best_size = verts, size
            best_lo, best_hi = lo, hi
    return CliqueResult(best_verts, best_size, best_lo, best_hi)


def _window_masks(
    n: int, su: list[int], sv: list[int], lo: int, hi: int, pos: list[int]
) -> list[int]:
    """Bitset adjacency of the window of sorted edges lo..hi-1, with vertex v
    at bit pos[v]."""
    bit = [1 << p for p in pos]
    by_vertex = [0] * n
    for a, b in zip(su[lo:hi], sv[lo:hi]):
        by_vertex[a] |= bit[b]
        by_vertex[b] |= bit[a]
    adj = [0] * n
    for v, p in enumerate(pos):
        adj[p] = by_vertex[v]
    return adj


def max_delta_clique_exact(
    tg: TemporalGraph, delta: float, config: SolverConfig | None = None
) -> SolveResult:
    """Exact solver via the anchored-window sweep.

    Any delta-clique's smallest internal label is itself an edge label, so
    sweeping the closed windows [label(e), label(e) + delta] over all edges e
    (in label order) and searching, inside each window, only cliques that
    contain e's endpoints visits every optimum at least once.  The window
    graph is maintained incrementally as edges enter and leave.

    The search runs on relabeled bit positions: whenever the B&B has visited
    as many nodes as the current window has edges, vertices are renumbered by
    descending window degree (ties by id), so greedy coloring takes the dense
    part of the window first and its bounds are tighter.  The incumbent size
    after each anchor does not depend on the numbering, so once the sweep has
    finished, the anchor where the incumbent last grew is searched again in
    vertex-id order from the size it had before; that yields the same witness
    as an id-order sweep.
    """
    cfg = config or SolverConfig(mode="exact")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    t_start = time.perf_counter()
    m = tg.m
    deadline = t_start + cfg.time_budget if cfg.time_budget is not None else None
    best: tuple[int, ...] = (0,)
    optimal = True
    if m > 0:
        # search the vertices that carry an edge, renumbered 0..n-1 in id
        # order so nothing is sized by tg.n; witnesses map back through ids
        ids = np.unique(np.concatenate((tg.u, tg.v)))
        n = ids.size
        order = np.argsort(tg.labels, kind="stable")
        # renumber before reordering: sorted needles bisect several times faster
        su = np.searchsorted(ids, tg.u)[order].tolist()
        sv = np.searchsorted(ids, tg.v)[order].tolist()
        slab = tg.labels[order].tolist()
        ident = list(range(n))
        pos = inv = ident  # bit position of each vertex, vertex at each position
        adj = [0] * n
        hi = 0
        state = _SearchState(1, deadline)
        relabeled_at = 0  # state.nodes at the last relabel
        grown = None  # (anchor, window end, incumbent size before) of the last growth
        for a in range(m):
            # delta_clique_check's predicate: the window holds the labels x
            # with x - t <= delta; float subtraction is monotone in x
            t = slab[a]
            while hi < m and slab[hi] - t <= delta:
                p, q = pos[su[hi]], pos[sv[hi]]
                adj[p] |= 1 << q
                adj[q] |= 1 << p
                hi += 1
            if a > 0:
                p, q = pos[su[a - 1]], pos[sv[a - 1]]
                adj[p] &= ~(1 << q)
                adj[q] &= ~(1 << p)
            if deadline is not None and time.perf_counter() > deadline:
                optimal = False
                break
            u0, v0 = su[a], sv[a]
            if state.best_size < 2:
                state.best_size = 2
                best = (int(ids[u0]), int(ids[v0]))
            # a clique of size s+1 needs C(s+1, 2) edges inside the window
            if hi - a < comb(state.best_size + 1, 2):
                continue
            if state.nodes - relabeled_at >= hi - a:
                inv = sorted(ident, key=lambda v: (-adj[pos[v]].bit_count(), v))
                pos = [0] * n
                for p, v in enumerate(inv):
                    pos[v] = p
                adj = _window_masks(n, su, sv, a, hi, pos)
                relabeled_at = state.nodes
            p, q = pos[u0], pos[v0]
            cands = adj[p] & adj[q]
            if cands.bit_count() + 2 <= state.best_size:
                continue
            before = state.best_size
            _expand(adj, cands, [p, q], state)
            if state.best_size > before:
                best = tuple(ids[[inv[p] for p in state.best]].tolist())
                grown = (a, hi, before)
            if state.timed_out:
                optimal = False
                break
        if grown is not None and optimal:
            a, hi, before = grown
            adj = _window_masks(n, su, sv, a, hi, ident)
            rederive = _SearchState(before, deadline)
            _expand(adj, adj[su[a]] & adj[sv[a]], [su[a], sv[a]], rederive)
            if not rederive.timed_out:
                best = tuple(ids[list(rederive.best)].tolist())
    witness = delta_clique_check(tg, best, delta)
    return SolveResult(witness, optimal, "exact", time.perf_counter() - t_start)


def _window_counts(slab: np.ndarray, delta: float) -> np.ndarray:
    """For sorted labels slab, counts[a] is the number of indices j >= a with
    slab[j] - slab[a] <= delta, the predicate of `delta_clique_check`.

    Anchors go in blocks, so the temporaries stay small next to the
    heuristic's n x n window matrices."""
    m, block = slab.size, 1 << 16
    counts = np.empty(m, dtype=np.int64)
    for lo in range(0, m, block):
        t = slab[lo : lo + block]
        ends = np.searchsorted(slab, t + delta, side="right")
        # t + delta is rounded, so the bisection can stop an ulp or two away
        # from the predicate's boundary; step it there
        while True:
            step = (ends < m) & (slab[np.minimum(ends, m - 1)] - t <= delta)
            if not step.any():
                break
            ends += step
        while True:
            step = slab[ends - 1] - t > delta
            if not step.any():
                break
            ends -= step
        counts[lo : lo + t.size] = ends - np.arange(lo, lo + t.size)
    return counts


def _pick_anchor_rows(counts: np.ndarray, cap: int) -> np.ndarray:
    """Spread `cap` anchor indices over the sorted-label range, taking the
    densest window start inside each slice."""
    m = counts.size
    if m <= cap:
        return np.arange(m)
    # m > cap, so the slice edges are strictly increasing and so are the picks
    edges = np.linspace(0, m, cap + 1).astype(int)
    picks = [lo + int(np.argmax(counts[lo:hi])) for lo, hi in zip(edges[:-1], edges[1:])]
    return np.array(picks, dtype=np.int64)


def _greedy_in_window(W: np.ndarray, deg: np.ndarray, rng: np.random.Generator) -> list[int]:
    n = deg.size
    start = int(rng.integers(n))
    clique = [start]
    cand = W[start].copy()
    while True:
        idxs = np.flatnonzero(cand)
        if idxs.size == 0:
            return clique
        if idxs.size <= 96:
            score = W[np.ix_(idxs, idxs)].sum(1)
        else:
            score = deg[idxs]
        p = min(_GREEDY_POOL, idxs.size)
        cutoff = np.partition(score, idxs.size - p)[idxs.size - p]
        pool = idxs[score >= cutoff]
        v = int(pool[rng.integers(pool.size)])
        clique.append(v)
        cand &= W[v]


def _local_improve(
    W: np.ndarray,
    deg: np.ndarray,
    clique: list[int],
    rng: np.random.Generator,
) -> list[int]:
    """Add-moves, (1,2)-swaps, and bounded plateau (1,1)-swaps on the window graph."""
    n = deg.size
    in_c = np.zeros(n, dtype=bool)
    in_c[clique] = True
    cnt = W[clique].sum(0)
    plateau_left = _PLATEAU_MOVES
    for _ in range(_IMPROVE_ROUNDS):
        k = len(clique)
        addable = np.flatnonzero(~in_c & (cnt == k))
        if addable.size:
            v = int(addable[np.argmax(deg[addable])])
            clique.append(v)
            in_c[v] = True
            cnt = cnt + W[v]
            continue
        near = np.flatnonzero(~in_c & (cnt == k - 1))
        if near.size == 0:
            break
        mem = np.array(clique)
        missed = np.argmin(W[np.ix_(near, mem)], axis=1)
        swapped = False
        for pos in np.unique(missed):
            grp = near[missed == pos]
            if grp.size < 2:
                continue
            hit = np.argwhere(W[np.ix_(grp, grp)])
            if hit.size:
                x, y = int(grp[hit[0][0]]), int(grp[hit[0][1]])
                v = int(mem[pos])
                clique.remove(v)
                in_c[v] = False
                clique.extend([x, y])
                in_c[x] = in_c[y] = True
                cnt = cnt - W[v] + W[x] + W[y]
                swapped = True
                break
        if swapped:
            continue
        if plateau_left > 0:
            plateau_left -= 1
            x = int(near[rng.integers(near.size)])
            v = int(mem[np.argmin(W[x, mem])])
            clique.remove(v)
            in_c[v] = False
            clique.append(x)
            in_c[x] = True
            cnt = cnt - W[v] + W[x]
            continue
        break
    return clique


def max_delta_clique_heuristic(
    tg: TemporalGraph, delta: float, config: SolverConfig | None = None, seed: int = 0
) -> SolveResult:
    """Randomized greedy + local search; valid witness, no optimality claim.

    Deterministic given (graph, delta, config, seed).
    """
    cfg = config or SolverConfig(mode="heuristic")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    t_start = time.perf_counter()
    n, m = tg.n, tg.m
    if m == 0:
        # no edges: a single vertex is trivially the optimum
        witness = delta_clique_check(tg, (0,), delta)
        return SolveResult(witness, True, "heuristic", time.perf_counter() - t_start)
    L = np.full((n, n), np.nan)
    L[tg.u, tg.v] = tg.labels
    L[tg.v, tg.u] = tg.labels
    slab = np.sort(tg.labels, kind="stable")
    counts = _window_counts(slab, delta)
    anchor_rows = _pick_anchor_rows(counts, _ANCHORS)
    deadline = t_start + cfg.time_budget if cfg.time_budget is not None else None
    best: list[int] = []
    rng_counter = 0
    stop = False
    with np.errstate(invalid="ignore"):
        for ai in anchor_rows.tolist():
            # the labels x >= t with x - t <= delta, for t = slab[ai], are
            # those up to the last label of the anchor's window
            W = (L >= slab[ai]) & (L <= slab[ai + counts[ai] - 1])
            deg = W.sum(1)
            for _ in range(_RESTARTS):
                rng = np.random.default_rng(derive_seed(seed, rng_counter))
                rng_counter += 1
                c = _greedy_in_window(W, deg, rng)
                c = _local_improve(W, deg, c, rng)
                if len(c) > len(best):
                    best = c
                if deadline is not None and time.perf_counter() > deadline:
                    stop = True
                    break
            if stop:
                break
    if not best:
        best = [0]
    witness = delta_clique_check(tg, sorted(best), delta)
    return SolveResult(witness, False, "heuristic", time.perf_counter() - t_start)


def solve_max_delta_clique(
    tg: TemporalGraph, delta: float, config: SolverConfig | None = None, seed: int = 0
) -> SolveResult:
    """Dispatch on config.mode; bruteforce results are wrapped with optimal=True."""
    cfg = config or SolverConfig()
    if cfg.mode == "bruteforce":
        t_start = time.perf_counter()
        witness = max_delta_clique_bruteforce(tg, delta)
        return SolveResult(witness, True, "bruteforce", time.perf_counter() - t_start)
    if cfg.mode == "exact":
        return max_delta_clique_exact(tg, delta, cfg)
    return max_delta_clique_heuristic(tg, delta, cfg, seed=seed)
