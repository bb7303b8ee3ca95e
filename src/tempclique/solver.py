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
  With its incumbent held at k - 1, the same sweep counts the k-cliques
  (`count_delta_cliques`).
  The sweep and the B&B run in the C kernel `_sweep.c`, which also serves
  the heuristic; it is built with gcc on the first exact or heuristic solve
  into `__pycache__/` next to this file and loaded with ctypes.  Without gcc,
  or without a writable cache directory, those solves raise
  InfeasibleConfigError.  The kernel takes the graph's own columns and does
  the set-up in O(m): radix orders put the edges in stable label order and
  number the vertices that carry an edge in id order, so nothing is sized by
  n.  It refuses, as InfeasibleConfigError, bitsets beyond 1 GiB: of those
  vertices for exact, of all n for the heuristic.  A static graph is a
  temporal graph with every label 0, so its clique number is the exact
  solve at delta = 0.
* heuristic: randomized greedy plus add, (1,2)-swap and plateau local search
  over a spread of anchored windows, in the same kernel on bitsets of all n
  vertices, drawing from numpy bit generators it is handed; valid but not
  necessarily optimal.

Both sweeps admit a label x into the window anchored at t when x - t <= delta,
the test `delta_clique_check` applies to a witness's interval.  All routes
re-validate their witness through `delta_clique_check` before returning, so a
returned clique is always sound.  Each route takes only what it reads: the
exact and heuristic routes an optional wall-time budget, the heuristic a
seed, and `solve_max_delta_clique` dispatches on a mode name.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graphs import (
    CliqueResult,
    TemporalGraph,
    delta_clique_check,
)
from .seeds import derive_seed

BRUTEFORCE_MAX_N = 20

# Heuristic search effort: anchored windows searched, greedy restarts per
# window, local-search rounds and plateau moves per restart, and the size of
# the pool each greedy step picks from.  Tuned on complete instances with
# n = 1000, delta = 0.5 (they reliably reach size >= 12 there); smaller
# instances are insensitive to them.  Each heuristic call reads them afresh
# and hands them to the kernel.
_ANCHORS = 24
_RESTARTS = 8
_IMPROVE_ROUNDS = 120
_PLATEAU_MOVES = 30
_GREEDY_POOL = 3

_VALID_MODES = ("bruteforce", "exact", "heuristic")


class InfeasibleConfigError(ValueError):
    """The requested configuration cannot be run within its guard rails."""


@dataclass(frozen=True)
class SolveResult:
    """A witnessed clique plus run metadata; `stats` holds the exact
    kernel's search counters (`STAT_NAMES`) and is empty for other modes."""

    clique: CliqueResult
    optimal: bool
    mode: str
    wall_time: float
    stats: dict = field(default_factory=dict)


# The counters the kernel fills, in the order of its ST_* indices.
STAT_NAMES = (
    "anchors",
    "skipped_by_edges",
    "skipped_by_candidates",
    "nodes",
    "colorings",
    "relabels",
    "budget_hit",
)
_KERNEL_SOURCE = Path(__file__).with_name("_sweep.c")
_COMPILER = ("gcc", "-O2", "-shared", "-fPIC")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_kernel = None
# a bit generator's `capsule` holds its bitgen_t; this reads the address
# without building the ctypes function wrappers of `.ctypes`
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)
_i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_u64 = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
_SIGNATURES = {
    "tc_sweep": [ctypes.c_int64, _i64, _i64, _f64, ctypes.c_double, ctypes.c_int64,
                 ctypes.c_double, _i64, _i64],
    "tc_heuristic": [ctypes.c_int64, ctypes.c_int64, _i64, _i64, _f64, _f64, ctypes.c_double,
                     ctypes.c_int64, _i64, ctypes.c_int64, _u64, ctypes.c_int64, ctypes.c_int64,
                     ctypes.c_int64, ctypes.c_double, _i64, _i64],
}


def _load_kernel() -> ctypes.CDLL:
    """The compiled `_sweep.c`, built on first use into a cache file named by
    the sha256 of the source and the compiler command."""
    global _kernel
    if _kernel is not None:
        return _kernel
    key = hashlib.sha256(_KERNEL_SOURCE.read_bytes() + " ".join(_COMPILER).encode())
    lib = _CACHE_DIR / f"_sweep-{key.hexdigest()[:16]}.so"
    try:
        if not lib.exists():
            _CACHE_DIR.mkdir(exist_ok=True)
            # build under a temporary name, so a concurrent first use never
            # loads a half-written library
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=_CACHE_DIR)
            os.close(fd)
            try:
                subprocess.run(
                    [*_COMPILER, "-o", tmp, str(_KERNEL_SOURCE)],
                    check=True,
                    capture_output=True,
                    text=True,
                )
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        kernel = ctypes.CDLL(str(lib))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = exc.stderr.strip() if isinstance(exc, subprocess.CalledProcessError) else exc
        raise InfeasibleConfigError(
            f"the exact and heuristic solvers' kernel {_KERNEL_SOURCE.name} needs gcc "
            f"to build into {_CACHE_DIR}: {detail}"
        ) from None
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(kernel, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int64
    _kernel = kernel
    return kernel


def _run_kernel(name: str, tg: TemporalGraph, *args) -> tuple[int, np.ndarray, dict]:
    """Call kernel function `name` with args on tg (m > 0); return its result
    (a witness size, or tc_sweep's count), its witness buffer and its counters."""
    # a clique of k >= 2 vertices has C(k, 2) <= m edges, so k <= 2m
    witness = np.empty(min(tg.n, 2 * tg.m), dtype=np.int64)
    counters = np.zeros(len(STAT_NAMES), dtype=np.int64)
    size = getattr(_load_kernel(), name)(*args, witness, counters)
    if size == -2:
        raise InfeasibleConfigError("the solver's bitsets for this graph exceed 1024 MiB")
    if size < 0:
        raise MemoryError(f"{name} ran out of memory")
    return size, witness, dict(zip(STAT_NAMES, counters.tolist()))


def _neighbor_masks(tg: TemporalGraph) -> list[int]:
    """Per-vertex neighbor bitmasks (arbitrary-width Python ints) of the
    underlying graph."""
    adj = [0] * tg.n
    for a, b in zip(tg.u.tolist(), tg.v.tolist()):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def greedy_static_clique(g: TemporalGraph) -> tuple[int, ...]:
    """Deterministic greedy clique of the underlying graph, labels ignored:
    repeatedly take the candidate of maximum degree within the remaining
    candidate set (smallest id on ties)."""
    adj = _neighbor_masks(g)
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
    adj = _neighbor_masks(tg)
    # keyed by the two-bit mask of the pair
    lab = {(1 << a) | (1 << b): t for a, b, t in tg.edge_list()}
    best_verts: tuple[int, ...] = (0,)
    best_size = 1
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
    return delta_clique_check(tg, best_verts, delta)


def _deadline(t_start: float, time_budget: float | None) -> float:
    """The perf_counter time by which a solve started at t_start must stop,
    or infinity when it runs unbudgeted, so the kernel never reads the clock.
    A negative or NaN budget is rejected, since no elapsed time compares
    against NaN."""
    if time_budget is None:
        return math.inf
    if not time_budget >= 0:
        raise ValueError("time_budget must be nonnegative")
    return t_start + time_budget


def _sweep(tg: TemporalGraph, delta: float, k: int, deadline: float) -> tuple:
    """tc_sweep's result on tg's columns (m > 0).  The kernel puts the edges in
    stable label order and numbers the vertices that carry one in id order, so
    nothing is sized by tg.n, and it writes the witness as vertex ids."""
    if tg.m >= 1 << 31:
        raise InfeasibleConfigError(
            f"the exact kernel indexes the 2m endpoints in 32 bits and refuses m = {tg.m}"
        )
    return _run_kernel("tc_sweep", tg, tg.m, tg.u, tg.v, tg.labels, delta, k, deadline)


def max_delta_clique_exact(
    tg: TemporalGraph, delta: float, time_budget: float | None = None
) -> SolveResult:
    """Exact solver via the anchored-window sweep of the compiled kernel.

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
    as an id-order sweep.  With a time_budget in seconds the sweep stops
    once it is spent and the result is flagged not optimal.  The result's
    `stats` holds the kernel's counters (`STAT_NAMES`).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    t_start = time.perf_counter()
    deadline = _deadline(t_start, time_budget)
    best: tuple[int, ...] = (0,)
    stats = dict.fromkeys(STAT_NAMES, 0)
    if tg.m > 0:
        size, witness, stats = _sweep(tg, delta, 0, deadline)
        best = tuple(witness[:size].tolist())
    witness = delta_clique_check(tg, best, delta)
    return SolveResult(
        witness, not stats["budget_hit"], "exact", time.perf_counter() - t_start, stats
    )


def count_delta_cliques(tg: TemporalGraph, k: int, delta: float) -> int:
    """The number of delta-cliques of exactly k vertices: n for k = 1, m for
    k = 2, and from k = 3 on, the exact route's sweep with its incumbent held
    at k - 1, counting each k-clique at its first edge in label order."""
    if k < 1 or not 0.0 <= delta <= 1.0:
        raise ValueError("require k >= 1 and delta in [0, 1]")
    if k <= 2:
        return (tg.n, tg.m)[k - 1]
    # a k-clique needs C(k, 2) edges, so the kernel never sees a huge k
    if k * (k - 1) // 2 > tg.m:
        return 0
    return _sweep(tg, delta, k, math.inf)[0]


def max_delta_clique_heuristic(
    tg: TemporalGraph, delta: float, time_budget: float | None = None, seed: int = 0
) -> SolveResult:
    """Randomized greedy + local search; valid witness, no optimality claim.

    The kernel cuts the label-sorted edges into `_ANCHORS` equal slices (one
    per edge when there are fewer) and searches, in each, the first of the
    windows anchored there with the most labels, `_RESTARTS` times; restart
    i draws from a numpy PCG64 bit generator seeded with derive_seed(seed, i),
    the stream of `np.random.default_rng(derive_seed(seed, i))`, so the
    result is deterministic given (graph, delta, seed) when no time_budget
    (in seconds) cuts the search short.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    t_start = time.perf_counter()
    deadline = _deadline(t_start, time_budget)
    best: list[int] = []
    if tg.m > 0:
        bounds = np.linspace(0, tg.m, min(tg.m, _ANCHORS) + 1).astype(np.int64)
        windows = bounds.size - 1
        # the kernel draws through each bit generator's bitgen_t, which the
        # list keeps alive for the call
        gens = [np.random.PCG64(derive_seed(seed, i)) for i in range(windows * _RESTARTS)]
        addresses = np.array(
            [_capsule_pointer(g.capsule, b"BitGenerator") for g in gens], dtype=np.uint64
        )
        size, witness, _ = _run_kernel(
            "tc_heuristic",
            tg,
            tg.n,
            tg.m,
            tg.u,
            tg.v,
            tg.labels,
            np.sort(tg.labels),
            delta,
            windows,
            bounds,
            _RESTARTS,
            addresses,
            _GREEDY_POOL,
            _IMPROVE_ROUNDS,
            _PLATEAU_MOVES,
            deadline,
        )
        best = witness[:size].tolist()
    # with no edges a single vertex is the optimum
    witness = delta_clique_check(tg, sorted(best or [0]), delta)
    return SolveResult(witness, tg.m == 0, "heuristic", time.perf_counter() - t_start)


def solve_max_delta_clique(
    tg: TemporalGraph,
    delta: float,
    mode: str = "exact",
    time_budget: float | None = None,
    seed: int = 0,
) -> SolveResult:
    """Dispatch on mode.  The exact and heuristic routes take the time
    budget, and the heuristic the seed; bruteforce takes no budget, and its
    results are wrapped with optimal=True."""
    if mode == "exact":
        return max_delta_clique_exact(tg, delta, time_budget)
    if mode == "heuristic":
        return max_delta_clique_heuristic(tg, delta, time_budget, seed=seed)
    if mode != "bruteforce":
        raise ValueError(f"mode must be one of {_VALID_MODES}")
    if time_budget is not None:
        raise ValueError("the bruteforce solver takes no time budget")
    t_start = time.perf_counter()
    witness = max_delta_clique_bruteforce(tg, delta)
    return SolveResult(witness, True, "bruteforce", time.perf_counter() - t_start)
