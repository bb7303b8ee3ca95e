"""Solvers: bruteforce reference, anchored-window exact search, heuristic.

The exact solver is checked against subset enumeration on small instances
(complete and sparse), and the clique number of static graphs (every label
0, solved at delta = 0) against networkx's Bron-Kerbosch enumeration — an
independent implementation family.  The exact sweep's k-clique count is
checked against vectorized subset enumeration.  The kernel's own vertex
numbering and stable label order are checked under an increasing map of the
ids up to 2^63, signed zeros and extreme labels.
"""

import re
from itertools import combinations
from math import comb

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempclique.graphs import (
    TemporalGraph,
    generate_er,
    generate_random_complete,
    is_delta_clique,
)
from tempclique import solver as solver_module
from tempclique.seeds import derive_seed
from tempclique.solver import (
    BRUTEFORCE_MAX_N,
    InfeasibleConfigError,
    count_delta_cliques,
    greedy_static_clique,
    max_delta_clique_bruteforce,
    max_delta_clique_exact,
    max_delta_clique_heuristic,
    solve_max_delta_clique,
)


def triangle(l01, l02, l12):
    return TemporalGraph.from_edges(3, [(0, 1, l01), (0, 2, l02), (1, 2, l12)])


def sparse_instance(n, p, seed):
    """Random ER underlying graph with uniform labels on its edges."""
    full = generate_random_complete(n, seed)
    keep = np.random.default_rng(derive_seed(seed, 1)).random(full.m) < p
    return TemporalGraph(n, full.u[keep], full.v[keep], full.labels[keep])


# ---------------------------------------------------------------- bruteforce


def test_bruteforce_edgeless_graph():
    tg = TemporalGraph.from_edges(3, [])
    res = max_delta_clique_bruteforce(tg, 0.5)
    assert res.size == 1 and res.vertices == (0,)


def test_bruteforce_triangle_cases():
    tg = triangle(0.1, 0.15, 0.9)
    res = max_delta_clique_bruteforce(tg, 0.1)
    assert res.size == 2 and res.vertices == (0, 1)
    res = max_delta_clique_bruteforce(tg, 0.85)
    assert res.size == 3
    assert (res.interval_min, res.interval_max) == (0.1, 0.9)


def test_bruteforce_tie_break_is_lexicographic_not_mask_order():
    """{0,3} and {1,2} tie at size 2; (0,3) is lexicographically smaller even
    though its bitmask value is larger."""
    tg = TemporalGraph.from_edges(4, [(0, 3, 0.1), (1, 2, 0.2)])
    res = max_delta_clique_bruteforce(tg, 0.0)
    assert res.vertices == (0, 3)


def test_bruteforce_zero_delta_picks_single_edge():
    tg = generate_random_complete(6, 13)
    res = max_delta_clique_bruteforce(tg, 0.0)
    assert res.size == 2
    assert res.width == 0.0


def test_bruteforce_full_delta_returns_everything():
    tg = generate_random_complete(7, 3)
    res = max_delta_clique_bruteforce(tg, 1.0)
    assert res.size == 7


def test_bruteforce_size_guard():
    tg = generate_random_complete(BRUTEFORCE_MAX_N + 1, 0)
    with pytest.raises(InfeasibleConfigError):
        max_delta_clique_bruteforce(tg, 0.5)


def test_bruteforce_rejects_bad_delta():
    with pytest.raises(ValueError):
        max_delta_clique_bruteforce(triangle(0.1, 0.2, 0.3), -0.5)


# ------------------------------------------------------------- static clique


def static_max_clique(g):
    """Sorted vertices of a maximum clique of the zero-label graph g."""
    return max_delta_clique_exact(g, 0.0).clique.vertices


def as_networkx(g):
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(zip(g.u.tolist(), g.v.tolist()))
    return gx


def is_nx_clique(gx, verts):
    return all(gx.has_edge(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :])


def test_static_max_clique_complete_and_cycle():
    k5 = TemporalGraph.from_edges(5, [(i, j, 0.0) for i in range(5) for j in range(i + 1, 5)])
    assert static_max_clique(k5) == (0, 1, 2, 3, 4)
    c5 = TemporalGraph.from_edges(5, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (3, 4, 0.0), (0, 4, 0.0)])
    assert len(static_max_clique(c5)) == 2
    for n in (1, 2, 30, 200):
        edgeless = generate_er(n, 0.0, n)
        assert edgeless.m == 0 and static_max_clique(edgeless) == (0,)


def test_static_max_clique_matches_bron_kerbosch():
    """100 seeded G(30, 0.5) instances against networkx's enumeration."""
    for i in range(100):
        g = generate_er(30, 0.5, derive_seed(31, i))
        gx = as_networkx(g)
        verts = static_max_clique(g)
        assert len(verts) == max(len(c) for c in nx.find_cliques(gx))
        # witness must actually be a clique
        assert is_nx_clique(gx, verts)


@pytest.mark.parametrize("n", [65, 100, 130])
def test_static_max_clique_matches_bron_kerbosch_beyond_one_word(n):
    """Graphs wider than one 64-bit word, dense and sparse."""
    for i in range(10):
        p = (0.25, 0.5)[i % 2]
        g = generate_er(n, p, derive_seed(6565, n * 10 + i))
        gx = as_networkx(g)
        verts = static_max_clique(g)
        assert len(verts) == max(len(c) for c in nx.find_cliques(gx))
        assert is_nx_clique(gx, verts)


def test_greedy_static_clique_is_valid():
    for i in range(20):
        g = generate_er(40, 0.4, derive_seed(77, i))
        gx = as_networkx(g)
        verts = greedy_static_clique(g)
        assert is_nx_clique(gx, verts)
        assert len(verts) <= len(static_max_clique(g))


# ------------------------------------------------------------------- exact


def test_exact_agrees_with_bruteforce_on_complete_instances():
    for i in range(60):
        n = 6 + (i % 7)
        tg = generate_random_complete(n, derive_seed(5, i))
        for d in (0.1, 0.3, 0.5, 0.9):
            bf = max_delta_clique_bruteforce(tg, d)
            ex = max_delta_clique_exact(tg, d)
            assert ex.clique.size == bf.size, (n, i, d)
            assert is_delta_clique(tg, ex.clique.vertices, d)
            assert ex.optimal


def test_exact_agrees_with_bruteforce_on_sparse_instances():
    for i in range(40):
        tg = sparse_instance(10, 0.5, derive_seed(6, i))
        for d in (0.2, 0.6):
            bf = max_delta_clique_bruteforce(tg, d)
            ex = max_delta_clique_exact(tg, d)
            assert ex.clique.size == bf.size
            assert is_delta_clique(tg, ex.clique.vertices, d)


def test_exact_handles_edgeless_and_full_delta():
    res = max_delta_clique_exact(TemporalGraph.from_edges(4, []), 0.5)
    assert res.clique.size == 1 and res.optimal
    tg = generate_random_complete(15, 2)
    res = max_delta_clique_exact(tg, 1.0)
    assert res.clique.size == 15


def test_exact_zero_delta():
    tg = generate_random_complete(12, 44)
    res = max_delta_clique_exact(tg, 0.0)
    assert res.clique.size == 2
    assert res.clique.width == 0.0


def test_exact_is_deterministic():
    tg = generate_random_complete(60, 9)
    a = max_delta_clique_exact(tg, 0.3)
    b = max_delta_clique_exact(tg, 0.3)
    assert a.clique == b.clique


def test_exact_duplicate_labels_are_handled():
    """Tied labels exercise the stable anchor ordering."""
    tg = TemporalGraph.from_edges(
        4,
        [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5), (0, 3, 0.5), (1, 3, 0.9), (2, 3, 0.1)],
    )
    res = max_delta_clique_exact(tg, 0.0)
    assert res.clique.size == 3
    assert res.clique.vertices == (0, 1, 2)


def test_exact_budget_truncation_is_flagged():
    tg = generate_random_complete(80, 1)
    res = max_delta_clique_exact(tg, 0.9, time_budget=0.0)
    assert not res.optimal
    assert is_delta_clique(tg, res.clique.vertices, 0.9)


def test_exact_omega_monotone_in_delta():
    tg = generate_random_complete(40, 21)
    sizes = [max_delta_clique_exact(tg, d).clique.size for d in (0.0, 0.1, 0.3, 0.6, 1.0)]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == 40


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.05, 0.15, 0.4, 0.75]),
)
@settings(deadline=None, max_examples=60)
def test_exact_equals_bruteforce_property(n, seed, delta):
    tg = generate_random_complete(n, seed)
    assert max_delta_clique_exact(tg, delta).clique.size == max_delta_clique_bruteforce(tg, delta).size


# -------------------------------------------------------------------- kernel


def test_exact_stats_count_the_search():
    tg = generate_random_complete(60, 9)
    res = max_delta_clique_exact(tg, 0.3)
    stats = res.stats
    assert tuple(stats) == solver_module.STAT_NAMES
    assert stats["anchors"] == tg.m and stats["budget_hit"] == 0
    assert stats["skipped_by_edges"] > 0 and stats["skipped_by_candidates"] > 0
    assert stats["skipped_by_edges"] + stats["skipped_by_candidates"] < stats["anchors"]
    assert stats["nodes"] >= stats["colorings"] > 0
    assert max_delta_clique_exact(tg, 0.3).stats == stats


def test_exact_stats_flag_a_hit_budget():
    """A budget spent before the first anchor still returns a 2-clique: the
    first edge in label order, which seeds the incumbent."""
    tg = generate_random_complete(30, 1)
    res = max_delta_clique_exact(tg, 0.5, time_budget=0.0)
    assert not res.optimal
    assert res.stats["budget_hit"] == 1 and res.stats["anchors"] == 0
    e = int(np.argmin(tg.labels))
    assert res.clique.vertices == tuple(sorted((int(tg.u[e]), int(tg.v[e]))))


def test_exact_budget_stops_inside_an_anchor_search():
    """With every label equal, the first anchor's window is all of a dense
    G(150, 0.9), whose search alone outlasts the budget: the B&B's clock
    check every 1024 nodes has to stop it."""
    g = generate_er(150, 0.9, 1)
    tg = TemporalGraph(g.n, g.u, g.v, np.full(g.m, 0.5))
    res = max_delta_clique_exact(tg, 0.0, time_budget=0.2)
    assert not res.optimal and res.stats["budget_hit"] == 1
    assert res.stats["anchors"] == 1 and res.stats["colorings"] < res.stats["nodes"]
    assert res.wall_time < 1.5
    assert is_delta_clique(tg, res.clique.vertices, 0.0)


def test_stats_are_empty_outside_exact_mode():
    tg = generate_random_complete(9, 4)
    for mode in ("bruteforce", "heuristic"):
        assert solve_max_delta_clique(tg, 0.4, mode).stats == {}


@pytest.fixture
def unbuilt_kernel(monkeypatch, tmp_path):
    """Forget the loaded kernel and point its cache at an empty directory."""
    monkeypatch.setattr(solver_module, "_kernel", None)
    monkeypatch.setattr(solver_module, "_CACHE_DIR", tmp_path / "cache")
    return tmp_path / "cache"


def test_kernel_builds_into_a_keyed_cache_file(unbuilt_kernel):
    res = max_delta_clique_exact(generate_random_complete(12, 3), 0.5)
    assert res.optimal
    names = [p.name for p in unbuilt_kernel.iterdir()]
    assert len(names) == 1 and re.fullmatch(r"_sweep-[0-9a-f]{16}\.so", names[0])


def test_missing_compiler_is_infeasible(unbuilt_kernel, monkeypatch):
    monkeypatch.setattr(solver_module, "_COMPILER", ("tempclique-no-such-cc", "-O2", "-shared", "-fPIC"))
    tg = generate_random_complete(8, 2)
    with pytest.raises(InfeasibleConfigError, match="needs gcc"):
        max_delta_clique_exact(tg, 0.5)
    with pytest.raises(InfeasibleConfigError, match="needs gcc"):
        max_delta_clique_heuristic(tg, 0.5, seed=0)
    # bruteforce never builds or loads the kernel
    max_delta_clique_bruteforce(tg, 0.5)
    assert solver_module._kernel is None
    assert not unbuilt_kernel.exists() or not any(unbuilt_kernel.iterdir())


def test_unwritable_kernel_cache_is_infeasible(unbuilt_kernel, monkeypatch):
    blocker = unbuilt_kernel.parent / "a-file"
    blocker.write_text("")
    monkeypatch.setattr(solver_module, "_CACHE_DIR", blocker / "cache")
    with pytest.raises(InfeasibleConfigError, match="needs gcc"):
        max_delta_clique_exact(generate_random_complete(8, 2), 0.5)


def test_exact_refuses_bitsets_beyond_the_memory_guard():
    """100,000 vertices that carry an edge need 1.25 GB of window bitsets."""
    u = np.arange(0, 100_000, 2)
    tg = TemporalGraph(100_000, u, u + 1, np.full(u.size, 0.5))
    with pytest.raises(InfeasibleConfigError, match="MiB"):
        max_delta_clique_exact(tg, 0.5)


def test_heuristic_refuses_bitsets_beyond_the_memory_guard():
    """The heuristic's windows span all n vertices, so the same graph is
    refused before any window is built, and so is one edge among 2^63 - 1
    vertices, where n + 63 would overflow."""
    u = np.arange(0, 100_000, 2)
    tg = TemporalGraph(100_000, u, u + 1, np.full(u.size, 0.5))
    with pytest.raises(InfeasibleConfigError, match="MiB"):
        max_delta_clique_heuristic(tg, 0.5)
    with pytest.raises(InfeasibleConfigError, match="MiB"):
        max_delta_clique_heuristic(TemporalGraph.from_edges(2**63 - 1, [(0, 1, 0.5)]), 0.5)


# ----------------------------------------------------------------- heuristic


def test_heuristic_returns_valid_cliques():
    for i in range(15):
        tg = generate_random_complete(30, derive_seed(50, i))
        res = max_delta_clique_heuristic(tg, 0.4, seed=i)
        assert is_delta_clique(tg, res.clique.vertices, 0.4)
        assert not res.optimal


def test_heuristic_is_deterministic_per_seed():
    tg = generate_random_complete(100, 77)
    a = max_delta_clique_heuristic(tg, 0.3, seed=5)
    b = max_delta_clique_heuristic(tg, 0.3, seed=5)
    assert a.clique == b.clique


def test_heuristic_tracks_bruteforce_within_one(monkeypatch):
    """On n <= 12 the heuristic should land within 1 of optimal >= 95% of runs,
    even with 2 restarts per window in place of the default 8."""
    monkeypatch.setattr(solver_module, "_RESTARTS", 2)
    total, close = 0, 0
    for i in range(100):
        n = 8 + (i % 5)
        tg = generate_random_complete(n, derive_seed(60, i))
        d = (0.2, 0.5, 0.8)[i % 3]
        bf = max_delta_clique_bruteforce(tg, d)
        hr = max_delta_clique_heuristic(tg, d, seed=i)
        assert hr.clique.size <= bf.size
        total += 1
        close += hr.clique.size >= bf.size - 1
    assert close >= 95, f"only {close}/{total} within 1 of optimal"


def test_heuristic_large_instance_calibration():
    """n = 1000, delta = 0.5: size >= 12 in at least 18 of 20 seeded trials."""
    hits = 0
    for t in range(20):
        s = derive_seed(20260814, t)
        tg = generate_random_complete(1000, s)
        res = max_delta_clique_heuristic(tg, 0.5, seed=derive_seed(s, 1))
        assert is_delta_clique(tg, res.clique.vertices, 0.5)
        hits += res.clique.size >= 12
    assert hits >= 18, f"only {hits}/20 reached size 12"


def test_heuristic_sparse_graph():
    tg = sparse_instance(40, 0.3, 123)
    res = max_delta_clique_heuristic(tg, 0.5, seed=1)
    assert is_delta_clique(tg, res.clique.vertices, 0.5)


def test_heuristic_respects_time_budget():
    tg = generate_random_complete(300, 8)
    res = max_delta_clique_heuristic(tg, 0.5, time_budget=0.05, seed=0)
    assert res.wall_time < 2.0
    assert is_delta_clique(tg, res.clique.vertices, 0.5)


# ------------------------------------------------------ heuristic oracle


def _greedy_in_window(W, deg, rng):
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
        p = min(solver_module._GREEDY_POOL, idxs.size)
        cutoff = np.partition(score, idxs.size - p)[idxs.size - p]
        pool = idxs[score >= cutoff]
        v = int(pool[rng.integers(pool.size)])
        clique.append(v)
        cand &= W[v]


def _local_improve(W, deg, clique, rng):
    n = deg.size
    in_c = np.zeros(n, dtype=bool)
    in_c[clique] = True
    cnt = W[clique].sum(0)
    plateau_left = solver_module._PLATEAU_MOVES
    for _ in range(solver_module._IMPROVE_ROUNDS):
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


def _window_counts(slab: np.ndarray, delta: float) -> np.ndarray:
    """For sorted labels slab, counts[a] is the number of indices j >= a with
    slab[j] - slab[a] <= delta, the predicate of `delta_clique_check`.

    Anchors go in blocks, so the temporaries stay small."""
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


def numpy_heuristic(tg, delta, seed):
    """The heuristic on dense numpy window matrices, as it ran before the
    kernel: the reference whose witness `max_delta_clique_heuristic` must
    reproduce, anchor choice included.  It reads the effort constants at
    call time."""
    if tg.m == 0:
        return (0,)
    L = np.full((tg.n, tg.n), np.nan)
    L[tg.u, tg.v] = tg.labels
    L[tg.v, tg.u] = tg.labels
    slab = np.sort(tg.labels)
    counts = _window_counts(slab, delta)
    best, rng_counter = [], 0
    with np.errstate(invalid="ignore"):
        for ai in _pick_anchor_rows(counts, solver_module._ANCHORS).tolist():
            W = (L >= slab[ai]) & (L <= slab[ai + counts[ai] - 1])
            deg = W.sum(1)
            for _ in range(solver_module._RESTARTS):
                rng = np.random.default_rng(derive_seed(seed, rng_counter))
                rng_counter += 1
                c = _local_improve(W, deg, _greedy_in_window(W, deg, rng), rng)
                if len(c) > len(best):
                    best = c
    return tuple(sorted(best or [0]))


def oracle_instances(n, count, salt):
    """Complete and sparse instances on n vertices (the sparse ones with
    isolated vertices among and above the others), every other one with
    tied labels: all equal, or rounded to 2 decimals."""
    for i in range(count):
        s = derive_seed(salt, n * 1000 + i)
        tg = generate_random_complete(n, s)
        if i % 2:
            tg = with_isolated_vertices(sparse_instance(n, 0.5, s), 1 + n // 4, s)
        if i % 4 == 2:
            tg = TemporalGraph(tg.n, tg.u, tg.v, np.full(tg.m, 0.25))
        elif i % 4 == 3:
            tg = TemporalGraph(tg.n, tg.u, tg.v, np.round(tg.labels, 2))
        yield i, tg, (0.1, 0.3, 0.5, 0.7, 0.9)[i % 5]


@pytest.mark.parametrize("n", [2, 7, 20, 63, 64, 65, 128, 129])
def test_heuristic_witness_matches_numpy_oracle(monkeypatch, n):
    """30 instances per n, 240 in all, n on either side of the kernel's
    64-bit word boundaries, delta from 0.1 to 0.9.  Four windows of two
    restarts keep the numpy side fast and make every restart count."""
    monkeypatch.setattr(solver_module, "_ANCHORS", 4)
    monkeypatch.setattr(solver_module, "_RESTARTS", 2)
    for i, tg, d in oracle_instances(n, 30, 8080):
        res = max_delta_clique_heuristic(tg, d, seed=i)
        assert res.clique.vertices == numpy_heuristic(tg, d, i), (n, i, d, tg.m)


def test_heuristic_witness_matches_numpy_oracle_around_the_score_switch(monkeypatch):
    """Dense windows, where greedy steps pass through 96 candidates: at most
    96 are scored by their neighbours among the candidates, more by their
    window degree."""
    monkeypatch.setattr(solver_module, "_ANCHORS", 4)
    monkeypatch.setattr(solver_module, "_RESTARTS", 2)
    for n in (110, 120, 150):
        for i in range(10):
            tg = generate_random_complete(n, derive_seed(9696, n * 100 + i))
            res = max_delta_clique_heuristic(tg, 0.9, seed=i)
            assert res.clique.vertices == numpy_heuristic(tg, 0.9, i), (n, i)


def cell_edge_instances(n, count, salt):
    """Complete and sparse instances whose labels sit on the edges of the
    kernel's label-lookup cells, the multiples of 1/4096: half of them
    exactly, 0 and 1 always among those, the rest one ulp below or above.
    The edges come from all 4097, from the multiples of 1/8, which the
    bounds of windows at delta = k/8 then meet exactly, or from those and
    the edges either side of them."""
    eighths = np.arange(0, 4097, 512)
    grids = (np.arange(4097), eighths, np.clip(eighths[:, None] + [-1, 0, 1], 0, 4096).ravel())
    for i in range(count):
        s = derive_seed(salt, n * 1000 + i)
        tg = generate_random_complete(n, s)
        if i % 2:
            tg = with_isolated_vertices(sparse_instance(n, 0.5, s), 1 + n // 4, s)
        rng = np.random.default_rng(s)
        labels = rng.choice(grids[i % 3], tg.m) / 4096
        off = rng.random(tg.m) < 0.5
        labels[off] = np.nextafter(labels[off], rng.choice((0.0, 1.0), int(off.sum())))
        labels[rng.choice(tg.m, 2, replace=False)] = (0.0, 1.0)
        yield i, TemporalGraph(tg.n, tg.u, tg.v, labels), (0, 1, 2, 4, 7, 8)[i // 2 % 6] / 8


@pytest.mark.parametrize("anchors", [4, solver_module._ANCHORS])
@pytest.mark.parametrize("n", [20, 65])
def test_heuristic_witness_matches_numpy_oracle_on_cell_edges(monkeypatch, n, anchors):
    """Labels on and beside the lookup's cell edges and window bounds, delta
    from 0 to 1 in eighths."""
    monkeypatch.setattr(solver_module, "_ANCHORS", anchors)
    for i, tg, d in cell_edge_instances(n, 12, 4096):
        res = max_delta_clique_heuristic(tg, d, seed=i)
        assert res.clique.vertices == numpy_heuristic(tg, d, i), (n, i, d, tg.m)


@pytest.mark.parametrize("n", [20, 65, 129])
def test_heuristic_witness_matches_numpy_oracle_at_default_effort(n):
    for i, tg, d in oracle_instances(n, 4, 8181):
        res = max_delta_clique_heuristic(tg, d, seed=i)
        assert res.clique.vertices == numpy_heuristic(tg, d, i), (n, i, d, tg.m)


# ---------------------------------------------------------------- dispatcher


def test_solve_dispatches_all_modes():
    tg = generate_random_complete(9, 4)
    bf = solve_max_delta_clique(tg, 0.4, "bruteforce")
    ex = solve_max_delta_clique(tg, 0.4, "exact")
    hr = solve_max_delta_clique(tg, 0.4, "heuristic", seed=2)
    assert bf.mode == "bruteforce" and bf.optimal
    assert ex.mode == "exact" and ex.optimal
    assert hr.mode == "heuristic"
    assert bf.clique.size == ex.clique.size >= hr.clique.size
    for res in (bf, ex, hr):
        assert res.wall_time >= 0.0


def test_solve_rejects_bad_modes_and_budgets():
    """NaN compares false against everything, so it would read as no budget;
    bruteforce never reads the clock, so any budget given to it is refused."""
    tg = generate_random_complete(9, 4)
    with pytest.raises(ValueError, match="mode must be one of"):
        solve_max_delta_clique(tg, 0.4, "magic")
    for mode in ("exact", "heuristic"):
        for budget in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="^time_budget must be nonnegative$"):
                solve_max_delta_clique(tg, 0.4, mode, budget)
    for budget in (0.0, 1.0, float("inf")):
        with pytest.raises(ValueError, match="^the bruteforce solver takes no time budget$"):
            solve_max_delta_clique(tg, 0.4, "bruteforce", budget)


# --------------------------------------------------- relabeled search witness


class _SearchState:
    __slots__ = ("best_size", "best")

    def __init__(self, best_size: int):
        self.best_size = best_size
        self.best: tuple[int, ...] | None = None


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


def id_order_sweep(tg, delta):
    """The anchored-window sweep in pure Python with bit positions equal to
    vertex ids: the reference whose witness `max_delta_clique_exact` must
    reproduce."""
    order = np.argsort(tg.labels, kind="stable")
    su, sv = tg.u[order].tolist(), tg.v[order].tolist()
    slab = tg.labels[order].tolist()
    m = len(slab)
    adj = [0] * tg.n
    hi = 0
    state = _SearchState(1)
    state.best = (0,)
    for a in range(m):
        while hi < m and slab[hi] - slab[a] <= delta:
            adj[su[hi]] |= 1 << sv[hi]
            adj[sv[hi]] |= 1 << su[hi]
            hi += 1
        if a > 0:
            adj[su[a - 1]] &= ~(1 << sv[a - 1])
            adj[sv[a - 1]] &= ~(1 << su[a - 1])
        if state.best_size < 2:
            state.best_size, state.best = 2, (su[a], sv[a])
        if hi - a < comb(state.best_size + 1, 2):
            continue
        cands = adj[su[a]] & adj[sv[a]]
        if cands.bit_count() + 2 > state.best_size:
            _expand(adj, cands, [su[a], sv[a]], state)
    return tuple(sorted(state.best))


def test_exact_witness_matches_id_order_sweep():
    relabeled = 0
    for n in (20, 40, 80):
        for d in (0.5, 0.7, 0.9):
            tg = generate_random_complete(n, derive_seed(2404, n))
            res = max_delta_clique_exact(tg, d)
            assert res.optimal
            assert res.clique.vertices == id_order_sweep(tg, d), (n, d)
            relabeled += res.stats["relabels"] > 0
    assert relabeled >= 6


def with_isolated_vertices(tg, extra, seed):
    """tg's edges on n + extra vertices under a random vertex map, so that
    some edge-carrying vertices get the highest ids and isolated ones fall
    between them."""
    perm = np.random.default_rng(seed).permutation(tg.n + extra).tolist()
    return TemporalGraph.from_edges(
        tg.n + extra, [(perm[a], perm[b], t) for a, b, t in tg.edge_list()]
    )


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_exact_witness_matches_id_order_sweep_across_word_boundaries(n):
    """Vertex counts on either side of the kernel's 64-bit word boundaries,
    complete and sparse, the sparse ones with isolated vertices among and
    above the ones that carry an edge."""
    for i, d in enumerate((0.3, 0.6)):
        s = derive_seed(6463, n * 2 + i)
        for tg in (
            generate_random_complete(n, s),
            with_isolated_vertices(sparse_instance(n, 0.6, s), 40, s),
        ):
            res = max_delta_clique_exact(tg, d)
            assert res.optimal
            assert res.clique.vertices == id_order_sweep(tg, d), (n, d, tg.m)


# ------------------------------------------------------------ k-clique counts


def subset_clique_count(tg, k, delta):
    """The number of delta-cliques of exactly k vertices, by vectorized
    enumeration of all C(n, k) vertex subsets: the oracle for
    `count_delta_cliques`."""
    subsets = np.array(list(combinations(range(tg.n), k)), dtype=np.int64).reshape(-1, k)
    if k == 1:
        return len(subsets)
    lab = np.full((tg.n, tg.n), np.nan)
    lab[tg.u, tg.v] = lab[tg.v, tg.u] = tg.labels
    ii, jj = zip(*combinations(range(k), 2))
    sub = lab[subsets[:, list(ii)], subsets[:, list(jj)]]
    # a missing edge reads nan, which makes the subset's width fail the test
    return int((sub.max(axis=1) - sub.min(axis=1) <= delta).sum())


def count_instances(n, s):
    """A complete graph, its labels rounded to one digit (ties), G(n, 0.6)
    with every label 0, and a sparse graph with isolated vertices among and
    above the ones that carry an edge."""
    g = generate_random_complete(n, s)
    return {
        "complete": g,
        "rounded": TemporalGraph(n, g.u, g.v, np.round(g.labels, 1)),
        "equal": generate_er(n, 0.6, s),
        "sparse": with_isolated_vertices(sparse_instance(n, 0.6, s), 3, s),
    }


@pytest.mark.parametrize(
    "n, ks", [(n, range(1, 7)) for n in (2, 5, 8, 10, 12)] + [(n, [3]) for n in (63, 64, 65)]
)
def test_count_delta_cliques_matches_subset_enumeration(n, ks):
    """Every k-clique is counted once, at its first edge in label order, on
    either side of the kernel's word boundary too."""
    counted = 0
    for kind, tg in count_instances(n, derive_seed(2424, n)).items():
        for k in ks:
            for d in (0.0, 0.1, 0.5, 1.0):
                want = subset_clique_count(tg, k, d)
                assert count_delta_cliques(tg, k, d) == want, (kind, k, d)
                counted += want > 0
    assert counted >= 10


def test_count_delta_cliques_small_k_and_edge_cases():
    tg = with_isolated_vertices(sparse_instance(9, 0.5, 77), 4, 77)
    assert count_delta_cliques(tg, 1, 0.3) == 13
    assert count_delta_cliques(tg, 2, 0.0) == tg.m
    assert count_delta_cliques(generate_random_complete(6, 1), 7, 1.0) == 0
    assert count_delta_cliques(TemporalGraph.from_edges(4, []), 3, 1.0) == 0
    for k, d in ((0, 0.5), (3, 1.5), (3, -0.1)):
        with pytest.raises(ValueError, match=r"^require k >= 1 and delta in \[0, 1\]$"):
            count_delta_cliques(tg, k, d)


# (case, witness, counters in STAT_NAMES order) of the exact kernel; the
# corpus is built by `pinned_exact_case`.  A change that means to alter the
# search re-records them and says which moved
PINNED_EXACT_SEARCH = [
    ("complete-120-0.7", (5, 6, 14, 19, 26, 28, 30, 39, 40, 44, 50, 68, 80, 101, 109, 111, 119),
     (7140, 152, 2443, 73881, 73881, 16, 0)),
    ("complete-200-0.5", (25, 64, 67, 78, 87, 96, 121, 123, 149, 151, 176, 181),
     (19900, 77, 4557, 97057, 97057, 11, 0)),
    ("complete-60-0.3", (1, 4, 33, 44, 51, 59), (1770, 20, 903, 870, 870, 2, 0)),
    ("complete-300-0.3", (35, 57, 86, 95, 110, 143, 152, 192, 291),
     (44850, 44, 7181, 49968, 49968, 5, 0)),
    ("er-80-0", (3, 10, 13, 37, 64, 66, 71, 72, 75), (1567, 44, 977, 617, 617, 2, 0)),
    ("equal-labels", (0, 1, 8, 11, 15, 24, 41, 48, 52, 63), (1436, 54, 796, 738, 738, 2, 0)),
    ("rounded-labels", (14, 19, 20, 28, 33, 34, 44, 75, 89), (4005, 44, 1185, 2844, 2844, 3, 0)),
    ("isolated-65", (8, 17, 25, 35, 37, 55, 69), (1276, 27, 662, 607, 607, 1, 0)),
    ("isolated-129", (7, 58, 69, 80, 82, 95, 150, 162), (5012, 35, 1862, 3461, 3461, 2, 0)),
    ("budget-0", (12, 20), (0, 0, 0, 0, 0, 0, 1)),
]


def pinned_exact_case(name):
    """(graph, delta, time_budget) of a PINNED_EXACT_SEARCH case."""
    kind, _, rest = name.partition("-")
    if kind == "complete":
        n, d = rest.split("-")
        return generate_random_complete(int(n), 2300 + int(n)), float(d), None
    if kind == "er":
        return generate_er(80, 0.5, 2380), 0.0, None
    if kind == "equal":
        g = generate_er(70, 0.6, 2370)
        return TemporalGraph(g.n, g.u, g.v, np.full(g.m, 0.25)), 0.0, None
    if kind == "rounded":
        g = generate_random_complete(90, 2390)
        return TemporalGraph(g.n, g.u, g.v, np.round(g.labels, 2)), 0.4, None
    if kind == "isolated":
        s = derive_seed(2323, int(rest))
        return with_isolated_vertices(sparse_instance(int(rest), 0.6, s), 40, s), 0.6, None
    return generate_random_complete(30, 2330), 0.5, 0.0


@pytest.mark.parametrize("name, witness, counters", PINNED_EXACT_SEARCH)
def test_exact_search_is_pinned(name, witness, counters):
    """The exact kernel's witness and every search counter, on complete
    graphs at the solve-dense and threshold settings, G(80, 1/2) at
    delta = 0, tied and rounded labels, isolated vertices across word
    boundaries and a spent budget: a change to the search order, a bound or
    the renumbering schedule moves some counter here."""
    tg, d, budget = pinned_exact_case(name)
    res = max_delta_clique_exact(tg, d, budget)
    assert res.clique.vertices == witness
    assert tuple(res.stats.values()) == counters


def test_window_predicate_boundary_triangle():
    """lo + delta rounds up, so the triangle's width exceeds delta as the
    checker computes it: every solver must return an edge, none may raise."""
    lo, d = 0.42221092576252406, 0.303181761176121
    tg = triangle(lo, lo + d, lo)
    assert not is_delta_clique(tg, (0, 1, 2), d)
    assert max_delta_clique_bruteforce(tg, d).size == 2
    assert max_delta_clique_exact(tg, d).clique.size == 2
    assert max_delta_clique_heuristic(tg, d, seed=0).clique.size == 2


@given(st.data())
@settings(deadline=None, max_examples=80)
def test_boundary_labels_property(data):
    """Labels at lo, at lo + delta and one ulp either side of lo + delta:
    exact and heuristic never raise, and exact equals bruteforce."""
    n = data.draw(st.integers(min_value=2, max_value=7))
    d = data.draw(st.floats(min_value=0.0, max_value=1.0))
    lo = data.draw(st.floats(min_value=0.0, max_value=1.0))
    hi = lo + d
    choices = [
        x
        for x in (lo, hi, float(np.nextafter(hi, -np.inf)), float(np.nextafter(hi, np.inf)))
        if 0.0 <= x <= 1.0
    ]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    labels = data.draw(
        st.lists(st.sampled_from(choices), min_size=len(pairs), max_size=len(pairs))
    )
    tg = TemporalGraph.from_edges(
        n, [(a, b, t) for (a, b), k, t in zip(pairs, keep, labels) if k]
    )
    exact = max_delta_clique_exact(tg, d)
    max_delta_clique_heuristic(tg, d, seed=0)
    assert exact.clique.size == max_delta_clique_bruteforce(tg, d).size


# ------------------------------------------------ kernel renumbering and order


def straddling_ids(count, seed):
    """count increasing ids in [0, 2^63 - 1) that straddle 2^11, 2^22, 2^33,
    2^44 and 2^55, the kernel's radix digits, and fill up at random."""
    ids = {0, 2**63 - 2} | {2**b + d for b in (11, 22, 33, 44, 55) for d in (-1, 0, 1)}
    rng = np.random.default_rng(seed)
    while len(ids) < count:
        ids.add(int(rng.integers(0, 2**63 - 1)))
    return np.array(sorted(ids), dtype=np.int64)


@pytest.mark.parametrize("kind", ["complete", "sparse"])
def test_exact_and_counts_follow_an_increasing_id_map(kind):
    """The kernel numbers the vertices that carry an edge in id order, so an
    increasing map of the ids maps the witness and leaves every counter and
    count as it was."""
    s = derive_seed(2525, len(kind))
    tg = generate_random_complete(40, s) if kind == "complete" else sparse_instance(40, 0.6, s)
    ids = straddling_ids(tg.n, s)
    mapped = TemporalGraph(2**63 - 1, ids[tg.u], ids[tg.v], tg.labels)
    for d in (0.3, 0.6):
        res, got = max_delta_clique_exact(tg, d), max_delta_clique_exact(mapped, d)
        assert got.clique.vertices == tuple(ids[list(res.clique.vertices)].tolist()), d
        assert got.stats == res.stats, d
        for k in (3, 4):
            assert count_delta_cliques(mapped, k, d) == count_delta_cliques(tg, k, d), (d, k)


def test_exact_and_counts_tie_negative_zero_with_zero():
    """-0.0 ties with 0.0 in the label order, as under numpy's stable
    argsort: flipping the sign of some zero labels changes nothing."""
    for i, tg in enumerate((generate_er(80, 0.5, 2380), generate_er(70, 0.6, 2370))):
        flip = np.random.default_rng(i).random(tg.m) < 0.5
        mixed = TemporalGraph(tg.n, tg.u, tg.v, np.where(flip, -0.0, 0.0))
        assert np.signbit(mixed.labels).any()
        for d in (0.0, 0.5):
            res, got = max_delta_clique_exact(tg, d), max_delta_clique_exact(mixed, d)
            assert got.clique.vertices == res.clique.vertices, (i, d)
            assert got.stats == res.stats, (i, d)
            for k in (3, 4):
                assert count_delta_cliques(mixed, k, d) == count_delta_cliques(tg, k, d)


ULP_BELOW_1 = float(np.nextafter(1.0, 0.0))


@pytest.mark.parametrize(
    "palette",
    [
        (0.0, 5e-324, 1e-323),
        (0.25, 0.5, 0.75),
        (ULP_BELOW_1, 1.0),
        (0.0, 5e-324, 0.5, float(np.nextafter(0.5, 1.0)), ULP_BELOW_1, 1.0),
    ],
)
def test_exact_and_counts_on_extreme_labels(palette):
    """Labels drawn from a few values, so most tie: the least subnormal,
    exactly 1.0 and values one ulp apart.  Their bits differ in one, five or
    all six radix digits.  The witness is that of the id-order sweep in
    numpy's stable label order, and the counts are those of subset
    enumeration."""
    for n in (12, 40):
        s = derive_seed(2526, n * 8 + len(palette))
        g = generate_random_complete(n, s)
        tg = TemporalGraph(n, g.u, g.v, np.random.default_rng(s).choice(palette, g.m))
        for d in (0.0, 5e-324, 2.0**-53, 0.25, 1.0):
            assert max_delta_clique_exact(tg, d).clique.vertices == id_order_sweep(tg, d), (n, d)
            if n == 12:
                for k in (3, 4):
                    assert count_delta_cliques(tg, k, d) == subset_clique_count(tg, k, d)
