"""Graph types, generators, and the delta-clique predicate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tempclique.experiments import build_planted_instance
from tempclique.graphs import (
    CliqueResult,
    IntervalTooWide,
    MissingEdge,
    TemporalGraph,
    delta_clique_check,
    generate_er,
    generate_random_complete,
    is_delta_clique,
)
from tempclique.io import loads_temporal_graph
from tempclique.seeds import derive_seed
from tempclique.solver import max_delta_clique_exact


def triangle(l01, l02, l12):
    return TemporalGraph.from_edges(3, [(0, 1, l01), (0, 2, l02), (1, 2, l12)])


# ---------------------------------------------------------------- generators


def test_complete_generator_shape():
    tg = generate_random_complete(5, 7)
    assert tg.n == 5 and tg.m == 10
    assert tg.m == 5 * 4 // 2
    assert tg.labels.min() >= 0.0 and tg.labels.max() < 1.0


def test_single_vertex_has_no_edges():
    tg = generate_random_complete(1, 7)
    assert tg.m == 0


def test_generator_is_deterministic_in_seed():
    a = generate_random_complete(20, 123)
    b = generate_random_complete(20, 123)
    c = generate_random_complete(20, 124)
    assert a == b
    assert not np.array_equal(a.labels, c.labels)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1000])
def test_complete_generator_is_triu_order_and_one_label_stream(n):
    tg = generate_random_complete(n, 11)
    iu, iv = np.triu_indices(n, k=1)
    labels = np.random.default_rng(11).random(iu.size)
    for got, want in ((tg.u, iu), (tg.v, iv), (tg.labels, labels)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_complete_generator_columns_follow_n():
    """The pair columns are cached for one n; going back to an earlier n
    rebuilds them."""
    for n in (5, 7, 5):
        tg = generate_random_complete(n, 3)
        iu, iv = np.triu_indices(n, k=1)
        assert np.array_equal(tg.u, iu) and np.array_equal(tg.v, iv)
        g = generate_er(n, 1.0, 3)
        assert np.array_equal(g.u, iu) and np.array_equal(g.v, iv)


def test_label_mean_concentrates():
    tg = generate_random_complete(100, 99)
    assert abs(tg.labels.mean() - 0.5) < 0.05


def test_labels_look_uniform_ks():
    """KS test of the 4950 labels of K_100 against uniform at the 1% level."""
    tg = generate_random_complete(100, 2024)
    stat = stats.kstest(tg.labels, "uniform").statistic
    assert stat < 1.6276 / np.sqrt(tg.m)


def test_er_extremes():
    assert generate_er(30, 0.0, 5).m == 0
    g = generate_er(4, 1.0, 5)
    assert g.m == 6 and (g.labels == 0.0).all()


def test_er_edge_count_mean():
    counts = [generate_er(200, 0.5, derive_seed(3, i)).m for i in range(1000)]
    assert abs(np.mean(counts) - 9950.0) < 150.0


def test_er_rejects_bad_p():
    with pytest.raises(ValueError):
        generate_er(5, 1.5, 0)


# ------------------------------------------------------------------- types


def test_canonical_order_is_enforced():
    with pytest.raises(ValueError):
        TemporalGraph(3, np.array([1, 0]), np.array([2, 1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        TemporalGraph(3, np.array([1]), np.array([0]), np.array([0.5]))


def test_duplicate_edges_rejected():
    with pytest.raises(ValueError):
        TemporalGraph.from_edges(3, [(0, 1, 0.5), (1, 0, 0.25)])


@pytest.mark.parametrize("first_last", [True, False])
def test_canonical_order_holds_beyond_int64_keys(first_last):
    """At n = 2**32 the key u * n + v wraps in int64; (u, v) order must not."""
    n = 2**32
    edges = [(0, 1, 0.5), (n - 2, n - 1, 0.25)]
    tg = TemporalGraph.from_edges(n, edges if first_last else edges[::-1])
    assert tg.u.tolist() == [0, n - 2]
    assert tg.v.tolist() == [1, n - 1]
    assert tg.labels.tolist() == [0.5, 0.25]
    with pytest.raises(ValueError, match="duplicate edge"):
        TemporalGraph.from_edges(n, [(n - 2, n - 1, 0.5), (0, 1, 0.5), (n - 1, n - 2, 0.5)])
    with pytest.raises(ValueError, match="must be sorted"):
        TemporalGraph(n, np.array([n - 2, 0]), np.array([n - 1, 1]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("n", [6, 2**32])
def test_edge_order_faults_are_told_apart(n):
    """The constructor names a duplicate before a disorder, wherever in the
    array each lies, and a disorder alone as one; at n = 2**32 the ids near
    n would wrap a key u * n + v."""
    a, b, c, d = n - 4, n - 3, n - 2, n - 1

    def build(pairs):
        u, v = np.array(pairs, dtype=np.int64).T
        return TemporalGraph(n, u, v, np.full(len(pairs), 0.5))

    for pairs in (
        [(a, c), (a, b), (b, d), (b, d)],
        [(b, d), (b, d), (a, c), (a, b)],
        [(a, b), (a, d), (a, c), (a, c)],
    ):
        with pytest.raises(ValueError, match="duplicate edge"):
            build(pairs)
    for pairs in ([(a, c), (a, b), (b, d)], [(b, c), (a, d)], [(a, b), (c, d), (b, c)]):
        with pytest.raises(ValueError, match="must be sorted"):
            build(pairs)
    assert build([(a, b), (a, c), (b, d), (c, d)]).m == 4


def test_self_loops_rejected():
    with pytest.raises(ValueError):
        TemporalGraph.from_edges(3, [(1, 1, 0.5)])


def test_labels_out_of_range_rejected():
    with pytest.raises(ValueError):
        TemporalGraph.from_edges(2, [(0, 1, 1.5)])
    with pytest.raises(ValueError):
        TemporalGraph.from_edges(2, [(0, 1, -0.1)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_labels_rejected(bad):
    """A NaN label would pass min/max range checks and poison the predicate:
    the triangle (0.0, NaN, 1.0) would validate at delta = 0.1."""
    with pytest.raises(ValueError, match="finite"):
        triangle(0.0, bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        TemporalGraph(2, np.array([0]), np.array([1]), np.array([bad]))


def test_from_edges_canonicalizes():
    tg = TemporalGraph.from_edges(3, [(2, 1, 0.75), (1, 0, 0.5)])
    assert tg.edge_list() == [(0, 1, 0.5), (1, 2, 0.75)]


def test_arrays_are_immutable():
    """Every array of every graph is read-only, and the pair columns that
    complete instances share cannot be made writable again."""
    base = generate_er(6, 0.5, 2)
    planted = build_planted_instance(base, 0.4, "half", seed=3)
    complete = generate_random_complete(6, 1)
    graphs = [
        complete,
        generate_random_complete(1, 1),
        base,
        planted.base,
        planted.temporal,
        TemporalGraph(3, [0, 1], [2, 2], [0.5, 0.25]),
        TemporalGraph(3, np.array([0, 1]), np.array([2, 2]), np.array([0.5, 0.25])),
        TemporalGraph.from_columns(3, [2, 1], [0, 2], [0.5, 0.25]),
        TemporalGraph.from_edges(3, [(2, 1, 0.75), (1, 0, 0.5)]),
        loads_temporal_graph('{"n": 3, "edges": [[2, 1, 0.75], [1, 0, 0.5]]}'),
    ]
    for tg in graphs:
        for arr in (tg.u, tg.v, tg.labels):
            assert not arr.flags.writeable
    with pytest.raises(ValueError):
        complete.labels[0] = 0.5
    for arr in (complete.u, complete.v):
        with pytest.raises(ValueError):
            arr.setflags(write=True)


@pytest.mark.parametrize("build", [TemporalGraph, TemporalGraph.from_columns])
def test_caller_arrays_are_copied(build):
    """Writing to the arrays a graph was built from leaves the graph as it was."""
    u = np.array([0, 0, 1], dtype=np.int64)
    v = np.array([1, 2, 2], dtype=np.int64)
    labels = np.array([0.25, 0.5, 0.75])
    tg = build(3, u, v, labels)
    u[:] = [1, 1, 0]
    v[:] = [2, 2, 1]
    labels[:] = 1.0
    assert tg.edge_list() == [(0, 1, 0.25), (0, 2, 0.5), (1, 2, 0.75)]
    assert u.flags.writeable and v.flags.writeable and labels.flags.writeable


def test_clique_result_validation():
    with pytest.raises(ValueError):
        CliqueResult((1, 0), 2, 0.0, 0.5)
    with pytest.raises(ValueError):
        CliqueResult((0, 1), 2, 0.6, 0.5)
    r = CliqueResult((0, 1), 2, 0.25, 0.5)
    assert r.width == 0.25


# ---------------------------------------------------------------- predicate


def test_triangle_predicate_cases():
    tg = triangle(0.1, 0.15, 0.9)
    assert not is_delta_clique(tg, (0, 1, 2), 0.1)
    assert is_delta_clique(tg, (0, 1), 0.1)
    assert is_delta_clique(tg, (0, 1, 2), 0.85)
    res = delta_clique_check(tg, (0, 1, 2), 0.85)
    assert res.interval_min == 0.1 and res.interval_max == 0.9


def test_small_sets_pass_vacuously():
    tg = triangle(0.1, 0.15, 0.9)
    assert is_delta_clique(tg, (), 0.0)
    assert is_delta_clique(tg, (2,), 0.0)
    res = delta_clique_check(tg, (2,), 0.0)
    assert (res.interval_min, res.interval_max) == (0.0, 0.0)


def test_missing_edge_is_reported():
    tg = TemporalGraph.from_edges(4, [(0, 1, 0.2), (1, 2, 0.25), (0, 2, 0.22), (0, 3, 0.21), (1, 3, 0.23)])
    # {0,1,2} complete; adding 3 lacks (2,3)
    assert is_delta_clique(tg, (0, 1, 2), 0.1)
    with pytest.raises(MissingEdge):
        delta_clique_check(tg, (0, 1, 2, 3), 0.5)


def test_too_wide_is_reported():
    tg = triangle(0.1, 0.15, 0.9)
    with pytest.raises(IntervalTooWide):
        delta_clique_check(tg, (0, 1, 2), 0.5)


def test_predicate_validates_inputs():
    tg = triangle(0.1, 0.15, 0.9)
    with pytest.raises(ValueError):
        delta_clique_check(tg, (0, 1), 1.5)
    with pytest.raises(ValueError):
        delta_clique_check(tg, (0, 0, 1), 0.5)
    with pytest.raises(ValueError):
        delta_clique_check(tg, (0, 5), 0.5)


def test_exact_boundary_width_passes():
    """The window is closed: width exactly delta is a pass."""
    tg = triangle(0.2, 0.2, 0.7)
    assert is_delta_clique(tg, (0, 1, 2), 0.5)
    assert not is_delta_clique(tg, (0, 1, 2), 0.49999999)


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.05, 0.2, 0.5, 0.9]),
)
@settings(deadline=None, max_examples=60)
def test_predicate_monotone_in_delta(n, seed, delta):
    """A set passing at delta passes at every larger delta."""
    tg = generate_random_complete(n, seed)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, n + 1))
    verts = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    if is_delta_clique(tg, verts, delta):
        assert is_delta_clique(tg, verts, min(1.0, delta + 0.05))
        assert is_delta_clique(tg, verts, 1.0)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_window_subgraph_cliques_are_delta_cliques(n, seed):
    """Any triangle, and a maximum clique, of a width-delta window graph is
    a delta-clique."""
    delta = 0.3
    tg = generate_random_complete(n, seed)
    for start in (0.0, 0.25, 0.6):
        # the window graph under the checker's predicate: labels x >= start
        # with x - start <= delta, as a static (zero-label) graph
        keep = (tg.labels >= start) & (tg.labels - start <= delta)
        g = TemporalGraph(n, tg.u[keep], tg.v[keep], np.zeros(int(keep.sum())))
        nbrs = [set() for _ in range(n)]
        for a, b in zip(g.u.tolist(), g.v.tolist()):
            nbrs[a].add(b)
            nbrs[b].add(a)
        for a, b in zip(g.u.tolist(), g.v.tolist()):
            for c in nbrs[a] & nbrs[b]:
                assert is_delta_clique(tg, (a, b, c), delta)
        assert is_delta_clique(tg, max_delta_clique_exact(g, 0.0).clique.vertices, delta)


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.1, 0.3, 0.6, 1.0]),
)
@settings(deadline=None, max_examples=60)
def test_sparse_check_agrees_with_complete(n, seed, delta):
    """Remove random edges from a complete graph: a set whose internal edges
    all survive gets the complete graph's verdict and interval; any other set
    raises MissingEdge naming its first missing pair in row-major order."""
    full = generate_random_complete(n, seed)
    rng = np.random.default_rng(seed)
    keep = rng.random(full.m) < rng.uniform(0.3, 1.0)
    sparse = TemporalGraph(n, full.u[keep], full.v[keep], full.labels[keep])
    kept = set(zip(sparse.u.tolist(), sparse.v.tolist()))
    for _ in range(20):
        k = int(rng.integers(2, n + 1))
        verts = sorted(rng.choice(n, size=k, replace=False).tolist())
        missing = [
            (a, b) for i, a in enumerate(verts) for b in verts[i + 1 :] if (a, b) not in kept
        ]
        if missing:
            with pytest.raises(MissingEdge) as exc:
                delta_clique_check(sparse, verts, delta)
            assert str(exc.value) == f"missing edge {missing[0]}"
            continue
        try:
            expected = delta_clique_check(full, verts, delta)
        except IntervalTooWide:
            with pytest.raises(IntervalTooWide):
                delta_clique_check(sparse, verts, delta)
        else:
            assert delta_clique_check(sparse, verts, delta) == expected


@given(
    st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        ),
        min_size=3,
        max_size=3,
    ).filter(lambda labels: not all(np.isfinite(labels)))
)
@settings(deadline=None, max_examples=60)
def test_non_finite_label_arrays_are_rejected(labels):
    """Any NaN or infinite label fails construction, wherever it sits."""
    with pytest.raises(ValueError, match="finite"):
        TemporalGraph(3, np.array([0, 0, 1]), np.array([1, 2, 2]), np.array(labels))
