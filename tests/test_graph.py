import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphbisect.graph
from graphbisect.graph import (
    DisconnectedGraphError,
    _dist_dtype,
    branch_masks,
    build_graph,
    consistent_mask,
    consistent_set,
    distance_matrix,
    generate,
    load_edge_list,
    save_edge_list,
)

from _reference import bfs_dist, brute_consistent, connected_atlas, floyd_warshall


def random_connected(rng, n):
    """Random spanning tree plus a few extra edges."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        edges.add((min(a, b), max(a, b)))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.integers(0, n, 2)
        a, b = int(a), int(b)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def test_distances_match_bfs_reference(rng):
    for _ in range(25):
        n = int(rng.integers(2, 30))
        edges = random_connected(rng, n)
        g = build_graph(n, edges)
        src = int(rng.integers(0, n))
        assert g.dist[src].tolist() == bfs_dist(n, edges, src)


def test_distances_match_floyd_warshall(rng):
    for _ in range(10):
        n = int(rng.integers(2, 16))
        edges = random_connected(rng, n)
        g = build_graph(n, edges)
        fw = floyd_warshall(n, edges)
        for i in range(n):
            for j in range(n):
                assert g.dist[i, j] == fw[i][j]


def test_distances_match_floyd_warshall_on_atlas():
    graphs = connected_atlas()
    assert len(graphs) == 996
    for n, edges in graphs:
        d = distance_matrix(n, edges)
        assert d.dtype == np.int8
        assert d.tolist() == floyd_warshall(n, edges)


@pytest.mark.parametrize("n", [63, 64, 65, 1023, 1025])
def test_distances_across_word_and_block_boundaries(n, rng):
    # 64 sources share a word and 1024 a block: 63, 64 and 65 end one short
    # of, on and one past a word boundary, 1023 and 1025 either side of a
    # block boundary
    edges = random_connected(rng, n)
    d = distance_matrix(n, edges)
    sources = {0, 62, n - 1, int(rng.integers(0, n))}
    sources |= {s for s in (63, 64, 1023, 1024) if s < n}
    for s in sorted(sources):
        assert d[s].tolist() == bfs_dist(n, edges, s)
    assert (d == d.T).all()


def test_star_distances_and_peak_memory():
    # one vertex of degree n - 1: each level gathers n - 1 neighbor slots
    n = 3000
    edges = [(0, v) for v in range(1, n)]
    tracemalloc.start()
    try:
        d = distance_matrix(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expect = np.full((n, n), 2, dtype=np.int8)
    expect[0, :] = expect[:, 0] = 1
    np.fill_diagonal(expect, 0)
    assert d.dtype == np.int8 and (d == expect).all()
    assert peak < 2 * d.nbytes


def test_int32_distances_past_int16_range(monkeypatch):
    # a diameter past the int16 range needs a gigabyte matrix, so drop the
    # int16 rung: the path's D = 599 then widens int8 straight to int32
    n = 600
    edges = [(i, i + 1) for i in range(n - 1)]
    small = distance_matrix(n, edges)
    monkeypatch.setattr(graphbisect.graph, "_DIST_DTYPES", (np.int8, np.int32))
    wide = distance_matrix(n, edges)
    assert small.dtype == np.int16 and wide.dtype == np.int32
    assert (wide == small).all()


@pytest.mark.parametrize(
    "diameter, dtype",
    [(0, np.int8), (126, np.int8), (127, np.int16), (32766, np.int16),
     (32767, np.int32), (2**31 - 2, np.int32)],
)
def test_dist_dtype_leaves_room_for_one_more_hop(diameter, dtype):
    assert _dist_dtype(diameter) == dtype
    assert diameter + 1 <= np.iinfo(dtype).max


def test_dist_dtype_past_every_rung():
    with pytest.raises(ValueError):
        _dist_dtype(2**31 - 1)


def test_distances_widen_after_the_first_block():
    # the sources of block 0, hub 0 and its leaves 1..1023, reach depth 102
    # at most, which fits int8; the path 1024..1224 hangs off 0 at its
    # middle vertex 1124, so D = 200 first shows in block 1
    n = 1225
    edges = [(0, v) for v in range(1, 1024)]
    edges += [(v, v + 1) for v in range(1024, 1224)]
    edges += [(0, 1124)]
    d = distance_matrix(n, edges)
    assert d.dtype == np.int16
    assert int(d.max()) == 200
    for s in range(n):
        assert d[s].tolist() == bfs_dist(n, edges, s)


def test_import_does_not_load_scipy():
    code = (
        "import sys, graphbisect, graphbisect.cli, graphbisect.harness; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    src = os.path.dirname(os.path.dirname(graphbisect.graph.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_distance_matrix_properties(path5):
    d = path5.dist
    assert d[0, 4] == 4
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    assert path5.diameter == 4
    assert path5.max_degree == 2


def test_single_vertex():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0 and g.diameter == 0
    assert distance_matrix(1, []).shape == (1, 1)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError) as exc:
        build_graph(4, [(0, 1), (2, 3)])
    u, v = exc.value.unreachable_pair
    assert u != v and {u, v} <= {0, 1, 2, 3}
    # vertex 599, the last, is unreachable from 0
    with pytest.raises(DisconnectedGraphError) as exc:
        distance_matrix(600, [(i, i + 1) for i in range(598)])
    assert exc.value.unreachable_pair == (0, 599)
    # the component of 0 spans two blocks of sources; 1501 is isolated
    with pytest.raises(DisconnectedGraphError) as exc:
        distance_matrix(1502, [(i, i + 1) for i in range(1500)])
    assert exc.value.unreachable_pair == (0, 1501)
    # vertex 5 has degree 0; the vertices past it hang off 4
    with pytest.raises(DisconnectedGraphError) as exc:
        distance_matrix(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 6), (6, 7), (7, 8), (8, 9)])
    assert exc.value.unreachable_pair == (0, 5)


def test_distances_across_blocks():
    # distances up to 599 fill ten bit planes, past the first byte of them
    n = 600
    d = distance_matrix(n, [(i, i + 1) for i in range(n - 1)])
    idx = np.arange(n)
    assert d.dtype == np.int16
    assert (d == np.abs(idx[:, None] - idx[None, :])).all()


def test_distance_matrix_peak_memory():
    # all-pairs BFS on the 64 x 64 grid stays under twice the matrix itself
    side = 64
    edges = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    edges += [(v, v + side) for v in range(side * (side - 1))]
    tracemalloc.start()
    try:
        d = distance_matrix(side * side, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d[0, -1] == 2 * (side - 1)
    assert peak < 2 * d.nbytes


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3), (0, 1), (1, 2)])


def test_neighbors_sorted(rng):
    g = generate("erdos-renyi-connected", 40, seed=7)
    for v in range(g.n):
        a = g.neighbors[v]
        assert (np.diff(a) > 0).all() if len(a) > 1 else True
        for u in a:
            assert g.dist[v, u] == 1


def test_consistency_against_brute_force(rng):
    for _ in range(30):
        n = int(rng.integers(2, 14))
        edges = random_connected(rng, n)
        g = build_graph(n, edges)
        q = int(rng.integers(0, n))
        replies = [q] + [int(u) for u in g.neighbors[q]]
        for r in replies:
            assert consistent_set(g, q, r).tolist() == brute_consistent(n, edges, q, r)


def test_consistency_partition(path5):
    # across the truthful replies plus "I am the target", every vertex
    # appears exactly once
    g = path5
    for q in range(g.n):
        seen = []
        for r in [q] + [int(u) for u in g.neighbors[q]]:
            seen.extend(consistent_set(g, q, r).tolist())
        assert sorted(seen) == list(range(g.n))


def test_consistency_rejects_non_neighbor(path5):
    with pytest.raises(ValueError):
        consistent_mask(path5.dist, 0, 2)
    # -1 would index vertex 4, a neighbor of 3; 5 is past the last row
    for bad in (-1, 5):
        with pytest.raises(ValueError, match="not a vertex id"):
            consistent_mask(path5.dist, 3, bad)


def test_self_reply_isolates_query(path5):
    mask = consistent_mask(path5.dist, 2, 2)
    assert mask.sum() == 1 and mask[2]


def test_consistency_at_the_int8_edge():
    # the path of 127 vertices has D = 126, the deepest int8 matrix: at
    # either end 1 + dist reaches 127, the int8 maximum
    n = 127
    edges = [(i, i + 1) for i in range(n - 1)]
    g = build_graph(n, edges)
    assert g.dist.dtype == np.int8 and g.diameter == 126
    for q, reply in ((0, 1), (126, 125)):
        mask = consistent_mask(g.dist, q, reply)
        assert np.flatnonzero(mask).tolist() == brute_consistent(n, edges, q, reply)


@pytest.mark.parametrize("name", ["path5", "grid9", "cycle4"])
def test_branch_masks_rows_match_consistent_mask(name, request):
    g = generate("cycle", 4) if name == "cycle4" else request.getfixturevalue(name)
    for q in range(g.n):
        replies = np.append(g.neighbors[q], q)
        masks = branch_masks(g.dist, q, replies)
        assert masks.shape == (len(replies), g.n) and masks.dtype == bool
        for row, r in zip(masks, replies):
            assert (row == consistent_mask(g.dist, q, int(r))).all()


@pytest.mark.parametrize("kind,params", [
    ("erdos-renyi-connected", None),
    ("grid", {"rows": 16, "cols": 16}),
])
def test_dist_float_products_match_int_matrix_bitwise(kind, params, rng):
    g = generate(kind, 256, params, seed=11)
    tiny = np.finfo(np.float64).tiny
    for trial in range(20):
        w = rng.random(g.n) * 10.0 ** rng.uniform(-6, 2, g.n)
        if trial % 2:
            # about half the entries deep in the subnormal range
            sub = rng.random(g.n) < 0.5
            w[sub] = tiny * rng.random(int(sub.sum())) * 2.0 ** -30
        assert (g.dist_float @ w).tobytes() == (g.dist @ w).tobytes()


def test_dist_float_is_cached_and_lazy():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    # build_graph must not pay for the float copy
    assert "dist_float" not in vars(g)
    assert g.dist_float is g.dist_float
    assert g.dist_float.dtype == np.float64
    assert (g.dist_float == g.dist).all()


@given(st.integers(2, 40))
def test_path_generator(n):
    g = generate("path", n)
    assert g.m == n - 1 and g.diameter == n - 1


def test_generators_basic():
    assert generate("cycle", 6).diameter == 3
    assert generate("complete", 5).m == 10
    g = generate("grid", 12, {"rows": 3, "cols": 4})
    assert g.diameter == 2 + 3
    t = generate("random-tree", 30, seed=3)
    assert t.m == 29
    r = generate("random-regular", 20, {"degree": 3}, seed=5)
    assert r.max_degree == 3 and all(r.degree(v) == 3 for v in range(20))
    e = generate("erdos-renyi-connected", 50, seed=11)
    assert e.n == 50 and e.diameter >= 1


def test_generator_determinism():
    a = generate("erdos-renyi-connected", 36, seed=42)
    b = generate("erdos-renyi-connected", 36, seed=42)
    assert a.edges == b.edges
    c = generate("random-tree", 36, seed=1)
    d = generate("random-tree", 36, seed=2)
    assert c.edges != d.edges


def test_generator_validation():
    with pytest.raises(ValueError):
        generate("cycle", 2)
    with pytest.raises(ValueError):
        generate("grid", 10, {"rows": 3, "cols": 4})
    with pytest.raises(ValueError):
        generate("random-regular", 5, {"degree": 3})
    with pytest.raises(ValueError):
        generate("unknown-kind", 5)
    with pytest.raises(ValueError):
        generate("erdos-renyi-connected", 10, {"p": 1.5})


def test_er_edge_probability_unbiased():
    # moderate p: edge count should land near its binomial mean
    n, p = 60, 0.2
    counts = [generate("erdos-renyi-connected", n, {"p": p}, seed=s).m for s in range(30)]
    mean = float(np.mean(counts))
    expect = p * n * (n - 1) / 2
    assert abs(mean - expect) < 4 * math.sqrt(expect)


def test_edge_list_round_trip(tmp_path, rng):
    g = generate("erdos-renyi-connected", 25, seed=9)
    path = tmp_path / "g.edges"
    save_edge_list(g, path)
    h = load_edge_list(path)
    assert h.n == g.n and h.edges == g.edges
    assert (h.dist == g.dist).all()


def test_edge_list_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError):
        load_edge_list(bad)
    disc = tmp_path / "disc.edges"
    disc.write_text("4 2\n0 1\n2 3\n")
    with pytest.raises(DisconnectedGraphError):
        load_edge_list(disc)
