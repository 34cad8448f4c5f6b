import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphbisect.graph import (
    DisconnectedGraphError,
    branch_masks,
    build_graph,
    consistent_mask,
    consistent_set,
    distance_matrix,
    generate,
    load_edge_list,
    save_edge_list,
)

from _reference import bfs_dist, brute_consistent, floyd_warshall


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
    # vertex 599 is unreachable and lies beyond the first block of sources
    with pytest.raises(DisconnectedGraphError) as exc:
        distance_matrix(600, [(i, i + 1) for i in range(598)])
    assert exc.value.unreachable_pair == (0, 599)


def test_distances_across_blocks():
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


def test_self_reply_isolates_query(path5):
    mask = consistent_mask(path5.dist, 2, 2)
    assert mask.sum() == 1 and mask[2]


@pytest.mark.parametrize("name", ["path5", "grid9", "cycle4"])
def test_branch_masks_rows_match_consistent_mask(name, request):
    g = generate("cycle", 4) if name == "cycle4" else request.getfixturevalue(name)
    for q in range(g.n):
        replies = np.append(g.neighbors[q], q)
        masks = branch_masks(g.dist, q, replies)
        assert masks.shape == (len(replies), g.n) and masks.dtype == bool
        for row, r in zip(masks, replies):
            assert (row == consistent_mask(g.dist, q, int(r))).all()


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
