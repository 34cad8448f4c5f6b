import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbisect.graph import branch_masks, build_graph, generate
from graphbisect.potential import (
    _survivors,
    branch_weights,
    exact_argbest,
    exact_median,
    heavy_vertex,
    is_near_median,
    median_report,
    phi,
    phi_all,
    worst_branch_weight,
)

from _reference import (
    brute_median,
    brute_phi,
    brute_worst_branch,
    positive_weights,
)
from test_graph import random_connected


def test_path5_by_hand(path5):
    w = np.full(5, 0.2)
    # distances from the middle vertex are 2,1,0,1,2
    assert phi(w, path5, 2) == pytest.approx(6 / 5)
    assert phi(w, path5, 0) == pytest.approx((0 + 1 + 2 + 3 + 4) / 5)
    assert exact_median(w, path5) == 2
    # each side of the middle holds two of the five weight units
    assert worst_branch_weight(w, path5, 2) == pytest.approx(2 / 5)
    bw = branch_weights(w, path5, 2)
    assert bw.tolist() == pytest.approx([2 / 5, 2 / 5])


@pytest.mark.parametrize("graph", ["grid9", "er16"])
def test_branch_weights_match_branch_masks_bytewise(graph, request, rng):
    # every neighbor's branch sums through the one matvec the masks define
    if graph == "er16":
        g = generate("erdos-renyi-connected", 16, seed=3)
    else:
        g = request.getfixturevalue(graph)
    w = positive_weights(rng, g.n)
    counts = rng.integers(0, 50, g.n).astype(np.int64)
    for q in range(g.n):
        nbrs = g.neighbors[q]
        assert branch_weights(w, g, q).tobytes() == (branch_masks(g, q, nbrs) @ w).tobytes()
        assert branch_weights(counts, g, q).tolist() == (branch_masks(g, q, nbrs) @ counts).tolist()


def test_path4_median_tie_lowest_id():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    w = np.full(4, 0.25)
    assert phi(w, g, 1) == pytest.approx(phi(w, g, 2))
    assert exact_median(w, g) == 1
    p2 = build_graph(2, [(0, 1)])
    assert exact_median(np.full(2, 0.5), p2) == 0


def test_matches_brute_force(rng):
    for _ in range(25):
        n = int(rng.integers(2, 12))
        edges = random_connected(rng, n)
        g = build_graph(n, edges)
        w = positive_weights(rng, n)
        v = int(rng.integers(0, n))
        assert phi(w, g, v) == pytest.approx(brute_phi(n, edges, w, v))
        assert exact_median(w, g) == brute_median(n, edges, w)
        assert worst_branch_weight(w, g, v) == pytest.approx(
            brute_worst_branch(n, edges, w, v)
        )


def test_phi_all_consistent(rng):
    g = generate("erdos-renyi-connected", 30, seed=4)
    w = positive_weights(rng, 30)
    vals = phi_all(w, g)
    for v in range(30):
        assert vals[v] == pytest.approx(phi(w, g, v))


def test_heavy_vertex_detection():
    w = np.array([0.1, 0.7, 0.1, 0.1])
    assert heavy_vertex(w, 0.1) == 1
    assert heavy_vertex(np.full(4, 0.25), 0.1) is None
    # exactly at the threshold does not count
    w = np.array([0.6, 0.2, 0.2])
    assert heavy_vertex(w, 0.1) is None
    assert heavy_vertex(w, 0.09) == 0
    assert heavy_vertex(np.array([0.05, 0.05, 0.1, 0.1, 0.7]), 0.025) == 4


def test_heavy_vertex_is_median(rng):
    # more than half the weight on one vertex forces it to be the median
    for _ in range(20):
        n = int(rng.integers(2, 15))
        edges = random_connected(rng, n)
        g = build_graph(n, edges)
        w = rng.random(n) + 1e-3
        v = int(rng.integers(0, n))
        w[v] = w.sum() * 2.0
        assert heavy_vertex(w, 0.05) == v
        assert exact_median(w, g) == v


def test_near_median_slack_monotone(path5):
    w = np.array([0.05, 0.05, 0.3, 0.3, 0.3])
    med = exact_median(w, path5)
    assert is_near_median(w, path5, med, 0.0)
    # a leaf keeps almost everything on one branch
    assert not is_near_median(w, path5, 0, 0.2)


def test_single_vertex_graph():
    g = build_graph(1, [])
    w = np.array([1.0])
    assert exact_median(w, g) == 0
    assert worst_branch_weight(w, g, 0) == 0.0
    assert is_near_median(w, g, 0, 0.0)


def test_median_report(grid9):
    w = np.full(9, 1.0 / 9)
    rep = median_report(w, grid9)
    assert rep["median"] == 4
    assert rep["bisection_holds"]
    assert rep["phi"].shape == (9,)
    assert rep["median_lambda"] <= rep["half_weight"] + 1e-12


_MEDIAN_KINDS = ("path", "cycle", "complete", "grid", "random-tree", "erdos-renyi-connected")
_WEIGHT_STYLES = ("uniform", "one-hot", "spread", "subnormal", "past-float32")


def _weights(style, n, rng):
    if style == "uniform":
        return np.full(n, 1.0 / n)
    if style == "one-hot":
        w = np.zeros(n)
        w[rng.integers(n)] = 1.0
        return w
    w = rng.random(n) * 10.0 ** rng.uniform(-6, 2, n)
    if style == "subnormal":
        # entries below float32's normal range, some below float64's too
        sub = rng.random(n) < 0.5
        w[sub] = 10.0 ** rng.uniform(-46, -38, int(sub.sum()))
        w[sub & (rng.random(n) < 0.5)] *= 1e-280
    elif style == "past-float32":
        w[rng.integers(n)] = 1e39
    return w


@settings(max_examples=100)
@given(
    st.sampled_from(_MEDIAN_KINDS), st.integers(3, 200), st.sampled_from(_WEIGHT_STYLES),
    st.integers(0, 2**32 - 1),
)
def test_exact_median_is_the_exact_lowest_id_minimizer(kind, n, style, seed):
    rng = np.random.default_rng(seed)
    g = generate(kind, n, seed=seed % 1000)
    w = _weights(style, n, rng)
    assert exact_median(w, g) == brute_median(g.n, g.edges, w)


def _cube3():
    return build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b])


@pytest.mark.parametrize("graph", ["cycle66", "cycle100", "cycle1025", "complete9", "cube3"])
def test_uniform_weights_on_a_vertex_transitive_graph_give_vertex_0(graph):
    # every vertex ties, so the lowest id is the median whatever the size
    if graph == "cube3":
        g = _cube3()
    else:
        kind = graph.rstrip("0123456789")
        g = generate(kind, int(graph[len(kind):]))
    assert exact_median(np.full(g.n, 1.0 / g.n), g) == 0


def test_tie_step_median_holds_no_wide_copy_of_the_matrix():
    # every vertex of the uniform cycle survives the screen; their exact
    # sums must not cost a float64 or int64 copy of the matrix
    n = 1025
    g = generate("cycle", n)
    w = np.full(n, 1.0 / n)
    g.dist32
    tracemalloc.start()
    try:
        assert exact_median(w, g) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n


@pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
def test_exact_median_rejects_negative_and_non_finite_weights(bad, path5):
    w = np.full(5, 0.2)
    w[3] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        exact_median(w, path5)


@settings(max_examples=100)
@given(
    st.integers(1, 40), st.integers(1, 60), st.sampled_from(("classes", "subnormal", "past-float32")),
    st.integers(0, 2**32 - 1),
)
def test_exact_argbest_matches_fraction_sums(k, n, style, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 4, (k, n)).astype(np.int8)
    if rng.random() < 0.5:
        rows[k // 2] = rows[0]  # an exact tie, lowest index wins
    # few distinct values make ties common
    w = rng.choice(10.0 ** rng.uniform(-3, 3, 4), n)
    if style == "subnormal":
        w[rng.random(n) < 0.5] = 5e-324 * rng.integers(1, 2**20)
    elif style == "past-float32":
        w[rng.integers(n)] = 1e39 * rng.random()
    sums = [sum((int(d) * Fraction(float(x)) for d, x in zip(row, w)), Fraction(0)) for row in rows]
    assert exact_argbest(rows, w) == sums.index(min(sums))
    assert exact_argbest(rows, w, largest=True) == sums.index(max(sums))
    with pytest.raises(ValueError):
        exact_argbest(rows, np.full(n, np.inf))


def test_survivors_of_a_one_hot_screen():
    g = generate("cycle", 12)
    for v in (0, 5, 11):
        w = np.zeros(12)
        w[v] = 1.0
        assert _survivors(g.dist32 @ w.astype(np.float32), g).tolist() == [v]


def test_survivors_of_a_uniform_cycle():
    g = generate("cycle", 12)
    w = np.full(12, 1.0 / 12)
    assert len(_survivors(g.dist32 @ w.astype(np.float32), g)) > 1
    assert exact_median(w, g) == 0


def test_non_finite_screen_rules_nothing_out():
    g = generate("path", 6)
    phi32 = np.array([np.inf, 1.0, 2.0, 3.0, 4.0, 5.0], dtype=np.float32)
    assert _survivors(phi32, g).tolist() == list(range(6))
    phi32[0] = np.nan
    assert _survivors(phi32, g).tolist() == list(range(6))
