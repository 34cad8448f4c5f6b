import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbisect.graph import branch_masks, build_graph, generate
from graphbisect.oracle import truthful_candidates, wrong_replies
from graphbisect.potential import (
    _certified_argmin,
    branch_weights,
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
    # the oracle's truthful and wrong reply sets, and the default of every
    # neighbor, all sum through the one matvec the masks define
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
        for target in range(g.n):
            for ids in (truthful_candidates(g, target, q), wrong_replies(g, target, q)):
                ref = branch_masks(g, q, ids) @ w
                assert branch_weights(w, g, q, ids).tobytes() == ref.tobytes()


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
def test_exact_median_is_the_float64_argmin(kind, n, style, seed):
    rng = np.random.default_rng(seed)
    g = generate(kind, n, seed=seed % 1000)
    w = _weights(style, n, rng)
    assert exact_median(w, g) == int(np.argmin(g.dist @ w))


def test_certificate_undecided_on_a_tie():
    g = generate("cycle", 12)
    w = np.full(12, 1.0 / 12)
    assert _certified_argmin(g.dist32 @ w.astype(np.float32), g) is None
    assert exact_median(w, g) == int(np.argmin(g.dist @ w))


def test_certificate_proves_a_one_hot_median():
    g = generate("cycle", 12)
    for v in (0, 5, 11):
        w = np.zeros(12)
        w[v] = 1.0
        assert _certified_argmin(g.dist32 @ w.astype(np.float32), g) == v


def test_certificate_undecided_on_a_non_finite_screen():
    g = generate("path", 6)
    phi32 = np.array([np.inf, 1.0, 2.0, 3.0, 4.0, 5.0], dtype=np.float32)
    assert _certified_argmin(phi32, g) is None
    phi32[0] = np.nan
    assert _certified_argmin(phi32, g) is None
