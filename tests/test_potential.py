import numpy as np
import pytest

from graphbisect.graph import build_graph, generate
from graphbisect.potential import (
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
    assert phi(w, path5.dist, 2) == pytest.approx(6 / 5)
    assert phi(w, path5.dist, 0) == pytest.approx((0 + 1 + 2 + 3 + 4) / 5)
    assert exact_median(w, path5.dist) == 2
    # each side of the middle holds two of the five weight units
    assert worst_branch_weight(w, path5, path5.dist, 2) == pytest.approx(2 / 5)
    bw = branch_weights(w, path5, path5.dist, 2)
    assert bw.tolist() == pytest.approx([2 / 5, 2 / 5])


def test_path4_median_tie_lowest_id():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    w = np.full(4, 0.25)
    assert phi(w, g.dist, 1) == pytest.approx(phi(w, g.dist, 2))
    assert exact_median(w, g.dist) == 1
    p2 = build_graph(2, [(0, 1)])
    assert exact_median(np.full(2, 0.5), p2.dist) == 0


def test_matches_brute_force(rng):
    for _ in range(25):
        n = int(rng.integers(2, 12))
        edges = random_connected(rng, n)
        g = build_graph(n, edges)
        w = positive_weights(rng, n)
        v = int(rng.integers(0, n))
        assert phi(w, g.dist, v) == pytest.approx(brute_phi(n, edges, w, v))
        assert exact_median(w, g.dist) == brute_median(n, edges, w)
        assert worst_branch_weight(w, g, g.dist, v) == pytest.approx(
            brute_worst_branch(n, edges, w, v)
        )


def test_phi_all_consistent(rng):
    g = generate("erdos-renyi-connected", 30, seed=4)
    w = positive_weights(rng, 30)
    vals = phi_all(w, g.dist)
    for v in range(30):
        assert vals[v] == pytest.approx(phi(w, g.dist, v))


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
        assert exact_median(w, g.dist) == v


def test_near_median_slack_monotone(path5):
    w = np.array([0.05, 0.05, 0.3, 0.3, 0.3])
    med = exact_median(w, path5.dist)
    assert is_near_median(w, path5, path5.dist, med, 0.0)
    # a leaf keeps almost everything on one branch
    assert not is_near_median(w, path5, path5.dist, 0, 0.2)


def test_single_vertex_graph():
    g = build_graph(1, [])
    w = np.array([1.0])
    assert exact_median(w, g.dist) == 0
    assert worst_branch_weight(w, g, g.dist, 0) == 0.0
    assert is_near_median(w, g, g.dist, 0, 0.0)


def test_median_report(grid9):
    w = np.full(9, 1.0 / 9)
    rep = median_report(w, grid9)
    assert rep["median"] == 4
    assert rep["bisection_holds"]
    assert rep["phi"].shape == (9,)
    assert rep["median_lambda"] <= rep["half_weight"] + 1e-12
