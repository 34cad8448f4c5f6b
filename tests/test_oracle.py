import numpy as np
import pytest

from graphbisect.graph import build_graph, consistent_set, generate
from graphbisect.oracle import (
    AdversarialOracle,
    NoisyOracle,
    truthful_candidates,
    wrong_replies,
)
from graphbisect.weights import WeightState

from _reference import bfs_dist
from test_graph import random_connected


def test_truthful_candidates_shorten_distance(rng):
    for _ in range(20):
        n = int(rng.integers(2, 20))
        edges = random_connected(rng, n)
        g = build_graph(n, edges)
        target = int(rng.integers(0, n))
        dt = bfs_dist(n, edges, target)
        for q in range(n):
            cands = truthful_candidates(g, target, q)
            if q == target:
                assert cands.tolist() == [q]
                continue
            assert len(cands) >= 1
            for r in cands:
                assert dt[int(r)] == dt[q] - 1
            # every reported candidate is a neighbor
            assert set(cands.tolist()) <= set(int(u) for u in g.neighbors[q])


def test_truthful_reply_keeps_target(rng):
    # the target always sits in the consistent set of an honest reply
    for _ in range(15):
        n = int(rng.integers(2, 15))
        edges = random_connected(rng, n)
        g = build_graph(n, edges)
        target = int(rng.integers(0, n))
        oracle = NoisyOracle(g, target, 0.0, np.random.default_rng(0))
        for q in range(n):
            r = oracle.reply(q)
            assert target in consistent_set(g, q, r).tolist()
            assert not oracle.last_was_error


def test_zero_noise_is_truthful():
    g = generate("cycle", 8)
    oracle = NoisyOracle(g, 3, 0.0, np.random.default_rng(5))
    for q in range(8):
        r = oracle.reply(q)
        cands = truthful_candidates(g, 3, q).tolist()
        assert r in cands
    assert oracle.errors_made == 0


def test_error_frequency_matches_p():
    g = generate("path", 10)
    p = 0.3
    oracle = NoisyOracle(g, 9, p, np.random.default_rng(6))
    trials = 30_000
    errs = 0
    for _ in range(trials):
        oracle.reply(2)
        errs += oracle.last_was_error
    assert abs(errs / trials - p) < 0.01


def test_wrong_reply_is_wrong_but_legal():
    g = generate("grid", 16, {"rows": 4, "cols": 4})
    oracle = NoisyOracle(g, 15, 0.49, np.random.default_rng(7))
    qs = np.random.default_rng(70).integers(0, 16, 500)
    for q in qs:
        q = int(q)
        r = oracle.reply(q)
        options = [q] + [int(u) for u in g.neighbors[q]]
        assert r in options
        cands = truthful_candidates(g, 15, q).tolist()
        # every error is off the truthful set, even where two replies are honest
        assert oracle.last_was_error == (r not in cands)


def test_replies_at_the_int8_edge():
    # on the path of 127 vertices (D = 126, int8) the endpoints sit 126
    # hops apart, so dist - 1 and the comparisons run at the dtype's edge,
    # on the matrix's rows and on rows computed before it exists
    n = 127
    edges = [(i, i + 1) for i in range(n - 1)]
    g, lazy = build_graph(n, edges), build_graph(n, edges)
    assert g.dist.dtype == np.int8
    assert lazy.row(0).dtype == lazy.row(126).dtype == np.int8
    for target, q in ((0, 126), (126, 0), (0, 0), (126, 126)):
        dt = bfs_dist(n, edges, target)
        options = [int(u) for u in g.neighbors[q]] + [q]
        honest = [q] if q == target else [u for u in options if u != q and dt[u] == dt[q] - 1]
        for h in (g, lazy):
            assert truthful_candidates(h, target, q).tolist() == honest
            assert wrong_replies(h, target, q).tolist() == sorted(set(options) - set(honest))
    assert "dist" not in vars(lazy)


@pytest.mark.parametrize("graph", ["grid9", "er16"])
def test_wrong_replies_match_set_difference(graph, request):
    if graph == "er16":
        g = generate("erdos-renyi-connected", 16, seed=3)
    else:
        g = request.getfixturevalue(graph)
    for target in range(g.n):
        for q in range(g.n):
            options = np.append(g.neighbors[q], q).astype(np.int32)
            ref = np.setdiff1d(options, truthful_candidates(g, target, q))
            got = wrong_replies(g, target, q)
            assert got.dtype == ref.dtype
            assert got.tolist() == ref.tolist()


def test_tie_break_lowest_id():
    g = generate("cycle", 4)
    # at the antipode both neighbors are honest; lowest id wins
    oracle = NoisyOracle(g, 0, 0.0, np.random.default_rng(8), tie_break="lowest-id")
    assert oracle.reply(2) == 1


def test_tie_break_adversarial_weight():
    g = generate("cycle", 4)
    w = WeightState.uniform(4)
    w.omega = np.array([0.1, 0.2, 0.1, 0.6])
    oracle = NoisyOracle(
        g, 0, 0.0, np.random.default_rng(9), tie_break="adversarial-weight"
    )
    # branches at query 2: via 1 keeps {0, 1}, via 3 keeps {0, 3}; wait both
    # keep the target side; weight via 3 = 0.6 + ... is larger
    assert oracle.reply(2, weights=w) == 3
    with pytest.raises(ValueError):
        NoisyOracle(g, 0, 0.0, np.random.default_rng(9), tie_break="adversarial-weight").reply(2)


def test_adversarial_wrong_targets_heavy_branch():
    g = generate("path", 5)
    w = WeightState.uniform(5)
    w.omega = np.array([0.05, 0.05, 0.05, 0.05, 0.8])
    oracle = NoisyOracle(
        g, 0, 0.49, np.random.default_rng(10), error_model="adversarial-wrong"
    )
    saw_error = False
    for _ in range(60):
        r = oracle.reply(2, weights=w)
        if oracle.last_was_error:
            saw_error = True
            assert r == 3  # points at the heavy tail, away from the target
    assert saw_error


def test_oracle_validation():
    g = generate("path", 4)
    with pytest.raises(ValueError):
        NoisyOracle(g, 0, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        NoisyOracle(g, 7, 0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        NoisyOracle(g, 0, 0.1, np.random.default_rng(0), tie_break="nope")
    with pytest.raises(ValueError):
        AdversarialOracle(g, 0, -1)
    with pytest.raises(ValueError):
        AdversarialOracle(g, 0, 3, schedule="random-schedule")


def test_single_vertex_cannot_lie():
    g = build_graph(1, [])
    oracle = NoisyOracle(g, 0, 0.4, np.random.default_rng(11))
    for _ in range(50):
        assert oracle.reply(0) == 0


def test_fixed_schedule_spends_budget_up_front():
    g = generate("path", 6)
    oracle = AdversarialOracle(g, 5, budget=3, schedule="fixed-schedule")
    flags = []
    for _ in range(8):
        oracle.reply(2)
        flags.append(oracle.last_was_error)
    assert flags == [True, True, True, False, False, False, False, False]
    assert oracle.lies_spent == 3


def test_random_schedule_spends_exactly_budget():
    g = generate("cycle", 9)
    oracle = AdversarialOracle(
        g, 4, budget=5, schedule="random-schedule",
        rng=np.random.default_rng(12), horizon=40,
    )
    lies = 0
    for q in np.random.default_rng(13).integers(0, 9, 40):
        oracle.reply(int(q))
        lies += oracle.last_was_error
    assert lies == 5
    assert oracle.lies_spent == 5


def test_greedy_adversary_lies_toward_heavy_weight():
    g = generate("path", 5)
    w = WeightState.uniform(5)
    w.omega = np.array([0.05, 0.05, 0.1, 0.1, 0.7])
    oracle = AdversarialOracle(g, 0, budget=10, schedule="greedy-heavy")
    # truth at query 2 points to 1 (weight 0.1); lying toward 3 keeps 0.8
    r = oracle.reply(2, weights=w)
    assert r == 3 and oracle.last_was_error and oracle.lies_spent == 1
    # with the budget gone the same query turns honest
    oracle.budget = 1
    r = oracle.reply(2, weights=w)
    assert r == 1 and not oracle.last_was_error


def test_greedy_adversary_honest_when_truth_heavier():
    g = generate("path", 5)
    w = WeightState.uniform(5)
    w.omega = np.array([0.7, 0.1, 0.1, 0.05, 0.05])
    oracle = AdversarialOracle(g, 0, budget=10, schedule="greedy-heavy")
    r = oracle.reply(2, weights=w)
    assert r == 1 and not oracle.last_was_error and oracle.lies_spent == 0


def test_adversary_budget_never_exceeded(rng):
    g = generate("erdos-renyi-connected", 20, seed=3)
    w = WeightState.uniform(20)
    oracle = AdversarialOracle(g, 7, budget=4, schedule="greedy-heavy")
    for _ in range(200):
        q = int(rng.integers(0, 20))
        oracle.reply(q, weights=w)
        assert oracle.lies_spent <= 4
