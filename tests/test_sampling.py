import numpy as np
import pytest

from graphbisect.graph import build_graph, consistent_mask, generate
from graphbisect.sampling import Sample, draw_indices
from graphbisect.weights import WeightState

from _reference import brute_consistent


def weighted_state(w):
    w = np.asarray(w, dtype=float)
    ws = WeightState.uniform(len(w))
    ws.omega = w.copy()
    return ws


def test_draw_proportional_to_weights():
    rng = np.random.default_rng(1)
    w = np.array([0.5, 0.25, 0.125, 0.0625, 0.0625])
    ids = draw_indices(w, 200_000, rng)
    freq = np.bincount(ids, minlength=5) / 200_000
    assert np.abs(freq - w).max() < 0.005


def test_draw_is_deterministic():
    w = np.array([0.2, 0.3, 0.5])
    a = draw_indices(w, 1000, np.random.default_rng(7))
    b = draw_indices(w, 1000, np.random.default_rng(7))
    assert (a == b).all()


def test_sample_draw_bookkeeping(grid9):
    ws = WeightState.uniform(9)
    s = Sample.draw(ws, 500, np.random.default_rng(2), dist=grid9.dist, track_sums=True)
    assert s.size == 500
    assert s.counts.sum() == 500
    assert s.verify_sums(grid9.dist)
    assert s.distance_sum(4, grid9.dist) == int(grid9.dist[4] @ s.counts)
    with pytest.raises(ValueError):
        Sample.draw(ws, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        Sample.draw(ws, 5, np.random.default_rng(0), track_sums=True)


def test_distance_sum_matches_members(path5):
    ws = WeightState.uniform(5)
    s = Sample.draw(ws, 300, np.random.default_rng(3))
    for v in range(5):
        direct = int(path5.dist[v][s.members].sum())
        assert s.distance_sum(v, path5.dist) == direct


def test_max_branch_count_matches_members(grid9):
    ws = WeightState.uniform(9)
    s = Sample.draw(ws, 400, np.random.default_rng(4))
    for v in range(9):
        best = 0
        for u in grid9.neighbors[v]:
            keep = set(brute_consistent(9, list(grid9.edges), v, int(u)))
            best = max(best, sum(1 for x in s.members if int(x) in keep))
        assert s.max_branch_count(grid9, grid9.dist, v) == best


def _run_steps(g, steps, seed, track=True):
    rng = np.random.default_rng(seed)
    ws = WeightState.uniform(g.n)
    s = Sample.draw(ws, 2000, rng, dist=g.dist, track_sums=track)
    gamma = 1.0 / 0.6
    redrawn = []
    for t in range(steps):
        q = int(rng.integers(0, g.n))
        reply = int(rng.choice([q] + [int(u) for u in g.neighbors[q]]))
        mask = consistent_mask(g.dist, q, reply)
        ws.downweight(mask, gamma)
        ws.renormalize()
        redrawn.append(s.resample(mask, ws, gamma, rng, g.dist))
    return s, ws, redrawn


def test_counts_and_sums_survive_many_steps(grid9):
    s, ws, redrawn = _run_steps(grid9, 60, seed=5)
    assert s.verify_sums(grid9.dist)
    assert s.counts.sum() == s.size
    assert any(k > 0 for k in redrawn)


def test_all_consistent_resample_is_silent(path5):
    ws = WeightState.uniform(5)
    rng = np.random.default_rng(9)
    s = Sample.draw(ws, 100, rng)
    before = s.members.copy()
    k = s.resample(np.ones(5, dtype=bool), ws, 2.0, rng)
    assert k == 0 and (s.members == before).all()
    # no randomness consumed: a fresh draw matches one from a clean stream
    probe = rng.random(4)
    rng2 = np.random.default_rng(9)
    _ = Sample.draw(ws, 100, rng2)
    assert (probe == rng2.random(4)).all()


def test_expected_redraw_volume(path5):
    # members on inconsistent vertices fail their coin with rate 1 - 1/gamma
    ws = WeightState.uniform(5)
    gamma = 2.5
    rng = np.random.default_rng(13)
    total = 0
    reps = 200
    for _ in range(reps):
        s = Sample.draw(ws, 1000, rng)
        mask = np.array([True, True, False, False, False])
        inc = int(s.counts[2:].sum())
        total += s.resample(mask, ws, gamma, rng) / inc
    rate = total / reps
    assert abs(rate - 0.6) < 0.01


def test_resampled_member_marginal(path5):
    # one step, fixed starting sample: an inconsistent position should land on
    # x with probability (1/gamma) [x == old] + (1 - 1/gamma) * omega[x] / sum
    gamma = 2.0
    omega1 = np.array([0.4, 0.3, 0.1, 0.1, 0.1])
    ws1 = weighted_state(omega1)
    mask = np.array([True, False, False, True, True])
    reps = 40_000
    rng = np.random.default_rng(17)
    start = np.array([1, 2, 0, 3, 4], dtype=np.int32)
    hits = np.zeros(5)
    for _ in range(reps):
        s = Sample(members=start.copy(), counts=np.bincount(start, minlength=5).astype(np.int64), distance_sums=None)
        s.resample(mask, ws1, gamma, rng)
        hits[s.members[0]] += 1
    emp = hits / reps
    redraw = (1 - 1 / gamma) * omega1 / omega1.sum()
    expect = redraw.copy()
    expect[1] += 1 / gamma  # position 0 started at vertex 1, inconsistent
    tv = 0.5 * np.abs(emp - expect).sum()
    assert tv < 0.01
