import tracemalloc

import numpy as np
import pytest

from graphbisect.graph import build_graph, consistent_mask, generate
from graphbisect.potential import worst_branch_weight
from graphbisect.sampling import Sample, draw_indices
from graphbisect.weights import WeightState

from _reference import brute_consistent


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
    omega = np.full(9, 1.0 / 9)
    s = Sample.draw(omega, 500, np.random.default_rng(2), graph=grid9)
    assert s.size == 500
    assert s.counts.sum() == 500
    assert s.verify_sums()
    assert s.distance_sums[4] == int(grid9.dist[4] @ s.counts)
    assert Sample.draw(omega, 5, np.random.default_rng(0)).distance_sums is None
    with pytest.raises(ValueError):
        Sample.draw(omega, 0, np.random.default_rng(0))


def test_draw_sums_without_an_int64_matrix():
    # dist @ counts would cast the whole matrix to int64, eight bytes a
    # pair; the draw reads the cached float64 copy instead
    g = generate("grid", 1024, {"rows": 32, "cols": 32})
    g.dist_float
    tracemalloc.start()
    try:
        s = Sample.draw(np.full(g.n, 1.0 / g.n), 4000, np.random.default_rng(6), graph=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.dist.nbytes
    assert s.verify_sums()


def test_distance_sum_matches_members(path5):
    s = Sample.draw(np.full(5, 0.2), 300, np.random.default_rng(3), graph=path5)
    for v in range(5):
        direct = int(path5.dist[v][s.members].sum())
        assert s.distance_sums[v] == direct


def test_max_branch_count_matches_members(grid9):
    s = Sample.draw(np.full(9, 1.0 / 9), 400, np.random.default_rng(4))
    for v in range(9):
        best = 0
        for u in grid9.neighbors[v]:
            keep = set(brute_consistent(9, list(grid9.edges), v, int(u)))
            best = max(best, sum(1 for x in s.members if int(x) in keep))
        assert worst_branch_weight(s.counts, grid9, v) == best


def _run_steps(g, steps, seed, size=2000):
    """Random replies against a sample that tracks its sums, checked from
    scratch after every step; also returns how many counts each step changed."""
    rng = np.random.default_rng(seed)
    ws = WeightState.uniform(g.n)
    s = Sample.draw(ws.omega, size, rng, graph=g)
    gamma = 1.0 / 0.6
    redrawn, changed = [], []
    for t in range(steps):
        q = int(rng.integers(0, g.n))
        reply = int(rng.choice([q] + [int(u) for u in g.neighbors[q]]))
        mask = consistent_mask(g.dist, q, reply)
        ws.downweight(mask, gamma)
        ws.renormalize()
        before = s.counts.copy()
        redrawn.append(s.resample(mask, ws.omega, gamma, rng))
        changed.append(int((s.counts != before).sum()))
        assert s.verify_sums()
    return s, ws, redrawn, changed


def test_counts_and_sums_survive_many_steps(grid9):
    s, ws, redrawn, _ = _run_steps(grid9, 60, seed=5)
    assert s.counts.sum() == s.size
    assert any(k > 0 for k in redrawn)


def test_row_patched_sums_match_matvec_sums(grid9):
    # the size of the change alone picks the update: 16 members on a path of
    # 512 change too few counts to leave row patching, and never build the
    # float matrix; 2 000 members on 9 vertices take the one matvec
    path = generate("path", 512)
    _, _, redrawn, changed = _run_steps(path, 60, seed=5, size=16)
    assert any(k > 0 for k in redrawn)
    assert max(changed) * 16 < path.n
    assert "dist_float" not in vars(path)
    _, _, redrawn, changed = _run_steps(grid9, 60, seed=5)
    assert any(c * 16 >= grid9.n for c in changed)
    assert "dist_float" in vars(grid9)


def test_all_consistent_resample_is_silent(path5):
    omega = np.full(5, 0.2)
    rng = np.random.default_rng(9)
    s = Sample.draw(omega, 100, rng)
    before = s.members.copy()
    k = s.resample(np.ones(5, dtype=bool), omega, 2.0, rng)
    assert k == 0 and (s.members == before).all()
    # no randomness consumed: a fresh draw matches one from a clean stream
    probe = rng.random(4)
    rng2 = np.random.default_rng(9)
    _ = Sample.draw(omega, 100, rng2)
    assert (probe == rng2.random(4)).all()


def test_expected_redraw_volume(path5):
    # members on inconsistent vertices fail their coin with rate 1 - 1/gamma
    omega = np.full(5, 0.2)
    gamma = 2.5
    rng = np.random.default_rng(13)
    total = 0
    reps = 200
    for _ in range(reps):
        s = Sample.draw(omega, 1000, rng)
        mask = np.array([True, True, False, False, False])
        inc = int(s.counts[2:].sum())
        total += s.resample(mask, omega, gamma, rng) / inc
    rate = total / reps
    assert abs(rate - 0.6) < 0.01


def test_resampled_member_marginal(path5):
    # one step, fixed starting sample: an inconsistent position should land on
    # x with probability (1/gamma) [x == old] + (1 - 1/gamma) * omega[x] / sum
    gamma = 2.0
    omega1 = np.array([0.4, 0.3, 0.1, 0.1, 0.1])
    mask = np.array([True, False, False, True, True])
    reps = 40_000
    rng = np.random.default_rng(17)
    start = np.array([1, 2, 0, 3, 4], dtype=np.int32)
    hits = np.zeros(5)
    for _ in range(reps):
        s = Sample(members=start.copy(), counts=np.bincount(start, minlength=5).astype(np.int64), distance_sums=None)
        s.resample(mask, omega1, gamma, rng)
        hits[s.members[0]] += 1
    emp = hits / reps
    redraw = (1 - 1 / gamma) * omega1 / omega1.sum()
    expect = redraw.copy()
    expect[1] += 1 / gamma  # position 0 started at vertex 1, inconsistent
    tv = 0.5 * np.abs(emp - expect).sum()
    assert tv < 0.01
