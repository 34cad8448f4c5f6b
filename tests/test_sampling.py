import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphbisect.graph import build_graph, consistent_mask, generate
from graphbisect.potential import worst_branch_weight
from graphbisect.sampling import Sample, _distance_sums, _draw, draw_indices, draw_indices_from
from graphbisect.weights import WeightState

from _reference import brute_consistent, inverse_cdf, positional_resample


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


@st.composite
def _draw_cases(draw):
    """(w, h, u): weights in which vertex h holds more than half, placed
    first, in the middle or last, with runs of zero weights right before
    and after it, or uniform weights on two or more vertices (h = -1);
    uniforms at random, on both ends of a cumulative interval (h's, or
    the middle vertex's) and on their float neighbours, and 0 and 1."""
    n = draw(st.integers(1, 40))
    where = draw(st.sampled_from(["first", "middle", "last", "uniform"]))
    if where == "uniform" and n > 1:
        w, h = np.full(n, 1.0 / n), -1
    else:
        h = {"first": 0, "middle": n // 2, "last": n - 1}.get(where, 0)
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        w[max(0, h - draw(st.integers(0, 3))):h] = 0.0
        w[h + 1:h + 1 + draw(st.integers(0, 3))] = 0.0
        w[h] = 0.0
        share = draw(st.floats(0.51, 0.999))
        w[h] = share / (1.0 - share) * w.sum() or 1.0
    cumw = np.cumsum(w)
    j = h if h >= 0 else n // 2  # uniform weights: the middle vertex's ends
    ends = [cumw[j - 1] if j else 0.0, cumw[j]]
    u = [0.0, 1.0]
    for end in ends:
        x = end / cumw[-1]
        for _ in range(3):
            x = np.nextafter(x, 0.0)
        for _ in range(7):
            u.append(x)
            x = np.nextafter(x, 2.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.clip(np.concatenate([u, rng.random(50)]), 0.0, 1.0)
    return w, h, u


@settings(max_examples=200)
@given(_draw_cases())
@example((np.array([0.125, 0.0, 0.75, 0.0, 0.125]), 2, np.array([0.0, 0.125, 0.5, 0.875, 0.9, 1.0])))
@example((np.array([0.0, 0.0, 1.0, 0.0]), 2, np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0])))
def test_draw_matches_the_plain_inverse_cdf(case):
    # the draws on the heavy vertex skip the search; every id must still be
    # the one searchsorted returns, the ends of the interval included (the
    # examples land exactly on cumw[h-1] and cumw[h], with zero weights on
    # either side)
    w, h, u = case
    assert _draw(w, u.copy())[0] == h
    ids = draw_indices_from(w, u.copy())
    assert ids.dtype == np.int32
    assert (ids == inverse_cdf(w, u)).all()


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
    # pair; the draw reads the cached float32 copy instead
    g = generate("grid", 1024, {"rows": 32, "cols": 32})
    g.dist32
    tracemalloc.start()
    try:
        s = Sample.draw(np.full(g.n, 1.0 / g.n), 4000, np.random.default_rng(6), graph=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.dist.nbytes
    assert s.verify_sums()



def test_distance_sums_on_both_sides_of_the_float32_bound():
    # D * |x|_1 < 2**24 bounds every partial sum, so float32 is exact below
    # it; at 2**24 + 24 (path of 5, D = 4) a float32 sum is odd past 2**24
    # and rounds, so the sums must come from the float64 blocks
    below = np.array([2**22 - 8, 2, 1, 1, 1])
    above = np.array([2**22 + 1, -2, 1, 1, 1])
    for x, f32 in ((below, True), (above, False), (-above, False)):
        g = generate("path", 5)
        ref = g.dist.astype(np.int64) @ x
        assert (_distance_sums(g, x) == ref).all()
        assert ("dist32" in vars(g)) == f32
        assert ((g.dist32 @ x.astype(np.float32)).astype(np.int64) == ref).all() == f32


def test_resample_allocates_little_per_step():
    # coins and redraw uniforms go to the sample's own buffer; what one step
    # still allocates (the redraw flags, positions, new and old ids) stays
    # under five bytes a member, well below one float64 per member (the
    # coins alone took four bytes a member here, the whole step twelve).
    # With uniform weights half the members are inconsistent; with vertex 0
    # holding nine tenths of the weight most redraws land on it and take
    # the split path, which must stay within the same budget. Vertex 0 is
    # consistent: were it not, 95 % of the members would be, and the step
    # would redraw 0.38 * size of them, more than this bound allows either
    # path (the split path peaks at 5.4 bytes a member there, fourteen a
    # redrawn member; the plain one at 7.7, twenty).
    n, size = 1024, 100_000
    heavy = np.full(n, 0.1 / (n - 1))
    heavy[0] = 0.9
    consistent = np.arange(n) % 2 == 0
    for omega, inconsistent_share in ((np.full(n, 1.0 / n), 0.5), (heavy, 0.05)):
        rng = np.random.default_rng(3)
        s = Sample.draw(omega, size, rng)
        n_inc = int(s.counts[~consistent].sum())
        assert abs(n_inc - size * inconsistent_share) < size / 50
        at_0 = s.counts[0]
        tracemalloc.start()
        try:
            k = s.resample(consistent, omega, 1.0 / 0.6, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k > 0.3 * n_inc
        assert peak < 5 * size
        assert (s.counts == np.bincount(s.members, minlength=n)).all()
        if omega is heavy:
            assert s.counts[0] - at_0 > 0.8 * k


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
    gamma = 1.0 / 0.6
    ws = WeightState.uniform(g.n, gamma)
    s = Sample.draw(ws.omega, size, rng, graph=g)
    redrawn, changed = [], []
    for t in range(steps):
        q = int(rng.integers(0, g.n))
        reply = int(rng.choice([q] + [int(u) for u in g.neighbors[q]]))
        mask = consistent_mask(g, q, reply)
        ws.downweight(mask)
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
    assert "dist32" not in vars(path)
    _, _, redrawn, changed = _run_steps(grid9, 60, seed=5)
    assert any(c * 16 >= grid9.n for c in changed)
    assert "dist32" in vars(grid9)


def _heavy_mask_sequence(g, steps=50):
    """Fixed replies on the 3 x 3 grid that make the centre heavy: it is
    queried and confirmed, a corner query points towards it, and every
    fifth step the centre answers with a neighbour, a lie that reweights
    it while it holds most of the weight."""
    seq = []
    for t in range(steps):
        if t % 5 == 4:
            q, reply = 4, (1, 3, 5, 7)[t // 5 % 4]
        elif t % 3 == 0:
            q, reply = 0, 1
        else:
            q, reply = 4, 4
        seq.append(consistent_mask(g, q, reply))
    return seq


def test_resample_matches_the_positional_reference(grid9):
    # the split draw keeps the random stream: from one seed, the sample and
    # the plain positional resampler hold the same members, counts and sums
    # after every step, on the steps without a heavy vertex and on those
    # with one, consistent or not
    gamma = 1.0 / 0.6
    dist = grid9.dist.astype(np.int64)
    masks = _heavy_mask_sequence(grid9)
    paths = {"plain": 0, "heavy consistent": 0, "heavy inconsistent": 0}
    for seed in range(4):
        ws = WeightState.uniform(grid9.n, gamma)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        s = Sample.draw(ws.omega, 600, a, graph=grid9)
        members = inverse_cdf(ws.omega, b.random(600)).astype(np.int32)
        counts = np.bincount(members, minlength=grid9.n)
        assert (s.members == members).all()
        for mask in masks:
            ws.downweight(mask)
            ws.renormalize()
            k = s.resample(mask, ws.omega, gamma, a)
            assert k == positional_resample(members, counts, mask, ws.omega, gamma, b)
            assert (s.members == members).all()
            assert (s.counts == counts).all()
            assert (s.distance_sums == dist @ counts).all()
            if k:
                h = int(np.argmax(ws.omega))
                heavy = 2 * ws.omega[h] > ws.omega.sum()
                paths["plain" if not heavy else f"heavy {'consistent' if mask[h] else 'inconsistent'}"] += 1
    assert min(paths.values()) >= 4, paths


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
