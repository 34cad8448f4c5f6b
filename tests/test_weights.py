import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphbisect.weights import WeightState, power_table

TINY = np.finfo(np.float64).tiny


def test_uniform_start():
    w = WeightState.uniform(8, 2.0)
    assert w.omega.tolist() == [1.0] * 8
    assert w.lies.tolist() == [0] * 8
    assert w.total == 8.0
    with pytest.raises(ValueError):
        WeightState.uniform(0, 2.0)


def test_downweight_divides_and_counts():
    w = WeightState.uniform(4, 2.0)
    mask = np.array([True, False, True, False])
    w.downweight(mask)
    assert w.lies.tolist() == [0, 1, 0, 1]
    assert w.renormalize() == 3.0
    assert w.omega.tolist() == [1.0, 0.5, 1.0, 0.5]
    assert w.total == 3.0
    w.downweight(mask)
    assert w.lies.tolist() == [0, 2, 0, 2]
    assert w.renormalize() == 2.5
    assert w.omega.tolist() == [1.0, 0.25, 1.0, 0.25]
    # every leader lies: the kept weight is on the old leaders' scale, and
    # the new leaders weigh 1
    w.downweight(np.array([False, True, False, False]))
    assert w.renormalize() == 1.375
    assert w.omega.tolist() == [1.0, 0.5, 1.0, 0.25]


def test_downweight_guards():
    w = WeightState.uniform(3, 2.0)
    with pytest.raises(ValueError):
        w.downweight(np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        WeightState.uniform(3, 1.0)


@pytest.mark.parametrize("gamma", (1.0 / 0.6, 125.0 / 63.0, 1.98, 2.0))
def test_power_table(gamma):
    p = power_table(gamma)
    normal = [k for k in range(len(p)) if gamma ** -k >= TINY]
    assert normal == list(range(len(normal)))
    assert p[: len(normal)].tolist() == [gamma ** -k for k in normal]
    assert (p[len(normal):] == 0).all() and len(p) > len(normal)


def test_running_total_tracks_sum(rng):
    gamma = 1.7
    w = WeightState.uniform(12, gamma)
    for _ in range(200):
        mask = rng.random(12) < 0.6
        if not mask.any():
            mask[int(rng.integers(0, 12))] = True
        lead = w.lies.min()
        w.downweight(mask)
        kept = float((gamma ** -(w.lies - lead).astype(float)).sum())
        assert w.renormalize() == pytest.approx(kept, rel=1e-12)
        exact = float((gamma ** -(w.lies - w.lies.min()).astype(float)).sum())
        assert w.total == pytest.approx(exact, rel=1e-12)
        assert w.total >= 1.0


def test_answer_fewest_lies_lowest_id():
    w = WeightState.uniform(5, 2.0)
    w.lies[:] = [3, 1, 1, 2, 4]
    assert w.answer() == 1


def test_weights_stay_positive(rng):
    w = WeightState.uniform(6, 1.25)
    for _ in range(500):
        mask = rng.random(6) < 0.5
        if not mask.any():
            mask[0] = True
        w.downweight(mask)
        w.renormalize()
    assert (w.omega > 0).all()


def _subnormal(omega):
    return (omega > 0) & (omega < TINY)


def test_renormalize_flushes_underflowed_weights():
    # at gamma 2 the power 2**-1022 is the smallest normal float64 and
    # 2**-1023 is subnormal: it and every larger gap weigh exactly 0
    w = WeightState(gamma=2.0, lies=np.array([40, 43, 1061, 1062, 1063, 5000]))
    assert w.omega.tolist() == [1.0, 0.125, 2.0 ** -1021, 2.0 ** -1022, 0.0, 0.0]
    assert not _subnormal(w.omega).any()
    assert w.answer() == 0


def test_renormalize_flushes_along_a_long_run(rng):
    # at gamma 1.98 a gap of ~1 038 lies underflows; 3 000 steps pass it
    gamma = 1.98
    p = power_table(gamma)
    w = WeightState.uniform(8, gamma)
    flushed = 0
    for _ in range(3000):
        mask = rng.random(8) < 0.5
        mask[0] = True
        w.downweight(mask)
        lies, answer = w.lies.copy(), w.answer()
        w.renormalize()
        gaps = lies - lies.min()
        assert w.omega.tobytes() == p[np.minimum(gaps, len(p) - 1)].tobytes()
        assert (w.omega[gaps == 0] == 1.0).all()
        assert not _subnormal(w.omega).any()
        assert (w.omega[gaps >= len(p) - 1] == 0).all()
        assert (w.lies == lies).all() and w.answer() == answer
        flushed += int((w.omega == 0).any())
    assert flushed > 0
    assert w.omega[0] == 1.0 and w.answer() == 0


@given(st.integers(2, 30), st.integers(1, 60))
def test_lie_order_unaffected_by_renormalization(n, steps):
    rng = np.random.default_rng(n * 1000 + steps)
    a = WeightState.uniform(n, 1.4)
    b = WeightState.uniform(n, 1.4)
    for _ in range(steps):
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[int(rng.integers(0, n))] = True
        a.downweight(mask)
        b.downweight(mask)
        a.renormalize()
    assert a.lies.tolist() == b.lies.tolist()
    assert a.answer() == b.answer()
    # the weights are a function of the lies alone, whatever the history
    b.renormalize()
    assert a.omega.tobytes() == b.omega.tobytes()
