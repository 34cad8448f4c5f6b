import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphbisect.weights import WeightState


def test_uniform_start():
    w = WeightState.uniform(8)
    assert w.omega.tolist() == [0.125] * 8
    assert w.lies.tolist() == [0] * 8
    assert w.total == 1.0
    with pytest.raises(ValueError):
        WeightState.uniform(0)


def test_downweight_divides_and_counts():
    w = WeightState.uniform(4)
    mask = np.array([True, False, True, False])
    w.downweight(mask, 2.0)
    assert w.omega.tolist() == [0.25, 0.125, 0.25, 0.125]
    assert w.lies.tolist() == [0, 1, 0, 1]
    assert w.total == pytest.approx(0.75)
    w.downweight(mask, 2.0)
    assert w.lies.tolist() == [0, 2, 0, 2]


def test_downweight_guards():
    w = WeightState.uniform(3)
    with pytest.raises(ValueError):
        w.downweight(np.zeros(3, dtype=bool), 2.0)
    with pytest.raises(ValueError):
        w.downweight(np.array([True, False, False]), 1.0)


def test_running_total_tracks_sum(rng):
    w = WeightState.uniform(12)
    for _ in range(200):
        mask = rng.random(12) < 0.6
        if not mask.any():
            mask[int(rng.integers(0, 12))] = True
        w.downweight(mask, 1.7)
        assert w.total == pytest.approx(float(w.omega.sum()), rel=1e-9)
    w.renormalize()
    assert w.total == pytest.approx(1.0)
    assert float(w.omega.sum()) == pytest.approx(1.0, abs=1e-12)


def test_answer_fewest_lies_lowest_id():
    w = WeightState.uniform(5)
    w.lies[:] = [3, 1, 1, 2, 4]
    assert w.answer() == 1


def test_weights_stay_positive(rng):
    w = WeightState.uniform(6)
    for _ in range(500):
        mask = rng.random(6) < 0.5
        if not mask.any():
            mask[0] = True
        w.downweight(mask, 1.25)
        w.renormalize()
    assert (w.omega > 0).all()


TINY = np.finfo(np.float64).tiny


def _subnormal(omega):
    return (omega > 0) & (omega < TINY)


def test_renormalize_flushes_underflowed_weights():
    w = WeightState(
        omega=np.array([4.0, 5e-308, 1e-310, 3e-320, 1e-300, 0.0]),
        lies=np.array([0, 3, 5, 9, 2, 40]),
    )
    lies = w.lies.copy()
    pre_flush = float(w.omega.sum())
    assert w.renormalize() == pre_flush
    assert not _subnormal(w.omega).any()
    # 5e-308 / 4 is normal before scaling and subnormal after: flushed too
    assert w.omega.tolist() == [1.0, 0.0, 0.0, 0.0, 1e-300 / 4.0, 0.0]
    assert w.lies.tolist() == lies.tolist()
    assert w.answer() == 0


def test_renormalize_flushes_along_a_long_run(rng):
    # at gamma 1.98 a gap of ~1 075 lies underflows; 3 000 steps pass it
    w = WeightState.uniform(8)
    flushed = 0
    for _ in range(3000):
        mask = rng.random(8) < 0.5
        mask[0] = True
        w.downweight(mask, 1.98)
        lies, answer = w.lies.copy(), w.answer()
        pre_flush = float(w.omega.sum())
        assert w.renormalize() == pre_flush
        assert not _subnormal(w.omega).any()
        assert (w.lies == lies).all() and w.answer() == answer
        flushed += int((w.omega == 0).any())
    assert flushed > 0
    assert w.omega[0] > 0 and w.answer() == 0


@given(st.integers(2, 30), st.integers(1, 60))
def test_lie_order_unaffected_by_renormalization(n, steps):
    rng = np.random.default_rng(n * 1000 + steps)
    a = WeightState.uniform(n)
    b = WeightState.uniform(n)
    for _ in range(steps):
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[int(rng.integers(0, n))] = True
        a.downweight(mask, 1.4)
        b.downweight(mask, 1.4)
        a.renormalize()
    assert a.lies.tolist() == b.lies.tolist()
    assert a.answer() == b.answer()
    # the two states differ only by one overall scale factor
    ratio = a.omega / b.omega
    assert np.allclose(ratio, ratio[0], rtol=1e-9)
