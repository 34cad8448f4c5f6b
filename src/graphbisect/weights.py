"""Multiplicative weight state over the vertex set.

The lie counts are the only state. A vertex weighs gamma to the minus its
lies beyond the fewest charged, read from power_table, so the leaders weigh
exactly 1 and every weight is one table entry whatever the history. The
final answer is the vertex with the fewest lies.
"""

from __future__ import annotations

import math

import numpy as np


def power_table(gamma: float) -> np.ndarray:
    """gamma**-k for k = 0, 1, ..., K by the C library's pow; numpy's
    vectorized power can round differently, by a kernel chosen per CPU.

    Powers below finfo.tiny are exactly 0 and K is the first of them, so a
    gap clipped to K weighs 0: subnormal arithmetic is an order of magnitude
    slower, and such a weight is below one ulp of any sum that holds a
    leader's 1, so no decision can see it.
    """
    tiny = np.finfo(np.float64).tiny
    size = math.ceil(math.log(tiny) / -math.log(gamma)) + 2
    p = np.array([gamma ** -k for k in range(size)])
    p[p < tiny] = 0.0
    return p


class WeightState:
    """Lie counts and the weights omega derived from them by renormalize."""

    def __init__(self, lies: np.ndarray, gamma: float):
        if gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {gamma}")
        self.lies = lies  # int64 count of inconsistencies charged so far
        self._powers = power_table(gamma)
        self._lead = int(lies.min())  # fewest lies when omega was derived
        self.omega = np.empty(len(lies))  # float64, _powers[lies - _lead]
        self.renormalize()

    @classmethod
    def uniform(cls, n: int, gamma: float) -> "WeightState":
        if n <= 0:
            raise ValueError("need at least one vertex")
        return cls(np.zeros(n, dtype=np.int64), gamma)

    @property
    def total(self) -> float:
        """Sum of the weights, recomputed on every read."""
        return float(self.omega.sum())

    def downweight(self, consistent: np.ndarray) -> None:
        """Charge a lie to every inconsistent vertex; `renormalize` derives
        the weights. The consistent mask must keep at least one vertex alive.
        """
        if not consistent.any():
            raise ValueError("a reply can never wipe out every vertex")
        self.lies += ~consistent

    def renormalize(self) -> float:
        """Derive omega from the lies, the leaders at exactly 1; returns the
        total weight on the scale where the previous leaders weighed 1."""
        gaps = self.lies - self._lead
        np.take(self._powers, gaps, mode="clip", out=self.omega)
        total = float(self.omega.sum())
        lead = int(self.lies.min())
        if lead != self._lead:
            gaps -= lead - self._lead
            self._lead = lead
            np.take(self._powers, gaps, mode="clip", out=self.omega)
        return total

    def answer(self) -> int:
        """Lowest-id vertex with the fewest lies charged."""
        return int(np.argmin(self.lies))
