"""Multiplicative weight state over the vertex set.

Weights start uniform; every reply divides the weight of each inconsistent
vertex by gamma and bumps its lie counter. The final answer is the vertex
with the fewest lies, which never depends on renormalization.
Renormalizing flushes weights that have underflowed below the smallest
normal float64 to exactly 0: subnormal arithmetic is an order of magnitude
slower, and such a weight is below one ulp of any sum that holds a normal
entry, so no decision can see it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TINY = np.finfo(np.float64).tiny


@dataclass
class WeightState:
    # float64, nonnegative; renormalize flushes entries below finfo.tiny to 0
    omega: np.ndarray
    lies: np.ndarray  # int64 count of inconsistencies charged so far

    @classmethod
    def uniform(cls, n: int) -> "WeightState":
        if n <= 0:
            raise ValueError("need at least one vertex")
        return cls(omega=np.full(n, 1.0 / n), lies=np.zeros(n, dtype=np.int64))

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def total(self) -> float:
        """Sum of the weights, recomputed on every read."""
        return float(self.omega.sum())

    def downweight(self, consistent: np.ndarray, gamma: float) -> None:
        """Divide every inconsistent weight by gamma and charge a lie.

        The consistent mask must keep at least one vertex alive; gamma > 1
        keeps the weights nonnegative, and `renormalize` flushes entries
        below finfo.tiny to 0.
        """
        if gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {gamma}")
        if not consistent.any():
            raise ValueError("a reply can never wipe out every vertex")
        out = ~consistent
        np.multiply(self.omega, 1.0 / gamma, out=self.omega, where=out)
        self.lies += out

    def renormalize(self) -> float:
        """Scale weights to sum to one, then flush entries below finfo.tiny
        to 0; returns the pre-scaling total, exactly."""
        t = self.total
        self.omega /= t
        self.omega[self.omega < _TINY] = 0.0
        return t

    def answer(self) -> int:
        """Lowest-id vertex with the fewest lies charged."""
        return int(np.argmin(self.lies))
