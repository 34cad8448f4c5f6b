"""Weighted vertex samples and their per-reply resampling.

A Sample is a positional array of vertex ids drawn independently with
probability proportional to the current weights, together with per-vertex
counts and, when a policy needs them, integer distance sums that stand in
for the exact potential. Resampling keeps each member's marginal equal to
a fresh draw from the updated weights without redrawing the whole sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, branch_masks
from .weights import WeightState


def draw_indices_from(omega: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniform draws through the cumulative weight array.

    Binary search per draw, equivalent to merging sorted uniforms against
    one cumulative scan; the clip guards against u landing exactly on the
    total weight.
    """
    cumw = np.cumsum(omega)
    idx = np.searchsorted(cumw, u * cumw[-1], side="right")
    return np.minimum(idx, len(omega) - 1).astype(np.int32)


def draw_indices(omega: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k independent vertex ids, each drawn proportionally to omega."""
    return draw_indices_from(omega, rng.random(k))


@dataclass
class Sample:
    """Positional multiset of vertex ids with derived bookkeeping."""

    members: np.ndarray  # int32, stable positions
    counts: np.ndarray  # int64 multiplicity per vertex
    distance_sums: np.ndarray | None  # int64 sum of dist to members, or None

    @classmethod
    def draw(
        cls,
        weights: WeightState,
        size: int,
        rng: np.random.Generator,
        dist: np.ndarray | None = None,
        track_sums: bool = False,
    ) -> "Sample":
        if size <= 0:
            raise ValueError("sample size must be positive")
        members = draw_indices(weights.omega, size, rng)
        counts = np.bincount(members, minlength=weights.n).astype(np.int64)
        sums = None
        if track_sums:
            if dist is None:
                raise ValueError("distance matrix needed to track sums")
            sums = dist @ counts
        return cls(members=members, counts=counts, distance_sums=sums)

    @property
    def size(self) -> int:
        return len(self.members)

    def distance_sum(self, v: int, dist: np.ndarray) -> int:
        """Total hop distance from v to the sample, an integer."""
        if self.distance_sums is not None:
            return int(self.distance_sums[v])
        return int(dist[v] @ self.counts)

    def max_branch_count(self, g: Graph, dist: np.ndarray, v: int) -> int:
        """Largest number of members a single reply at v keeps alive."""
        masks = branch_masks(dist, v, g.neighbors[v])
        return int((masks @ self.counts).max(initial=0))

    def resample(
        self,
        consistent: np.ndarray,
        weights: WeightState,
        gamma: float,
        rng: np.random.Generator,
        dist: np.ndarray | None = None,
        dist_float: np.ndarray | None = None,
    ) -> int:
        """Update the sample in place after one reply; returns members redrawn.

        Members at consistent vertices stay. Each member at an inconsistent
        vertex stays with probability 1/gamma, otherwise it is replaced by a
        fresh draw from the already-updated weights. Coins and redraws are
        consumed in positional order: one coin per inconsistent member, then
        one uniform per failed coin.

        Tracked distance sums are patched row by row from dist, or, when the
        caller passes the graph's dist_float and many counts changed,
        recomputed in one float64 matvec.
        """
        inv_gamma = 1.0 / gamma
        n = weights.n
        n_inc = int(self.counts[~consistent].sum())
        if n_inc == 0:
            return 0
        coins = rng.random(n_inc)
        fail = coins >= inv_gamma
        k = int(fail.sum())
        draws = rng.random(k)
        if k == 0:
            return 0
        pos = np.flatnonzero(~consistent[self.members])[fail]
        new = draw_indices_from(weights.omega, draws)
        old = self.members[pos]
        self.members[pos] = new
        delta = np.bincount(new, minlength=n) - np.bincount(old, minlength=n)
        self.counts += delta
        if self.distance_sums is not None:
            ch = np.flatnonzero(delta)
            if dist_float is not None and len(ch) * 16 >= n:
                # wide updates: one BLAS matvec beats summing touched rows;
                # distance sums stay far below 2**53, so it is exact
                self.distance_sums = (
                    dist_float @ self.counts.astype(np.float64)
                ).astype(np.int64)
            else:
                if dist is None:
                    raise ValueError("distance matrix needed to maintain sums")
                self.distance_sums += delta[ch] @ dist[ch, :]
        return k

    def verify_sums(self, dist: np.ndarray) -> bool:
        """Recompute the bookkeeping from scratch and compare exactly."""
        counts = np.bincount(self.members, minlength=len(self.counts)).astype(np.int64)
        if not (counts == self.counts).all():
            return False
        if self.distance_sums is None:
            return True
        return bool((dist @ counts == self.distance_sums).all())
