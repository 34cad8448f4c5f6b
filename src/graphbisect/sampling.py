"""Weighted vertex samples and their per-reply resampling.

A Sample is a positional array of vertex ids drawn independently with
probability proportional to the current weights, together with per-vertex
counts and, when it is drawn with a graph, integer distance sums that
stand in for the exact potential. Resampling keeps each member's marginal
equal to a fresh draw from the updated weights without redrawing the whole
sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph


def draw_indices_from(omega: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniform draws through the cumulative weight array.

    Binary search per draw, equivalent to merging sorted uniforms against
    one cumulative scan; the clip guards against u landing exactly on the
    total weight.
    """
    cumw = np.cumsum(omega)
    idx = np.searchsorted(cumw, u * cumw[-1], side="right")
    return np.minimum(idx, len(omega) - 1).astype(np.int32)


def _distance_sums(graph: Graph, x: np.ndarray) -> np.ndarray:
    """dist @ x for an integer vector x, exactly, as int64.

    A sparse x sums the few rows it touches (dist is symmetric); a dense
    one takes one BLAS matvec against the cached float64 matrix, exact since
    the sums stay far below 2**53. Neither casts the whole integer matrix to
    int64, as dist @ x would.
    """
    nz = np.flatnonzero(x)
    if len(nz) * 16 < len(x):
        return x[nz] @ graph.dist[nz, :]
    return (graph.dist_float @ x.astype(np.float64)).astype(np.int64)


def draw_indices(omega: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k independent vertex ids, each drawn proportionally to omega."""
    return draw_indices_from(omega, rng.random(k))


@dataclass
class Sample:
    """Positional multiset of vertex ids with derived bookkeeping.

    A sample drawn with a graph keeps it and tracks the integer distance
    sums from every vertex to its members; one drawn without tracks none.
    """

    members: np.ndarray  # int32, stable positions
    counts: np.ndarray  # int64 multiplicity per vertex
    distance_sums: np.ndarray | None  # int64 sum of dist to members, or None
    graph: Graph | None = None  # owner of the distances behind the sums

    @classmethod
    def draw(
        cls,
        omega: np.ndarray,
        size: int,
        rng: np.random.Generator,
        graph: Graph | None = None,
    ) -> "Sample":
        if size <= 0:
            raise ValueError("sample size must be positive")
        members = draw_indices(omega, size, rng)
        counts = np.bincount(members, minlength=len(omega)).astype(np.int64)
        sums = None if graph is None else _distance_sums(graph, counts)
        return cls(members=members, counts=counts, distance_sums=sums, graph=graph)

    @property
    def size(self) -> int:
        return len(self.members)

    def resample(
        self,
        consistent: np.ndarray,
        omega: np.ndarray,
        gamma: float,
        rng: np.random.Generator,
    ) -> int:
        """Update the sample in place after one reply; returns members redrawn.

        Members at consistent vertices stay. Each member at an inconsistent
        vertex stays with probability 1/gamma, otherwise it is replaced by a
        fresh draw from the already-updated weights omega. Coins and redraws
        are consumed in positional order: one coin per inconsistent member,
        then one uniform per failed coin.

        Tracked distance sums move by dist @ delta, the change in counts
        (see _distance_sums).
        """
        inv_gamma = 1.0 / gamma
        n = len(omega)
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
        new = draw_indices_from(omega, draws)
        old = self.members[pos]
        self.members[pos] = new
        delta = np.bincount(new, minlength=n) - np.bincount(old, minlength=n)
        self.counts += delta
        if self.distance_sums is not None:
            self.distance_sums += _distance_sums(self.graph, delta)
        return k

    def verify_sums(self) -> bool:
        """Recompute the bookkeeping from scratch and compare exactly."""
        counts = np.bincount(self.members, minlength=len(self.counts)).astype(np.int64)
        if not (counts == self.counts).all():
            return False
        if self.distance_sums is None:
            return True
        return bool((self.graph.dist @ counts == self.distance_sums).all())
