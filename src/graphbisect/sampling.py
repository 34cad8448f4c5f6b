"""Weighted vertex samples and their per-reply resampling.

A Sample is a positional array of vertex ids drawn independently with
probability proportional to the current weights, together with per-vertex
counts and, when it is drawn with a graph, integer distance sums that
stand in for the exact potential. Resampling keeps each member's marginal
equal to a fresh draw from the updated weights without redrawing the whole
sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph


def draw_indices_from(omega: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniform draws through the cumulative weight array.

    Binary search per draw, equivalent to merging sorted uniforms against
    one cumulative scan; the clip guards against u landing exactly on the
    total weight. u is scratch: it is scaled by the total in place.
    """
    cumw = np.cumsum(omega)
    idx = np.searchsorted(cumw, np.multiply(u, cumw[-1], out=u), side="right")
    return np.minimum(idx, len(omega) - 1, out=idx).astype(np.int32)


def _distance_sums(graph: Graph, x: np.ndarray) -> np.ndarray:
    """dist @ x for an integer vector x, exactly, as int64.

    A sparse x sums the few rows it touches (dist is symmetric). A dense
    one takes one BLAS matvec: against the cached float32 matrix while
    D * |x|_1 < 2**24, which bounds every product and partial sum, so each
    is an integer float32 holds exactly; otherwise through Graph.matvec in
    float64, exact since the sums stay far below 2**53. None casts the
    whole integer matrix to int64, as dist @ x would.
    """
    dist = graph.dist  # built first, so the diameter below is its max
    nz = np.flatnonzero(x)
    if len(nz) * 16 < len(x):
        return x[nz] @ dist[nz, :]
    if graph.diameter * int(np.abs(x).sum()) < 2**24:
        return (graph.dist32 @ x.astype(np.float32)).astype(np.int64)
    return graph.matvec(x).astype(np.int64)


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
    # per-member uniforms that resample reuses on every step
    _uniforms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._uniforms = np.empty(len(self.members), dtype=np.float64)

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
        then one uniform per failed coin. Both go to one per-sample buffer;
        beyond it a step allocates one byte per member, the flags of the
        members to redraw, and up to twenty per redrawn member, its
        position and new id.

        Tracked distance sums move by dist @ delta, the change in counts
        (see _distance_sums).
        """
        n = len(omega)
        n_inc = int(self.counts[~consistent].sum())
        if n_inc == 0:
            return 0
        coins = rng.random(out=self._uniforms[:n_inc])
        fail = coins >= 1.0 / gamma
        k = int(np.count_nonzero(fail))
        draws = rng.random(out=self._uniforms[:k])
        if k == 0:
            return 0
        # flag the inconsistent members, then keep the flags of those whose
        # coin failed: the positions to redraw, in positional order. The
        # fancy index casts the int32 ids in chunks; np.take would first
        # copy them all to intp, eight bytes a member.
        redraw = np.logical_not(consistent)[self.members]
        redraw[redraw] = fail
        pos = np.flatnonzero(redraw)
        del fail, redraw  # freed before the draw's temporaries
        new = draw_indices_from(omega, draws)
        old = self.members[pos]
        self.members[pos] = new
        del pos  # freed before bincount copies new and old to intp
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
