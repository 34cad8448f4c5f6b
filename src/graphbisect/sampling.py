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


def _draw(omega: np.ndarray, u: np.ndarray) -> tuple[int, np.ndarray | None, np.ndarray]:
    """Map uniform draws through the cumulative weight array: (h, rest, ids).

    When one vertex h holds more than half the weight, two comparisons
    send every scaled uniform in its cumulative interval [cumw[h-1],
    cumw[h]) to h, and only the others are searched: rest holds their
    positions in u and ids their vertex ids. Otherwise h is -1, rest is
    None and ids holds every draw's id. Either way an id is the one the
    plain search returns. u is scratch: it is scaled by the total in place.
    """
    cumw = np.cumsum(omega)
    x = np.multiply(u, cumw[-1], out=u)
    n = len(omega)
    h = int(np.argmax(omega))
    if not 2.0 * omega[h] > cumw[-1]:
        return -1, None, _search(cumw, x)
    # searchsorted(side="right") returns h exactly when cumw[h-1] <= x <
    # cumw[h], cumw being non-decreasing; past the last vertex the clip in
    # _search sends x >= cumw[-1] to n - 1 as well
    off = x < (cumw[h - 1] if h > 0 else -np.inf)
    off |= x >= (cumw[h] if h < n - 1 else np.inf)
    rest = np.flatnonzero(off)
    del off  # freed before the search's temporaries
    return h, rest, _search(cumw, x[rest])


def _search(cumw: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Binary search per draw, equivalent to merging sorted draws against
    one cumulative scan; the clip guards against x landing exactly on the
    total weight."""
    idx = np.searchsorted(cumw, x, side="right")
    return np.minimum(idx, len(cumw) - 1, out=idx).astype(np.int32)


def draw_indices_from(omega: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vertex ids of the uniform draws u, each drawn proportionally to omega.

    The inverse CDF, except that the draws onto a vertex holding more than
    half the weight are placed by two comparisons instead of a binary
    search (see _draw). u is scratch: it is scaled by the total in place.
    """
    h, rest, ids = _draw(omega, u)
    if rest is None:
        return ids
    out = np.full(len(u), h, dtype=np.int32)
    out[rest] = ids
    return out


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
        then one uniform per failed coin. Every step with an inconsistent
        member resamples, whatever the weights; a step with none draws
        nothing.

        A step costs O(n) plus O(1) per inconsistent member. A redraw
        costs a binary search over the n cumulative weights, except one
        that lands on a vertex holding more than half the weight: two
        comparisons place it (see _draw), and the members arriving at or
        leaving that vertex are counted by comparison, not bincount. The
        ids are the inverse CDF's either way. Coins and redraw uniforms go
        to one per-sample buffer; beyond it a step allocates one byte per
        member, the flags of the members to redraw, and about twenty per
        redrawn member, its position and its old and new ids.

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
        del fail  # freed before the positions are built
        pos = np.flatnonzero(redraw)
        del redraw  # freed before the draw's temporaries
        h, rest, ids = _draw(omega, draws)
        old = self.members[pos]
        if rest is None:
            self.members[pos] = ids
        else:
            self.members[pos] = h
            self.members[pos[rest]] = ids
        del pos  # freed before bincount copies the ids to intp
        delta = np.bincount(ids, minlength=n)
        if rest is not None:
            # members that leave h are counted by one comparison as well: on
            # a step that reweights h, most redraws leave it and land back
            old = old[old != h]
            # the draws that landed on h less the members that left it
            delta[h] += len(old) - len(ids)
        delta -= np.bincount(old, minlength=n)
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
