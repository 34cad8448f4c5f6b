"""Exact weighted potentials: distance sums, reply-branch weights, medians.

These are pure functions of a vertex vector and a Graph, which owns the
distances; they stay free of the sampling machinery so the oracle, the
search loop and the verification suites share them. The vector is a weight
vector or a sample's member counts: the branch weight of a reply is the
vector's sum over the vertices that reply keeps consistent, which for
counts is the number of members it keeps. Full potentials read the whole
matrix through Graph.matvec, one float64 block at a time; the median first
screens with one float32 product and proves its answer from a bound on the
rounding (see _certified_argmin).
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, branch_masks


def phi(omega: np.ndarray, g: Graph, v: int) -> float:
    """Weighted sum of distances from v."""
    return float(g.row(v) @ omega)


def phi_all(omega: np.ndarray, g: Graph) -> np.ndarray:
    """Weighted distance sums for every vertex at once."""
    return g.matvec(omega)


# unit roundoff and smallest subnormal of float32 and of float64
_U32, _SUB32 = 2.0 ** -24, 2.0 ** -149
_U64, _SUB64 = 2.0 ** -53, 2.0 ** -1074


def _gamma(k: int, u: float) -> float:
    """Relative error bound of a sum of k nonnegative rounded terms, in any
    order, at unit roundoff u: k u / (1 - k u) (Higham's gamma_k)."""
    return k * u / (1.0 - k * u)


def _certified_argmin(phi32: np.ndarray, g: Graph) -> int | None:
    """The argmin of the float64 product dist @ omega, proved from the
    float32 screen phi32 = dist32 @ float32(omega); None when undecided.

    For nonnegative omega with exact sums phi, each screened entry is
    within r phi + a of phi: r = gamma_{n+2} at float32 precision covers
    the cast of omega, the n rounded terms and, with one term to spare,
    the float64 rounding of the bounds below; a = n (D + 1) 2**-149 covers
    the float32 underflow of weights and products. The float64 product P
    is in turn within r64 phi + a64 of phi. So P(c) <= hi for the screen's
    argmin c, and a vertex whose screened entry exceeds cut has P above
    hi. When c is the only vertex at or below cut, P is lowest at c alone
    and c is what np.argmin(dist @ omega) returns. A tie, a near tie or a
    non-finite entry leaves it undecided.
    """
    if not np.isfinite(phi32.sum()):
        return None
    n, c = g.n, int(np.argmin(phi32))
    r, a = _gamma(n + 2, _U32), n * (g.diameter + 1) * _SUB32
    r64, a64 = _gamma(n + 1, _U64), n * _SUB64
    hi = (float(phi32[c]) + a) / (1.0 - r) * (1.0 + r64) + a64
    cut = (hi + a64) * (1.0 + r) / (1.0 - r64) + a
    return c if np.count_nonzero(phi32 <= np.float64(cut)) == 1 else None


def exact_median(omega: np.ndarray, g: Graph) -> int:
    """Lowest-id minimizer of the weighted distance sum, for nonnegative
    weights, exactly as np.argmin(dist @ omega) picks it.

    One float32 product against g.dist32 screens every vertex, and
    _certified_argmin proves its answer is the float64 one. A tie, a near
    tie, a non-finite screen or a negative weight falls back to the float64
    product itself, which numpy forms by casting dist to a temporary
    float64 matrix: Graph.matvec would avoid that copy, but a threaded BLAS
    can round a row in its last bit differently there, and that bit
    decides ties.
    """
    # a weight past float32's range casts to inf, and 0 * inf to nan: the
    # screen then holds a non-finite entry and leaves the median undecided
    with np.errstate(over="ignore", invalid="ignore"):
        phi32 = g.dist32 @ omega.astype(np.float32)
    c = _certified_argmin(phi32, g) if omega.min() >= 0 else None
    return int(np.argmin(g.dist @ omega)) if c is None else c


def branch_weights(
    x: np.ndarray, g: Graph, v: int, replies: np.ndarray | None = None
) -> np.ndarray:
    """Sum of x over the vertices each reply at v keeps, in reply order.

    replies are v itself or its neighbors and default to every neighbor of
    v; x is a weight vector or a sample's counts. The query vertex itself
    is never on a neighbor's branch.
    """
    if replies is None:
        replies = g.neighbors[v]
    return branch_masks(g, v, replies) @ x


def worst_branch_weight(x: np.ndarray, g: Graph, v: int) -> float:
    """Largest weight a single reply at v can keep alive; 0 for an isolated root."""
    bw = branch_weights(x, g, v)
    return float(bw.max()) if len(bw) else 0.0


def is_near_median(omega: np.ndarray, g: Graph, v: int, slack: float) -> bool:
    """True when every reply branch at v keeps at most (1/2 + slack) of the weight."""
    total = float(omega.sum())
    return worst_branch_weight(omega, g, v) <= (0.5 + slack) * total


def heavy_vertex(omega: np.ndarray, slack: float) -> int | None:
    """The unique vertex holding more than (1/2 + slack) of the weight, if any."""
    i = int(np.argmax(omega))
    if omega[i] > (0.5 + slack) * float(omega.sum()):
        return i
    return None


def median_report(omega: np.ndarray, g: Graph) -> dict:
    """Per-vertex potentials plus the median and its bisection bound."""
    phis = phi_all(omega, g)
    lambdas = np.array([worst_branch_weight(omega, g, v) for v in range(g.n)])
    med = exact_median(omega, g)
    total = float(omega.sum())
    return {
        "phi": phis,
        "lambda": lambdas,
        "median": med,
        "total_weight": total,
        "median_lambda": float(lambdas[med]),
        "half_weight": 0.5 * total,
        "bisection_holds": bool(lambdas[med] <= 0.5 * total * (1 + 1e-12)),
    }
