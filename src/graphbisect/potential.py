"""Exact weighted potentials: distance sums, reply-branch weights, medians.

These are pure functions of a vertex vector and a Graph, which owns the
distances; they stay free of the sampling machinery so the oracle, the
search loop and the verification suites share them. The vector is a weight
vector or a sample's member counts: the branch weight of a reply is the
vector's sum over the vertices that reply keeps consistent, which for
counts is the number of members it keeps. Full potentials read the whole
matrix through Graph.matvec, one float64 block at a time. The median
screens with one float32 product, and a bound on its rounding leaves only
near ties to exact_argbest, the one exact comparison of integer rows
against float weights, which the oracle's weight-steered replies share.
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


# unit roundoff and smallest subnormal of float32
_U32, _SUB32 = 2.0 ** -24, 2.0 ** -149
# rows per block of exact_argbest's class sums
_EXACT_ROWS = 64


def _gamma(k: int, u: float) -> float:
    """Relative error bound of a sum of k nonnegative rounded terms, in any
    order, at unit roundoff u: k u / (1 - k u) (Higham's gamma_k)."""
    return k * u / (1.0 - k * u)


def exact_argbest(rows: np.ndarray, x: np.ndarray, largest: bool = False) -> int:
    """Index of the row with the least exact sum row @ x, or the greatest
    when largest is set; the lowest index on ties.

    rows hold integers (hop counts or branch masks) and x finite floats.
    Grouping x by distinct value makes each sum a sum over the classes of
    value times the row's integer sum over that class, and every float is
    an integer over a power of two, so scaling the values by the largest
    of those denominators turns each sum into one Python integer: the
    comparison is exact, whatever order a BLAS would add in. The class sums
    are taken a block of rows at a time, so no wide copy of rows is made.
    """
    if not np.isfinite(x).all():
        raise ValueError("weights must be finite")
    order = np.argsort(x)
    values, starts = np.unique(x[order], return_index=True)
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    den = max(d for _, d in ratios)
    scaled = np.array([num * (den // d) for num, d in ratios], dtype=object)
    keys = np.empty(len(rows), dtype=object)
    for lo in range(0, len(rows), _EXACT_ROWS):
        block = rows[lo:lo + _EXACT_ROWS][:, order]
        sums = np.add.reduceat(block, starts, axis=1, dtype=np.int64)
        keys[lo:lo + len(sums)] = sums.astype(object) @ scaled
    return int(np.argmax(keys) if largest else np.argmin(keys))


def _survivors(phi32: np.ndarray, g: Graph) -> np.ndarray:
    """Vertices, ascending, whose exact weighted distance sum the float32
    screen phi32 = dist32 @ float32(omega) cannot place above the least.

    For nonnegative omega with exact sums phi, each screened entry is
    within r phi + a of phi: r = gamma_{n+2} at float32 precision covers
    the cast of omega, the n rounded terms and, with one term to spare,
    the float64 rounding of the bounds below; a = n (D + 1) 2**-149 covers
    the float32 underflow of weights and products. So the least exact sum
    is at most hi for the screen's least entry, and a vertex whose entry
    exceeds cut has an exact sum above hi. A non-finite screen rules
    nothing out.
    """
    if not np.isfinite(phi32).all():
        return np.arange(g.n)
    r, a = _gamma(g.n + 2, _U32), g.n * (g.diameter + 1) * _SUB32
    hi = (float(phi32.min()) + a) / (1.0 - r)
    return np.flatnonzero(phi32 <= np.float64(hi * (1.0 + r) + a))


def exact_median(omega: np.ndarray, g: Graph) -> int:
    """Lowest-id minimizer of the exact weighted distance sum, for finite
    nonnegative weights; ValueError for any other weight.

    One float32 product against g.dist32 screens every vertex, and the
    vertices its rounding bound cannot rule out (see _survivors) go to
    exact_argbest, so a tie is settled by the exact sums, never by the
    order a BLAS adds in.
    """
    # min is nan when any weight is
    if not 0 <= omega.min() <= omega.max() < np.inf:
        raise ValueError("median weights must be finite and nonnegative")
    # a weight past float32's range casts to inf, and 0 * inf to nan: the
    # screen then holds a non-finite entry and rules nothing out
    with np.errstate(over="ignore", invalid="ignore"):
        phi32 = g.dist32 @ omega.astype(np.float32)
    ids = _survivors(phi32, g)
    return int(ids[0] if len(ids) == 1 else ids[exact_argbest(g.rows(ids), omega)])


def branch_weights(x: np.ndarray, g: Graph, v: int) -> np.ndarray:
    """Sum of x over the vertices each neighbor of v keeps as a reply, in
    neighbor order; x is a weight vector or a sample's counts. The query
    vertex itself is never on a neighbor's branch.
    """
    return branch_masks(g, v, g.neighbors[v]) @ x


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
