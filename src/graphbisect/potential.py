"""Exact weighted potentials: distance sums, reply-branch weights, medians.

These are pure functions of a vertex vector and a Graph, which owns the
distances; they stay free of the sampling machinery so the oracle, the
search loop and the verification suites share them. The vector is a weight
vector or a sample's member counts: the branch weight of a reply is the
vector's sum over the vertices that reply keeps consistent, which for
counts is the number of members it keeps. Full potentials multiply by the
graph's float64 matrix, whose products are bitwise those against the
integer one.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, branch_masks


def phi(omega: np.ndarray, g: Graph, v: int) -> float:
    """Weighted sum of distances from v."""
    return float(g.row(v) @ omega)


def phi_all(omega: np.ndarray, g: Graph) -> np.ndarray:
    """Weighted distance sums for every vertex at once."""
    return g.dist_float @ omega


def exact_median(omega: np.ndarray, g: Graph) -> int:
    """Lowest-id minimizer of the weighted distance sum."""
    return int(np.argmin(g.dist_float @ omega))


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
    med = int(np.argmin(phis))
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
