"""Exact weighted potentials: distance sums, worst reply branches, medians.

These are pure functions of a weight vector and a distance matrix, kept free
of the sampling machinery so the oracle and the verification suites can use
them on their own.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, branch_masks


def phi(omega: np.ndarray, dist: np.ndarray, v: int) -> float:
    """Weighted sum of distances from v."""
    return float(dist[v] @ omega)


def phi_all(omega: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Weighted distance sums for every vertex at once."""
    return dist @ omega


def exact_median(omega: np.ndarray, dist: np.ndarray) -> int:
    """Lowest-id minimizer of the weighted distance sum."""
    return int(np.argmin(dist @ omega))


def branch_weights(omega: np.ndarray, g: Graph, dist: np.ndarray, v: int) -> np.ndarray:
    """Consistent-set weight for each reply neighbor of v, in neighbor order.

    The query vertex itself is never on any branch.
    """
    return branch_masks(dist, v, g.neighbors[v]) @ omega


def worst_branch_weight(omega: np.ndarray, g: Graph, dist: np.ndarray, v: int) -> float:
    """Largest weight a single reply at v can keep alive; 0 for an isolated root."""
    bw = branch_weights(omega, g, dist, v)
    return float(bw.max()) if len(bw) else 0.0


def is_near_median(
    omega: np.ndarray, g: Graph, dist: np.ndarray, v: int, slack: float
) -> bool:
    """True when every reply branch at v keeps at most (1/2 + slack) of the weight."""
    total = float(omega.sum())
    return worst_branch_weight(omega, g, dist, v) <= (0.5 + slack) * total


def heavy_vertex(omega: np.ndarray, slack: float) -> int | None:
    """The unique vertex holding more than (1/2 + slack) of the weight, if any."""
    i = int(np.argmax(omega))
    if omega[i] > (0.5 + slack) * float(omega.sum()):
        return i
    return None


def median_report(omega: np.ndarray, g: Graph) -> dict:
    """Per-vertex potentials plus the median and its bisection bound."""
    dist = g.dist
    phis = g.dist_float @ omega
    lambdas = np.array(
        [worst_branch_weight(omega, g, dist, v) for v in range(g.n)]
    )
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
