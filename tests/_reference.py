"""Slow reference implementations the test suite trusts.

Everything here is written from the definitions, independent of the package
internals: plain-dict BFS, a Floyd-Warshall cube, and brute-force versions
of the potential and consistency computations.
"""

from collections import deque

import numpy as np


def bfs_dist(n, edges, source):
    """Hop distances from source as a list, -1 for unreachable."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def floyd_warshall(n, edges):
    """Dense distance cube by the classic triple loop; inf when unreachable."""
    big = float("inf")
    d = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = 1
        d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == big:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def brute_consistent(n, edges, q, reply):
    """Targets consistent with (query, reply), straight from the definition."""
    if reply == q:
        return [q]
    dq = bfs_dist(n, edges, q)
    dr = bfs_dist(n, edges, reply)
    return [v for v in range(n) if dq[v] == 1 + dr[v]]


def brute_phi(n, edges, omega, v):
    """Weighted sum of distances from v."""
    dv = bfs_dist(n, edges, v)
    return sum(dv[u] * omega[u] for u in range(n))


def brute_worst_branch(n, edges, omega, v):
    """Largest consistent-set weight over the truthful replies available at v."""
    nbrs = sorted({b if a == v else a for a, b in edges if v in (a, b)})
    best = 0.0
    for u in nbrs:
        keep = brute_consistent(n, edges, v, u)
        best = max(best, sum(omega[x] for x in keep))
    return best


def brute_median(n, edges, omega):
    """Lowest-id minimizer of the weighted distance sum."""
    vals = [brute_phi(n, edges, omega, v) for v in range(n)]
    return vals.index(min(vals))


def positive_weights(rng, n):
    """Random strictly positive weight vector, a mix of scales."""
    kind = rng.integers(0, 3)
    if kind == 0:
        w = rng.random(n) + 1e-3
    elif kind == 1:
        w = rng.exponential(1.0, n) + 1e-6
    else:
        w = 10.0 ** rng.uniform(-6, 2, n)
    return w


class FloatWeights:
    """The float weight update that WeightState's power table replaced:
    downweight multiplies each inconsistent weight by 1/gamma, renormalize
    divides by the sum and flushes entries below finfo.tiny to 0."""

    def __init__(self, n, gamma):
        self.gamma = gamma
        self.omega = np.full(n, 1.0 / n)
        self.lies = np.zeros(n, dtype=np.int64)

    @classmethod
    def uniform(cls, n, gamma):
        return cls(n, gamma)

    @property
    def total(self):
        return float(self.omega.sum())

    def downweight(self, consistent):
        out = ~consistent
        np.multiply(self.omega, 1.0 / self.gamma, out=self.omega, where=out)
        self.lies += out

    def renormalize(self):
        t = self.total
        self.omega /= t
        self.omega[self.omega < np.finfo(np.float64).tiny] = 0.0
        return t

    def answer(self):
        return int(np.argmin(self.lies))
