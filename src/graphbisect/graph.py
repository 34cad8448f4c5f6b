"""Undirected graph with precomputed hop distances, generators, and reply geometry.

Every search component works against the same immutable Graph value: adjacency
lists sorted ascending, a dense all-pairs distance matrix, and the consistency
predicate that says which vertices a (query, reply) pair keeps alive.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph


class DisconnectedGraphError(ValueError):
    """Raised when a graph has at least one unreachable vertex pair."""

    def __init__(self, u: int, v: int):
        self.unreachable_pair = (u, v)
        super().__init__(
            f"graph is disconnected: no path between vertices {u} and {v}"
        )


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph on vertices 0..n-1.

    dist holds hop counts for every pair; int16 is enough for any graph we
    build here (diameter < n <= 32000) and halves the memory traffic of the
    hot loops that stream distance rows.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[np.ndarray, ...] = field(repr=False)
    dist: np.ndarray = field(repr=False)
    diameter: int
    max_degree: int

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])


def _adjacency(n: int, edges) -> tuple[np.ndarray, ...]:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(np.array(sorted(a), dtype=np.int32) for a in nbrs)


_BFS_BLOCK = 256


def distance_matrix(n: int, edges) -> np.ndarray:
    """All-pairs hop distances via breadth-first search from every vertex.

    Raises DisconnectedGraphError naming one unreachable pair. Output dtype
    is int16 when it fits, int32 otherwise. Sources run in blocks of
    _BFS_BLOCK rows, so scipy's float64 result never exceeds one block.
    """
    if n <= 0:
        raise ValueError("graph needs at least one vertex")
    if n == 1:
        return np.zeros((1, 1), dtype=np.int16)
    rows = [e[0] for e in edges]
    cols = [e[1] for e in edges]
    data = np.ones(len(rows), dtype=np.int8)
    adj = scipy.sparse.csr_matrix(
        (np.concatenate([data, data]), (rows + cols, cols + rows)), shape=(n, n)
    )
    out = np.empty((n, n), dtype=np.int16 if n <= 32000 else np.int32)
    for lo in range(0, n, _BFS_BLOCK):
        block = np.arange(lo, min(lo + _BFS_BLOCK, n))
        d = scipy.sparse.csgraph.shortest_path(
            adj, method="D", unweighted=True, indices=block
        )
        if lo == 0:
            bad = np.isinf(d[0])
            if bad.any():
                raise DisconnectedGraphError(0, int(np.flatnonzero(bad)[0]))
        out[lo:lo + len(d)] = d
    return out


def build_graph(n: int, edges) -> Graph:
    """Validate an edge list and assemble a Graph with distances attached."""
    if n <= 0:
        raise ValueError("graph needs at least one vertex")
    seen = set()
    canon = []
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        canon.append(key)
    canon.sort()
    dist = distance_matrix(n, canon)
    nbrs = _adjacency(n, canon)
    deg = max((len(a) for a in nbrs), default=0)
    return Graph(
        n=n,
        edges=tuple(canon),
        neighbors=nbrs,
        dist=dist,
        diameter=int(dist.max()),
        max_degree=deg,
    )


def branch_masks(dist: np.ndarray, q: int, replies) -> np.ndarray:
    """Consistent-target masks at query q, one boolean row per reply.

    The row of reply q ("you are at the target") is the one-hot row of q.
    Any other reply claims the target is strictly closer through that
    neighbor: exactly the vertices one hop farther from q than from the
    reply, a set that never holds q itself. A single reply gives one row
    as a 1-D mask.
    """
    masks = dist[q] == 1 + dist[replies]
    masks[..., q] = np.equal(replies, q)
    return masks


def consistent_mask(dist: np.ndarray, q: int, reply: int) -> np.ndarray:
    """Boolean mask of targets consistent with hearing `reply` at query `q`."""
    if reply != q and dist[q, reply] != 1:
        raise ValueError(f"reply {reply} is neither query {q} nor a neighbor")
    return branch_masks(dist, q, reply)


def consistent_set(g: Graph, q: int, reply: int) -> np.ndarray:
    """Vertex ids consistent with (q, reply), ascending."""
    return np.flatnonzero(consistent_mask(g.dist, q, reply)).astype(np.int32)


# ---------------------------------------------------------------------------
# Generators. All are deterministic for a fixed seed; the random families
# retry until connected, consuming the generator stream sequentially.


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _cycle_edges(n):
    if n < 3:
        raise ValueError("cycle needs n >= 3 to stay simple")
    return _path_edges(n) + [(n - 1, 0)]


def _complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _grid_shape(n, params):
    if "rows" in params or "cols" in params:
        r = int(params.get("rows", 0))
        c = int(params.get("cols", 0))
        if r <= 0 or c <= 0 or r * c != n:
            raise ValueError(f"grid rows*cols must equal n={n}")
        return r, c
    r = int(math.isqrt(n))
    while n % r:
        r -= 1
    return r, n // r


def _grid_edges(n, params):
    r, c = _grid_shape(n, params)
    edges = []
    for i in range(r):
        for j in range(c):
            v = i * c + j
            if j + 1 < c:
                edges.append((v, v + 1))
            if i + 1 < r:
                edges.append((v, v + c))
    return edges


def _random_tree_edges(n, rng):
    if n <= 2:
        return _path_edges(n)
    # decode a uniform Pruefer sequence
    seq = rng.integers(0, n, size=n - 2)
    deg = np.ones(n, dtype=np.int64)
    for x in seq:
        deg[x] += 1
    edges = []
    leaves = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(x)))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, int(x))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _connected(n, edges) -> bool:
    if n == 1:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def _er_edges(n, p, rng):
    # skip-sampling over the upper triangle: geometric jumps touch only
    # the edges that exist, so large sparse graphs stay cheap
    edges = []
    if p <= 0:
        return edges
    if p >= 1:
        return _complete_edges(n)
    total = n * (n - 1) // 2
    idx = -1
    log_q = math.log1p(-p)
    while True:
        r = rng.random()
        idx += 1 + int(math.log(r) / log_q) if r > 0 else total
        if idx >= total:
            break
        # invert the row-major triangle index
        u = int((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * idx)) / 2)
        base = u * (2 * n - u - 1) // 2
        while base > idx:
            u -= 1
            base = u * (2 * n - u - 1) // 2
        while base + (n - u - 1) <= idx:
            base += n - u - 1
            u += 1
        v = u + 1 + (idx - base)
        edges.append((u, v))
    return edges


def _random_regular_edges(n, d, rng):
    # pairing model on n*d stubs, rejected until simple
    stubs = np.repeat(np.arange(n), d)
    for _ in range(500):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        ok = True
        seen = set()
        edges = []
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                ok = False
                break
            seen.add(key)
            edges.append(key)
        if ok:
            return edges
    raise RuntimeError(f"no simple {d}-regular pairing found for n={n}")


GRAPH_KINDS = (
    "path",
    "cycle",
    "complete",
    "grid",
    "random-tree",
    "erdos-renyi-connected",
    "random-regular",
)


def generate(kind: str, n: int, params: dict | None = None, seed: int = 0) -> Graph:
    """Build a named graph family member; random kinds retry until connected."""
    params = dict(params or {})
    if n <= 0:
        raise ValueError("graph needs at least one vertex")
    rng = np.random.default_rng(seed)
    if kind == "path":
        return build_graph(n, _path_edges(n))
    if kind == "cycle":
        return build_graph(n, _cycle_edges(n))
    if kind == "complete":
        return build_graph(n, _complete_edges(n))
    if kind == "grid":
        return build_graph(n, _grid_edges(n, params))
    if kind == "random-tree":
        return build_graph(n, _random_tree_edges(n, rng))
    if kind == "erdos-renyi-connected":
        p = float(params.get("p", min(1.0, 2.0 * math.log(max(n, 2)) / n)))
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability {p} outside [0, 1]")
        for _ in range(200):
            edges = _er_edges(n, p, rng)
            if _connected(n, edges):
                return build_graph(n, edges)
        raise RuntimeError(f"no connected G({n}, {p}) draw in 200 attempts")
    if kind == "random-regular":
        d = int(params.get("degree", 3))
        if d < 0 or d > n - 1:
            raise ValueError(f"degree {d} impossible for n={n}")
        if (n * d) % 2:
            raise ValueError(f"n*degree must be even, got n={n} d={d}")
        if d == 0:
            if n == 1:
                return build_graph(1, [])
            raise ValueError("degree 0 is disconnected for n > 1")
        for _ in range(200):
            edges = _random_regular_edges(n, d, rng)
            if _connected(n, edges):
                return build_graph(n, edges)
        raise RuntimeError(f"no connected {d}-regular graph for n={n}")
    raise ValueError(f"unknown graph kind {kind!r}; known: {GRAPH_KINDS}")


# ---------------------------------------------------------------------------
# Edge-list files: first line "n m", then one "u v" line per edge.


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def load_edge_list(path) -> Graph:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: expected a 'n m' header")
    n, m = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 2 * m:
        raise ValueError(f"{path}: header promises {m} edges, found {len(body) // 2}")
    edges = [(int(body[2 * i]), int(body[2 * i + 1])) for i in range(m)]
    return build_graph(n, edges)
