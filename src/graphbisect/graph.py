"""Undirected graph with precomputed hop distances, generators, and reply geometry.

Every search component works against the same immutable Graph value: adjacency
lists sorted ascending, a dense all-pairs distance matrix, and the consistency
predicate that says which vertices a (query, reply) pair keeps alive.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field

import numpy as np


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

    neighbors[v] holds v's neighbors as an ascending int32 array. dist
    holds hop counts for every pair in the narrowest signed type whose
    maximum exceeds the diameter (see _dist_dtype): one byte per pair up to
    D = 126, which covers the small-diameter graphs the search targets and
    cuts the memory traffic of the hot loops that stream distance rows.
    dist_float is the same matrix as float64 for full matvecs against
    weights or counts; it is lazy, built on first access and cached, so a
    graph whose searches never multiply by the whole matrix never pays for
    it.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[np.ndarray, ...] = field(repr=False)
    dist: np.ndarray = field(repr=False)
    diameter: int
    max_degree: int

    @functools.cached_property
    def dist_float(self) -> np.ndarray:
        # numpy casts an integer dist @ float64 to this same matrix before
        # its dgemv, so products against it are bitwise those against dist
        return self.dist.astype(np.float64)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])


def _csr(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Sorted compressed adjacency: the neighbors of v, ascending, are
    indices[indptr[v]:indptr[v + 1]]."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.lexsort((dst, src))].astype(np.int32)


# candidate distance dtypes, narrowest first
_DIST_DTYPES = (np.int8, np.int16, np.int32)


def _dist_dtype(diameter: int) -> np.dtype:
    """Narrowest signed dtype whose maximum exceeds `diameter`: int8 for
    D <= 126, int16 for D <= 32 766, int32 above. One value of headroom lets
    branch_masks form 1 + dist without overflow."""
    for t in _DIST_DTYPES:
        if diameter < np.iinfo(t).max:
            return np.dtype(t)
    raise ValueError(f"diameter {diameter} exceeds every distance dtype")


_BFS_BLOCK = 1024  # sources per bit-parallel BFS, 64 to a uint64 word
_UNPACK_ROWS = 256  # vertices per chunk when the bit planes become distances


def _slot_neighbors(n: int, edges) -> tuple[np.ndarray, list[np.ndarray]]:
    """Vertices relabelled by descending degree, neighbors listed by slot.

    Returns (rank, slots): rank[v] is v's new label, so the vertices with
    degree > k are the labels 0..len(slots[k]) - 1, and slots[k][i] is the
    label of the k-th neighbor of label i.
    """
    indptr, indices = _csr(n, edges)
    deg = np.diff(indptr)
    order = np.argsort(-deg, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    sdeg = deg[order]
    # counts[k]: how many vertices have degree > k, for k below the maximum
    counts = np.searchsorted(-sdeg, -np.arange(sdeg[0]), side="left")
    start = indptr[order]
    slots = [rank[indices[start[:c] + k]] for k, c in enumerate(counts.tolist())]
    return rank, slots


# byte j of _SPREAD[x] is bit j of x, for x in 0..255
_SPREAD = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).view("<u8").ravel()


def _unpack_planes(planes: np.ndarray, rows, b: int, dtype) -> np.ndarray:
    """Integers whose bit k is bit s of planes[k, v], one row per v in rows
    and one column per source bit s < b."""
    out = np.zeros((len(rows), b), dtype=dtype)
    for low in range(0, len(planes), 8):
        # eight planes at a time become one byte per source: each plane
        # byte spreads to eight bytes that hold its bits at bit position k
        acc = np.zeros((len(rows), planes.shape[-1] * 8), dtype=_SPREAD.dtype)
        for k, plane in enumerate(planes[low:low + 8]):
            spread = _SPREAD[plane[rows].astype("<u8", copy=False).view(np.uint8)]
            spread <<= np.uint64(k)
            acc |= spread
        out |= acc.view(np.uint8)[:, :b].astype(dtype) << low
    return out


def distance_matrix(n: int, edges) -> np.ndarray:
    """All-pairs hop distances via breadth-first search from every vertex.

    Raises DisconnectedGraphError(0, v) for the lowest vertex v unreachable
    from 0. The output dtype is _dist_dtype(diameter): the matrix starts as
    int8 and, when a block of sources reaches deeper than the current dtype
    allows, moves to the next wider one, copying only the columns already
    written, so the result depends on the diameter alone.

    Sources run in blocks of _BFS_BLOCK, one bit each in per-vertex uint64
    words, so one level of the search advances every source of the block:
    a vertex's next frontier is the OR of its neighbors' frontier words,
    less the sources that have already seen it. Bit k of d(s, v) is set
    exactly when v joins s's frontier at a level with bit k set, so the
    search ORs each level's new bits into those bit planes. A level costs
    O((n + m) * _BFS_BLOCK / 64) word operations, so the whole matrix costs
    O(D * (n + m) * n / 64) for diameter D: far below one queue-based BFS
    per source when D is small, above it on long paths and cycles. The
    planes are unpacked into the block's columns _UNPACK_ROWS vertices at
    a time (the matrix is symmetric), so no temporary grows with n * n.
    """
    if n <= 0:
        raise ValueError("graph needs at least one vertex")
    rank, slots = _slot_neighbors(n, edges)
    head, rest = (slots[0], slots[1:]) if slots else (rank[:0], [])
    out = np.empty((n, n), dtype=_dist_dtype(0))
    one = np.uint64(1)
    # One workspace serves every block: frontier, next frontier, gather
    # buffer, unseen sources, and one bit plane per bit of n - 1. Its
    # release (8 MB at n = 4096) also raises glibc's dynamic mmap and trim
    # thresholds past the ~1 MB per-step temporaries of Sample.resample;
    # below them the heap top is trimmed and faulted back in on every step
    # (2.1 M minor faults, +3 s in a full-tau local search on the 64 x 64
    # grid on a 2-core x86-64 machine).
    words = -(-min(n, _BFS_BLOCK) // 64)
    work = np.zeros((4 + (n - 1).bit_length(), n, words), dtype=np.uint64)
    frontier, nxt, buf, unseen = work[:4]
    planes = work[4:]
    for lo in range(0, n, _BFS_BLOCK):
        b = min(_BFS_BLOCK, n - lo)
        src = np.arange(b)
        frontier.fill(0)
        frontier[rank[lo:lo + b], src // 64] = one << (src % 64).astype(np.uint64)
        np.invert(frontier, out=unseen)
        level = 0
        while True:
            level += 1
            # labels from len(head) on have no neighbors
            np.take(frontier, head, axis=0, out=nxt[:len(head)], mode="clip")
            nxt[len(head):] = 0
            for nb in rest:
                c = len(nb)
                np.take(frontier, nb, axis=0, out=buf[:c], mode="clip")
                np.bitwise_or(nxt[:c], buf[:c], out=nxt[:c])
            np.bitwise_and(nxt, unseen, out=nxt)
            if not nxt.any():
                break
            np.bitwise_xor(unseen, nxt, out=unseen)
            for k in range(level.bit_length()):
                if level >> k & 1:
                    np.bitwise_or(planes[k], nxt, out=planes[k])
            frontier, nxt = nxt, frontier
        if lo == 0:
            # source 0 is bit 0 of word 0
            bad = (unseen[rank, 0] & one).astype(bool)
            if bad.any():
                raise DisconnectedGraphError(0, int(np.flatnonzero(bad)[0]))
        # the block's deepest level is level - 1
        need = _dist_dtype(level - 1)
        if need.itemsize > out.itemsize:
            wide = np.empty((n, n), dtype=need)
            wide[:, :lo] = out[:, :lo]
            out = wide
        used = planes[:(level - 1).bit_length()]
        for r in range(0, n, _UNPACK_ROWS):
            rows = rank[r:r + _UNPACK_ROWS]
            out[r:r + _UNPACK_ROWS, lo:lo + b] = _unpack_planes(used, rows, b, out.dtype)
        used.fill(0)
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
    indptr, indices = _csr(n, canon)
    return Graph(
        n=n,
        edges=tuple(canon),
        neighbors=tuple(np.split(indices, indptr[1:-1])),
        dist=dist,
        diameter=int(dist.max()),
        max_degree=int(np.diff(indptr).max()),
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
    """Boolean mask of targets consistent with hearing `reply` at query `q`.

    Raises ValueError unless `reply` is an integer vertex id that is q
    itself or one of its neighbors.
    """
    n = len(dist)
    if not isinstance(reply, (int, np.integer)) or not 0 <= reply < n:
        raise ValueError(f"reply {reply!r} is not a vertex id in [0, {n})")
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
