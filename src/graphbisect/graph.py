"""Undirected graph with hop distances, generators, and reply geometry.

Every search component works against the same immutable Graph value:
adjacency lists sorted ascending, hop distances read through one row
interface, and the consistency predicate that says which vertices a (query,
reply) pair keeps alive. Distance rows come from one bit-parallel BFS
engine: a search that reads a few rows (local search, the oracle) runs it
on just those sources, and a reader of the whole matrix (the exact median,
the global sample's sums) builds all n * n entries once.
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

    neighbors[v] holds v's neighbors as an ascending int32 array. Distances
    are read as rows: row(v) and rows(ids) return hop counts from v to
    every vertex. Until something reads the dense matrix, each row is
    computed on first request, the missing rows of one call in a single
    BFS run together with rows near them (see _fill), and cached, so a
    search holds only the rows around those it has read.

    dist, dist32 and diameter are built on first access and cached. dist
    holds hop counts for every pair in the narrowest signed type whose
    maximum exceeds the diameter (see _dist_dtype): one byte per pair up to
    D = 126. Building it checks every cached row against it, then drops
    the cache; from then on row and rows return its rows. dist32 is the
    same matrix as float32, four bytes per pair and exact for any hop
    count below 2**24, for full single-precision matvecs; matvec(x) is the
    float64 product dist @ x without a float64 copy of the matrix. The
    diameter comes from dist when it is built and otherwise from BFS runs
    over blocks of sources, so reading it never builds the n * n matrix.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[np.ndarray, ...] = field(repr=False)
    max_degree: int
    # rows read before the dense matrix exists, by source vertex
    _rows: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @functools.cached_property
    def dist(self) -> np.ndarray:
        d = distance_matrix(self.n, self._edge_array)
        for v, row in self._rows.items():
            if not np.array_equal(row, d[v]):
                raise RuntimeError(f"cached distance row {v} differs from the all-pairs matrix")
        self._rows.clear()
        return d

    @functools.cached_property
    def dist32(self) -> np.ndarray:
        return self.dist.astype(np.float32)

    @functools.cached_property
    def diameter(self) -> int:
        if "dist" in self.__dict__:
            return int(self.dist.max())
        n, edges = self.n, self._edge_array
        return max(
            int(distance_matrix(n, edges, range(lo, min(lo + _BFS_BLOCK, n))).max())
            for lo in range(0, n, _BFS_BLOCK)
        )

    @functools.cached_property
    def _matvec_buffer(self) -> np.ndarray:
        return np.empty((min(_MATVEC_ROWS, self.n), self.n), dtype=np.float64)

    def matvec(self, x) -> np.ndarray:
        """dist @ x in float64, a block of _MATVEC_ROWS rows at a time.

        Each block of dist is cast into one reusable float64 buffer and
        multiplied by one BLAS gemv, so every entry is the dot product of
        a whole row with x, exact for integer x whose sums stay below
        2**53, and no float64 copy of the matrix is made. For n a multiple
        of 64 it is bitwise dist @ x under OpenBLAS on one or two threads;
        at other n an entry can differ in the last bit, as dist @ x itself
        does between thread counts.
        """
        d = self.dist
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(self.n, dtype=np.float64)
        buf = self._matvec_buffer
        for lo in range(0, self.n, len(buf)):
            block = buf[:min(len(buf), self.n - lo)]
            np.copyto(block, d[lo:lo + len(block)])
            np.matmul(block, x, out=out[lo:lo + len(block)])
        return out

    @functools.cached_property
    def _edge_array(self) -> np.ndarray:
        return np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)

    def row(self, v: int) -> np.ndarray:
        """Hop distances from v to every vertex."""
        if "dist" in self.__dict__:
            return self.dist[v]
        v = int(v)
        self._fill([v])
        return self._rows[v]

    def rows(self, ids) -> np.ndarray:
        """Hop distances from each vertex of ids to every vertex, one row
        per id in order."""
        if "dist" in self.__dict__:
            return self.dist[ids]
        ids = [int(v) for v in ids]
        if not ids:
            return np.zeros((0, self.n), dtype=_DIST_DTYPES[0])
        self._fill(ids)
        return np.stack([self._rows[v] for v in ids])

    def _fill(self, ids: list[int]) -> None:
        """Cache the rows of ids not cached yet, all from one BFS run.

        The run holds one bit per source in uint64 words, and a word of
        sources costs about as much as one, so it also takes the uncached
        vertices nearest the missing ones, breadth first through the
        neighbor lists, until its last word is full: a local-search walk
        reads next the rows of the neighbors of the rows it just read.
        """
        cache = self._rows
        missing = [v for v in dict.fromkeys(ids) if v not in cache]
        if not missing:
            return
        full = -(-len(missing) // 64) * 64
        seen = set(missing)
        layer = missing
        while layer and len(missing) < full:
            nxt = []
            for v in layer:
                for u in self.neighbors[v].tolist():
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            layer = nxt
            missing += [u for u in layer if u not in cache][:full - len(missing)]
        block = distance_matrix(self.n, self._edge_array, missing)
        cache.update(zip(missing, block))

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
_MATVEC_ROWS = 64  # rows of dist per float64 block in Graph.matvec
_UNPACK_ROWS = 256  # least vertices per chunk when the bit planes become distances
_UNPACK_WORDS = 1024  # plane words per chunk when a block has few sources


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


def _unpack_planes(planes: np.ndarray, rows, b: int, dtype) -> np.ndarray:
    """Integers whose bit k is bit s of planes[k, v], one row per v in rows
    and one column per source bit s < b."""
    out = np.zeros((len(rows), b), dtype=dtype)
    for k, plane in enumerate(planes):
        # little-endian words put source bit s at bit s % 8 of byte s // 8
        # on any machine
        words = plane[rows].astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(words, axis=1, count=b, bitorder="little")
        # times 2**k puts the bits at bit k, several times faster than a
        # shift on 8-bit integers
        out |= np.multiply(bits, 1 << k, dtype=dtype)
    return out


def distance_matrix(n: int, edges, sources=None) -> np.ndarray:
    """Hop distances by breadth-first search: row i holds the distances
    from sources[i] to every vertex.

    sources are distinct vertex ids and default to every vertex in order,
    which gives the symmetric all-pairs matrix. Raises DisconnectedGraphError(sources[0], v) for the
    lowest vertex v unreachable from the first source. The output dtype is
    _dist_dtype of the deepest distance found: the result starts as int8
    and, when a block of sources reaches deeper than the current dtype
    allows, moves to the next wider one, copying only the distances
    already written, so the all-pairs dtype depends on the diameter alone.

    Sources run in blocks of _BFS_BLOCK, one bit each in per-vertex uint64
    words, so one level of the search advances every source of the block:
    a vertex's next frontier is the OR of its neighbors' frontier words,
    less the sources that have already seen it. Bit k of d(s, v) is set
    exactly when v joins s's frontier at a level with bit k set, so the
    search ORs each level's new bits into those bit planes. A level costs
    O((n + m) * _BFS_BLOCK / 64) word operations, so the whole matrix costs
    O(D * (n + m) * n / 64) for diameter D: far below one queue-based BFS
    per source when D is small, above it on long paths and cycles. numpy's
    unpackbits turns the planes into distances one plane and one chunk of
    vertices at a time, so no temporary grows with n * n.
    """
    if n <= 0:
        raise ValueError("graph needs at least one vertex")
    all_pairs = sources is None
    sources = np.arange(n) if all_pairs else np.asarray(sources, dtype=np.intp)
    k = len(sources)
    rank, slots = _slot_neighbors(n, edges)
    head, rest = (slots[0], slots[1:]) if slots else (rank[:0], [])
    out = np.empty((k, n), dtype=_dist_dtype(0))
    # cols[v, i] is d(sources[i], v): a block of sources fills columns of
    # it. The all-pairs matrix is symmetric and serves as its own cols,
    # which keeps every write contiguous.
    cols = out if all_pairs else out.T
    one = np.uint64(1)
    # One workspace serves every block: frontier, next frontier, gather
    # buffer, unseen sources, and one bit plane per bit of n - 1
    words = -(-min(k, _BFS_BLOCK) // 64)
    work = np.zeros((4 + (n - 1).bit_length(), n, words), dtype=np.uint64)
    frontier, nxt, buf, unseen = work[:4]
    planes = work[4:]
    # vertices per unpacked chunk: more when the block has few sources and
    # a vertex holds few bits, but few enough that the chunk's temporaries
    # (one plane's words, its bits unpacked one byte per source and their
    # product in the output dtype: 64 KB each for the bits of a one-word
    # int8 block) stay small next to the workspace; larger ones are
    # trimmed from the heap and faulted back in on every call
    chunk = max(_UNPACK_ROWS, _UNPACK_WORDS // words)
    for lo in range(0, k, _BFS_BLOCK):
        b = min(_BFS_BLOCK, k - lo)
        src = np.arange(b)
        frontier.fill(0)
        frontier[rank[sources[lo:lo + b]], src // 64] = one << (src % 64).astype(np.uint64)
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
            for j in range(level.bit_length()):
                if level >> j & 1:
                    np.bitwise_or(planes[j], nxt, out=planes[j])
            frontier, nxt = nxt, frontier
        if lo == 0:
            # the first source is bit 0 of word 0
            bad = (unseen[rank, 0] & one).astype(bool)
            if bad.any():
                raise DisconnectedGraphError(int(sources[0]), int(np.flatnonzero(bad)[0]))
        # the block's deepest level is level - 1
        need = _dist_dtype(level - 1)
        if need.itemsize > out.itemsize:
            wide = np.empty((k, n), dtype=need)
            wide_cols = wide if all_pairs else wide.T
            wide_cols[:, :lo] = cols[:, :lo]
            out, cols = wide, wide_cols
        used = planes[:(level - 1).bit_length()]
        for r in range(0, n, chunk):
            rows = rank[r:r + chunk]
            cols[r:r + chunk, lo:lo + b] = _unpack_planes(used, rows, b, out.dtype)
        used.fill(0)
    return out


def build_graph(n: int, edges) -> Graph:
    """Validate an edge list and assemble a Graph.

    Connectivity is checked by one BFS from vertex 0, whose row the graph
    keeps; every other distance is left for the first reader.
    """
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
    indptr, indices = _csr(n, canon)
    g = Graph(
        n=n,
        edges=tuple(canon),
        neighbors=tuple(np.split(indices, indptr[1:-1])),
        max_degree=int(np.diff(indptr).max()),
    )
    g._rows[0] = distance_matrix(n, g._edge_array, [0])[0]
    return g


def branch_masks(g: Graph, q: int, replies) -> np.ndarray:
    """Consistent-target masks at query q, one boolean row per reply.

    The row of reply q ("you are at the target") is the one-hot row of q.
    Any other reply claims the target is strictly closer through that
    neighbor: exactly the vertices one hop farther from q than from the
    reply, a set that never holds q itself. A single reply gives one row
    as a 1-D mask.
    """
    near = g.row(replies) if np.ndim(replies) == 0 else g.rows(replies)
    masks = g.row(q) == 1 + near
    masks[..., q] = np.equal(replies, q)
    return masks


def consistent_mask(g: Graph, q: int, reply: int) -> np.ndarray:
    """Boolean mask of targets consistent with hearing `reply` at query `q`.

    Raises ValueError unless `reply` is an integer vertex id, not a bool,
    that is q itself or one of its neighbors.
    """
    n = g.n
    ok = isinstance(reply, (int, np.integer)) and not isinstance(reply, bool)
    if not ok or not 0 <= reply < n:
        raise ValueError(f"reply {reply!r} is not a vertex id in [0, {n})")
    if reply != q and reply not in g.neighbors[q]:
        raise ValueError(f"reply {reply} is neither query {q} nor a neighbor")
    return branch_masks(g, q, reply)


def consistent_set(g: Graph, q: int, reply: int) -> np.ndarray:
    """Vertex ids consistent with (q, reply), ascending."""
    return np.flatnonzero(consistent_mask(g, q, reply)).astype(np.int32)


# ---------------------------------------------------------------------------
# Generators. Each kind is an edge draw, (n, params, rng) -> edges, that
# generate repeats on one seeded generator until the graph is connected.


def _path_edges(n, params, rng):
    return [(i, i + 1) for i in range(n - 1)]


def _cycle_edges(n, params, rng):
    if n < 3:
        raise ValueError("cycle needs n >= 3 to stay simple")
    return _path_edges(n, params, rng) + [(n - 1, 0)]


def _complete_edges(n, params, rng):
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


def _grid_edges(n, params, rng):
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


def _random_tree_edges(n, params, rng):
    if n <= 2:
        return _path_edges(n, params, rng)
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


def _er_edges(n, params, rng):
    p = float(params.get("p", min(1.0, 2.0 * math.log(max(n, 2)) / n)))
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    # skip-sampling over the upper triangle: geometric jumps touch only
    # the edges that exist, so large sparse graphs stay cheap
    edges = []
    if p <= 0:
        return edges
    if p >= 1:
        return _complete_edges(n, params, rng)
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


def _random_regular_edges(n, params, rng):
    d = int(params.get("degree", 3))
    if d < 0 or d > n - 1:
        raise ValueError(f"degree {d} impossible for n={n}")
    if (n * d) % 2:
        raise ValueError(f"n*degree must be even, got n={n} d={d}")
    # checked here, as no redraw can connect it
    if d == 0 and n > 1:
        raise ValueError("degree 0 is disconnected for n > 1")
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


# each graph kind: the params keys it reads and its edge draw
_KINDS = {
    "path": ((), _path_edges),
    "cycle": ((), _cycle_edges),
    "complete": ((), _complete_edges),
    "grid": (("rows", "cols"), _grid_edges),
    "random-tree": ((), _random_tree_edges),
    "erdos-renyi-connected": (("p",), _er_edges),
    "random-regular": (("degree",), _random_regular_edges),
}
GRAPH_KINDS = tuple(_KINDS)


def generate(kind: str, n: int, params: dict | None = None, seed: int = 0) -> Graph:
    """Build a named graph family member, deterministic for a fixed seed.

    Every kind draws its edges from one generator seeded with seed until
    the graph is connected, at most 200 times; path, cycle, complete, grid
    and random tree are connected on their first draw. Raises ValueError
    for an unknown kind, params that are not a dict, a params key the kind
    does not read or params it cannot draw from, and RuntimeError when
    every draw is disconnected.
    """
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ValueError(f"params must be a dict, got {type(params).__name__}")
    if kind not in _KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; known: {GRAPH_KINDS}")
    keys, draw = _KINDS[kind]
    unread = sorted(set(params) - set(keys))
    if unread:
        raise ValueError(f"{kind} does not read params {unread}; it reads {list(keys)}")
    if n <= 0:
        raise ValueError("graph needs at least one vertex")
    rng = np.random.default_rng(seed)
    for _ in range(200):
        edges = draw(n, params, rng)
        try:
            return build_graph(n, edges)
        except DisconnectedGraphError:
            pass
    raise RuntimeError(f"no connected {kind} graph on {n} vertices in 200 draws")


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
