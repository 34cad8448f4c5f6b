"""Output checks for the benchmark, computed apart from the program.

Nothing here imports graphbisect. Distances come from the benchmark's own
breadth-first search over the graph's edge list, or from the closed form
|drow| + |dcol| on a grid, and every transcript is replayed against them.
A check that fails raises CheckFailed; a search whose answer is not the
target is a failed search, not a failed check.
"""

from __future__ import annotations

import numpy as np

# weight totals are running float sums; this is rounding, not a real rise
_REL_TOL = 1e-9

SAMPLED_POLICIES = ("global-sampled", "local-search")


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's own computation."""


def grid_edges(rows: int, cols: int) -> set[tuple[int, int]]:
    """Edge set of the rows x cols grid with vertex i*cols + j, (u < v) pairs."""
    edges = set()
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.add((v, v + 1))
            if i + 1 < rows:
                edges.add((v, v + cols))
    return edges


class ReferenceDistances:
    """Hop-distance rows, each computed once on demand.

    On a grid the row of v is |row(v) - row(u)| + |col(v) - col(u)|, and the
    edge list is checked to be that grid. Otherwise rows come from BFS over
    a dense boolean adjacency built from the edge list.
    """

    def __init__(self, n: int, edges, grid: tuple[int, int] | None = None):
        self.n = n
        self.edges = {(min(u, v), max(u, v)) for u, v in edges}
        self.grid = grid
        self._rows: dict[int, np.ndarray] = {}
        if grid is not None:
            rows, cols = grid
            if rows * cols != n or self.edges != grid_edges(rows, cols):
                raise CheckFailed(f"edge list is not the {rows} x {cols} grid")
            ids = np.arange(n)
            self._r, self._c = ids // cols, ids % cols
        else:
            self._adj = np.zeros((n, n), dtype=bool)
            for u, v in self.edges:
                self._adj[u, v] = self._adj[v, u] = True

    def row(self, v: int) -> np.ndarray:
        v = int(v)
        row = self._rows.get(v)
        if row is None:
            row = self._grid_row(v) if self.grid is not None else self._bfs_row(v)
            self._rows[v] = row
        return row

    def _grid_row(self, v: int) -> np.ndarray:
        return (np.abs(self._r - self._r[v]) + np.abs(self._c - self._c[v])).astype(np.int32)

    def _bfs_row(self, v: int) -> np.ndarray:
        d = np.full(self.n, -1, dtype=np.int32)
        d[v] = 0
        frontier = np.array([v])
        level = 0
        while frontier.size:
            level += 1
            nxt = self._adj[frontier].any(axis=0) & (d < 0)
            d[nxt] = level
            frontier = np.flatnonzero(nxt)
        if (d < 0).any():
            raise CheckFailed(f"vertex {int(np.argmin(d))} is unreachable from {v}")
        return d


def check_replies(ref: ReferenceDistances, queries, replies) -> None:
    """Every reply is the query itself or an edge-list neighbour of it."""
    for step, (q, r) in enumerate(zip(queries.tolist(), replies.tolist())):
        if r != q and (min(q, r), max(q, r)) not in ref.edges:
            raise CheckFailed(f"step {step}: reply {r} is neither query {q} nor a neighbour")


def check_rows(dist: np.ndarray, ref: ReferenceDistances, vertices) -> None:
    """The program's distance row equals the reference row for each vertex."""
    for v in vertices:
        if not np.array_equal(dist[v], ref.row(v)):
            raise CheckFailed(f"distance row of vertex {int(v)} differs from the reference")


def replay_lies(ref: ReferenceDistances, queries, replies) -> np.ndarray:
    """Lies charged to each vertex by replaying the (query, reply) pairs.

    A reply r != q keeps exactly the vertices v with d(q, v) = 1 + d(r, v);
    a reply equal to q keeps q alone. Every other vertex is charged a lie.
    """
    lies = np.zeros(ref.n, dtype=np.int64)
    for q, r in zip(queries.tolist(), replies.tolist()):
        if r == q:
            lies += 1
            lies[q] -= 1
        else:
            lies += ref.row(q) != 1 + ref.row(r)
    return lies


def off_path_replies(ref: ReferenceDistances, target: int, queries, replies) -> int:
    """Replies that start no shortest path from the query to the target."""
    to_target = ref.row(target)
    q = np.asarray(queries, dtype=np.int64)
    r = np.asarray(replies, dtype=np.int64)
    honest = np.where(r == q, q == target, to_target[r] == to_target[q] - 1)
    return int((~honest).sum())


def check_weights(weight_before, weight_after, gamma: float) -> None:
    """weight_before / gamma <= weight_after <= weight_before on every step."""
    hi = weight_after > weight_before * (1 + _REL_TOL)
    lo = weight_after < weight_before / gamma * (1 - _REL_TOL)
    bad = np.flatnonzero(hi | lo)
    if bad.size:
        s = int(bad[0])
        raise CheckFailed(
            f"step {s}: weight went {weight_before[s]!r} -> {weight_after[s]!r}, "
            f"outside [before / {gamma}, before]"
        )


def check_walks(start_sums, end_sums) -> None:
    """A local-search walk never ends higher than it started."""
    bad = np.flatnonzero(end_sums > start_sums)
    if bad.size:
        s = int(bad[0])
        raise CheckFailed(f"step {s}: walk rose from {start_sums[s]} to {end_sums[s]}")


def check_redraws(resampled, sample_size: int) -> None:
    """Each step redraws between 0 and s members."""
    bad = np.flatnonzero((resampled < 0) | (resampled > sample_size))
    if bad.size:
        s = int(bad[0])
        raise CheckFailed(f"step {s}: {resampled[s]} members redrawn, sample holds {sample_size}")


def check_search(t, dist: np.ndarray, ref: ReferenceDistances, oracle) -> bool:
    """Check one transcript and its oracle; True when the answer is the target.

    `t` is a SearchTranscript, `dist` the graph's distance matrix as the
    program holds it, and `oracle` the oracle that answered the search:
    one with `errors_made` (noisy) or with `lies_spent` and `budget`
    (adversarial).
    """
    cfg = t.config
    q, r = t.queries, t.replies
    if t.num_steps != cfg.num_queries:
        raise CheckFailed(f"{t.num_steps} steps run, tau is {cfg.num_queries}")
    check_replies(ref, q, r)
    check_rows(dist, ref, np.unique(np.concatenate([q, r, [t.target]])))

    lies = replay_lies(ref, q, r)
    if int(np.argmin(lies)) != t.answer:
        raise CheckFailed(f"answer {t.answer}, replayed fewest-lies vertex {int(np.argmin(lies))}")
    off_path = off_path_replies(ref, t.target, q, r)
    if lies[t.target] != off_path:
        raise CheckFailed(f"target charged {lies[t.target]} lies, {off_path} replies off path")
    if hasattr(oracle, "lies_spent"):
        if off_path != oracle.lies_spent or oracle.lies_spent > oracle.budget:
            raise CheckFailed(
                f"{off_path} replies off path, adversary spent {oracle.lies_spent} "
                f"of {oracle.budget}"
            )
    elif off_path > oracle.errors_made:
        raise CheckFailed(f"{off_path} replies off path, oracle made {oracle.errors_made} errors")

    check_weights(t.weight_before, t.weight_after, cfg.gamma)
    if cfg.policy == "local-search":
        check_walks(t.search_start_sums, t.search_end_sums)
    if cfg.policy in SAMPLED_POLICIES:
        check_redraws(t.resampled, cfg.sample_size)
    success = t.answer == t.target
    if t.success != success:
        raise CheckFailed(f"transcript says success={t.success}, answer {t.answer}, target {t.target}")
    return success
