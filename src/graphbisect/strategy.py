"""Search strategies: parameter derivation and the query loop.

Three interchangeable query policies sit on one multiplicative-weights
loop: exact-median reads the true weighted median each step, the sampled
policies approximate it through a weighted sample, either by a global
scan of the sampled potential or by a local walk from the previous query.
The answer after the final step is the vertex charged the fewest lies.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import Graph, consistent_mask
from .potential import exact_median, heavy_vertex, is_near_median, worst_branch_weight
from .sampling import Sample
from .weights import WeightState

POLICIES = ("exact-median", "global-sampled", "local-search")

# eta is capped just under 1/8: beyond that the update rule stops gaining
# from extra advantage, and every bound below assumes the cap
ETA_CAP = 0.124


class SearchProtocolError(RuntimeError):
    """An oracle reply broke the query protocol."""


@dataclass(frozen=True)
class StrategyConfig:
    """All run constants, fixed before the first query."""

    epsilon: float  # oracle advantage over a fair coin, 1/2 - p
    noise_p: float  # i.i.d. error probability
    eta: float  # per-step weight decay rate, min(epsilon/2, ETA_CAP)
    error_rate: float  # tolerated lie fraction, 1/2 - eta
    slack: float  # near-median tolerance, eta/4
    gamma: float  # penalty divisor for inconsistent vertices, 1/(1-4*eta)
    num_queries: int  # query budget
    sample_size: int  # members per weighted sample
    margin: float  # slack * sample_size, the local-search stopping gap
    policy: str
    seed: int
    scale_queries: float = 1.0
    scale_sample: float = 1.0


def derive_config(
    epsilon: float,
    n: int,
    policy: str,
    seed: int = 0,
    scale_queries: float = 1.0,
    scale_sample: float = 1.0,
) -> StrategyConfig:
    """Turn an oracle advantage and graph size into run constants.

    num_queries grows like 10 log2(n)/eta^2 and sample_size like
    8 ln(n)/slack^2, both rounded up; the optional scale factors are for
    desk experiments only and default to 1.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"advantage must lie in (0, 1/2], got {epsilon}")
    if policy not in POLICIES:
        raise ValueError(f"policy {policy!r} not one of {POLICIES}")
    if n < 1:
        raise ValueError("graph size must be positive")
    if scale_queries <= 0 or scale_sample <= 0:
        raise ValueError("scale factors must be positive")
    eta = min(epsilon / 2.0, ETA_CAP)
    slack = eta / 4.0
    gamma = 1.0 / (1.0 - 4.0 * eta)
    tau = math.ceil(10.0 * math.log2(n) / (eta * eta) * scale_queries)
    size = max(1, math.ceil(8.0 * math.log(n) / (slack * slack) * scale_sample))
    return StrategyConfig(
        epsilon=epsilon,
        noise_p=0.5 - epsilon,
        eta=eta,
        error_rate=0.5 - eta,
        slack=slack,
        gamma=gamma,
        num_queries=tau,
        sample_size=size,
        margin=slack * size,
        policy=policy,
        seed=seed,
        scale_queries=scale_queries,
        scale_sample=scale_sample,
    )


@dataclass
class SearchTranscript:
    """Column-oriented record of one run; row t describes step t."""

    config: StrategyConfig
    n: int
    target: int
    queries: np.ndarray  # int32 queried vertex
    replies: np.ndarray  # int32 oracle reply
    reply_errors: np.ndarray  # int8, 1 error / 0 honest / -1 undisclosed
    resampled: np.ndarray  # int32 members redrawn this step
    search_iterations: np.ndarray  # int32, 0 unless local-search
    search_start_sums: np.ndarray  # int64 sampled potential at walk start, -1 n/a
    search_end_sums: np.ndarray  # int64 sampled potential at walk end, -1 n/a
    weight_before: np.ndarray  # float64 total weight entering the step
    weight_after: np.ndarray  # float64 total weight after the update
    heavy_before: np.ndarray  # int32 heavy vertex entering the step, -1 none
    query_near_median: np.ndarray  # int8, 1/0, -1 when not evaluated
    branch_bound_ok: np.ndarray  # int8 local-search output bound check, -1 n/a
    step_seconds: np.ndarray  # float64 wall time per step
    answer: int
    success: bool
    sums_checked: int = 0
    sums_mismatches: int = 0

    @classmethod
    def allocate(
        cls, config: StrategyConfig, n: int, target: int, steps: int
    ) -> "SearchTranscript":
        """A transcript with every column sized for `steps` steps, each at its
        not-recorded value, and no answer yet."""
        zeros = lambda dt: np.zeros(steps, dtype=dt)
        unset = lambda dt: np.full(steps, -1, dtype=dt)
        return cls(
            config=config, n=n, target=target,
            queries=zeros(np.int32), replies=zeros(np.int32),
            reply_errors=unset(np.int8), resampled=zeros(np.int32),
            search_iterations=zeros(np.int32),
            search_start_sums=unset(np.int64), search_end_sums=unset(np.int64),
            weight_before=zeros(np.float64), weight_after=zeros(np.float64),
            heavy_before=unset(np.int32), query_near_median=unset(np.int8),
            branch_bound_ok=unset(np.int8), step_seconds=zeros(np.float64),
            answer=-1, success=False,
        )

    @property
    def num_steps(self) -> int:
        return len(self.queries)


def select_query_global(sample: Sample) -> int:
    """Lowest-id minimizer of the sampled potential."""
    return int(np.argmin(sample.distance_sums))


def local_search(
    sample: Sample, g: Graph, start: int, margin: float
) -> tuple[int, int, int, int]:
    """Greedy descent on the sampled potential from `start`.

    Moves to the best neighbor while that improves the potential by more
    than `margin`; stops otherwise. Returns (vertex, iterations, potential
    at start, potential at the returned vertex). Every returned vertex has
    no neighbor better by margin or more.
    """
    dist = g.dist
    counts = sample.counts
    v = start
    phi_v = int(dist[v] @ counts)
    phi_first = phi_v
    iters = 0
    while True:
        iters += 1
        nbrs = g.neighbors[v]
        vals = dist[nbrs] @ counts
        i = int(np.argmin(vals))
        phi_u = int(vals[i])
        if phi_u > phi_v - margin:
            return v, iters, phi_first, phi_v
        v = int(nbrs[i])
        phi_v = phi_u


def run_search(
    g: Graph,
    oracle,
    cfg: StrategyConfig,
    debug: bool = False,
    dump_path=None,
) -> SearchTranscript:
    """Run the full query loop and report the fewest-lies answer.

    debug turns on the slow per-step checks (near-median flag for the
    query, exact recomputation of the sampled potential, branch bound on
    local-search outputs). dump_path appends one JSON line of internal
    state per step.
    """
    if cfg.policy not in POLICIES:
        raise ValueError(f"unknown policy {cfg.policy!r}")
    n = g.n
    # a single vertex is the answer before any query
    tau = cfg.num_queries if n > 1 else 0
    t = SearchTranscript.allocate(cfg, n, oracle.target, tau)
    if tau == 0:
        t.answer, t.success = 0, oracle.target == 0
        return t

    w = WeightState.uniform(n)
    rng = np.random.default_rng(cfg.seed)
    sampled = cfg.policy in ("global-sampled", "local-search")
    track_sums = cfg.policy == "global-sampled"
    sample = None
    if sampled:
        # only the global scan reads every sum; local search reads a few
        # distance rows per step
        sample = Sample.draw(
            w.omega, cfg.sample_size, rng, graph=g if track_sums else None
        )

    dump = open(dump_path, "w") if dump_path else None
    prev_q = 0
    try:
        for step in range(tau):
            tic = time.perf_counter()
            heavy = heavy_vertex(w.omega, cfg.slack)
            if cfg.policy == "exact-median":
                q = heavy if heavy is not None else exact_median(w.omega, g)
            elif cfg.policy == "global-sampled":
                q = select_query_global(sample)
            else:
                q, iters, s0, s1 = local_search(sample, g, prev_q, cfg.margin)
                t.search_iterations[step] = iters
                t.search_start_sums[step] = s0
                t.search_end_sums[step] = s1

            reply = oracle.reply(q, weights=w)
            try:
                mask = consistent_mask(g.dist, q, reply)
            except ValueError as exc:
                raise SearchProtocolError(f"step {step}: {exc}") from exc

            if debug:
                t.query_near_median[step] = int(
                    is_near_median(w.omega, g, q, cfg.slack)
                )
                if cfg.policy == "local-search":
                    lam = worst_branch_weight(sample.counts, g, q)
                    bound = cfg.sample_size * (1.0 + cfg.slack) / 2.0
                    t.branch_bound_ok[step] = int(lam <= bound + 1e-9)

            t.weight_before[step] = w.total
            w.downweight(mask, cfg.gamma)
            t.weight_after[step] = w.renormalize()
            if sampled:
                t.resampled[step] = sample.resample(mask, w.omega, cfg.gamma, rng)
                if debug and track_sums:
                    t.sums_checked += 1
                    if not sample.verify_sums():
                        t.sums_mismatches += 1

            t.queries[step] = q
            t.replies[step] = reply
            err = getattr(oracle, "last_was_error", None)
            if err is not None:
                t.reply_errors[step] = int(err)
            t.heavy_before[step] = -1 if heavy is None else heavy
            t.step_seconds[step] = time.perf_counter() - tic
            prev_q = q

            if dump is not None:
                dump.write(json.dumps({
                    "step": step,
                    "query": int(q),
                    "reply": int(reply),
                    "omega": [float(x) for x in w.omega],
                    "lies": [int(x) for x in w.lies],
                    "sample_counts": None if sample is None else [int(c) for c in sample.counts],
                }) + "\n")
    finally:
        if dump is not None:
            dump.close()

    t.answer = w.answer()
    t.success = t.answer == oracle.target
    return t
