"""Experiment orchestration: seeded runs, CSV rows, scaling benchmarks.

Every random choice descends from one master seed through named
SeedSequence branches, so re-running a spec reproduces each row. Graph and
target streams are keyed by trial only, which gives all policies in a trial
the same instance to solve; oracle and strategy streams also fold in the
policy index so policies never share coins.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .graph import GRAPH_KINDS, Graph, generate
from .oracle import AdversarialOracle, NoisyOracle
from .strategy import POLICIES, derive_config, run_search
from .verify import transcript_checks


@dataclass
class ExperimentSpec:
    """One experiment grid; mirrors the JSON config format key for key."""

    graph: str = "erdos-renyi-connected"
    n: int = 64
    params: dict = field(default_factory=dict)
    epsilon: float | None = None
    p: float | None = None
    policies: tuple[str, ...] = POLICIES
    trials: int = 10
    seed: int = 0
    scale_tau: float = 1.0
    scale_s: float = 1.0
    out: str | None = None
    oracle: str = "noisy"
    oracle_params: dict = field(default_factory=dict)
    verify: bool = False  # debug transcripts + per-cell invariant checks
    timing: bool = True  # wall-time columns; off makes rows byte-stable
    workers: int | None = None  # processes that run whole trials; None runs in-process

    def __post_init__(self):
        if isinstance(self.policies, str):
            self.policies = (self.policies,)
        self.policies = tuple(self.policies)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.graph not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.graph!r}; known: {GRAPH_KINDS}")
        for pol in self.policies:
            if pol not in POLICIES:
                raise ValueError(f"unknown policy {pol!r}; known: {POLICIES}")
        if self.oracle not in ("noisy", "adversarial"):
            raise ValueError(f"oracle must be noisy or adversarial, got {self.oracle!r}")
        if self.epsilon is None and self.p is None:
            self.epsilon = 0.2
        if self.p is not None:
            eps = 0.5 - self.p
            if self.epsilon is not None and abs(self.epsilon - eps) > 1e-12:
                raise ValueError(f"epsilon={self.epsilon} and p={self.p} disagree")
            self.epsilon = eps
        if not 0.0 < self.epsilon <= 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2], got {self.epsilon}")
        self.p = 0.5 - self.epsilon

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["policies"] = list(self.policies)
        return d


@dataclass
class ResultRow:
    """One run of one policy on one trial instance; -1 marks unmeasured."""

    graph: str
    n: int
    m: int
    diameter: int
    max_degree: int
    policy: str
    epsilon: float
    p: float
    trial: int
    seed: int
    status: str
    success: int
    queries: int
    resamples_total: int
    resamples_mean: float
    search_iters_total: int
    query_time_mean: float
    query_time_p95: float
    check_violations: int

    def as_list(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


def _seed_int(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _trial_instance(spec: ExperimentSpec, trial: int) -> tuple[Graph, int]:
    g = generate(spec.graph, spec.n, spec.params, seed=_seed_int(spec.seed, trial, 0))
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial, 1]))
    return g, int(rng.integers(0, spec.n))


def _make_oracle(spec: ExperimentSpec, g: Graph, target: int, cfg, trial: int, pidx: int):
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial, 2, pidx]))
    opts = dict(spec.oracle_params)
    if spec.oracle == "adversarial":
        budget = opts.pop("budget", None)
        if budget is None:
            budget = math.floor(cfg.error_rate * cfg.num_queries)
        return AdversarialOracle(
            g, target, int(budget), rng=rng, horizon=cfg.num_queries, **opts
        )
    return NoisyOracle(g, target, cfg.noise_p, rng, **opts)


def _error_row(spec: ExperimentSpec, trial: int, policy: str, seed: int, exc: Exception) -> ResultRow:
    return ResultRow(
        graph=spec.graph, n=spec.n, m=-1, diameter=-1, max_degree=-1,
        policy=policy, epsilon=spec.epsilon, p=spec.p, trial=trial, seed=seed,
        status=f"error:{type(exc).__name__}", success=0, queries=0,
        resamples_total=0, resamples_mean=0.0, search_iters_total=0,
        query_time_mean=-1.0, query_time_p95=-1.0, check_violations=-1,
    )


def _execute_cell(
    spec: ExperimentSpec, trial: int, pidx: int, run_seed: int, g: Graph, target: int
) -> ResultRow:
    policy = spec.policies[pidx]
    cfg = derive_config(
        spec.epsilon, spec.n, policy, seed=run_seed,
        scale_queries=spec.scale_tau, scale_sample=spec.scale_s,
    )
    oracle = _make_oracle(spec, g, target, cfg, trial, pidx)
    t = run_search(g, oracle, cfg, debug=spec.verify)
    checks = -1
    if spec.verify:
        checks = sum(r["violations"] for r in transcript_checks(t, g))

    steps = t.num_steps
    tmean = tp95 = -1.0
    if spec.timing and steps:
        tmean = float(t.step_seconds.mean())
        tp95 = float(np.percentile(t.step_seconds, 95))
    return ResultRow(
        graph=spec.graph, n=spec.n, m=g.m, diameter=g.diameter,
        max_degree=g.max_degree, policy=policy, epsilon=spec.epsilon,
        p=spec.p, trial=trial, seed=run_seed, status="ok",
        success=int(t.success), queries=steps,
        resamples_total=int(t.resampled.sum()),
        resamples_mean=float(t.resampled.mean()) if steps else 0.0,
        search_iters_total=int(t.search_iterations.sum()),
        query_time_mean=tmean, query_time_p95=tp95,
        check_violations=checks,
    )


def _run_trial(spec: ExperimentSpec, trial: int):
    """Yield one ResultRow per policy of one trial, in policy order.

    The trial's graph and target are built once and shared by every
    policy. A failure to build them, or a failure in one policy's run,
    becomes an error row, and the trial goes on.
    """
    try:
        instance = _trial_instance(spec, trial)
    except Exception as exc:
        instance = exc
    for pidx, policy in enumerate(spec.policies):
        run_seed = _seed_int(spec.seed, trial, 3, pidx)
        try:
            if isinstance(instance, Exception):
                raise instance
            row = _execute_cell(spec, trial, pidx, run_seed, *instance)
        except Exception as exc:
            row = _error_row(spec, trial, policy, run_seed, exc)
        yield row


# what a pool worker returns: generators do not pickle
def _trial_rows(spec: ExperimentSpec, trial: int) -> list[ResultRow]:
    return list(_run_trial(spec, trial))


def run_experiment(spec: ExperimentSpec):
    """Yield one ResultRow per (trial, policy), trial-major.

    Failures become error rows and the run continues. With `workers` above
    one, whole trials run on a process pool (each worker builds its
    trial's graph once for all policies) and their rows arrive in the same
    order as in a serial run. A one-trial spec always runs in-process.
    """
    workers = min(spec.workers or 1, spec.trials)
    if workers <= 1:
        for trial in range(spec.trials):
            yield from _run_trial(spec, trial)
        return
    # imported here: the pool machinery would add ~30 modules to every import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for rows in pool.map(_trial_rows, [spec] * spec.trials, range(spec.trials)):
            yield from rows


def write_csv(rows, path) -> list[ResultRow]:
    """Append rows to a CSV, writing the header only on an empty file.

    A non-empty file must start with the CSV_COLUMNS header, or ValueError
    is raised and the file is left as it was: rows of another layout would
    not line up under its header. Each row is flushed as it arrives so
    partial runs leave usable output. Returns the rows for further
    summarizing.
    """
    header_needed = not (os.path.exists(path) and os.path.getsize(path) > 0)
    if not header_needed:
        with open(path, newline="") as fh:
            if next(csv.reader(fh), None) != CSV_COLUMNS:
                raise ValueError(f"{path}: header is not CSV_COLUMNS; write to a new file")
    collected = []
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if header_needed:
            w.writerow(CSV_COLUMNS)
            fh.flush()
        for row in rows:
            w.writerow(row.as_list())
            fh.flush()
            collected.append(row)
    return collected


def summarize(rows: list[ResultRow]) -> dict:
    """Success counts and mean query cost per policy."""
    out = {}
    for row in rows:
        s = out.setdefault(
            row.policy, {"runs": 0, "successes": 0, "errors": 0, "queries": 0}
        )
        s["runs"] += 1
        if row.status != "ok":
            s["errors"] += 1
            continue
        s["successes"] += row.success
        s["queries"] += row.queries
    for s in out.values():
        ok = s["runs"] - s["errors"]
        s["mean_queries"] = s.pop("queries") / ok if ok else 0.0
    return out


# ---------------------------------------------------------------------------
# Scaling benchmarks. These always run serially in-process: timing is the
# measurement, so no worker pool is involved regardless of configuration.


def _bench_once(g: Graph, n: int, epsilon: float, policy: str, steps: int, seed_parts) -> np.ndarray:
    full = derive_config(epsilon, n, policy)
    cfg = derive_config(
        epsilon, n, policy,
        seed=_seed_int(*seed_parts, 3),
        scale_queries=steps / full.num_queries,
    )
    rng = np.random.default_rng(np.random.SeedSequence([*seed_parts, 1]))
    target = int(rng.integers(0, n))
    oracle = NoisyOracle(
        g, target, cfg.noise_p,
        np.random.default_rng(np.random.SeedSequence([*seed_parts, 2])),
    )
    t = run_search(g, oracle, cfg)
    return t.step_seconds


def bench_scaling(
    sizes,
    kind: str = "erdos-renyi-connected",
    epsilon: float = 0.2,
    policies=("global-sampled",),
    trials: int = 3,
    steps: int = 64,
    seed: int = 0,
    params: dict | None = None,
    grid_compare: bool = True,
) -> dict:
    """Per-query wall time against n, with a fitted log-log slope per policy.

    Runs are truncated to their first `steps` queries, so this times the
    opening of a search, not its average step: early on no vertex holds
    most of the weight, so the sampled policies redraw many members per
    step, and a local-search walk still travels from vertex 0 toward the
    median. Those local-search steps also pay for the distance rows their
    walk reads first, by BFS. Over a full run, where a heavy vertex stands
    on most steps, the mean step is several times cheaper. When
    `grid_compare` is set, the largest n is rerun on a square grid under
    both sampled policies, alternating them trial by trial, to compare
    their per-query cost.
    """
    sizes = sorted(set(int(n) for n in sizes))
    if len(sizes) < 3:
        raise ValueError("scaling fit needs at least 3 distinct sizes")
    policies = tuple(policies)
    report = {
        "graph": kind, "epsilon": epsilon, "sizes": sizes,
        "steps_per_run": steps, "trials": trials, "policies": {},
    }
    for pidx, policy in enumerate(policies):
        means, p95s = [], []
        for n in sizes:
            per_run = []
            for trial in range(trials):
                g = generate(kind, n, params, seed=_seed_int(seed, n, trial, 0))
                per_run.append(
                    _bench_once(g, n, epsilon, policy, steps, (seed, n, trial, 10 + pidx))
                )
            pooled = np.concatenate(per_run)
            means.append(float(pooled.mean()))
            p95s.append(float(np.percentile(pooled, 95)))
        slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
        report["policies"][policy] = {
            "mean_per_query": means, "p95_per_query": p95s, "slope": slope,
        }
    if grid_compare:
        n = sizes[-1]
        grid_policies = ("local-search", "global-sampled")
        per_run = {policy: [] for policy in grid_policies}
        # trial by trial, so a stretch of machine load falls on both policies
        for trial in range(trials):
            for pidx, policy in enumerate(grid_policies):
                g = generate("grid", n, seed=_seed_int(seed, n, trial, 0))
                per_run[policy].append(
                    _bench_once(g, n, epsilon, policy, steps, (seed, n, trial, 20 + pidx))
                )
        cmp = {policy: float(np.concatenate(runs).mean()) for policy, runs in per_run.items()}
        cmp["local_faster"] = bool(cmp["local-search"] < cmp["global-sampled"])
        report["grid_comparison"] = {"n": n, **cmp}
    return report
