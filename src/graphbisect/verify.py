"""Checks that tie the implementation back to its mathematical guarantees.

Two layers: transcript checkers replay the deterministic per-step bounds
recorded by debug runs (weight drop, search iteration bounds, bookkeeping),
and statistical suites re-run the probabilistic claims (median bisection,
sampled closeness, marginal preservation) at desk scale with fixed seeds.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, build_graph, consistent_mask, generate
from .oracle import NoisyOracle
from .potential import (
    exact_median,
    is_near_median,
    worst_branch_weight,
)
from .sampling import Sample
from .strategy import POLICIES, SearchTranscript, derive_config, local_search, run_search
from .weights import WeightState

# slack for float comparisons against exact bounds; potentials are integers,
# weight ratios are products of a few hundred rounded factors
_REL_TOL = 1e-9


def random_weight_profile(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive weights from a rotating family of shapes."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        w = rng.random(n) + 1e-3
    elif kind == 1:
        w = rng.exponential(1.0, n) + 1e-6
    elif kind == 2:
        w = 10.0 ** rng.uniform(-5, 2, n)
    else:
        w = rng.random(n) + 1e-3
        w[int(rng.integers(0, n))] *= 100.0
    return w


# ---------------------------------------------------------------------------
# Transcript checkers.


def check_weight_drop(t: SearchTranscript) -> dict:
    """Multiplicative drop per step and across completed heavy segments.

    Steps with no heavy vertex and a near-median query must shrink total
    weight by (1-eta)^2. Maximal runs of steps that query a standing heavy
    vertex, once terminated by a heavy-free step, must shrink it by
    ((gamma+1)/(2*gamma)) per step on average. Steps outside both regimes
    (rare for the sampled policies) are counted but not judged.
    """
    cfg = t.config
    eta, gamma = cfg.eta, cfg.gamma
    steps = t.num_steps
    ratios = np.ones(steps)
    nz = t.weight_before > 0
    ratios[nz] = t.weight_after[nz] / t.weight_before[nz]

    no_heavy = t.heavy_before < 0
    near = t.query_near_median == 1
    eligible = no_heavy & near
    plain_bound = (1.0 - eta) ** 2
    plain_viol = int((ratios[eligible] > plain_bound * (1 + _REL_TOL)).sum())

    # a completed segment means: one vertex stays heavy and is queried the
    # whole run, and the run ends because the heavy vertex vanished, not
    # because the transcript ended
    seg_bound = (gamma + 1.0) / (2.0 * gamma)
    seg_checked = 0
    seg_viol = 0
    seg_skipped = 0
    i = 0
    while i < steps:
        if no_heavy[i]:
            i += 1
            continue
        j = i
        clean = True
        while j < steps and not no_heavy[j]:
            if t.queries[j] != t.heavy_before[j] or t.heavy_before[j] != t.heavy_before[i]:
                clean = False
            j += 1
        if clean and j < steps:
            length = j - i
            compound = float(np.prod(ratios[i:j]))
            seg_checked += 1
            if compound > seg_bound**length * (1 + _REL_TOL * length):
                seg_viol += 1
        else:
            seg_skipped += 1
        i = j

    return {
        "name": "weight-drop",
        "deterministic": True,
        "steps": steps,
        "plain_steps_checked": int(eligible.sum()),
        "plain_violations": plain_viol,
        "heavy_segments_checked": seg_checked,
        "heavy_segment_violations": seg_viol,
        "heavy_segments_skipped": seg_skipped,
        "violations": plain_viol + seg_viol,
        "passed": plain_viol + seg_viol == 0,
    }


def check_search_iterations(t: SearchTranscript, diameter: int | None = None) -> dict:
    """Per-call and whole-run bounds on local-search iterations."""
    cfg = t.config
    margin = cfg.margin
    used = t.search_iterations > 0
    calls = int(used.sum())
    drops = t.search_start_sums[used] - t.search_end_sums[used]
    bounds = 1.0 + drops / margin
    viol = int((t.search_iterations[used] > bounds + _REL_TOL).sum())
    out = {
        "name": "search-iterations",
        "deterministic": True,
        "calls": calls,
        "violations": viol,
        "passed": viol == 0,
    }
    if diameter is not None and calls:
        total = int(t.search_iterations[used].sum())
        budget = t.num_steps + (
            cfg.sample_size * diameter + diameter * float(t.resampled.sum())
        ) / margin
        out["total_iterations"] = total
        out["total_budget"] = budget
        if total > budget + _REL_TOL:
            out["violations"] += 1
            out["passed"] = False
    return out


def check_sum_bookkeeping(t: SearchTranscript) -> dict:
    """Incremental sampled-potential cache vs from-scratch recomputation."""
    return {
        "name": "sum-bookkeeping",
        "deterministic": True,
        "steps_checked": t.sums_checked,
        "violations": t.sums_mismatches,
        "passed": t.sums_mismatches == 0,
    }


def check_branch_bounds(t: SearchTranscript) -> dict:
    """Local-search outputs must respect the sampled branch-count cap."""
    viol = int((t.branch_bound_ok == 0).sum())
    return {
        "name": "local-minimum-branch-cap",
        "deterministic": True,
        "steps_checked": int((t.branch_bound_ok >= 0).sum()),
        "violations": viol,
        "passed": viol == 0,
    }


def transcript_checks(t: SearchTranscript, g: Graph) -> list[dict]:
    """Every checker that applies to a debug transcript of t's policy on g."""
    reports = [check_weight_drop(t)]
    if t.config.policy == "local-search":
        reports.append(check_search_iterations(t, diameter=g.diameter))
        reports.append(check_branch_bounds(t))
    if t.config.policy == "global-sampled":
        reports.append(check_sum_bookkeeping(t))
    return reports


# ---------------------------------------------------------------------------
# Statistical and exhaustive suites.


def _connected_small_graphs() -> list[tuple[int, list[tuple[int, int]]]]:
    """Every connected simple graph on at most 7 vertices."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() == 0 or not nx.is_connected(g):
            continue
        out.append((g.number_of_nodes(), [tuple(sorted(e)) for e in g.edges()]))
    return out


def median_bisection_suite(weights_per_graph: int = 50, seed: int = 0) -> dict:
    """Exhaustively: the exact median never leaves a reply branch with more
    than half the weight, on every connected graph with n <= 7."""
    rng = np.random.default_rng(seed)
    graphs = _connected_small_graphs()
    cases = 0
    violations = 0
    for n, edges in graphs:
        g = build_graph(n, edges)
        for _ in range(weights_per_graph):
            w = random_weight_profile(rng, n)
            med = exact_median(w, g)
            lam = worst_branch_weight(w, g, med)
            cases += 1
            if lam > 0.5 * float(w.sum()) * (1 + 1e-12):
                violations += 1
    return {
        "name": "median-bisection",
        "deterministic": True,
        "graphs": len(graphs),
        "cases": cases,
        "violations": violations,
        "passed": violations == 0,
    }


def _random_instance_graph(rng: np.random.Generator, n: int) -> Graph:
    kinds = ["random-tree", "erdos-renyi-connected", "path", "cycle"]
    kind = kinds[int(rng.integers(0, len(kinds)))]
    return generate(kind, n, seed=int(rng.integers(2**31)))


def local_minimum_suite(instances: int = 1000, seed: int = 0) -> dict:
    """Deterministic cap on the sampled branch count at local minima.

    Whatever the weights and the sample, a vertex no neighbor improves by
    the stopping margin keeps at most s(1+delta)/2 members on any branch.
    """
    rng = np.random.default_rng(seed)
    deltas = (0.05, 0.1, 0.2, 0.3)
    violations = 0
    for i in range(instances):
        n = int(rng.integers(5, 33))
        g = _random_instance_graph(rng, n)
        delta = deltas[i % len(deltas)]
        size = math.ceil(8.0 * math.log(n) / delta**2)
        sample = Sample.draw(random_weight_profile(rng, n), size, rng)
        start = int(rng.integers(0, n))
        v, _, _, _ = local_search(sample, g, start, margin=delta * size)
        lam_star = worst_branch_weight(sample.counts, g, v)
        if lam_star > size * (1.0 + delta) / 2.0 + _REL_TOL:
            violations += 1
    return {
        "name": "local-minimum-cap",
        "deterministic": True,
        "instances": instances,
        "violations": violations,
        "passed": violations == 0,
    }


def sampled_closeness_suite(
    trials: int = 200, n: int = 128, delta: float = 0.05, seed: int = 0
) -> dict:
    """Both sampled median surrogates land near the exact median.

    Per trial: fresh ER graph and weights, one sample of size
    ceil(8 ln n / delta^2); the global minimizer of the sampled potential
    and the local-search output must each be delta-close to a median.
    """
    rng = np.random.default_rng(seed)
    size = math.ceil(8.0 * math.log(n) / delta**2)
    good = 0
    for _ in range(trials):
        g = generate("erdos-renyi-connected", n, seed=int(rng.integers(2**31)))
        w = random_weight_profile(rng, n)
        sample = Sample.draw(w, size, rng, graph=g)
        global_pick = int(np.argmin(sample.distance_sums))
        local_pick, _, _, _ = local_search(
            sample, g, int(rng.integers(0, n)), margin=delta * size
        )
        ok_g = is_near_median(w, g, global_pick, delta)
        ok_l = is_near_median(w, g, local_pick, delta)
        good += int(ok_g and ok_l)
    return {
        "name": "sampled-closeness",
        "deterministic": False,
        "trials": trials,
        "successes": good,
        "required": trials - 1,
        "sample_size": size,
        "passed": good >= trials - 1,
    }


def branch_estimate_suite(
    trials: int = 200, n: int = 64, delta: float = 0.1, seed: int = 0
) -> dict:
    """Sampled branch fractions track exact ones within delta/2, all vertices
    at once, in all but at most one trial."""
    rng = np.random.default_rng(seed)
    size = math.ceil(8.0 * math.log(n) / delta**2)
    good = 0
    for _ in range(trials):
        g = generate("erdos-renyi-connected", n, seed=int(rng.integers(2**31)))
        w = random_weight_profile(rng, n)
        total = float(w.sum())
        sample = Sample.draw(w, size, rng)
        ok = True
        for v in range(n):
            lam = worst_branch_weight(w, g, v) / total
            lam_star = worst_branch_weight(sample.counts, g, v) / size
            if lam > lam_star + delta / 2.0 + _REL_TOL:
                ok = False
                break
        good += int(ok)
    return {
        "name": "branch-estimate",
        "deterministic": False,
        "trials": trials,
        "successes": good,
        "required": trials - 1,
        "sample_size": size,
        "passed": good >= trials - 1,
    }


def _cube_graph() -> Graph:
    edges = [
        (a, b)
        for a in range(8)
        for b in range(a + 1, 8)
        if bin(a ^ b).count("1") == 1
    ]
    return build_graph(8, edges)


def marginal_tv_suite(members: int = 100_000, seed: int = 0) -> dict:
    """After one update step, the pooled member distribution matches the
    updated weights in total variation."""
    g = _cube_graph()
    rng = np.random.default_rng(seed)
    gamma = 1.0 / 0.6
    w = WeightState.uniform(8, gamma)
    sample = Sample.draw(w.omega, members, rng)
    mask = consistent_mask(g, 0, 1)
    w.downweight(mask)
    w.renormalize()
    sample.resample(mask, w.omega, gamma, rng)
    emp = sample.counts / sample.size
    ideal = w.omega / w.total
    tv = 0.5 * float(np.abs(emp - ideal).sum())
    return {
        "name": "marginal-preservation",
        "deterministic": False,
        "members": members,
        "tv_distance": tv,
        "limit": 0.01,
        "passed": tv <= 0.01,
    }


def _noisy_run(policy: str, seed: int, n: int, epsilon: float, debug: bool):
    """One full noisy search on a seeded ER graph; returns (graph, transcript)."""
    rng = np.random.default_rng(seed)
    g = generate("erdos-renyi-connected", n, seed=int(rng.integers(2**31)))
    cfg = derive_config(epsilon, n, policy, seed=int(rng.integers(2**31)))
    oracle = NoisyOracle(
        g,
        int(rng.integers(0, n)),
        cfg.noise_p,
        np.random.default_rng(int(rng.integers(2**31))),
    )
    return g, run_search(g, oracle, cfg, debug=debug)


def resample_tail_suite(seed: int = 0, epsilon: float = 0.2, n: int = 64) -> dict:
    """Across one full noisy run, redraw counts stay under 4*s*epsilon in at
    least 99% of the steps; the mean is reported against its 2*s*epsilon cap."""
    # no debug checks: they would add a sixth to this run, and
    # run_verification makes them on shorter runs of every policy
    _, t = _noisy_run("global-sampled", seed, n, epsilon, debug=False)
    cfg = t.config
    cap = 4.0 * cfg.sample_size * epsilon
    frac = float((t.resampled <= cap).mean())
    return {
        "name": "resample-tail",
        "deterministic": False,
        "steps": t.num_steps,
        "cap": cap,
        "fraction_within_cap": frac,
        "mean_resampled": float(t.resampled.mean()),
        "mean_cap": 2.0 * cfg.sample_size * epsilon,
        "passed": frac >= 0.99,
    }


# ---------------------------------------------------------------------------
# Aggregate entry point used by the CLI.


def run_verification(quick: bool = False, seed: int = 20260822) -> dict:
    """Run every suite; deterministic violations drive the exit status."""
    scale = 10 if quick else 1
    suites = [
        median_bisection_suite(weights_per_graph=max(1, 50 // scale), seed=seed),
        local_minimum_suite(instances=max(20, 1000 // scale), seed=seed + 1),
        sampled_closeness_suite(trials=max(10, 200 // scale), seed=seed + 2),
        branch_estimate_suite(trials=max(10, 200 // scale), seed=seed + 3),
        # the 0.01 TV budget needs the full member count to clear noise
        marginal_tv_suite(members=100_000, seed=seed + 4),
    ]
    if not quick:
        suites.append(resample_tail_suite(seed=seed + 5))

    size = 16 if quick else 32
    groups: dict[str, list[dict]] = {}
    for i, policy in enumerate(POLICIES):
        g, t = _noisy_run(policy, seed + 10 + i, size, 0.2, debug=True)
        for r in transcript_checks(t, g):
            groups.setdefault(r["name"], []).append(r)
    for name, group in groups.items():
        merged = {
            "name": name,
            "deterministic": True,
            "violations": sum(r["violations"] for r in group),
            "passed": all(r["passed"] for r in group),
            "runs": len(group),
        }
        for key in ("plain_steps_checked", "heavy_segments_checked", "calls", "steps_checked"):
            vals = [r[key] for r in group if key in r]
            if vals:
                merged[key] = int(sum(vals))
        suites.append(merged)

    deterministic_violations = sum(
        s["violations"] for s in suites if s.get("deterministic") and "violations" in s
    )
    return {
        "seed": seed,
        "quick": quick,
        "suites": {s["name"]: s for s in suites},
        "deterministic_violations": deterministic_violations,
        "all_passed": all(s["passed"] for s in suites),
    }
