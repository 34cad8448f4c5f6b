"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line with capture suspended so the
verdicts always reach the terminal, then asserts. Statistical thresholds
and sizes follow the project's desk-scale reproduction targets.
"""

import numpy as np
import pytest

from graphbisect.graph import generate
from graphbisect.harness import ExperimentSpec, bench_scaling, run_experiment, summarize
from graphbisect.oracle import NoisyOracle
from graphbisect.strategy import POLICIES, derive_config, run_search
from graphbisect.verify import (
    check_branch_bounds,
    check_search_iterations,
    check_sum_bookkeeping,
    check_weight_drop,
    local_minimum_suite,
    marginal_tv_suite,
    median_bisection_suite,
    resample_tail_suite,
    sampled_closeness_suite,
)


# the 100-trial criteria run whole trials on this many processes; rows
# arrive as in a serial run (test_harness checks that), so only the wall
# time changes
TRIAL_WORKERS = 2


@pytest.fixture
def report(capfd):
    def go(num: int, desc: str, ok: bool, detail: str):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return go


@pytest.fixture(scope="module")
def debug_runs():
    """One full debug-mode noisy run per policy on a shared instance."""
    g = generate("erdos-renyi-connected", 32, seed=321)
    out = {}
    for i, policy in enumerate(POLICIES):
        cfg = derive_config(0.2, 32, policy, seed=1000 + i)
        oracle = NoisyOracle(g, 17, cfg.noise_p, np.random.default_rng(2000 + i))
        out[policy] = run_search(g, oracle, cfg, debug=True)
    return g, out


def test_criterion_01_median_bisection_exhaustive(report):
    rep = median_bisection_suite(weights_per_graph=50, seed=11)
    report(
        1, "exact median halves every branch on all connected graphs n<=7",
        rep["passed"],
        f"{rep['cases']} cases over {rep['graphs']} graphs, "
        f"{rep['violations']} violations",
    )


def test_criterion_02_local_minimum_branch_cap(debug_runs, report):
    rep = local_minimum_suite(instances=1000, seed=12)
    _, runs = debug_runs
    end_to_end = check_branch_bounds(runs["local-search"])
    ok = rep["passed"] and end_to_end["passed"]
    report(
        2, "local minima keep every sampled branch under s(1+delta)/2",
        ok,
        f"{rep['instances']} random instances + {end_to_end['steps_checked']} "
        f"in-run calls, {rep['violations'] + end_to_end['violations']} violations",
    )


def test_criterion_03_sampled_median_closeness(report):
    rep = sampled_closeness_suite(trials=200, n=128, delta=0.05, seed=13)
    report(
        3, "sampled global and local picks are delta-close to the median",
        rep["passed"],
        f"{rep['successes']}/{rep['trials']} trials good at s={rep['sample_size']}, "
        f"need >={rep['required']}",
    )


def test_criterion_04_marginal_preservation_and_tail(report):
    tv = marginal_tv_suite(members=100_000, seed=14)
    tail = resample_tail_suite(seed=15)
    ok = tv["passed"] and tail["passed"]
    report(
        4, "resampling preserves marginals and keeps redraw counts small",
        ok,
        f"TV={tv['tv_distance']:.4f}<=0.01, "
        f"{tail['fraction_within_cap']:.3f} of steps under 4*s*eps",
    )


def test_criterion_05_adversarial_budget(report):
    total = 0
    good = 0
    cells = []
    for kind in ("path", "grid", "erdos-renyi-connected"):
        for schedule in ("greedy-heavy", "random-schedule"):
            spec = ExperimentSpec(
                graph=kind, n=64, epsilon=0.5, policies=("exact-median",),
                trials=100, seed=7, timing=False, workers=TRIAL_WORKERS,
                oracle="adversarial", oracle_params={"schedule": schedule},
            )
            succ = sum(r.success for r in run_experiment(spec))
            total += 100
            good += succ
            cells.append(f"{kind}/{schedule}:{succ}")
    report(
        5, "exact-median policy beats budgeted adversaries every time",
        good == total,
        f"{good}/{total} across " + ", ".join(cells),
    )


def test_criterion_06_noisy_end_to_end(report):
    spec = ExperimentSpec(
        graph="erdos-renyi-connected", n=64, epsilon=0.2,
        policies=POLICIES, trials=100, seed=20260822, timing=False,
        workers=TRIAL_WORKERS,
    )
    s = summarize(list(run_experiment(spec)))
    counts = {pol: s[pol]["successes"] for pol in POLICIES}
    ok = all(c >= 99 for c in counts.values())
    report(
        6, "noisy search at eps=0.2, n=64 succeeds >=99/100 per policy",
        ok,
        ", ".join(f"{p}:{c}" for p, c in counts.items()),
    )


def test_criterion_07_weight_drop_transcripts(debug_runs, report):
    _, runs = debug_runs
    reports = {pol: check_weight_drop(t) for pol, t in runs.items()}
    ok = all(r["passed"] for r in reports.values())
    plain = sum(r["plain_steps_checked"] for r in reports.values())
    segs = sum(r["heavy_segments_checked"] for r in reports.values())
    viol = sum(r["violations"] for r in reports.values())
    report(
        7, "per-step and heavy-segment weight drops hold in every logged step",
        ok,
        f"{plain} plain steps + {segs} completed segments, {viol} violations",
    )


def test_criterion_08_local_search_iteration_bound(debug_runs, report):
    g, runs = debug_runs
    rep = check_search_iterations(runs["local-search"], diameter=g.diameter)
    report(
        8, "every local-search call obeys 1 + drop/margin iterations",
        rep["passed"],
        f"{rep['calls']} calls, total {rep['total_iterations']} <= "
        f"budget {rep['total_budget']:.0f}, {rep['violations']} violations",
    )


def test_criterion_09_incremental_bookkeeping(debug_runs, report):
    _, runs = debug_runs
    rep = check_sum_bookkeeping(runs["global-sampled"])
    ok = rep["passed"] and rep["steps_checked"] == runs["global-sampled"].num_steps
    report(
        9, "incremental sampled potentials match recomputation at every step",
        ok,
        f"{rep['steps_checked']} steps, {rep['violations']} mismatches",
    )


def test_criterion_10_scaling_and_grid_ordering(report):
    rep = bench_scaling(
        [256, 512, 1024, 2048, 4096],
        kind="erdos-renyi-connected", epsilon=0.2,
        policies=("global-sampled",), trials=3, steps=64, seed=16,
        grid_compare=True,
    )
    slope = rep["policies"]["global-sampled"]["slope"]
    cmp = rep["grid_comparison"]
    ok = slope <= 1.3 and cmp["local_faster"]
    report(
        10, "per-query time scales mildly and local wins on large grids",
        ok,
        f"slope={slope:.2f}<=1.3, grid n={cmp['n']}: "
        f"local {cmp['local-search'] * 1e3:.2f}ms vs "
        f"global {cmp['global-sampled'] * 1e3:.2f}ms",
    )
