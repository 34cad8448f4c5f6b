import itertools
from collections import Counter

import numpy as np
import pytest

from graphbisect import verify
from graphbisect.graph import build_graph, generate
from graphbisect.oracle import NoisyOracle
from graphbisect.strategy import SearchTranscript, derive_config, run_search


def _debug_run(policy, n=24, epsilon=0.25, graph_seed=3, target=7):
    g = generate("erdos-renyi-connected", n, seed=graph_seed)
    cfg = derive_config(epsilon, n, policy, seed=11)
    oracle = NoisyOracle(g, target, cfg.noise_p, np.random.default_rng(5))
    return g, run_search(g, oracle, cfg, debug=True)


@pytest.fixture(scope="module")
def exact_run():
    return _debug_run("exact-median")


@pytest.fixture(scope="module")
def global_run():
    return _debug_run("global-sampled")


@pytest.fixture(scope="module")
def local_run():
    return _debug_run("local-search")


def test_small_graphs_are_every_connected_graph_up_to_isomorphism():
    graphs = verify._connected_small_graphs()
    # OEIS A001349: connected graphs on n unlabelled vertices
    counts = Counter(n for n, _ in graphs)
    assert [counts[n] for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    for n, edges in graphs:
        build_graph(n, edges)  # raises unless simple and connected
    # pairwise non-isomorphic: a graph's canonical code is its least edge
    # bitmask over all n! relabellings, the row minimum of one matmul
    for n in range(1, 8):
        pairs = list(itertools.combinations(range(n), 2))
        bit = {p: 1 << k for k, p in enumerate(pairs)}
        perms = list(itertools.permutations(range(n)))
        # moved[k, j]: the bit of pair k under the j-th relabelling
        moved = np.array(
            [[bit[tuple(sorted((perm[a], perm[b])))] for perm in perms] for a, b in pairs],
            dtype=np.int64,
        ).reshape(len(pairs), len(perms))
        has = np.array(
            [[p in edges for p in pairs] for m, edges in graphs if m == n],
            dtype=np.int64,
        ).reshape(counts[n], len(pairs))
        codes = (has @ moved).min(axis=1)
        assert len(set(codes.tolist())) == counts[n]


def _synthetic(ratios, heavy, queries, near, epsilon=0.2, n=24):
    ratios = np.asarray(ratios, dtype=float)
    steps = len(ratios)
    cum = np.cumprod(ratios)
    wb = np.empty(steps)
    wb[0] = 1.0
    wb[1:] = cum[:-1]
    z = lambda dt: np.zeros(steps, dtype=dt)
    return SearchTranscript(
        config=derive_config(epsilon, n, "exact-median"),
        n=n,
        target=0,
        queries=np.asarray(queries, dtype=np.int32),
        replies=z(np.int32),
        reply_errors=z(np.int8),
        resampled=z(np.int32),
        search_iterations=z(np.int32),
        search_start_sums=np.full(steps, -1, dtype=np.int64),
        search_end_sums=np.full(steps, -1, dtype=np.int64),
        weight_before=wb,
        weight_after=cum,
        heavy_before=np.asarray(heavy, dtype=np.int32),
        query_near_median=np.asarray(near, dtype=np.int8),
        branch_bound_ok=np.full(steps, -1, dtype=np.int8),
        step_seconds=z(np.float64),
        answer=0,
        success=True,
    )


class TestWeightDropChecker:
    def test_plain_steps_obey_bound(self):
        # eta = 0.1 so the per-step bound is 0.81
        t = _synthetic([0.80, 0.81], heavy=[-1, -1], queries=[0, 1], near=[1, 1])
        rep = verify.check_weight_drop(t)
        assert rep["passed"] and rep["plain_steps_checked"] == 2

    def test_plain_violation_detected(self):
        t = _synthetic([0.9], heavy=[-1], queries=[0], near=[1])
        rep = verify.check_weight_drop(t)
        assert rep["plain_violations"] == 1 and not rep["passed"]

    def test_non_close_query_exempt(self):
        t = _synthetic([0.99], heavy=[-1], queries=[0], near=[0])
        rep = verify.check_weight_drop(t)
        assert rep["passed"] and rep["plain_steps_checked"] == 0

    def test_completed_heavy_segment_checked(self):
        # three heavy steps at 1/gamma each, then a heavy-free closer
        t = _synthetic(
            [0.6, 0.6, 0.6, 0.8],
            heavy=[5, 5, 5, -1],
            queries=[5, 5, 5, 0],
            near=[-1, -1, -1, 1],
        )
        rep = verify.check_weight_drop(t)
        assert rep["heavy_segments_checked"] == 1
        assert rep["passed"]

    def test_heavy_segment_violation_detected(self):
        t = _synthetic(
            [0.99, 0.99, 0.99, 0.8],
            heavy=[5, 5, 5, -1],
            queries=[5, 5, 5, 0],
            near=[-1, -1, -1, 1],
        )
        rep = verify.check_weight_drop(t)
        assert rep["heavy_segment_violations"] == 1 and not rep["passed"]

    def test_unterminated_segment_skipped(self):
        t = _synthetic([0.99, 0.99], heavy=[5, 5], queries=[5, 5], near=[-1, -1])
        rep = verify.check_weight_drop(t)
        assert rep["heavy_segments_skipped"] == 1
        assert rep["heavy_segments_checked"] == 0 and rep["passed"]

    def test_offquery_segment_skipped(self):
        t = _synthetic(
            [0.99, 0.99, 0.8],
            heavy=[5, 5, -1],
            queries=[5, 4, 0],
            near=[-1, -1, 1],
        )
        rep = verify.check_weight_drop(t)
        assert rep["heavy_segments_skipped"] == 1 and rep["passed"]

    def test_identity_change_skipped(self):
        t = _synthetic(
            [0.6, 0.6, 0.8],
            heavy=[5, 6, -1],
            queries=[5, 6, 0],
            near=[-1, -1, 1],
        )
        rep = verify.check_weight_drop(t)
        assert rep["heavy_segments_skipped"] == 1 and rep["heavy_segments_checked"] == 0

    def test_real_runs_clean(self, exact_run, global_run, local_run):
        for _, t in (exact_run, global_run, local_run):
            rep = verify.check_weight_drop(t)
            assert rep["passed"], rep
            assert rep["plain_steps_checked"] > 0


class TestIterationChecker:
    def test_local_run_clean(self, local_run):
        g, t = local_run
        rep = verify.check_search_iterations(t, diameter=g.diameter)
        assert rep["passed"] and rep["calls"] == t.num_steps
        assert rep["total_iterations"] <= rep["total_budget"]

    def test_corrupted_iterations_flagged(self, local_run):
        g, t = local_run
        bad = SearchTranscript(**{**t.__dict__})
        bad.search_iterations = t.search_iterations.copy()
        bad.search_iterations[0] += 10_000
        rep = verify.check_search_iterations(bad, diameter=g.diameter)
        assert not rep["passed"]


class TestBookkeepingChecker:
    def test_global_run_checked_every_step(self, global_run):
        _, t = global_run
        rep = verify.check_sum_bookkeeping(t)
        assert rep["passed"] and rep["steps_checked"] == t.num_steps

    def test_mismatch_flagged(self, global_run):
        _, t = global_run
        bad = SearchTranscript(**{**t.__dict__, "sums_mismatches": 2})
        rep = verify.check_sum_bookkeeping(bad)
        assert not rep["passed"] and rep["violations"] == 2


class TestBranchCapChecker:
    def test_local_run_clean(self, local_run):
        _, t = local_run
        rep = verify.check_branch_bounds(t)
        assert rep["passed"] and rep["steps_checked"] == t.num_steps

    def test_violation_flagged(self, local_run):
        _, t = local_run
        bad = SearchTranscript(**{**t.__dict__})
        bad.branch_bound_ok = t.branch_bound_ok.copy()
        bad.branch_bound_ok[3] = 0
        rep = verify.check_branch_bounds(bad)
        assert not rep["passed"]


class TestStatisticalSuites:
    def test_median_bisection_small(self):
        rep = verify.median_bisection_suite(weights_per_graph=3, seed=1)
        assert rep["passed"] and rep["violations"] == 0
        assert rep["graphs"] > 900

    def test_local_minimum_cap(self):
        rep = verify.local_minimum_suite(instances=60, seed=2)
        assert rep["passed"]

    def test_sampled_closeness(self):
        rep = verify.sampled_closeness_suite(trials=8, seed=3)
        assert rep["passed"]
        assert rep["sample_size"] == 15527

    def test_branch_estimate(self):
        rep = verify.branch_estimate_suite(trials=8, seed=4)
        assert rep["passed"]
        assert rep["sample_size"] == 3328

    def test_marginal_preservation(self):
        rep = verify.marginal_tv_suite(seed=5)
        assert rep["passed"] and rep["tv_distance"] < 0.01

    def test_resample_tail_small(self):
        rep = verify.resample_tail_suite(seed=6, n=16)
        assert rep["passed"]
        assert rep["mean_resampled"] <= rep["mean_cap"]


def test_run_verification_quick():
    report = verify.run_verification(quick=True, seed=9)
    assert report["deterministic_violations"] == 0
    assert report["all_passed"], {
        k: v for k, v in report["suites"].items() if not v["passed"]
    }
