import json
import math

import numpy as np
import pytest

from graphbisect.graph import build_graph, generate
from graphbisect.oracle import AdversarialOracle, NoisyOracle
from graphbisect.sampling import Sample
from graphbisect.strategy import (
    POLICIES,
    SearchProtocolError,
    StrategyConfig,
    derive_config,
    local_search,
    run_search,
    select_query_global,
)
from graphbisect.weights import WeightState

from _reference import renormalize_unflushed


def test_derive_config_reference_values():
    cfg = derive_config(0.2, 1024, "exact-median")
    assert cfg.eta == pytest.approx(0.1)
    assert cfg.error_rate == pytest.approx(0.4)
    assert cfg.slack == pytest.approx(0.025)
    assert cfg.gamma == pytest.approx(1.0 / 0.6)
    assert cfg.num_queries == 10_000
    assert cfg.sample_size == 88_723
    assert cfg.noise_p == pytest.approx(0.3)
    assert cfg.margin == pytest.approx(0.025 * 88_723)


def test_derive_config_more_sizes():
    cfg = derive_config(0.2, 64, "global-sampled")
    assert cfg.num_queries == 6000
    assert cfg.sample_size == 53_234
    small = derive_config(0.01, 16, "local-search")
    assert small.slack == pytest.approx(0.00125)
    assert small.gamma == pytest.approx(1.0 / 0.98)


def test_derive_config_advantage_cap():
    cfg = derive_config(0.5, 100, "exact-median")
    assert cfg.eta == pytest.approx(0.124)
    assert cfg.gamma == pytest.approx(1.0 / (1.0 - 0.496))
    assert cfg.noise_p == pytest.approx(0.0)


def test_derive_config_scaling():
    base = derive_config(0.2, 256, "global-sampled")
    half = derive_config(0.2, 256, "global-sampled", scale_queries=0.5, scale_sample=0.25)
    assert half.num_queries == math.ceil(base.num_queries * 0.5)
    assert half.sample_size == math.ceil(8 * math.log(256) / half.slack**2 * 0.25)


def test_derive_config_validation():
    for bad in (0.0, -0.1, 0.51):
        with pytest.raises(ValueError):
            derive_config(bad, 16, "exact-median")
    with pytest.raises(ValueError):
        derive_config(0.2, 16, "nope")
    with pytest.raises(ValueError):
        derive_config(0.2, 0, "exact-median")
    with pytest.raises(ValueError):
        derive_config(0.2, 16, "exact-median", scale_queries=0.0)


def test_derive_config_single_vertex():
    cfg = derive_config(0.2, 1, "exact-median")
    assert cfg.num_queries == 0 and cfg.sample_size == 1


def test_select_query_global_hand_sums():
    g = generate("path", 3)
    members = np.array([0, 0, 2], dtype=np.int32)
    s = Sample(
        members=members,
        counts=np.bincount(members, minlength=3).astype(np.int64),
        distance_sums=None,
    )
    s.distance_sums = g.dist @ s.counts
    assert s.distance_sums.tolist() == [2, 3, 4]
    assert select_query_global(s) == 0


def _concentrated_sample(g, v, size):
    members = np.full(size, v, dtype=np.int32)
    counts = np.bincount(members, minlength=g.n).astype(np.int64)
    return Sample(members=members, counts=counts, distance_sums=g.dist @ counts)


def test_local_search_walks_to_mass(path5):
    s = _concentrated_sample(path5, 4, 10)
    v, iters, start_sum, end_sum = local_search(s, path5, 0, margin=0.5)
    assert v == 4
    assert iters == 5
    assert start_sum == 40 and end_sum == 0


def test_local_search_immediate_stop(path5):
    s = _concentrated_sample(path5, 2, 10)
    v, iters, s0, s1 = local_search(s, path5, 2, margin=0.5)
    assert v == 2 and iters == 1 and s0 == s1 == 0


def test_local_search_without_cached_sums(path5):
    members = np.array([0, 1, 3, 4, 4], dtype=np.int32)
    s = Sample(
        members=members,
        counts=np.bincount(members, minlength=5).astype(np.int64),
        distance_sums=None,
    )
    v, iters, s0, s1 = local_search(s, path5, 0, margin=0.9)
    ref = path5.dist @ s.counts
    assert s1 == int(ref[v])
    for u in path5.neighbors[v]:
        assert ref[v] <= ref[u] + 0.9


def test_local_search_iteration_bound(rng):
    # iterations never exceed 1 + (potential drop) / margin
    for _ in range(30):
        g = generate("erdos-renyi-connected", 24, seed=int(rng.integers(1e6)))
        omega = rng.random(24) + 1e-3
        s = Sample.draw(omega, 500, np.random.default_rng(int(rng.integers(1e6))))
        margin = 0.05 * 500
        start = int(rng.integers(0, 24))
        v, iters, s0, s1 = local_search(s, g, start, margin)
        assert iters <= 1 + (s0 - s1) / margin + 1e-9
        ref = g.dist @ s.counts
        for u in g.neighbors[v]:
            assert ref[v] <= ref[u] + margin


def _run(graph, eps, policy, seed, p=None, debug=False,
         scale_queries=1.0, scale_sample=1.0, dump=None):
    cfg = derive_config(eps, graph.n, policy, seed=seed,
                        scale_queries=scale_queries, scale_sample=scale_sample)
    rng = np.random.default_rng(seed + 1)
    target = int(rng.integers(0, graph.n))
    oracle = NoisyOracle(graph, target, cfg.noise_p if p is None else p,
                         np.random.default_rng(seed + 2))
    return run_search(graph, oracle, cfg, debug=debug, dump_path=dump)


def test_single_vertex_short_circuit():
    g = build_graph(1, [])
    cfg = derive_config(0.3, 1, "exact-median")
    oracle = NoisyOracle(g, 0, 0.2, np.random.default_rng(0))
    t = run_search(g, oracle, cfg)
    assert t.num_steps == 0 and t.answer == 0 and t.success


@pytest.mark.parametrize("policy", POLICIES)
def test_noiseless_runs_find_target(policy):
    for kind, n, seed in [("path", 12, 1), ("cycle", 9, 2),
                          ("erdos-renyi-connected", 16, 3)]:
        g = generate(kind, n, seed=seed)
        t = _run(g, 0.5, policy, seed=10 * seed, p=0.0)
        assert t.success, (kind, policy, t.answer, t.target)
        assert t.num_steps == t.config.num_queries
        assert (t.reply_errors <= 0).all()


@pytest.mark.parametrize("policy", POLICIES)
def test_noisy_runs_find_target(policy):
    g = generate("erdos-renyi-connected", 16, seed=5)
    t = _run(g, 0.45, policy, seed=77)
    assert t.success
    if policy != "exact-median":
        assert (t.resampled <= t.config.sample_size).all()
        assert t.resampled.sum() > 0


def test_run_is_deterministic():
    g = generate("grid", 16, {"rows": 4, "cols": 4})
    a = _run(g, 0.4, "global-sampled", seed=31)
    b = _run(g, 0.4, "global-sampled", seed=31)
    assert (a.queries == b.queries).all()
    assert (a.replies == b.replies).all()
    assert a.answer == b.answer
    c = _run(g, 0.4, "global-sampled", seed=32)
    assert (a.queries != c.queries).any() or a.target != c.target


def test_adversarial_exact_median_immune():
    g = generate("path", 24)
    cfg = derive_config(0.5, 24, "exact-median", seed=4)
    budget = math.floor(cfg.error_rate * cfg.num_queries)
    oracle = AdversarialOracle(g, 17, budget=budget, schedule="greedy-heavy")
    t = run_search(g, oracle, cfg)
    assert t.success
    assert oracle.lies_spent <= budget


def test_protocol_violation_aborts(path5):
    class BrokenOracle:
        target = 0
        last_was_error = False

        def reply(self, q, weights=None):
            return (q + 2) % 5  # never a neighbor

    cfg = derive_config(0.3, 5, "exact-median")
    with pytest.raises(SearchProtocolError):
        run_search(path5, BrokenOracle(), cfg)

    class ConstantOracle(BrokenOracle):
        def __init__(self, value):
            self.value = value

        def reply(self, q, weights=None):
            return self.value

    # out-of-range ids name no vertex; -1 would otherwise index the last one
    for bad in (-1, path5.n):
        with pytest.raises(SearchProtocolError, match="step 0:"):
            run_search(path5, ConstantOracle(bad), cfg)


def test_debug_transcript_flags():
    g = generate("erdos-renyi-connected", 12, seed=21)
    t = _run(g, 0.4, "global-sampled", seed=60, debug=True,
             scale_queries=0.05, scale_sample=0.5)
    assert set(t.query_near_median.tolist()) <= {0, 1}
    assert t.sums_checked == t.num_steps
    assert t.sums_mismatches == 0
    t2 = _run(g, 0.4, "local-search", seed=61, debug=True,
              scale_queries=0.05, scale_sample=0.5)
    assert (t2.branch_bound_ok == 1).all()
    assert (t2.search_iterations >= 1).all()


def test_state_dump(tmp_path):
    g = generate("path", 6)
    out = tmp_path / "trace.jsonl"
    t = _run(g, 0.4, "local-search", seed=70, scale_queries=0.02,
             scale_sample=0.05, dump=str(out))
    lines = out.read_text().strip().split("\n")
    assert len(lines) == t.num_steps
    rec = json.loads(lines[0])
    assert rec["step"] == 0
    assert len(rec["omega"]) == 6
    assert sum(rec["sample_counts"]) == t.config.sample_size


def test_transcript_weight_columns():
    g = generate("cycle", 10)
    t = _run(g, 0.35, "exact-median", seed=80, scale_queries=0.1)
    # total weight never increases within a step, not even by rounding
    assert (t.weight_after <= t.weight_before).all()
    assert (t.weight_after >= t.weight_before / t.config.gamma).all()
    assert (t.heavy_before >= -1).all()
    assert t.num_steps == t.config.num_queries


def _er64_search(case):
    """Full-tau ER-64 run: greedy-heavy adversary at eps 0.5, or noisy at 0.2."""
    g = generate("erdos-renyi-connected", 64, seed=0)
    if case == "greedy-heavy":
        cfg = derive_config(0.5, g.n, "exact-median", seed=3)
        budget = math.floor(cfg.error_rate * cfg.num_queries)
        oracle = AdversarialOracle(g, 5, budget=budget, schedule="greedy-heavy")
    else:
        cfg = derive_config(0.2, g.n, case, seed=4)
        oracle = NoisyOracle(g, 5, cfg.noise_p, np.random.default_rng(6))
    return run_search(g, oracle, cfg)


@pytest.mark.parametrize("case", ("greedy-heavy",) + POLICIES)
def test_flushing_underflowed_weights_changes_no_decision(case, monkeypatch):
    flushed = _er64_search(case)
    tiny = np.finfo(np.float64).tiny
    subnormal_steps = []

    def unflushed(self):
        total = renormalize_unflushed(self)
        subnormal_steps.append(bool(((self.omega > 0) & (self.omega < tiny)).any()))
        return total

    monkeypatch.setattr(WeightState, "renormalize", unflushed)
    ref = _er64_search(case)
    # the reference run must really carry subnormal weights for this to test anything
    assert any(subnormal_steps)
    assert (flushed.queries == ref.queries).all()
    assert (flushed.replies == ref.replies).all()
    assert (flushed.resampled == ref.resampled).all()
    assert flushed.answer == ref.answer
