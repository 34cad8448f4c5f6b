"""Tests for the benchmark's output checks: clean runs pass, corrupted ones fail.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import dataclasses
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import graphbisect  # noqa: E402
from checks import CheckFailed, ReferenceDistances, check_search, grid_edges  # noqa: E402


def _search(policy, graph=None, adversary_budget=None, target=7):
    g = graph or graphbisect.generate("erdos-renyi-connected", 24, seed=3)
    eps = 0.5 if adversary_budget is not None else 0.25
    cfg = graphbisect.derive_config(eps, g.n, policy, seed=11, scale_queries=0.2, scale_sample=0.2)
    if adversary_budget is None:
        oracle = graphbisect.NoisyOracle(g, target, cfg.noise_p, np.random.default_rng(5))
    else:
        oracle = graphbisect.AdversarialOracle(g, target, adversary_budget)
    t = graphbisect.run_search(g, oracle, cfg)
    return g, t, oracle


@pytest.fixture(scope="module", params=graphbisect.POLICIES)
def run(request):
    return _search(request.param)


def _check(g, t, oracle, dist=None):
    return check_search(t, g.dist if dist is None else dist, ReferenceDistances(g.n, g.edges), oracle)


def test_clean_runs_pass(run):
    g, t, oracle = run
    assert _check(g, t, oracle) is True


def test_reply_swapped_for_non_neighbour_fails(run):
    g, t, oracle = run
    q = int(t.queries[0])
    far = int(np.flatnonzero(g.dist[q] >= 2)[0])
    replies = t.replies.copy()
    replies[0] = far
    with pytest.raises(CheckFailed, match="neither query"):
        _check(g, dataclasses.replace(t, replies=replies), oracle)


def test_changed_answer_fails(run):
    g, t, oracle = run
    with pytest.raises(CheckFailed, match="answer"):
        _check(g, dataclasses.replace(t, answer=(t.answer + 1) % g.n, success=False), oracle)


def test_wrong_distance_row_fails(run):
    g, t, oracle = run
    dist = g.dist.copy()
    q = int(t.queries[-1])
    dist[q, (q + 1) % g.n] += 1
    with pytest.raises(CheckFailed, match="distance row"):
        _check(g, t, oracle, dist=dist)


def test_weight_after_above_before_fails(run):
    g, t, oracle = run
    after = t.weight_after.copy()
    after[3] = t.weight_before[3] * 1.01
    with pytest.raises(CheckFailed, match="weight"):
        _check(g, dataclasses.replace(t, weight_after=after), oracle)


def test_weight_drop_below_gamma_fails(run):
    g, t, oracle = run
    after = t.weight_after.copy()
    after[3] = t.weight_before[3] / t.config.gamma * 0.99
    with pytest.raises(CheckFailed, match="weight"):
        _check(g, dataclasses.replace(t, weight_after=after), oracle)


def test_oracle_reporting_too_few_errors_fails(run):
    g, t, _ = run
    with pytest.raises(CheckFailed, match="off path"):
        _check(g, t, types.SimpleNamespace(errors_made=0))


def test_short_transcript_fails(run):
    g, t, oracle = run
    cut = {f.name: getattr(t, f.name)[:-1] for f in dataclasses.fields(t)
           if isinstance(getattr(t, f.name), np.ndarray)}
    with pytest.raises(CheckFailed, match="steps run"):
        _check(g, dataclasses.replace(t, **cut), oracle)


def test_rising_walk_fails():
    g, t, oracle = _search("local-search")
    end = t.search_end_sums.copy()
    end[0] = t.search_start_sums[0] + 1
    with pytest.raises(CheckFailed, match="walk rose"):
        _check(g, dataclasses.replace(t, search_end_sums=end), oracle)


def test_more_redraws_than_members_fails():
    g, t, oracle = _search("global-sampled")
    redrawn = t.resampled.copy()
    redrawn[0] = t.config.sample_size + 1
    with pytest.raises(CheckFailed, match="redrawn"):
        _check(g, dataclasses.replace(t, resampled=redrawn), oracle)


def test_adversary_lies_match_off_path_replies():
    g, t, oracle = _search("exact-median", adversary_budget=5)
    assert oracle.lies_spent > 0
    assert _check(g, t, oracle) is True
    oracle.lies_spent -= 1
    with pytest.raises(CheckFailed, match="adversary spent"):
        _check(g, t, oracle)


def test_wrong_answer_is_a_failed_search_not_a_failed_check():
    g, t, oracle = _search("exact-median", adversary_budget=10**6)
    assert t.answer != t.target
    assert _check(g, t, oracle) is False


def test_grid_closed_form_matches_bfs():
    g = graphbisect.generate("grid", 20, {"rows": 4, "cols": 5})
    grid = ReferenceDistances(g.n, g.edges, grid=(4, 5))
    bfs = ReferenceDistances(g.n, g.edges)
    for v in range(g.n):
        assert np.array_equal(grid.row(v), bfs.row(v))
        assert np.array_equal(grid.row(v), g.dist[v])


def test_grid_check_on_a_grid_run():
    g = graphbisect.generate("grid", 16, {"rows": 4, "cols": 4})
    _, t, oracle = _search("local-search", graph=g)
    ref = ReferenceDistances(g.n, g.edges, grid=(4, 4))
    assert check_search(t, g.dist, ref, oracle) is True


def test_edge_list_that_is_not_the_grid_fails():
    edges = sorted(grid_edges(4, 4))
    with pytest.raises(CheckFailed, match="grid"):
        ReferenceDistances(16, edges[:-1] + [(0, 15)], grid=(4, 4))
