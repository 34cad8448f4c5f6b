"""The benchmark's workloads, built from a seed through the public API.

A workload is a fixed list of searches. Each search owns its graph, its
target and its config, and builds a fresh oracle from its own seed, so
every pass over the list asks exactly the same queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import graphbisect
import graphbisect.graph


# instances per pass of noisy-er64; each runs all three policies
NOISY_ER64_INSTANCES = 3


@dataclass
class Search:
    """One full-tau run_search call and how to rebuild its oracle."""

    label: str
    graph: graphbisect.Graph
    target: int
    cfg: graphbisect.StrategyConfig
    make_oracle: Callable[[], object]
    grid: tuple[int, int] | None = None  # rows, cols when the graph is a grid


def _seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _target(seed: int, instance: int, n: int) -> int:
    return int(np.random.default_rng(_seed(seed, instance, 1)).integers(n))


def _noisy(g, target, cfg, oracle_seed):
    return lambda: graphbisect.NoisyOracle(
        g, target, cfg.noise_p, np.random.default_rng(oracle_seed)
    )


def noisy_er64(seed: int) -> list[Search]:
    """Connected G(64, 2 ln n / n), eps = 0.2, every policy on each instance."""
    searches = []
    for i in range(NOISY_ER64_INSTANCES):
        g = graphbisect.graph.generate("erdos-renyi-connected", 64, seed=_seed(seed, i, 0))
        target = _target(seed, i, g.n)
        for p, policy in enumerate(graphbisect.POLICIES):
            cfg = graphbisect.derive_config(0.2, g.n, policy, seed=_seed(seed, i, 3, p))
            searches.append(Search(
                f"er64-{i}-{policy}", g, target, cfg,
                _noisy(g, target, cfg, _seed(seed, i, 2, p)),
            ))
    return searches


def adversary_er1024(seed: int) -> list[Search]:
    """Connected G(1024, 2 ln n / n), eps = 0.5, exact median, greedy-heavy
    adversary with the harness's default budget floor(error_rate * tau).

    Exact median and greedy-heavy draw no random numbers, and ER-1024
    instances fall into two regimes: on some the adversary lies on each of
    the first 2 445 steps and the median runs ~3 530 times, on the others it
    lies on every other step and the median runs ~4 900 times, twice the
    search time. A seeded instance would make the spread across seeds that
    gap, so this workload pins one instance of the common, slower regime
    and `seed` does not change it.
    """
    del seed
    g = graphbisect.graph.generate("erdos-renyi-connected", 1024, seed=_seed(1, 0, 0))
    target = _target(1, 0, g.n)
    cfg = graphbisect.derive_config(0.5, g.n, "exact-median", seed=_seed(1, 0, 3, 0))
    budget = math.floor(cfg.error_rate * cfg.num_queries)
    return [Search(
        "er1024-0-exact-median", g, target, cfg,
        lambda: graphbisect.AdversarialOracle(g, target, budget, schedule="greedy-heavy"),
    )]


def noisy_grid4096_local(seed: int) -> list[Search]:
    """64 x 64 grid, eps = 0.2, noisy, local search; the seed picks the target
    and the random streams."""
    rows = cols = 64
    g = graphbisect.graph.generate("grid", rows * cols, {"rows": rows, "cols": cols})
    target = _target(seed, 0, g.n)
    cfg = graphbisect.derive_config(0.2, g.n, "local-search", seed=_seed(seed, 0, 3, 2))
    return [Search(
        "grid4096-0-local-search", g, target, cfg,
        _noisy(g, target, cfg, _seed(seed, 0, 2, 2)), grid=(rows, cols),
    )]


WORKLOADS = {
    "noisy-er64": noisy_er64,
    "adversary-er1024": adversary_er1024,
    "noisy-grid4096-local": noisy_grid4096_local,
}
