"""The benchmark's tracer wraps functions by name; a rename that drops one
would leave `perfbench/run.py --trace 1` reporting zeros, so check here that
every name still resolves and that a search records its spans."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from graphbisect.graph import generate
from graphbisect.oracle import NoisyOracle
from graphbisect.strategy import POLICIES, derive_config, run_search

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target_functions(spans):
    """The function behind each name the tracer wraps, as the tracer reads it."""
    for owner, attr, _, _ in spans._TARGETS:
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        yield f"{owner.__name__}.{attr}", getattr(raw, "__func__", raw)


def test_every_trace_target_resolves(spans):
    for name, fn in _target_functions(spans):
        assert callable(fn), name


SPANS_BY_POLICY = {
    "exact-median": {"weights.renormalize"},
    "global-sampled": {"weights.renormalize", "sampling.resample", "strategy.select_global"},
    "local-search": {"weights.renormalize", "sampling.resample", "strategy.local_search"},
}


@pytest.mark.parametrize("policy", POLICIES)
def test_traced_search_records_layer_spans(spans, policy):
    g = generate("erdos-renyi-connected", 16, seed=3)
    cfg = derive_config(0.2, g.n, policy, seed=4, scale_queries=0.05, scale_sample=0.05)
    oracle = NoisyOracle(g, 5, cfg.noise_p, np.random.default_rng(6))
    with spans.Tracer() as tracer:
        run_search(g, oracle, cfg)
    _, _, calls = tracer.totals()
    for name in SPANS_BY_POLICY[policy]:
        assert calls.get(name, 0) > 0, name
    # the tracer puts every wrapped name back on exit
    for name, fn in _target_functions(spans):
        assert not hasattr(fn, "__wrapped__"), name
