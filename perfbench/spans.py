"""Spans around the public functions run_search calls, installed from outside.

The tracer replaces the names graphbisect.strategy and graphbisect.graph
look up at call time, and the oracle, weight and sample methods, with
wrappers that record (name, start, end, parent) in memory. Nothing is
written until the benchmark ends. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import time

import numpy as np

import graphbisect.graph
import graphbisect.oracle
import graphbisect.sampling
import graphbisect.strategy
import graphbisect.weights

# (owner, attribute, layer metric prefix, count the result adds, if any)
_TARGETS = (
    (graphbisect.graph, "generate", "graph.generate", None),
    (graphbisect.graph, "distance_matrix", "graph.distance_matrix", None),
    (graphbisect.strategy, "consistent_mask", "graph.consistent_mask", None),
    (graphbisect.strategy, "exact_median", "potential.exact_median", None),
    (graphbisect.strategy, "heavy_vertex", "potential.heavy_vertex", None),
    (graphbisect.oracle.NoisyOracle, "reply", "oracle.reply", None),
    (graphbisect.oracle.AdversarialOracle, "reply", "oracle.reply", None),
    (graphbisect.weights.WeightState, "downweight", "weights.downweight", None),
    (graphbisect.weights.WeightState, "renormalize", "weights.renormalize", None),
    (graphbisect.sampling.Sample, "draw", "sampling.draw", None),
    (graphbisect.sampling.Sample, "resample", "sampling.resample", ("sampling.redrawn", lambda k: k)),
    (graphbisect.strategy, "select_query_global", "strategy.select_global", None),
    (graphbisect.strategy, "local_search", "strategy.local_search", ("strategy.walk_iters", lambda r: r[1])),
)


class Tracer:
    """In-memory span recorder; use as a context manager to patch and restore."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, count=None):
        """fn wrapped so that each call records one span named `name`."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        if count is not None:
            counts.setdefault(count[0], 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if count is not None:
                counts[count[0]] += int(count[1](result))
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, count in _TARGETS:
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(name, raw.__func__, count))
            else:
                wrapped = self.span(name, raw, count)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns: name id, start, end, parent index (-1 at a root)."""
        a = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        return {
            "names": np.array(self.names),
            "name": a[:, 0].astype(np.int32),
            "start": a[:, 1],
            "end": a[:, 2],
            "parent": a[:, 3].astype(np.int64),
        }

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed duration, summed self time and call count."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        child = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        k = len(self.names)
        total = np.bincount(cols["name"], weights=dur, minlength=k)
        own = np.bincount(cols["name"], weights=dur - child, minlength=k)
        calls = np.bincount(cols["name"], minlength=k)
        return (
            {nm: float(total[i]) for i, nm in enumerate(self.names)},
            {nm: float(own[i]) for i, nm in enumerate(self.names)},
            {nm: int(calls[i]) for i, nm in enumerate(self.names)},
        )

    def dump(self, path) -> None:
        np.savez_compressed(path, **self.arrays())
