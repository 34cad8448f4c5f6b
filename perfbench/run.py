#!/usr/bin/env python3
"""Full-tau search benchmark for graphbisect.

Run from the repository root:

    python3 perfbench/run.py --workload noisy-er64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload noisy-er64 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload noisy-er64 --seed 1 --seconds 30 --repeat 10

One run builds the workload's searches from the seed, then repeats whole
passes over them while the next pass still fits in --seconds (at least one
pass), checks every transcript against the benchmark's own distances and
prints one JSON object as its last line of output. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it wraps the program's layers
in spans and reports per-layer self times and counts instead. --repeat k
runs k such processes on seeds seed .. seed+k-1 and prints the median and
quartiles of every metric.
"""

import time

_T0 = time.perf_counter()  # fallback for the process start time

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# per-layer metrics: (metric, span name, kind); kinds are "self" (self time
# per pass), "setup" (self time, once per run) and "calls" (calls per pass)
SPAN_METRICS = (
    ("graph.generate_s", "graph.generate", "setup"),
    ("graph.distance_matrix_s", "graph.distance_matrix", "setup"),
    ("graph.consistent_mask_s", "graph.consistent_mask", "self"),
    ("potential.exact_median_s", "potential.exact_median", "self"),
    ("potential.exact_median_calls", "potential.exact_median", "calls"),
    ("potential.heavy_vertex_s", "potential.heavy_vertex", "self"),
    ("oracle.reply_s", "oracle.reply", "self"),
    ("weights.downweight_s", "weights.downweight", "self"),
    ("weights.renormalize_s", "weights.renormalize", "self"),
    ("sampling.draw_s", "sampling.draw", "self"),
    ("sampling.resample_s", "sampling.resample", "self"),
    ("strategy.select_global_s", "strategy.select_global", "self"),
    ("strategy.local_search_s", "strategy.local_search", "self"),
)
COUNTER_METRICS = ("sampling.redrawn", "strategy.walk_iters")


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T0


def _value(x):
    return int(x) if isinstance(x, float) and x.is_integer() else x


def _metric(value, unit: str) -> dict:
    return {"value": _value(value), "unit": unit}


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import graphbisect

    if Path(graphbisect.__file__).resolve().parent != ROOT / "src" / "graphbisect":
        raise ImportError(f"graphbisect came from {graphbisect.__file__}, not {ROOT / 'src'}")
    import checks
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")

    policies = graphbisect.POLICIES
    tracer = None
    search_fn = {p: graphbisect.run_search for p in policies}
    if trace:
        import spans

        tracer = spans.Tracer()
        search_fn = {p: tracer.span(f"strategy.run_search.{p}", graphbisect.run_search)
                     for p in policies}

    with tracer or contextlib.nullcontext():
        searches = WORKLOADS[workload](seed)
        oracles = [s.make_oracle() for s in searches]
        setup_s = process_age()

        passes = []  # (search seconds, transcripts, oracles) per pass
        started = time.perf_counter()
        while True:
            if passes:
                oracles = [s.make_oracle() for s in searches]
            transcripts = []
            search_s = 0.0
            for s, oracle in zip(searches, oracles):
                tic = time.perf_counter()
                transcripts.append(search_fn[s.cfg.policy](s.graph, oracle, s.cfg))
                search_s += time.perf_counter() - tic
            passes.append((search_s, transcripts, oracles))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(passes) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # output checks, outside every timed region
    correct, failed = True, 0
    refs = {}
    for _, transcripts, pass_oracles in passes:
        for s, t, oracle in zip(searches, transcripts, pass_oracles):
            key = id(s.graph)
            try:
                if key not in refs:
                    refs[key] = checks.ReferenceDistances(s.graph.n, s.graph.edges, s.grid)
                if not checks.check_search(t, s.graph.dist, refs[key], oracle):
                    failed += 1
            except checks.CheckFailed as exc:
                print(f"{s.label}: {exc}", file=sys.stderr)
                correct = False

    n_pass = len(passes)
    if tracer is None:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "search_s": _metric(statistics.median(p[0] for p in passes), "s"),
            "queries": _metric(statistics.median(
                sum(t.num_steps for t in p[1]) for p in passes), "count"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        total, own, calls = tracer.totals()
        metrics = {}
        for name, span, kind in SPAN_METRICS:
            if kind == "setup":
                metrics[name] = _metric(own.get(span, 0.0), "s")
            elif kind == "self":
                metrics[name] = _metric(own.get(span, 0.0) / n_pass, "s")
            else:
                metrics[name] = _metric(calls.get(span, 0) / n_pass, "count")
        for name in COUNTER_METRICS:
            metrics[name] = _metric(tracer.counts.get(name, 0) / n_pass, "count")
        lies = sum(getattr(o, "errors_made", getattr(o, "lies_spent", 0))
                   for p in passes for o in p[2])
        metrics["oracle.lies"] = _metric(lies / n_pass, "count")
        graphs = {id(s.graph): s.graph for s in searches}.values()
        metrics["graph.dist_mb"] = _metric(
            sum(g.n * g.n * g.dist.itemsize for g in graphs) / 2**20, "MB")
        loop = sum(own.get(f"strategy.run_search.{p}", 0.0) for p in policies)
        metrics["strategy.loop_self_s"] = _metric(loop / n_pass, "s")
        for p in policies:
            metrics[f"strategy.run_search_s.{p}"] = _metric(
                total.get(f"strategy.run_search.{p}", 0.0) / n_pass, "s")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{workload}-seed{seed}-spans.npz")

    return {
        "correct": correct,
        "attempted": n_pass * len(searches),
        "failed": failed,
        "metrics": metrics,
    }


def repeat(args) -> int:
    """Run k processes on consecutive seeds; print median and quartiles."""
    results = []
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {args.seed + i}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {args.seed + i}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()),
              file=sys.stderr)
    summary = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "seeds": [args.seed, args.seed + args.repeat - 1],
        "correct": all(r["correct"] for r in results),
        "failed_share": [r["failed"] / r["attempted"] for r in results],
        "metrics": {},
    }
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary["metrics"][name] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
        print(f"{name:36s} median {med:12.6g} {m['unit']:5s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {summary['metrics'][name]['spread']:.4f}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seeds{args.seed}-{args.seed + args.repeat - 1}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many processes on consecutive seeds and summarise")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.repeat:
        return repeat(args)
    try:
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
