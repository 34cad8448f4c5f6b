"""Command line entry points: generate, run, verify, bench, verify-median.

`run` reads an optional JSON config mirroring ExperimentSpec; any flag
given on the command line overrides the corresponding config key.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .graph import GRAPH_KINDS, generate, load_edge_list, save_edge_list
from .harness import (
    ExperimentSpec,
    bench_scaling,
    run_experiment,
    summarize,
    write_csv,
)
from .potential import median_report
from .strategy import POLICIES
from .verify import run_verification


def _parse_policies(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _parse_sizes(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="graphbisect", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph as an edge-list file")
    gen.add_argument("--graph", default="erdos-renyi-connected", choices=GRAPH_KINDS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--params", default=None, help="generator params as JSON")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="default <kind>-<n>.edges")

    run = sub.add_parser("run", help="run an experiment grid, append rows to CSV")
    run.add_argument("--config", default=None, help="JSON file of ExperimentSpec fields")
    run.add_argument("--graph", default=None, choices=GRAPH_KINDS)
    run.add_argument("--n", type=int, default=None)
    run.add_argument("--params", default=None, help="generator params as JSON")
    run.add_argument("--epsilon", type=float, default=None)
    run.add_argument("--p", type=float, default=None)
    run.add_argument("--policy", default=None, help="comma-separated policy names")
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--scale-tau", type=float, default=None)
    run.add_argument("--scale-s", type=float, default=None)
    run.add_argument("--out", default=None, help="CSV path, default results.csv")
    run.add_argument("--oracle", default=None, choices=("noisy", "adversarial"))
    run.add_argument("--oracle-params", default=None, help="oracle options as JSON")
    run.add_argument("--workers", type=int, default=None,
                     help="run trials on this many processes")
    run.add_argument("--no-timing", action="store_true",
                     help="omit wall-time columns so rows are byte-stable")
    run.add_argument("--verify", action="store_true",
                     help="debug transcripts, check invariants per cell")

    ver = sub.add_parser("verify", help="run the lemma verification suites")
    ver.add_argument("--quick", action="store_true")
    ver.add_argument("--seed", type=int, default=20260822)
    ver.add_argument("--out", default=None, help="write the JSON report here")

    ben = sub.add_parser("bench", help="per-query time scaling and fitted slopes")
    ben.add_argument("--sizes", default="256,512,1024,2048,4096")
    ben.add_argument("--graph", default="erdos-renyi-connected", choices=GRAPH_KINDS)
    ben.add_argument("--epsilon", type=float, default=0.2)
    ben.add_argument("--policy", default="global-sampled")
    ben.add_argument("--trials", type=int, default=3)
    ben.add_argument("--steps", type=int, default=64)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--no-grid-compare", action="store_true")
    ben.add_argument("--out", default=None, help="write the JSON report here")

    med = sub.add_parser("verify-median",
                         help="per-vertex potential table for one graph")
    med.add_argument("--edges", required=True, help="edge-list file")
    med.add_argument("--weights", default=None,
                     help="JSON array of nonnegative vertex weights, positive sum")
    return top


def _cmd_generate(args) -> int:
    params = json.loads(args.params) if args.params else None
    g = generate(args.graph, args.n, params, seed=args.seed)
    out = args.out or f"{args.graph}-{args.n}.edges"
    save_edge_list(g, out)
    print(f"{out}: n={g.n} m={g.m} diameter={g.diameter} max_degree={g.max_degree}")
    return 0


def _spec_from_args(args) -> ExperimentSpec:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    overrides = {
        "graph": args.graph,
        "n": args.n,
        "params": json.loads(args.params) if args.params else None,
        "epsilon": args.epsilon,
        "p": args.p,
        "policies": _parse_policies(args.policy) if args.policy else None,
        "trials": args.trials,
        "seed": args.seed,
        "scale_tau": args.scale_tau,
        "scale_s": args.scale_s,
        "out": args.out,
        "oracle": args.oracle,
        "oracle_params": json.loads(args.oracle_params) if args.oracle_params else None,
        "workers": args.workers,
    }
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    # overriding epsilon on top of a config that pinned p (or vice versa)
    # re-derives the other instead of tripping the consistency check
    if args.epsilon is not None and args.p is None:
        cfg.pop("p", None)
    if args.p is not None and args.epsilon is None:
        cfg.pop("epsilon", None)
    if args.no_timing:
        cfg["timing"] = False
    if args.verify:
        cfg["verify"] = True
    return ExperimentSpec.from_dict(cfg)


def _cmd_run(args) -> int:
    spec = _spec_from_args(args)
    out = spec.out or "results.csv"
    rows = write_csv(run_experiment(spec), out)
    print(json.dumps({"csv": out, "rows": len(rows), "policies": summarize(rows)},
                     indent=2))
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(quick=args.quick, seed=args.seed)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    for name, suite in report["suites"].items():
        mark = "ok" if suite["passed"] else "FAIL"
        print(f"{name}: {mark}", file=sys.stderr)
    return 1 if report["deterministic_violations"] else 0


def _cmd_bench(args) -> int:
    report = bench_scaling(
        _parse_sizes(args.sizes),
        kind=args.graph,
        epsilon=args.epsilon,
        policies=_parse_policies(args.policy),
        trials=args.trials,
        steps=args.steps,
        seed=args.seed,
        grid_compare=not args.no_grid_compare,
    )
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_verify_median(args) -> int:
    g = load_edge_list(args.edges)
    if args.weights:
        with open(args.weights) as fh:
            omega = np.asarray(json.load(fh), dtype=float)
        if len(omega) != g.n:
            raise SystemExit(f"expected {g.n} weights, got {len(omega)}")
        # zeros are legal: the search loop flushes underflowed weights to 0
        if not np.isfinite(omega).all() or (omega < 0).any():
            raise SystemExit("weights must be finite and nonnegative")
        if omega.sum() <= 0:
            raise SystemExit("weights must have a positive sum")
    else:
        omega = np.full(g.n, 1.0 / g.n)
    rep = median_report(omega, g)
    print(f"{'vertex':>6}  {'weight':>12}  {'phi':>12}  {'lambda':>12}")
    for v in range(g.n):
        star = " <- median" if v == rep["median"] else ""
        print(f"{v:>6}  {omega[v]:>12.6f}  {rep['phi'][v]:>12.6f}  "
              f"{rep['lambda'][v]:>12.6f}{star}")
    verdict = "holds" if rep["bisection_holds"] else "VIOLATED"
    print(f"median {rep['median']}: lambda {rep['median_lambda']:.6f} vs "
          f"half weight {rep['half_weight']:.6f} -> bisection {verdict}")
    return 0 if rep["bisection_holds"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "verify-median": _cmd_verify_median,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
