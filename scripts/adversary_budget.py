#!/usr/bin/env python3
"""Probe robustness against an adversarial answerer.

Sweeps the adversary's lie budget as a fraction of the query horizon and
records how often the search still lands on the target.  The analysis
guarantees success below a 0.376 fraction, and the default fractions
bracket that point; the greedy-heavy adversary does not reach it in
practice (README, "Experiments": on ER-64 exact-median held at 0.45 and
failed near one half).
"""

import argparse
import csv
import sys
from pathlib import Path

from graphbisect.harness import ExperimentSpec, run_experiment
from graphbisect.strategy import derive_config


def main():
    parser = argparse.ArgumentParser(description="Success rate vs adversarial lie budget.")
    parser.add_argument("--graph", default="erdos-renyi-connected")
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--fractions", default="0.0,0.1,0.2,0.3,0.376,0.45,0.5",
                        help="Comma-separated lie budget fractions of the horizon.")
    parser.add_argument("--schedule", default="greedy-heavy",
                        choices=["greedy-heavy", "random-schedule"])
    parser.add_argument("--policy", default="exact-median")
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="adversary_budget.csv")
    args = parser.parse_args()

    fractions = [float(tok) for tok in args.fractions.split(",")]
    cfg = derive_config(0.5, args.n, args.policy)
    horizon = cfg.num_queries
    print(f"horizon {horizon} queries, tolerated fraction {cfg.error_rate}", file=sys.stderr)

    out = Path(args.out)
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["fraction", "budget", "trials", "successes", "mean_queries"])
        for frac in fractions:
            budget = int(frac * horizon)
            spec = ExperimentSpec(
                graph=args.graph,
                n=args.n,
                epsilon=0.5,
                policies=(args.policy,),
                trials=args.trials,
                seed=args.seed,
                oracle="adversarial",
                oracle_params={"budget": budget, "schedule": args.schedule},
                timing=False,
            )
            rows = list(run_experiment(spec))
            succ = sum(r.success for r in rows)
            mean_q = sum(r.queries for r in rows) / len(rows)
            writer.writerow([frac, budget, len(rows), succ, "%.1f" % mean_q])
            print(f"fraction {frac:.3f} (budget {budget}): {succ}/{len(rows)}",
                  file=sys.stderr)

    print(f"wrote {out}")


if __name__ == "__main__":
    main()
