#!/usr/bin/env python3
"""Check that this checkout makes the same search decisions as another revision.

Runs acceptance criterion 1's median-bisection suite, the benchmark's
searches (every workload in perfbench/workloads.py, seeds 1-3) and
criterion 5's 600 adversarial rows twice: once with this checkout's package
and once with the package of REV, unpacked by git archive into a temporary
directory. Both runs build their searches from this checkout's
perfbench/workloads.py. Criterion 1 is reduced to one hash of its small
graphs (n and edge lists, in order) and one of its 49 800 exact-median
picks. Each search is reduced to a hash of its queries, replies, members
redrawn and walk potentials (so a change in which members are redrawn
shows before it moves a query); each criterion-5 row is reduced to a hash
of its search and one of its fields. Prints every hash that differs and a
count per kind, and exits 1 if one differs.

    python3 scripts/decision_parity.py --against HEAD~1

The two trees run side by side, one process each; expect a few minutes.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _digest(t) -> str:
    h = hashlib.sha256()
    for a in (t.queries, t.replies, t.resampled, t.search_start_sums, t.search_end_sums):
        h.update(a.astype("<i8").tobytes())
    return h.hexdigest()[:16]


def emit(tree: Path) -> None:
    """Print one JSON line per search, label and hash, for the package in tree."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import graphbisect
    import graphbisect.harness as harness
    import graphbisect.verify as verify

    if Path(graphbisect.__file__).resolve().parent != (tree / "src" / "graphbisect").resolve():
        raise SystemExit(f"graphbisect came from {graphbisect.__file__}, not {tree}")
    from workloads import WORKLOADS

    def out(label, digest):
        print(json.dumps({"label": label, "hash": digest}), flush=True)

    # criterion 1, as tests/test_acceptance.py runs it, with every median
    # pick recorded on its way out of exact_median
    graphs = verify._connected_small_graphs()
    out("criterion1/graphs", hashlib.sha256(repr(graphs).encode()).hexdigest()[:16])
    picks = []
    median = verify.exact_median

    def recorded_median(*args, **kwargs):
        v = median(*args, **kwargs)
        picks.append(v)
        return v

    verify.exact_median = recorded_median
    rep = verify.median_bisection_suite(weights_per_graph=50, seed=11)
    verify.exact_median = median
    if len(picks) != rep["cases"]:
        raise SystemExit(f"recorded {len(picks)} median picks of {rep['cases']} cases")
    out("criterion1/medians", hashlib.sha256(repr(picks).encode()).hexdigest()[:16])

    for seed in SEEDS:
        for name, build in WORKLOADS.items():
            for s in build(seed):
                t = graphbisect.run_search(s.graph, s.make_oracle(), s.cfg)
                out(f"{name}/seed{seed}/{s.label}", _digest(t))

    # criterion 5, as tests/test_acceptance.py specifies it, run in-process so
    # that every transcript passes through the wrapper
    transcripts = []
    search = harness.run_search

    def recorded(*args, **kwargs):
        t = search(*args, **kwargs)
        transcripts.append(_digest(t))
        return t

    harness.run_search = recorded
    for kind in ("path", "grid", "erdos-renyi-connected"):
        for schedule in ("greedy-heavy", "random-schedule"):
            spec = harness.ExperimentSpec(
                graph=kind, n=64, epsilon=0.5, policies=("exact-median",),
                trials=100, seed=7, timing=False,
                oracle="adversarial", oracle_params={"schedule": schedule},
            )
            for i, row in enumerate(harness.run_experiment(spec)):
                # an error row has no transcript
                label = f"criterion5/{kind}/{schedule}/{i}"
                out(f"{label}/search", transcripts.pop(0) if row.status == "ok" else "-")
                out(f"{label}/row", hashlib.sha256(repr(row.as_list()).encode()).hexdigest()[:16])


def _run_tree(tree: Path, out) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(tree)],
        stdout=out, env=env,
    )


def _collect(proc: subprocess.Popen, out, name: str) -> dict[str, str]:
    if proc.wait() != 0:
        raise SystemExit(f"{name}: exit code {proc.returncode}")
    out.seek(0)
    return {r["label"]: r["hash"] for r in map(json.loads, out.read().splitlines())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="REV", help="git revision to compare with")
    group.add_argument("--emit", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit(Path(args.emit))
        return 0

    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", args.against],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        capture_output=True, check=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tmp, \
            tempfile.TemporaryFile("w+") as theirs_out, tempfile.TemporaryFile("w+") as ours_out:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        theirs_proc = _run_tree(Path(tmp), theirs_out)
        ours_proc = _run_tree(ROOT, ours_out)
        ours = _collect(ours_proc, ours_out, "this checkout")
        theirs = _collect(theirs_proc, theirs_out, commit)

    differ = [label for label in ours if theirs.get(label) != ours[label]]
    missing = sorted(set(theirs) - set(ours))
    for label in differ:
        print(f"differs: {label}  {commit} {theirs.get(label, '-')}  this checkout {ours[label]}")
    for label in missing:
        print(f"differs: {label}  {commit} {theirs[label]}  this checkout -")
    kinds = {
        "criterion-1 hashes": lambda label: label.startswith("criterion1/"),
        f"benchmark searches on seeds {', '.join(map(str, SEEDS))}":
            lambda label: not label.startswith("criterion"),
        "criterion-5 searches": lambda label: label.endswith("/search"),
        "criterion-5 rows": lambda label: label.endswith("/row"),
    }
    print(f"against {commit}: " + "; ".join(
        f"{sum(map(is_kind, differ + missing))} of {sum(map(is_kind, ours))} {name} differ"
        for name, is_kind in kinds.items()))
    return 1 if differ or missing else 0


if __name__ == "__main__":
    sys.exit(main())
