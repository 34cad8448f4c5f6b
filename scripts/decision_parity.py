#!/usr/bin/env python3
"""Check that this checkout makes the same search decisions as another revision.

Hashes the graphs the package builds, then runs acceptance criterion 1's
median-bisection suite, the benchmark's searches (every workload in
perfbench/workloads.py, seeds 1-3) and criterion 5's 600 adversarial rows,
twice: once with this checkout's package and once with the package of REV,
unpacked by git archive into a temporary directory. Both runs build their
searches from this checkout's perfbench/workloads.py. The graph hashes
cover the sorted edges of every kind at a few sizes and params on seeds
0-3 (among them the ER and random-regular seeds whose first draws are
disconnected), the exception type and text of invalid params, the bytes
and dtype of the all-pairs matrices of the 64 x 64 grid, path 600, ER-1024
and a random tree on 1 024 vertices, and four 64-source fills on the grid.
Criterion 1 is reduced to one hash of its small graphs (n and edge lists,
in order) and one of its 49 800 exact-median picks. Each search is reduced to a hash of its queries, replies, members
redrawn and walk potentials, and of the final members and counts of the
sample it drew, if any: a change in how many members are redrawn shows
before it moves a query, and a redraw that lands on another vertex shows
even when it moves no query or walk sum. Each criterion-5 row is reduced
to a hash of its search and one of its fields. Two tie hashes cover the
tie rule directly: the exact-median picks and greedy-heavy's replies to
every query on vertex-transitive graphs (cycles of 66, 100 and 1 025
vertices, K9 and the 3-cube), where every vertex or branch can tie, under
uniform and power-table weights. Prints every hash that differs and a
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
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _digest(t, sample=None) -> str:
    h = hashlib.sha256()
    arrays = [t.queries, t.replies, t.resampled, t.search_start_sums, t.search_end_sums]
    if sample is not None:
        arrays += [sample.members, sample.counts]
    for a in arrays:
        h.update(a.astype("<i8").tobytes())
    return h.hexdigest()[:16]


def emit(tree: Path) -> None:
    """Print one JSON line per search, label and hash, for the package in tree."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import graphbisect
    import graphbisect.harness as harness
    import graphbisect.verify as verify
    from graphbisect.graph import GRAPH_KINDS, build_graph, distance_matrix, generate
    from graphbisect.oracle import AdversarialOracle
    from graphbisect.potential import exact_median
    from graphbisect.sampling import Sample
    from graphbisect.weights import power_table

    if Path(graphbisect.__file__).resolve().parent != (tree / "src" / "graphbisect").resolve():
        raise SystemExit(f"graphbisect came from {graphbisect.__file__}, not {tree}")
    from workloads import WORKLOADS

    def out(label, digest):
        print(json.dumps({"label": label, "hash": digest}), flush=True)

    def matrix_digest(d):
        return hashlib.sha256(str(d.dtype).encode() + d.tobytes()).hexdigest()[:16]

    # the generators: every kind's edges, or the error it raises, at a few
    # sizes and params on seeds 0-3, including the seeds whose first ER and
    # random-regular draws are disconnected
    cases = [(kind, n, {}) for kind in GRAPH_KINDS for n in (1, 12, 100)] + [
        ("grid", 12, {"rows": 2, "cols": 6}),
        ("erdos-renyi-connected", 12, {"p": 0.15}),
        ("random-regular", 12, {"degree": 2}),
        # invalid params
        ("cycle", 2, {}),
        ("grid", 10, {"rows": 3, "cols": 4}),
        ("erdos-renyi-connected", 10, {"p": 1.5}),
        ("erdos-renyi-connected", 10, {"p": -0.1}),
        ("random-regular", 5, {"degree": 3}),
        ("random-regular", 5, {"degree": 5}),
        ("random-regular", 4, {"degree": 0}),
        ("random-regular", 10, {"degre": 4}),
        ("path", 0, {}),
        ("unknown-kind", 5, {}),
    ]
    for kind, n, params in cases:
        for seed in range(4):
            try:
                result = generate(kind, n, params, seed=seed).edges
            except ValueError as exc:
                result = f"{type(exc).__name__}: {exc}"
            label = f"graph/edges/{kind}/n{n}/{json.dumps(params, sort_keys=True)}/seed{seed}"
            out(label, hashlib.sha256(repr(result).encode()).hexdigest()[:16])

    # all-pairs matrices, bytes and dtype: int8 on the grid, ER and tree,
    # int16 over ten bit planes on the path
    for kind, n, params in [
        ("grid", 4096, {"rows": 64, "cols": 64}),
        ("path", 600, {}),
        ("erdos-renyi-connected", 1024, {}),
        ("random-tree", 1024, {}),
    ]:
        out(f"graph/dist/{kind}/n{n}", matrix_digest(generate(kind, n, params).dist))

    # 64-source fills on the grid, as local search asks for them
    grid = generate("grid", 4096, {"rows": 64, "cols": 64})
    rng = np.random.default_rng(17)
    for i in range(4):
        sources = rng.choice(grid.n, 64, replace=False)
        out(f"graph/fill/grid/{i}", matrix_digest(distance_matrix(grid.n, grid.edges, sources)))

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

    # the tie rule on graphs where every vertex ties under uniform weights
    tie_graphs = [generate("cycle", n) for n in (66, 100, 1025)] + [
        generate("complete", 9),
        build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]),
    ]
    rng = np.random.default_rng(15)
    medians, replies = [], []
    for g in tie_graphs:
        for w in (np.full(g.n, 1.0 / g.n), power_table(125 / 63)[rng.integers(0, 4, g.n)]):
            medians.append(exact_median(w, g))
            oracle = AdversarialOracle(g, int(rng.integers(g.n)), g.n, "greedy-heavy")
            replies += [oracle.reply(q, SimpleNamespace(omega=w)) for q in range(g.n)]
    out("ties/medians", hashlib.sha256(repr(medians).encode()).hexdigest()[:16])
    out("ties/greedy-heavy", hashlib.sha256(repr(replies).encode()).hexdigest()[:16])

    # every sample a search draws, recorded on its way out of Sample.draw;
    # a search draws at most one, and resamples it in place
    samples = []
    draw = vars(Sample)["draw"].__func__

    def recorded_draw(cls, *args, **kwargs):
        sample = draw(cls, *args, **kwargs)
        samples.append(sample)
        return sample

    Sample.draw = classmethod(recorded_draw)

    def digest(t):
        if len(samples) > 1:
            raise SystemExit(f"one search drew {len(samples)} samples")
        return _digest(t, samples.pop() if samples else None)

    for seed in SEEDS:
        for name, build in WORKLOADS.items():
            for s in build(seed):
                t = graphbisect.run_search(s.graph, s.make_oracle(), s.cfg)
                out(f"{name}/seed{seed}/{s.label}", digest(t))

    # criterion 5, as tests/test_acceptance.py specifies it, run in-process so
    # that every transcript passes through the wrapper
    transcripts = []
    search = harness.run_search

    def recorded(*args, **kwargs):
        t = search(*args, **kwargs)
        transcripts.append(digest(t))
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
        "graph hashes": lambda label: label.startswith("graph/"),
        "criterion-1 hashes": lambda label: label.startswith("criterion1/"),
        "tie hashes": lambda label: label.startswith("ties/"),
        f"benchmark searches on seeds {', '.join(map(str, SEEDS))}":
            lambda label: not label.startswith(("graph/", "criterion", "ties/")),
        "criterion-5 searches": lambda label: label.endswith("/search"),
        "criterion-5 rows": lambda label: label.endswith("/row"),
    }
    print(f"against {commit}: " + "; ".join(
        f"{sum(map(is_kind, differ + missing))} of {sum(map(is_kind, ours))} {name} differ"
        for name, is_kind in kinds.items()))
    return 1 if differ or missing else 0


if __name__ == "__main__":
    sys.exit(main())
