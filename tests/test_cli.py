import csv
import json

import pytest

from graphbisect.cli import main
from graphbisect.graph import load_edge_list


def test_generate_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.edges"
    rc = main(["generate", "--graph", "grid", "--n", "12", "--out", str(out)])
    assert rc == 0
    g = load_edge_list(out)
    assert g.n == 12
    assert "n=12" in capsys.readouterr().out


def test_generate_params_json(tmp_path):
    out = tmp_path / "r.edges"
    rc = main([
        "generate", "--graph", "random-regular", "--n", "8",
        "--params", '{"degree": 2}', "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    assert load_edge_list(out).max_degree == 2


@pytest.mark.parametrize("argv", [
    ["generate", "--graph", "path", "--n", "5", "--params", "{bad"],
    ["generate", "--graph", "path", "--n", "5", "--params", "[1]"],
    ["run", "--graph", "path", "--n", "8", "--params", "{bad"],
    ["run", "--graph", "path", "--n", "8", "--params", '[["p", 0.9]]'],
    ["run", "--graph", "path", "--n", "8", "--oracle-params", "{bad"],
    ["run", "--graph", "path", "--n", "8", "--oracle-params", '"ab"'],
])
def test_bad_json_options_exit_with_one_line(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    message = str(exc.value)
    assert message.startswith(argv[-2]) and "\n" not in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["{bad", "[1, 2]"])
def test_bad_config_file_exits_with_one_line(text, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")])
    assert str(exc.value).startswith(f"--config {cfg}") and "\n" not in str(exc.value)


@pytest.mark.parametrize("argv,message", [
    (["--graph", "erdos-renyi-connected", "--n", "10", "--params", '{"p": 1.5}'],
     "edge probability 1.5 outside"),
    (["--graph", "random-regular", "--n", "10", "--params", '{"degree": 12}'],
     "degree 12 impossible"),
    (["--graph", "random-regular", "--n", "4", "--params", '{"degree": 0}'],
     "degree 0 is disconnected"),
    (["--graph", "cycle", "--n", "2"], "cycle needs n >= 3"),
    (["--graph", "grid", "--n", "10", "--params", '{"rows": 3, "cols": 4}'],
     r"rows\*cols must equal"),
    (["--graph", "path", "--n", "0"], "at least one vertex"),
    # no draw at p = 0 is connected: generate gives up after 200
    (["--graph", "erdos-renyi-connected", "--n", "10", "--params", '{"p": 0}'],
     "200 draws"),
])
def test_generate_bad_graph_exits_with_one_line(argv, message, tmp_path):
    with pytest.raises(SystemExit, match=message) as exc:
        main(["generate", *argv, "--out", str(tmp_path / "g.edges")])
    assert str(exc.value).startswith(f"generate {argv[1]}: ")
    assert "\n" not in str(exc.value)
    assert not (tmp_path / "g.edges").exists()


@pytest.mark.parametrize("text,message", [
    ("3 2\n0 1\n0 5\n", "out of range"),
    ("3 2\n0 1\n1 1\n", "self-loop"),
    ("3 2\n0 1\n1 0\n", "duplicate edge"),
    ("3 3\n0 1\n1 2\n", "header promises 3 edges, found 2"),
    ("4 2\n0 1\n2 3\n", "disconnected"),
    ("3 2\n0 1\n1 x\n", "invalid literal"),
    (None, "No such file"),
])
def test_verify_median_bad_edge_list_exits_with_one_line(text, message, tmp_path):
    edges = tmp_path / "g.edges"
    if text is not None:
        edges.write_text(text)
    with pytest.raises(SystemExit, match=message) as exc:
        main(["verify-median", "--edges", str(edges)])
    assert str(exc.value).startswith("verify-median --edges: ")
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("text,message", [("[0.5, 0.5,", "Expecting value"), (None, "No such file")])
def test_verify_median_unreadable_weights_exit_with_one_line(text, message, tmp_path):
    edges = tmp_path / "p5.edges"
    main(["generate", "--graph", "path", "--n", "5", "--out", str(edges)])
    weights = tmp_path / "w.json"
    if text is not None:
        weights.write_text(text)
    with pytest.raises(SystemExit, match=message) as exc:
        main(["verify-median", "--edges", str(edges), "--weights", str(weights)])
    assert str(exc.value).startswith("verify-median --weights: ")
    assert "\n" not in str(exc.value)


def test_run_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main([
        "run", "--graph", "path", "--n", "8", "--p", "0",
        "--policy", "exact-median", "--trials", "2", "--seed", "1",
        "--no-timing", "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        lines = list(csv.reader(fh))
    assert len(lines) == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == 2
    assert summary["policies"]["exact-median"]["successes"] == 2


def test_run_appends_on_rerun(tmp_path):
    out = tmp_path / "rows.csv"
    argv = [
        "run", "--graph", "path", "--n", "8", "--p", "0",
        "--policy", "exact-median", "--trials", "1", "--seed", "1",
        "--no-timing", "--out", str(out),
    ]
    main(argv)
    main(argv)
    with open(out) as fh:
        lines = list(csv.reader(fh))
    assert len(lines) == 1 + 2


def test_run_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": "path", "n": 8, "p": 0.0, "policies": ["exact-median"],
        "trials": 5, "seed": 2, "timing": False,
    }))
    out = tmp_path / "rows.csv"
    rc = main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 1


def test_run_epsilon_flag_overrides_config_p(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": "path", "n": 8, "p": 0.1, "policies": ["exact-median"],
        "trials": 1, "seed": 2, "timing": False,
    }))
    out = tmp_path / "rows.csv"
    rc = main(["run", "--config", str(cfg), "--epsilon", "0.5", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["epsilon"]) == 0.5 and float(row["p"]) == 0.0


def test_verify_quick_exits_zero(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["verify", "--quick", "--seed", "12", "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["deterministic_violations"] == 0
    assert "median-bisection" in report["suites"]


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = main([
        "bench", "--sizes", "8,12,16", "--graph", "path", "--epsilon", "0.5",
        "--policy", "exact-median", "--trials", "1", "--steps", "4",
        "--no-grid-compare", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["sizes"] == [8, 12, 16]
    assert "slope" in report["policies"]["exact-median"]


def test_bench_rejects_two_sizes():
    with pytest.raises(ValueError):
        main(["bench", "--sizes", "8,16", "--trials", "1", "--steps", "4"])


def test_verify_median_uniform(tmp_path, capsys):
    edges = tmp_path / "p5.edges"
    main(["generate", "--graph", "path", "--n", "5", "--out", str(edges)])
    capsys.readouterr()
    rc = main(["verify-median", "--edges", str(edges)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bisection holds" in out
    assert "<- median" in out


def test_verify_median_weighted(tmp_path, capsys):
    edges = tmp_path / "p5.edges"
    main(["generate", "--graph", "path", "--n", "5", "--out", str(edges)])
    weights = tmp_path / "w.json"
    weights.write_text("[0.01, 0.01, 0.01, 0.01, 10.0]")
    capsys.readouterr()
    rc = main(["verify-median", "--edges", str(edges), "--weights", str(weights)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if "<- median" in l]
    assert lines and lines[0].split()[0] == "4"


def test_verify_median_bad_weight_count(tmp_path):
    edges = tmp_path / "p5.edges"
    main(["generate", "--graph", "path", "--n", "5", "--out", str(edges)])
    weights = tmp_path / "w.json"
    weights.write_text("[1.0, 2.0]")
    with pytest.raises(SystemExit, match="expected 5 weights"):
        main(["verify-median", "--edges", str(edges), "--weights", str(weights)])


def test_verify_median_accepts_zero_weights(tmp_path, capsys):
    # a weight vector the search holds once a gap in lies has underflowed
    edges = tmp_path / "p5.edges"
    main(["generate", "--graph", "path", "--n", "5", "--out", str(edges)])
    weights = tmp_path / "w.json"
    weights.write_text("[0.0, 0.0, 0.25, 0.75, 0.0]")
    capsys.readouterr()
    rc = main(["verify-median", "--edges", str(edges), "--weights", str(weights)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if "<- median" in l]
    assert lines and lines[0].split()[0] == "3"


@pytest.mark.parametrize("text,message", [
    ("[0.5, -0.1, 0.2, 0.2, 0.2]", "finite and nonnegative"),
    ("[0.5, NaN, 0.2, 0.2, 0.2]", "finite and nonnegative"),
    ("[0.0, 0.0, 0.0, 0.0, 0.0]", "positive sum"),
    ("[[1, 1], [1, 1], [1, 1], [1, 1], [1, 1]]", "flat JSON array of numbers"),
    ('{"0": 1, "1": 1, "2": 1, "3": 1, "4": 1}', "flat JSON array of numbers"),
])
def test_verify_median_rejects_bad_weights(tmp_path, text, message):
    edges = tmp_path / "p5.edges"
    main(["generate", "--graph", "path", "--n", "5", "--out", str(edges)])
    weights = tmp_path / "w.json"
    weights.write_text(text)
    with pytest.raises(SystemExit, match=message):
        main(["verify-median", "--edges", str(edges), "--weights", str(weights)])
