import csv
import os

import numpy as np
import pytest

from graphbisect.harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    bench_scaling,
    run_experiment,
    summarize,
    write_csv,
)


def _spec(**kw):
    base = dict(
        graph="path", n=16, p=0.0, policies=("exact-median",),
        trials=3, seed=42, timing=False,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_unknown_graph_kind_rejected(self):
        with pytest.raises(ValueError, match="graph kind"):
            _spec(graph="torus")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            _spec(policies=("exact-median", "oracle-of-delphi"))

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trial"):
            _spec(trials=0)

    def test_p_derives_epsilon(self):
        s = _spec(p=0.3)
        assert s.epsilon == pytest.approx(0.2)

    def test_epsilon_derives_p(self):
        s = ExperimentSpec(graph="path", n=8, epsilon=0.5)
        assert s.p == 0.0

    def test_conflicting_epsilon_p_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            ExperimentSpec(graph="path", n=8, epsilon=0.4, p=0.3)

    def test_out_of_range_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            ExperimentSpec(graph="path", n=8, epsilon=0.7)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentSpec.from_dict({"graph": "path", "n": 8, "colour": "red"})

    def test_single_policy_string_normalized(self):
        s = _spec(policies="exact-median")
        assert s.policies == ("exact-median",)

    def test_dict_roundtrip(self):
        s = _spec(trials=2)
        again = ExperimentSpec.from_dict(s.to_dict())
        assert again == s


class TestRunExperiment:
    def test_noiseless_path_all_succeed(self):
        # with p = 0 and within the query budget the answer is always found
        rows = list(run_experiment(_spec(trials=10)))
        assert len(rows) == 10
        assert all(r.status == "ok" and r.success == 1 for r in rows)
        assert all(r.queries <= 2602 for r in rows)

    def test_row_order_is_trial_major(self):
        spec = _spec(trials=2, policies=("exact-median", "local-search"))
        rows = list(run_experiment(spec))
        assert [(r.trial, r.policy) for r in rows] == [
            (0, "exact-median"), (0, "local-search"),
            (1, "exact-median"), (1, "local-search"),
        ]

    def test_same_instance_across_policies(self):
        spec = ExperimentSpec(
            graph="erdos-renyi-connected", n=12, epsilon=0.5,
            policies=("exact-median", "global-sampled"), trials=2,
            seed=3, timing=False,
        )
        rows = list(run_experiment(spec))
        for t in (0, 1):
            a, b = rows[2 * t], rows[2 * t + 1]
            assert (a.m, a.diameter, a.max_degree) == (b.m, b.diameter, b.max_degree)
            assert a.seed != b.seed

    def test_rows_deterministic(self):
        spec = _spec(trials=4)
        first = [r.as_list() for r in run_experiment(spec)]
        second = [r.as_list() for r in run_experiment(spec)]
        assert first == second

    def test_generator_failure_yields_error_rows(self):
        spec = ExperimentSpec(
            graph="random-regular", n=9, params={"degree": 3}, epsilon=0.5,
            policies=("exact-median", "local-search"), trials=2,
            seed=0, timing=False,
        )
        rows = list(run_experiment(spec))  # odd n*d, no such graph
        assert len(rows) == 4
        assert all(r.status == "error:ValueError" for r in rows)
        assert all(r.success == 0 and r.m == -1 for r in rows)

    def test_verify_toggle_checks_transcripts(self):
        spec = ExperimentSpec(
            graph="erdos-renyi-connected", n=12, epsilon=0.45,
            policies=("global-sampled", "local-search"), trials=1,
            seed=5, timing=False, verify=True,
        )
        rows = list(run_experiment(spec))
        assert all(r.check_violations == 0 for r in rows)

    def test_timing_columns(self):
        on = list(run_experiment(_spec(trials=1, timing=True)))[0]
        off = list(run_experiment(_spec(trials=1, timing=False)))[0]
        assert on.query_time_mean > 0 and on.query_time_p95 >= on.query_time_mean * 0.1
        assert off.query_time_mean == -1.0 and off.query_time_p95 == -1.0

    def test_parallel_matches_serial(self):
        spec = _spec(trials=2, n=8)
        serial = [r.as_list() for r in run_experiment(spec)]
        par = [r.as_list() for r in run_experiment(_spec(trials=2, n=8, workers=2))]
        assert serial == par
        # error rows too: a generator that cannot build the graph, and an
        # oracle that rejects its params
        for kw in (
            dict(graph="random-regular", n=9, params={"degree": 3}),
            dict(oracle_params={"bogus": 1}),
        ):
            base = dict(trials=2, policies=("exact-median", "local-search"), **kw)
            serial = [r.as_list() for r in run_experiment(_spec(**base))]
            par = list(run_experiment(_spec(workers=2, **base)))
            assert serial == [r.as_list() for r in par]
            assert all(r.status.startswith("error:") for r in par)


class TestCsv:
    def test_header_once_rows_appended(self, tmp_path):
        path = tmp_path / "rows.csv"
        spec = _spec(trials=2)
        write_csv(run_experiment(spec), path)
        write_csv(run_experiment(spec), path)
        with open(path) as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 1 + 4
        assert all(row[0] == "path" for row in lines[1:])

    def test_append_refuses_a_foreign_header(self, tmp_path):
        # the 20-column layout of older versions, with its peak_mem column
        path = tmp_path / "old.csv"
        old_header = ",".join(CSV_COLUMNS[:-1] + ["peak_mem", CSV_COLUMNS[-1]])
        path.write_text(old_header + "\r\n")
        before = path.read_bytes()
        with pytest.raises(ValueError, match="old.csv"):
            write_csv(run_experiment(_spec(trials=1)), path)
        assert path.read_bytes() == before

    def test_byte_identical_reruns(self, tmp_path):
        spec = _spec(trials=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(spec), a)
        write_csv(run_experiment(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_summarize_counts(self):
        rows = write_csv(run_experiment(_spec(trials=3)), os.devnull)
        s = summarize(rows)
        assert s["exact-median"]["runs"] == 3
        assert s["exact-median"]["successes"] == 3
        assert s["exact-median"]["errors"] == 0
        assert s["exact-median"]["mean_queries"] > 0


class TestBench:
    def test_rejects_fewer_than_three_sizes(self):
        with pytest.raises(ValueError, match="3 distinct sizes"):
            bench_scaling([64, 64, 128])

    def test_report_shape(self):
        rep = bench_scaling(
            [8, 12, 16], kind="path", epsilon=0.5,
            policies=("exact-median",), trials=1, steps=4,
            seed=1, grid_compare=False,
        )
        pol = rep["policies"]["exact-median"]
        assert rep["sizes"] == [8, 12, 16]
        assert len(pol["mean_per_query"]) == 3
        assert len(pol["p95_per_query"]) == 3
        assert all(t > 0 for t in pol["mean_per_query"])
        assert np.isfinite(pol["slope"])

    def test_grid_comparison_present(self):
        rep = bench_scaling(
            [8, 12, 16], kind="path", epsilon=0.5,
            policies=("exact-median",), trials=1, steps=4,
            seed=1, grid_compare=True,
        )
        cmp = rep["grid_comparison"]
        assert cmp["n"] == 16
        assert cmp["local-search"] > 0 and cmp["global-sampled"] > 0
        assert isinstance(cmp["local_faster"], bool)
