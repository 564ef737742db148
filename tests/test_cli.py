from __future__ import annotations

import ast
import contextlib
import dataclasses
import hashlib
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import chainobs as co
from chainobs import analysis, builder, cli, lqs, serialize, simulate
from conftest import build_system
from make_golden import PINNED, load, run, runs
from oracles import (
    averages_csv_text,
    matrix_csv_text,
    output_matrix,
    spatial_csv_text,
    trajectory_csv_text,
)

BASE_CONFIG = {
    "n_elements": 3,
    "scheme": "uniform",
    "omega0": 1.0,
    "c_p": [1.0, 0.0],
    "horizon": 2.0,
    "step": 0.1,
}

OMIT = object()

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use() -> str:
    """README's "Library use" section, up to its first subsection."""
    text = README.read_text()
    start = text.index("\n## Library use\n")
    return text[start:text.index("\n##", start + 1)]


def config_text(**overrides) -> str:
    raw = dict(BASE_CONFIG)
    for key, value in overrides.items():
        if value is OMIT:
            raw.pop(key, None)
        else:
            raw[key] = value
    return json.dumps(raw)


def write_config(tmp_path, **overrides):
    """tmp_path/config.json, replaced as serialize._create replaces a file:
    some filesystems force a file truncated and written again to disk when
    it is closed, which costs tens of milliseconds a write."""
    path = tmp_path / "config.json"
    path.unlink(missing_ok=True)
    path.write_text(config_text(**overrides))
    return path


class TestParseConfig:
    def test_defaults(self):
        config = cli.parse_config(config_text(step=OMIT))
        assert config.step == "auto"
        assert config.output_dir == "."
        assert config.seed is None
        assert config.c_p == (1.0, 0.0)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("{not json", "not valid JSON"),
            ("[1, 2]", "JSON object"),
            (config_text(extra=1), "unknown config fields"),
            (config_text(n_elements=OMIT), "required"),
            (config_text(n_elements=3.0), "expected an integer"),
            (config_text(n_elements=True), "expected an integer"),
            (config_text(scheme=7), "expected a string"),
            (config_text(omega0="1"), "expected a number"),
            (config_text(omega0=float("nan")), "finite"),
            (config_text(c_p=[1.0]), "exactly 2"),
            (config_text(c_p=[1.0, "x"]), "expected a number"),
            (config_text(horizon=True), "expected a number"),
            (config_text(seed=1.5), "nonnegative integer"),
            (config_text(seed=True), "nonnegative integer"),
            (config_text(step="fast"), "expected a number"),
            (config_text(output_dir=5), "expected a string"),
        ],
    )
    def test_schema_errors(self, text, fragment):
        with pytest.raises(co.ConfigSchemaError, match=fragment):
            cli.parse_config(text)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            (config_text(horizon=0.0), "horizon must be positive"),
            (config_text(step=-0.5), "step must be positive"),
        ],
    )
    def test_validation_errors(self, text, fragment):
        with pytest.raises(co.ConfigValidationError, match=fragment):
            cli.parse_config(text)

    @pytest.mark.parametrize("command", ["build", "check", "timeavg", "simulate"])
    @pytest.mark.parametrize(
        "overrides,err",
        [
            ({"n_elements": 0}, "n_elements must be a positive integer, got 0"),
            ({"scheme": "fibonacci"}, "unknown scheme 'fibonacci', expected one of uniform, "
                                      "odd-harmonics, all-harmonics, random"),
            ({"omega0": -1.0}, "omega0 must be positive, got -1.0"),
            ({"c_p": [0.0, 0.0]}, "plant output c_p is zero; the chain cannot observe it"),
            ({"scheme": "random"}, "the random scheme requires a seed"),
            ({"seed": 3}, "seed is only meaningful for the random scheme, not 'uniform'"),
            ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
            ({"scheme": "all-harmonics"},
             "the all-harmonics schedule is defined for even chain lengths only, got N=3"),
            # the preflight counts no bytes below one element, so make_mu_schedule names it
            ({"n_elements": -2**70},
             "n_elements must be a positive integer, got -1180591620717411303424"),
        ],
    )
    def test_values_are_checked_by_the_library(self, tmp_path, capsys, command, overrides, err):
        """parse_config checks the config's shape; each value rule is the
        library's (ParameterScheme, make_mu_schedule, build_chain), and its
        one error line exits 2 before output_dir is made."""
        out = tmp_path / "out"
        config = write_config(tmp_path, output_dir=str(out), **overrides)
        cli.load_config(config)  # its shape is accepted
        assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(co.ConfigSchemaError, match="cannot read"):
            cli.load_config(tmp_path / "absent.json")


# Edge values a 17-digit writer must keep exact: short and long decimal
# forms, a large integral value, the smallest normal and subnormal doubles.
EDGE_VALUES = (0.1, 1.0, np.pi, 1.0 / 3.0, -2.5e17, 1e-308, 4.9e-324)

csv_floats = st.one_of(
    st.sampled_from(
        [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    ),
    st.integers(-(2**53), 2**53).map(float),
    st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(-10.0, 10.0, allow_nan=False),
        st.integers(-300, 299),
    ),
)


def csv_arrays(*shape):
    return hnp.arrays(np.float64, shape, elements=csv_floats)


@st.composite
def writer_cases(draw):
    samples, n_rows, dim = draw(st.integers(2, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    horizons = draw(st.lists(csv_floats, min_size=1, max_size=3))
    return {
        "matrix": draw(csv_arrays(n_rows, dim)),
        "times": draw(csv_arrays(samples)),
        "rows": draw(csv_arrays(samples, n_rows, dim)),
        "spatial": draw(csv_arrays(samples, dim)),
        "horizons": horizons,
        "averages": [draw(csv_arrays(n_rows, dim)) for _ in horizons],
        "row_errors": draw(st.lists(csv_floats, min_size=n_rows - 1, max_size=n_rows - 1)),
    }


class TestSerialize:
    @pytest.mark.parametrize("shape", [(7, 4), (3, 1), (1, 5), (1, 1)], ids="{0[0]}x{0[1]}".format)
    def test_matrix_round_trip_is_exact(self, tmp_path, shape):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
        flat = matrix.reshape(-1)
        flat[: len(EDGE_VALUES)] = EDGE_VALUES[: flat.size]
        path = tmp_path / "m.csv"
        serialize.write_matrix_csv(path, matrix)
        read = np.loadtxt(path, delimiter=",", ndmin=2)
        assert read.shape == shape
        assert np.array_equal(read, matrix)

    @given(writer_cases())
    @settings(max_examples=60, deadline=None)
    def test_files_match_the_per_value_writer(self, tmp_path_factory, case):
        """Every CSV writer produces exactly the text of format(x, ".17g") per value."""
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        times, horizons, averages = case["times"], case["horizons"], case["averages"]
        serialize.write_matrix_csv(path, case["matrix"])
        assert path.read_text() == matrix_csv_text(case["matrix"])
        serialize.write_trajectory_csv(path, times, case["rows"])
        assert path.read_text() == trajectory_csv_text(times, case["rows"])
        serialize.write_spatial_csv(path, times, case["spatial"])
        assert path.read_text() == spatial_csv_text(times, case["spatial"])
        serialize.write_averages_csv(path, horizons, averages, case["row_errors"])
        assert path.read_text() == averages_csv_text(horizons, averages, case["row_errors"])

    def test_trajectory_writer_holds_no_text_copy(self, tmp_path, example_system):
        """Writing the reference trajectory at T = 5 allocates less than twice the
        array: the values are formatted line by line, never as one whole text."""
        chain = example_system
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.covering(5.0, co.default_step(modes))
        times, rows = simulate.coefficient_trajectory(modes, grid)
        tracemalloc.start()
        try:
            serialize.write_trajectory_csv(tmp_path / "trajectory.csv", times, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * rows.nbytes

    def test_headers(self):
        assert serialize.trajectory_header(3) == "t,row,c_1,c_2,c_3"
        assert serialize.average_header(2) == "T,row,avg_c_1,avg_c_2"

    def test_averages_summary_lines(self, tmp_path):
        avg = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "avg.csv"
        serialize.write_averages_csv(path, [4.0], [avg], [0.5])
        lines = path.read_text().splitlines()
        assert lines[0] == "T,row,avg_c_1,avg_c_2,avg_c_3"
        assert lines[1] == "4,1,1,2,3"
        assert lines[-1] == "4,err_2,0.5,,"


def record_calls(monkeypatch, name: str) -> list[tuple]:
    """The arguments of every call the CLI makes to serialize.<name>."""
    calls = []
    writer = getattr(serialize, name)

    def recording(*args):
        calls.append(args)
        writer(*args)

    monkeypatch.setattr(serialize, name, recording)
    return calls


class TestWholeFiles:
    """A run's CSVs hold exactly the per-value writer's text of the arrays the
    run hands to the writers."""

    def test_timeavg_n50(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, "write_averages_csv")
        config = write_config(tmp_path, n_elements=50, scheme="odd-harmonics", horizon=8.0,
                              step="auto", output_dir=str(tmp_path))
        assert cli.main(["timeavg", "--config", str(config)]) == 0
        [(path, horizons, averages, row_errors)] = calls
        assert path.read_bytes() == averages_csv_text(horizons, averages, row_errors).encode()

    def test_build_n50(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, "write_matrix_csv")
        config = write_config(tmp_path, n_elements=50, scheme="odd-harmonics",
                              output_dir=str(tmp_path))
        assert cli.main(["build", "--config", str(config)]) == 0
        assert len(calls) == 4
        for path, matrix in calls:
            assert path.read_bytes() == matrix_csv_text(matrix).encode()

    def test_readme_simulate_at_t5(self, tmp_path, monkeypatch):
        trajectory_calls = record_calls(monkeypatch, "write_trajectory_csv")
        spatial_calls = record_calls(monkeypatch, "write_spatial_csv")
        config = write_config(tmp_path, n_elements=5, scheme="odd-harmonics", horizon=800.0,
                              step="auto", output_dir=str(tmp_path))
        assert cli.main(["simulate", "--config", str(config), "--horizon", "5"]) == 0
        [(path, times, rows)] = trajectory_calls
        assert path.read_bytes() == trajectory_csv_text(times, rows).encode()
        [(path, spatial_times, spatial)] = spatial_calls
        assert spatial_times is times
        assert path.read_bytes() == spatial_csv_text(times, spatial).encode()


class TestBuildCommand:
    def test_writes_matrices_and_report(self, tmp_path):
        config = write_config(tmp_path)
        code = cli.main(["build", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 0
        for name in ("r_a.csv", "a_a.csv", "c_a.csv", "r_o_reduced.csv", "report.json"):
            assert (tmp_path / name).exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["fixed_point_residual"] == 0.0
        assert report["certificate"]["lambda_min"] > 0.0
        names = {check["name"] for check in report["checks"]}
        assert "realizability_residual" in names
        assert "laplacian_row_sums" in names

    def test_written_matrices_match_the_library_exactly(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["build", "--config", str(config), "--output-dir", str(tmp_path)]) == 0
        chain = build_system([1.0, 0.0], "uniform", 1.0, 3)
        written = {name: np.loadtxt(tmp_path / f"{name}.csv", delimiter=",", ndmin=2)
                   for name in ("r_a", "a_a", "c_a")}
        assert np.array_equal(written["r_a"], chain.hamiltonian.dense())
        assert np.array_equal(written["a_a"], chain.dynamics.dense())
        assert np.array_equal(written["c_a"], output_matrix(chain))

    # build's matrix files on three chains, as pinned in the golden corpus
    # (tests/make_golden.py says why these three).
    @pytest.mark.parametrize("label", [k for k, (c, _) in PINNED.items() if c == "build"])
    def test_matrix_files_keep_their_bytes(self, tmp_path, label):
        entry = load()[1][label]
        assert run("build", entry["config"], tmp_path / "run") == entry

    @pytest.mark.parametrize(
        "command,names",
        [
            ("build", ("r_a.csv", "a_a.csv", "c_a.csv", "r_o_reduced.csv", "report.json")),
            ("simulate", ("trajectory.csv", "spatial_average.csv", "report.json")),
            ("timeavg", ("time_averages.csv", "report.json")),
        ],
        ids=["build", "simulate", "timeavg"],
    )
    def test_runs_are_byte_identical(self, tmp_path, command, names):
        config = write_config(tmp_path, horizon=1.0)
        first, second = tmp_path / "one", tmp_path / "two"
        assert cli.main([command, "--config", str(config), "--output-dir", str(first)]) == 0
        assert cli.main([command, "--config", str(config), "--output-dir", str(second)]) == 0
        assert sorted(p.name for p in first.iterdir()) == sorted(names)
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_stdout_lists_checks_and_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert cli.main(["build", "--config", str(config), "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ok   realizability_residual" in out
        assert "outputs: " in out
        assert "a_a.csv" in out


class TestSimulateCommand:
    def test_file_shapes(self, tmp_path):
        config = write_config(tmp_path)
        code = cli.main(["simulate", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 0
        trajectory_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        spatial_lines = (tmp_path / "spatial_average.csv").read_text().splitlines()
        # 21 samples, 4 output rows, plus one header line each
        assert len(trajectory_lines) == 1 + 21 * 4
        assert len(spatial_lines) == 1 + 21
        assert trajectory_lines[0] == serialize.trajectory_header(8)
        assert spatial_lines[1].split(",")[1] == "s"

    def test_horizon_and_step_overrides(self, tmp_path):
        config = write_config(tmp_path)
        code = cli.main(
            [
                "simulate",
                "--config", str(config),
                "--output-dir", str(tmp_path),
                "--horizon", "1.0",
                "--step", "0.05",
            ]
        )
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 21 * 4

    def test_auto_step_resolves_fastest_mode(self, tmp_path):
        config = write_config(tmp_path, step="auto", horizon=1.0)
        code = cli.main(["simulate", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 0
        chain = build_system([1.0, 0.0], "uniform", 1.0, 3)
        grid = co.TimeGrid.covering(1.0, co.default_step(co.normal_modes(chain)))
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + grid.samples * 4

    def test_long_run_passes(self, tmp_path, capsys):
        """67,150 samples up to T = 100 on the auto step. The recurrence
        Phi(t + h) = Phi(h) Phi(t) once drifted past its symplectic tolerance
        at sample 36,162 of this valid config; the closed-form rows carry no
        error from one sample to the next."""
        config = write_config(
            tmp_path, scheme="odd-harmonics", n_elements=5, c_p=[0.6, -1.3], horizon=100.0,
            step="auto",
        )
        code = cli.main(["simulate", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        drift = [c for c in report["checks"] if c["name"] == "plant_row_drift"]
        assert drift == [{"name": "plant_row_drift", "value": 0.0, "bound": 1e-9, "passed": True}]

    @pytest.mark.parametrize(
        "mutant,message", [("plant", "x* identity"), ("p", "derivative identity")]
    )
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"scheme": "odd-harmonics", "n_elements": 50}],
        ids=["uniform-3", "odd-harmonics-50"],
    )
    def test_weight_mutants_exit_one(
        self, tmp_path, monkeypatch, capsys, mutant, message, overrides
    ):
        """A 1e-6 error in the plant weights of the rows breaks the x* identity,
        and a sign flip of their p(0) weights the derivative identity."""
        true_weights, true_drive = simulate.NormalModes.weights, simulate.NormalModes.drive

        def mutated(modes, t):
            cos, sin = true_weights(modes, t)
            return cos, -sin

        def mutated_drive(modes, t):
            return true_drive(modes, t) * (1.0 + 1e-6)

        if mutant == "p":
            monkeypatch.setattr(simulate.NormalModes, "weights", mutated)
        else:
            monkeypatch.setattr(simulate.NormalModes, "drive", mutated_drive)
        config = write_config(tmp_path, **overrides)
        code = cli.main(["simulate", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message} residual")
        assert re.search(r"at sample \d+$", err.strip())
        assert not (tmp_path / "trajectory.csv").exists()

    def test_tolerance_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "PLANT_ROW_DRIFT_TOL", -1.0)
        config = write_config(tmp_path)
        code = cli.main(["simulate", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED checks" in captured.err
        assert "plant_row_drift" in captured.err


class TestTimeavgCommand:
    def test_ladder_and_summary(self, tmp_path, capsys):
        config = write_config(tmp_path, horizon=8.0)
        code = cli.main(["timeavg", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "time_averages.csv").read_text().splitlines()
        # header + 5 horizons x 4 rows + 3 per-row summaries
        assert len(lines) == 1 + 5 * 4 + 3
        assert lines[0] == serialize.average_header(8)
        assert lines[-3].split(",")[1] == "err_2"
        assert lines[-1].split(",")[1] == "err_4"
        out = capsys.readouterr().out
        assert out.count("consensus error at T") == 5

    def test_oracle_disagreement_gates_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "ORACLE_REL_TOL", 0.0)
        config = write_config(tmp_path, horizon=8.0)
        code = cli.main(["timeavg", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 1
        assert "time_average_oracle_disagreement" in capsys.readouterr().err

    def test_long_horizon_random_chain_passes(self, tmp_path, capsys):
        """A correct run at T = 12800, where a doubled-block exponential at T/16
        strayed 1.45e-7 from the closed form, against a bound of 5.2e-8."""
        config = write_config(
            tmp_path, scheme="random", seed=7, n_elements=12, c_p=[0.6, -1.3], horizon=12800.0
        )
        code = cli.main(["timeavg", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("mutant", ["q", "p", "plant"])
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"scheme": "odd-harmonics", "n_elements": 50}],
        ids=["uniform-3", "odd-harmonics-50"],
    )
    def test_weight_mutants_fail_the_cross_check(
        self, tmp_path, monkeypatch, capsys, mutant, overrides
    ):
        """A 1e-3 error in the q(0) or plant weights, or a sign flip of the p(0) ones,
        breaks at least one of the two identities."""
        true_weights = simulate._average_weights

        def mutated(modes, horizon):
            q, p, plant = true_weights(modes, horizon)
            if mutant == "q":
                q = q * (1.0 + 1e-3)
            elif mutant == "p":
                p = -p
            else:
                plant = plant * (1.0 + 1e-3)
            return q, p, plant

        monkeypatch.setattr(simulate, "_average_weights", mutated)
        config = write_config(tmp_path, horizon=8.0, **overrides)
        code = cli.main(["timeavg", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 1
        assert "FAILED checks: time_average_oracle_disagreement" in capsys.readouterr().err

    def test_horizon_shorter_than_a_sampling_step_passes(self, tmp_path):
        """T/16 = 1e-3 is below one auto step, which a sampled reference cannot resolve."""
        config = write_config(tmp_path, horizon=0.016)
        code = cli.main(["timeavg", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 0

    def test_largest_row_distance_is_the_reported_error(self, tmp_path):
        """The largest err_i of time_averages.csv is report.json's consensus
        error at T, bit for bit, on every timeavg run of the golden ladder and
        on odd-harmonics N=50 at T = 8, where a per-row loop once wrote
        1.630292869390653 against the report's 1.6302928693906529."""
        configs = [config for command, config in runs() if command == "timeavg"]
        configs.append({"omega0": 1.0, "n_elements": 50, "scheme": "odd-harmonics",
                        "c_p": [1.0, 0.0], "horizon": 8.0})
        for i, config in enumerate(configs):
            assert run("timeavg", config, tmp_path / str(i))["code"] == 0, config
            out = tmp_path / str(i) / "out"
            fields = [line.split(",") for line in
                      (out / "time_averages.csv").read_text().splitlines()]
            errors = [float(f[2]) for f in fields if f[1].startswith("err_")]
            curve = json.loads((out / "report.json").read_text())["consensus_error_curve"]
            assert max(errors) == curve[-1][1], config

    @pytest.mark.xfail(strict=True, reason="identity (i) divides rounding in Phi(T) by T")
    def test_tiny_horizon_passes(self, tmp_path, capsys):
        """A correct run at T = 1e-9 on uniform N=3 passes. It exits 1 today:
        time_average_oracle_disagreement reads 1.6e-6 against a bound of
        2.0e-8, since the residual (C_a Phi(T) - C_a) / T divides rounding in
        Phi(T) by T (2.0e-9 at T = 1e-6, 1.6e-3 at 1e-12, 1.6 at 1e-15)."""
        config = write_config(tmp_path, horizon=1e-9)
        code = cli.main(["timeavg", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 0, capsys.readouterr().err


class TestCheckCommand:
    def test_prints_report_json(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert cli.main(["check", "--config", str(config)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        names = {check["name"] for check in report["checks"]}
        assert "exp_norm_observed" in names
        assert report["outputs"] == {}

    def test_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path)
        assert cli.main(["check", "--config", str(config)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    # check's stdout at horizon 800, as pinned in the golden corpus. At N = 200
    # its last digits depend on how BLAS splits products (see
    # tests/make_golden.py).
    @pytest.mark.parametrize("label", [k for k, (c, _) in PINNED.items() if c == "check"])
    def test_stdout_keeps_its_bytes(self, tmp_path, label):
        entry = load()[1][label]
        assert run("check", entry["config"], tmp_path / "run") == entry

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_small_pins_hold_at_every_thread_count(self, tmp_path, threads):
        """check's sweep runs on one BLAS thread up to simulate.ONE_THREAD_MAX_N,
        so the random N=50 pins keep their bytes whatever OPENBLAS_NUM_THREADS
        says; each count is replayed in its own process, since OpenBLAS reads
        the variable at load. The N = 200 pins are above that N, keep
        OpenBLAS's own count and move with it, so they are not replayed here."""
        labels = [label for label in PINNED if label.startswith("random-50-")]
        replay = ("import json, sys\n"
                  "from pathlib import Path\n"
                  "from make_golden import load, run\n"
                  "pinned = load()[1]\n"
                  "print(json.dumps([run('check', pinned[label]['config'], "
                  "Path(sys.argv[1]) / label) for label in sys.argv[2:]]))\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join((str(SRC), str(Path(__file__).parent)))}
        done = subprocess.run([sys.executable, "-c", replay, str(tmp_path), *labels], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        pinned = load()[1]
        assert json.loads(done.stdout) == [pinned[label] for label in labels]


@pytest.mark.parametrize("command", ["build", "simulate", "timeavg", "check"])
def test_report_key_tree_is_pinned(tmp_path, capsys, command):
    """report.json, and check's stdout, publish exactly this tree. The report
    serializes its dataclasses whole, so a field added to them shows here."""
    config = write_config(tmp_path, horizon=1.0)
    assert cli.main([command, "--config", str(config), "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out if command == "check" else (tmp_path / "report.json").read_text())
    assert set(report) == {
        "certificate", "fixed_point_residual", "realizability_residual",
        "consensus_error_curve", "checks", "outputs", "passed",
    }
    assert set(report["certificate"]) == {"lambda_min", "lambda_max", "exp_norm_bound"}
    assert all(isinstance(v, float) for v in report["certificate"].values())
    assert isinstance(report["fixed_point_residual"], float)
    assert isinstance(report["realizability_residual"], float)
    curve = report["consensus_error_curve"]
    assert len(curve) == (5 if command == "timeavg" else 0)
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in curve)
    assert all(isinstance(v, float) for pair in curve for v in pair)
    assert report["checks"]
    for check in report["checks"]:
        assert set(check) == {"name", "value", "bound", "passed"}
        assert isinstance(check["name"], str) and isinstance(check["passed"], bool)
    assert all(isinstance(v, str) for v in report["outputs"].values())
    assert (report["outputs"] == {}) == (command == "check")
    assert isinstance(report["passed"], bool)


@pytest.mark.parametrize("command", ["simulate", "timeavg", "check"])
def test_each_run_solves_the_normal_modes_once(tmp_path, monkeypatch, command):
    """simulate, timeavg and check take everything from the normal modes: one
    eigensolve serves the auto step and every row, horizon or propagator."""
    solves = []
    solve = simulate._eigh_tridiagonal

    def counted(d, e):
        solves.append(d.shape)
        return solve(d, e)

    monkeypatch.setattr("chainobs.simulate._eigh_tridiagonal", counted)
    config = write_config(tmp_path, step="auto", horizon=1.0)
    assert cli.main([command, "--config", str(config), "--output-dir", str(tmp_path)]) == 0
    assert solves == [(3,)]


def forbid_dense_system(monkeypatch) -> None:
    """Make BlockTridiagonal.dense, the one way to form R_a or A_a densely, raise."""

    def refuse(self):
        raise AssertionError("a dense (2N+2)-square matrix was formed")

    monkeypatch.setattr(lqs.BlockTridiagonal, "dense", refuse)


class TestNoDenseSystem:
    """check, timeavg and simulate work from the chain's blocks alone."""

    def test_the_dense_representation_is_gone(self):
        """The blocks are the library's only form of R_a and A_a, and x* is stated once."""
        for name in ("AugmentedSystem", "assemble_augmented"):
            assert not hasattr(co, name), name
            assert not hasattr(builder, name), name
            assert name not in co.__all__
        for name in ("theta", "r_a", "a_a", "c_a", "r_o", "a_o", "c_o"):
            assert not hasattr(builder.ChainObserverParams, name), name
        for name in ("SymplecticForm", "make_symplectic", "dynamics_from_hamiltonian"):
            assert not hasattr(lqs, name), name
            assert name not in co.__all__
        assert not hasattr(builder, "consensus_target")
        assert "consensus_target" not in co.__all__
        assert not hasattr(simulate.NormalModes, "x_star")

    @pytest.mark.parametrize("n", [5, 50])
    @pytest.mark.parametrize("command", ["check", "timeavg", "simulate"])
    def test_runs_never_read_a_dense_matrix(self, tmp_path, monkeypatch, capsys, command, n):
        horizon = 0.005 if command == "simulate" and n == 50 else 8.0
        runs = []
        for forbid in (False, True):
            out = tmp_path / f"out-{forbid}"
            config = write_config(tmp_path, n_elements=n, scheme="odd-harmonics", horizon=horizon,
                                  step="auto", output_dir=str(out))
            with monkeypatch.context() as patch:
                if forbid:
                    forbid_dense_system(patch)
                code = cli.main([command, "--config", str(config)])
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
            runs.append((code, capsys.readouterr(), files))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    def test_build_still_writes_the_dense_matrices(self, tmp_path, monkeypatch):
        forbid_dense_system(monkeypatch)
        config = write_config(tmp_path, output_dir=str(tmp_path))
        assert cli.main(["build", "--config", str(config)]) == 3

    def test_set_up_holds_less_than_one_dense_array(self):
        """Construction plus the base report at N=1000 peak below one
        (2N+2)-square array of doubles (32 MB); the dense route held six."""
        n = 1000
        config = cli.parse_config(config_text(n_elements=n, scheme="odd-harmonics", step="auto"))
        tracemalloc.start()
        try:
            chain = cli._construct(config)
            report = cli._base_report(chain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < (2 * n + 2) ** 2 * 8


# a count as the preflight prints it, to three significant digits
ROUNDED = r"(?:\d{1,3}|\d\.\d\de\+\d+)"


class TestExitCodes:
    def test_oversized_simulate_is_rejected_before_any_row(self, tmp_path, capsys):
        """Odd-harmonics N=200 up to T = 1e6 on the auto step would hold
        about 1e10 samples of 201 x 402 rows: the run exits 2 naming the
        samples, the bytes and the memory, having allocated no row."""
        out = tmp_path / "out"
        config = write_config(tmp_path, n_elements=200, scheme="odd-harmonics", horizon=1e6,
                              step="auto", output_dir=str(out))
        tracemalloc.start()
        try:
            code = cli.main(["simulate", "--config", str(config)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"error: simulate would hold {ROUNDED} samples of 201 x 402 rows, about {ROUNDED} "
            r"bytes with the plant rows, the spatial average, five N x N arrays, one chunk of "
            r"temporaries and the writer's chunk of text, more than the \d+ bytes of physical "
            r"memory; shorten the horizon or lengthen the step\n",
            err,
        ), err
        # one 32 MiB chunk of rows would be the first allocation of the trajectory
        assert peak < 4 << 20
        assert not (out / "trajectory.csv").exists()

    # N=3, step 0.1, T=100: 1,001 samples of 4 x 8 rows. The run holds the
    # rows and two 1,001 x 8 arrays, 1,001 x 6 x 8 doubles, five 3 x 3
    # arrays, one chunk of 512 times, 512 x 4 x 8 rows and 4 x 512 x 3 x 3
    # observer blocks, and the writer's 2,048 values of text at 256 bytes
    # each: 1,187,560 bytes. Counting a labelled copy of the rows in place of
    # the rows and the two arrays, 1,001 x 4 x 18 doubles, gives 1,379,752.
    TRAJECTORY_ESTIMATE = 1_187_560
    LABELLED_COPY_ESTIMATE = 1_379_752

    @pytest.mark.parametrize(
        "memory, code",
        [((TRAJECTORY_ESTIMATE + LABELLED_COPY_ESTIMATE) // 2, 0), (TRAJECTORY_ESTIMATE - 1, 2)],
        ids=["between-estimates", "just-under"],
    )
    def test_simulate_preflight_counts_what_the_run_holds(
        self, tmp_path, monkeypatch, capsys, memory, code
    ):
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        formed = []
        trajectory = cli.coefficient_trajectory
        monkeypatch.setattr(
            cli, "coefficient_trajectory", lambda *args: formed.append(1) or trajectory(*args)
        )
        config = write_config(tmp_path, horizon=100.0, output_dir=str(tmp_path / "out"))
        assert cli.main(["simulate", "--config", str(config)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert formed and err == ""
        else:
            assert not formed
            assert "about 1.19e+6 bytes" in err
            assert f"than the {memory} bytes of physical memory" in err

    @pytest.mark.parametrize("command", ["build", "simulate", "timeavg", "check"])
    @pytest.mark.parametrize("n", [10**6, 10**30], ids=["million", "1e30"])
    def test_oversized_chain_is_rejected_before_any_array(self, tmp_path, capsys, command, n):
        """N = 10^6 would need two 8 TB N x N arrays, and N = 10^30 more than
        any machine holds: each run exits 2 naming the bytes and the memory,
        before the couplings are drawn."""
        out = tmp_path / "out"
        config = write_config(tmp_path, n_elements=n, scheme="odd-harmonics", step="auto",
                              output_dir=str(out))
        tracemalloc.start()
        try:
            code = cli.main([command, "--config", str(config)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        held = {"build": ", its dense R_a, A_a and C_a, a second reduced matrix and the "
                         "writer's chunk of text",
                "check": ", eight more N x N arrays of its normal modes and screens, one "
                         "propagator's three 2N x 2N arrays and 2664 N-vectors of the sweep's "
                         "weights and bounds",
                "timeavg": ", seven more N x N arrays, nine (N+1) x (2N+2) arrays of rows "
                           "(five averages and four cross-check temporaries) and the writer's "
                           "chunk of text"}.get(command, "")
        assert re.fullmatch(
            rf"error: a chain of {n} elements would hold about {ROUNDED} bytes in two N x N arrays"
            rf"{re.escape(held)}, more than the \d+ bytes of physical memory; shorten the chain\n",
            err,
        ), err
        assert peak < 4 << 20
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "simulate", "timeavg", "check"])
    @pytest.mark.parametrize(
        "output_dir, message",
        [("afile", "afile is not a directory"),
         ("afile/sub", "afile/sub cannot be made, since afile is not a directory"),
         ("dangling", "dangling is not a directory"),
         ("dangling/sub", "dangling/sub cannot be made, since dangling is not a directory"),
         ("loop", "loop is not a directory"),
         ("loop/sub", "loop/sub cannot be made, since loop is not a directory")],
        ids=["a-file", "under-a-file", "a-dangling-symlink", "under-a-dangling-symlink",
             "a-symlink-loop", "under-a-symlink-loop"],
    )
    def test_output_dir_that_cannot_be_a_directory_is_rejected_first(
        self, tmp_path, monkeypatch, capsys, command, output_dir, message
    ):
        """Every writing run exits 2 before the chain is built, creating
        nothing; check writes nothing and ignores the field. A symlink to
        nothing, or one that points at itself, reads as absent to
        Path.exists() but cannot be made a directory either."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        (tmp_path / "dangling").symlink_to("nowhere")
        (tmp_path / "loop").symlink_to("loop")
        config = write_config(tmp_path, output_dir=output_dir)
        before = sorted(tmp_path.rglob("*"))
        built = []
        schedule = cli.make_mu_schedule
        monkeypatch.setattr(
            cli, "make_mu_schedule", lambda *args: built.append(1) or schedule(*args)
        )
        code = cli.main([command, "--config", str(config)])
        err = capsys.readouterr().err
        if command == "check":
            assert code == 0 and built and err == ""
        else:
            assert code == 2 and not built
            assert err == f"error: output_dir: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before

    # N=3: every run holds two 3 x 3 arrays, 144 bytes; build also its
    # 8 x 8 R_a and A_a, its 4 x 8 C_a, a second 3 x 3 reduced matrix and the
    # writer's 2,048 values of text at 256 bytes each, 1,024 + 256 + 72 +
    # 524,288 more; check also eight 3 x 3 arrays of the
    # modes and screens and one propagator's three 6 x 6 arrays, 576 + 864
    # more, and 2 x 500 + 13 x 128 = 2,664 rows of 3 for the sweep's weights
    # and norm bounds, 63,936 more; timeavg also seven more 3 x 3 arrays, nine 4 x 8
    # arrays of rows and the writer's 2,048 values of text at 256 bytes each,
    # 504 + 2,304 + 524,288 more.
    CHECK_ESTIMATE = 65_520
    BUILD_ESTIMATE = 525_784
    TIMEAVG_ESTIMATE = 527_240

    @pytest.mark.parametrize(
        "command, memory, code",
        [("check", CHECK_ESTIMATE, 0), ("check", CHECK_ESTIMATE - 1, 2), ("build", BUILD_ESTIMATE, 0),
         ("build", BUILD_ESTIMATE - 1, 2), ("timeavg", TIMEAVG_ESTIMATE, 0),
         ("timeavg", TIMEAVG_ESTIMATE - 1, 2)],
        ids=["check-fits", "check-just-under", "build-fits", "build-just-under",
             "timeavg-fits", "timeavg-just-under"],
    )
    def test_chain_preflight_counts_what_the_run_holds(
        self, tmp_path, monkeypatch, capsys, command, memory, code
    ):
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        drawn = []
        schedule = cli.make_mu_schedule
        monkeypatch.setattr(
            cli, "make_mu_schedule", lambda *args: drawn.append(1) or schedule(*args)
        )
        config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main([command, "--config", str(config)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert drawn and err == ""
        else:
            assert not drawn
            rounded = {"check": "6.55e+4", "build": "5.26e+5", "timeavg": "5.27e+5"}[command]
            assert f"about {rounded} bytes" in err
            assert f"than the {memory} bytes of physical memory" in err

    def test_check_preflight_counts_the_sweep(self, tmp_path, monkeypatch, capsys):
        """check at N=3 with memory between the two-array estimate (144 bytes)
        and the whole run's (65,520) exits 2 before any propagator is formed."""
        memory = 900
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        formed = []
        propagator = analysis.ObserverFlow.propagator
        monkeypatch.setattr(analysis.ObserverFlow, "propagator",
                            lambda *args: formed.append(1) or propagator(*args))
        config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main(["check", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert not formed
        assert "about 6.55e+4 bytes" in err
        assert f"than the {memory} bytes of physical memory" in err

    def test_timeavg_preflight_counts_the_averages(self, tmp_path, monkeypatch, capsys):
        """timeavg at N=3 with memory between the two-array estimate (144
        bytes) it once had and the whole run's (527,240) exits 2 before any
        average is formed."""
        memory = 1_000
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        formed = []
        average = cli.time_average_spectral
        monkeypatch.setattr(cli, "time_average_spectral",
                            lambda *args: formed.append(1) or average(*args))
        out = tmp_path / "out"
        config = write_config(tmp_path, horizon=8.0, output_dir=str(out))
        assert cli.main(["timeavg", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert not formed and not out.exists()
        assert "about 5.27e+5 bytes" in err
        assert f"than the {memory} bytes of physical memory" in err

    @pytest.mark.parametrize(
        "command, n, step, most",
        [("check", 300, "auto", 1.6), ("timeavg", 200, "auto", 1.6), ("build", 300, "auto", 1.45),
         ("build", 100, "auto", 1.45), ("simulate", 50, 0.25, 1.25), ("simulate", 200, 0.5, 1.25)],
    )
    def test_preflight_bounds_the_array_memory(self, tmp_path, monkeypatch, command, n, step, most):
        """The preflight's count is at least the run's array memory: its
        tracemalloc peak less the same subcommand's at N=1, the fixed cost of
        the report and the writer (measured on a second N=1 run, after the
        first has paid the one-time costs). It is also at most `most` times
        it, since it adds up arrays that different stages hold (measured:
        1.51 for check, 1.35 for timeavg, 1.20 and 1.32 for build, 1.11 and
        1.03 for simulate): a count that still held an array the run has
        dropped fails, such as check's fourth 2N x 2N array (1.71), a third
        dense (2N+2)-square array in build (1.55 and 1.59) or a second chunk
        of rows in simulate (1.37 and 1.27). simulate is counted on its
        grid, T = 8 over the step."""

        def peak(size: int, label: str) -> int:
            config = write_config(tmp_path, n_elements=size, scheme="odd-harmonics",
                                  horizon=8.0, step=step, output_dir=str(tmp_path / label))
            tracemalloc.start()
            try:
                assert cli.main([command, "--config", str(config)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def check_fits() -> None:
            if command == "simulate":
                cli._check_fits(n, grid=co.TimeGrid.covering(8.0, step))
            else:
                cli._check_fits(n, command)

        peak(1, "warm-up")
        array_memory = peak(n, "run") - peak(1, "fixed")
        # the count is at least array_memory exactly when one byte less is too little
        monkeypatch.setattr(cli, "_physical_memory", lambda: array_memory - 1)
        with pytest.raises(co.ConfigValidationError):
            check_fits()
        monkeypatch.setattr(cli, "_physical_memory", lambda: int(most * array_memory))
        check_fits()

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["build", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path):
        config = write_config(tmp_path, scheme="fibonacci")
        assert cli.main(["check", "--config", str(config)]) == 2

    def test_bad_horizon_override(self, tmp_path, capsys):
        """A value starting with '-' is the option's value, rejected by the config's validation."""
        config = write_config(tmp_path)
        assert cli.main(["check", "--config", str(config), "--horizon", "-4"]) == 2
        assert capsys.readouterr().err == "error: horizon must be positive, got -4.0\n"

    def test_bad_step_override(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["check", "--config", str(config), "--step", "fast"]) == 2
        assert cli.main(["check", "--config", str(config), "--step", "-1"]) == 2

    def test_horizon_flag_is_validated_as_the_field(self, tmp_path, capsys):
        """--horizon nan fails exactly as "horizon": NaN in the file does."""
        in_file = cli.main(["check", "--config", str(write_config(tmp_path, horizon=float("nan")))])
        in_file = (in_file, capsys.readouterr())
        flag = cli.main(["check", "--config", str(write_config(tmp_path)), "--horizon", "nan"])
        flag = (flag, capsys.readouterr())
        assert flag == in_file
        assert flag[0] == 2
        assert flag[1].err == "error: horizon: must be finite, got nan\n"

    def test_horizon_flag_supplies_a_missing_field(self, tmp_path):
        config = write_config(tmp_path, horizon=OMIT)
        assert cli.main(["check", "--config", str(config)]) == 2
        assert cli.main(["check", "--config", str(config), "--horizon", "2"]) == 0

    def test_certificate_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        def broken(config):
            raise co.NotPositiveDefiniteError("synthetic failure", lambda_min=-1.0)

        monkeypatch.setattr(cli, "run_check", broken)
        config = write_config(tmp_path)
        assert cli.main(["check", "--config", str(config)]) == 1
        assert "synthetic failure" in capsys.readouterr().err

    def test_non_symplectic_exp_bound_sweep_exits_one(self, tmp_path, monkeypatch, capsys):
        true_weights = simulate.NormalModes.weights

        def scaled_cos(modes, t):
            cos, sin = true_weights(modes, t)
            return (1.0 + 1e-5) * cos, sin

        monkeypatch.setattr(simulate.NormalModes, "weights", scaled_cos)
        config = write_config(tmp_path)
        assert cli.main(["check", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: symplectic drift" in captured.err

    def test_library_error_from_a_runner_exits_two(self, tmp_path, monkeypatch, capsys):
        """A ChainobsError that is neither a config error nor a failed
        certificate is still a rejected run, not an unexpected one."""

        def broken(config):
            raise co.InvalidParameterError("synthetic rejection")

        monkeypatch.setattr(cli, "run_check", broken)
        config = write_config(tmp_path)
        assert cli.main(["check", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: synthetic rejection\n"

    def test_indefinite_normal_modes_in_check_exit_one(self, tmp_path, monkeypatch, capsys):
        """normal_modes refusing the chain inside check is a failed certificate."""
        solve = simulate._eigh_tridiagonal

        def indefinite(d, e):
            lam, v = solve(d, e)
            return np.concatenate(([-lam[0]], lam[1:])), v

        monkeypatch.setattr("chainobs.simulate._eigh_tridiagonal", indefinite)
        config = write_config(tmp_path)
        assert cli.main(["check", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: normal-mode matrix is not positive definite")

    def test_modes_that_miss_the_assembly_exit_one(self, tmp_path, monkeypatch, capsys):
        """Normal modes that do not generate the assembled observer dynamics
        fail check, although every propagator they give is symplectic."""
        true_modes = cli.normal_modes

        def shifted(chain):
            modes = true_modes(chain)
            return dataclasses.replace(modes, lam=modes.lam * (1.0 + 1e-6))

        monkeypatch.setattr(cli, "normal_modes", shifted)
        config = write_config(tmp_path)
        assert cli.main(["check", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: normal-mode generator differs")

    @pytest.mark.parametrize(
        "n, command, code, err",
        [
            (1, "check", 0, ""),
            # identity (i) is scaled by ||A_a||_inf alone, which rounding in
            # C_a Phi(T) - C_a outweighs here; the average itself is exact
            (1, "timeavg", 1, "FAILED checks: time_average_oracle_disagreement\n"),
            (3, "check", 1, "error: matrix is not positive definite: lambda_min = "),
            (3, "timeavg", 1, "error: matrix is not positive definite: lambda_min = "),
        ],
    )
    def test_smallest_positive_draw(self, tmp_path, monkeypatch, capsys, n, command, code, err):
        """A random chain whose first draw is the smallest positive double of
        the stream, 2^-53, fails as a certificate (exit 1) or passes, never
        as an unexpected error."""
        true_stream = builder._unit_stream
        monkeypatch.setattr(
            builder,
            "_unit_stream",
            lambda seed: itertools.chain([2.0**-53], itertools.islice(true_stream(seed), 1, None)),
        )
        config = write_config(tmp_path, n_elements=n, scheme="random", seed=1,
                              c_p=[0.6, -1.3], horizon=8.0, output_dir=str(tmp_path))
        assert cli.main([command, "--config", str(config)]) == code
        assert capsys.readouterr().err.startswith(err)

    def test_overflowing_random_range_exits_two(self, tmp_path, capsys):
        """omega0 * N beyond the largest double draws infinite couplings,
        which the chain rejects."""
        config = write_config(tmp_path, n_elements=2, scheme="random", seed=1, omega0=1e308)
        assert cli.main(["check", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: all coupling strengths must be positive and finite\n"
        )

    @pytest.mark.parametrize("command", ["build", "check", "timeavg", "simulate"])
    @pytest.mark.parametrize("scheme, omega0, largest", [
        ("uniform", 1e154, 1e154),
        ("uniform", 1.3e154, 1.3e154),
        ("uniform", 1e300, 1e300),
        ("uniform", 8.9e307, 8.9e307),
        ("uniform", 1e308, 1e308),
        ("odd-harmonics", 1e154, 3e154),
        ("odd-harmonics", 1e300, 3e300),
    ])
    def test_overflowing_scale_exits_two(self, tmp_path, capsys, command, scheme, omega0,
                                         largest):
        """Couplings whose squares overflow float64 are rejected with one
        error line and exit 2, before any RuntimeWarning. On N = 3 they once
        exited 3 (eigh of an infinite K did not converge, or the lineup
        mu~_i + mu~_(i+1) overflowed), or 1 with lambda_min = nan or
        lambda_max = inf, after RuntimeWarnings."""
        config = write_config(tmp_path, scheme=scheme, omega0=omega0, horizon=8.0,
                              output_dir=str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: coupling strengths up to {largest:.6e} overflow float64: "
            f"||A_a||_F^2 = 8 (|omega|^2 + |mu~|^2) is not finite\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["build", "check", "timeavg", "simulate"])
    @pytest.mark.parametrize("c_p, omega0, err", [
        ((1e155, 0.0), 1.0, "is out of scale: ||c_p||^2 = inf overflows float64"),
        ((1e-160, 0.0), 1.0,
         "is out of scale: ||c_p||^2 = 9.999889e-321 is below float64's normal range"),
        ((1e-170, 0.0), 1.0,
         "is out of scale: ||c_p||^2 = 0.000000e+00 is below float64's normal range"),
        ((1e-150, 0.0), 1e10, "is too small for coupling strengths up to 1.000000e+10: "
                              "mu = mu~ / ||c_p||^2 overflows float64"),
    ])
    def test_plant_row_out_of_scale_exits_two(self, tmp_path, capsys, command, c_p, omega0, err):
        """A c_p whose ||c_p||^2 overflows, is subnormal or underflows to 0,
        or whose mu = mu~ / ||c_p||^2 overflows, is rejected by build_chain
        with one line naming c_p, before any RuntimeWarning. They once exited
        2 as "Hamiltonian matrix contains non-finite entries" after
        RuntimeWarnings, or (1e-170) as a zero c_p."""
        out = tmp_path / "out"
        config = write_config(tmp_path, c_p=list(c_p), omega0=omega0, n_elements=5,
                              output_dir=str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: plant output c_p = ({c_p[0]:.6e}, 0.000000e+00) {err}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, horizon, step", [
        ("timeavg", 1e307, OMIT),
        ("timeavg", 1.7e308, OMIT),
        ("simulate", 1e307, 1e306),
    ])
    def test_horizon_past_the_phases_exits_two(self, tmp_path, capsys, command, horizon, step):
        """On odd-harmonics N = 5 the fastest mode has nu_max = 21.1, so a
        horizon of 1e307 takes its phase nu_max T past the largest double. It
        once printed a nan consensus error with exit 0 (timeavg at 1e307), or
        exited 1 on a nan residual (timeavg at 1.7e308, simulate at sample 9),
        after RuntimeWarnings; now the horizon is rejected before any row."""
        out = tmp_path / "out"
        config = write_config(tmp_path, scheme="odd-harmonics", n_elements=5, horizon=horizon,
                              step=step, output_dir=str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: horizon {horizon!r} is too long for the fastest normal mode: its phase "
            f"nu_max T = 2.109521e+01 * {horizon!r} overflows float64\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("n, omega0, c_p, horizon, shortest", [
        (2, 0.5, (0.0, 1.0), 5e-324, 5e-324),
        (1, 5.540707513715364, (0.0, 2.1618951892459603e75), 2.2250738585072014e-308,
         2.2250738585072014e-308 / 16),
    ])
    def test_horizon_short_of_the_phases_exits_two(self, tmp_path, capsys, n, omega0, c_p,
                                                   horizon, shortest):
        """timeavg divides by the slowest phase nu_min T and by nu_min^2 T, so
        a horizon at which either leaves float64's normal range is rejected,
        naming the shortest horizon of the ladder T/16 ... T that does. The
        first once exited 2 only because T/16 rounded to 0, after a nan from
        sin(0)/0 at T; the second exited 3 on an overflow in the
        cross-check's (C_a Phi(T) - C_a) / T."""
        out = tmp_path / "out"
        config = write_config(tmp_path, n_elements=n, omega0=omega0, c_p=list(c_p),
                              horizon=horizon, step=OMIT, output_dir=str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["timeavg", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: horizon {shortest!r} is too short for the slowest normal "
                              f"mode: its phase nu_min T = "), err
        assert err.endswith(" or nu_min^2 T is below float64's normal range\n"), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "check", "timeavg", "simulate"])
    @pytest.mark.parametrize("omega0, squared", [(7.4e-155, "5.476000e-309"),
                                                 (1e-160, "9.999889e-321"),
                                                 (1e-300, "0.000000e+00")])
    def test_underflowing_scale_exits_two(self, tmp_path, capsys, command, omega0, squared):
        """The twin of the overflow rule: the normal-mode matrix K holds
        omega^2 on its diagonal and check's sweep 1 / omega^2, so couplings
        whose 1 / omega_min^2 overflows are rejected by normal_modes, and
        build, which solves no normal modes, still runs. On uniform N = 3,
        omega0 = 1e-160 once exited 3 on an overflow (check's sweep, or
        1 / lambda in timeavg and simulate) and 1e-300 exited 1 as an
        indefinite K."""
        out = tmp_path / "out"
        config = write_config(tmp_path, omega0=omega0, output_dir=str(out))
        code = 0 if command == "build" else 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", str(config)]) == code
        assert capsys.readouterr().err == ("" if code == 0 else (
            f"error: coupling strengths down to {omega0:.6e} underflow float64: "
            f"omega_min^2 = {squared} has no finite reciprocal\n"))
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("command, n, scheme, omega0, c_p, horizon, reason", [
        ("build", 1, "uniform", 1e100, (1.3e154, 0.0), 8.0, "overflow encountered in dot"),
        ("check", 1, "uniform", 1e100, (1.3e154, 0.0), 8.0, "overflow encountered in dot"),
        ("timeavg", 6, "odd-harmonics", 1.0, (1.3e154, 0.0), 8.0,
         "overflow encountered in multiply"),
        ("timeavg", 2, "uniform", 1.0, (1e100, -1e100), 1e-300, "overflow encountered in divide"),
        ("simulate", 3, "uniform", 1.5e-154, (1.0, 0.0), 2.0 / 1.5e-154,
         "overflow encountered in divide"),
    ])
    def test_overflow_past_the_range_checks_exits_two(self, tmp_path, capsys, command, n,
                                                      scheme, omega0, c_p, horizon, reason):
        """Scales that pass every range check can still overflow a run's
        arithmetic: the fixed point's residual A_o (alpha; ...; alpha) at
        ||c_p|| omega0 = 1.3e254, the row distances of a chain whose rows
        scale with c_p = 1.3e154, the cross-check's (C_a Phi(T) - C_a) / T at
        c_p = 1e100 and T = 1e-300, or simulate's plant drive
        2 sin^2(nu t / 2) / lambda at lambda_min = 5.7e-309. Each once exited
        3; the run now stops at the first overflow with one error line and
        exit 2."""
        out = tmp_path / "out"
        config = write_config(tmp_path, n_elements=n, scheme=scheme, omega0=omega0,
                              c_p=list(c_p), horizon=horizon, step=OMIT, output_dir=str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: {command}'s arithmetic leaves float64 at this config's scales ({reason})\n"
        )
        assert not out.exists()

    def test_longest_horizon_at_the_auto_step_exits_two(self, tmp_path, capsys):
        """The largest double over the auto step is infinitely many
        intervals; the count once overflowed a numpy division (exit 3)."""
        config = write_config(tmp_path, n_elements=1, c_p=[0.0, 1.0],
                              horizon=1.7976931348623157e308, step=OMIT,
                              output_dir=str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: span 1.7976931348623157e+308 over step 0.015707963267948967 is not a "
            "finite number of intervals\n"
        )

    def test_largest_scale_runs_without_warnings(self, tmp_path):
        """Uniform N = 3 has ||A_a||_F^2 = 96 omega0^2, so omega0 = 1.3e153
        is accepted and 1.4e153 is not; just below the limit every command
        passes with no RuntimeWarning (simulate over 2 / omega0)."""
        for omega0, code in ((1.3e153, 0), (1.4e153, 2)):
            for command in ("build", "check", "timeavg", "simulate"):
                config = write_config(tmp_path, omega0=omega0, horizon=2.0 / omega0, step=OMIT,
                                      output_dir=str(tmp_path / "out"))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert cli.main([command, "--config", str(config)]) == code, command

    def test_huge_grid_count_is_rejected_without_looping(self, tmp_path, capsys):
        """A horizon of 1e20 at the auto step is about 8e23 intervals, where
        adding one interval no longer moves the float quotient that
        TimeGrid.covering compares with the step; it once looped forever, and
        now the memory preflight rejects the grid."""
        config = write_config(tmp_path, scheme="odd-harmonics", n_elements=50, horizon=1e20,
                              step=OMIT, output_dir=str(tmp_path / "out"))
        assert cli.main(["simulate", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error: simulate would hold 8.36e+23 samples")

    @pytest.mark.parametrize("step", [1e-10, 1e-300, 5e-324])
    def test_uncountable_grid_exits_two(self, tmp_path, capsys, step):
        """A horizon of 1e300 over a tiny step is infinitely many intervals:
        the run is rejected as a bad grid, not as an unexpected error."""
        config = write_config(tmp_path, horizon=1e300, step=step, output_dir=str(tmp_path / "out"))
        assert cli.main(["simulate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: span 1e+300 over step {step!r} is not a finite number of intervals\n"
        )
        assert not (tmp_path / "out").exists()

    def test_astronomic_grid_prints_rounded_counts(self, tmp_path, capsys):
        """A horizon of 1e300 over a step of 1e-5 is a countable grid of about
        1e305 samples, more than any memory: the message rounds both counts
        instead of printing them in 306 and 308 digits."""
        config = write_config(tmp_path, horizon=1e300, step=1e-5, output_dir=str(tmp_path / "out"))
        assert cli.main(["simulate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simulate would hold 1.00e+305 samples of 4 x 8 rows, "
                              "about 3.84e+307 bytes with the plant rows"), err
        assert len(err) < 300
        assert not (tmp_path / "out").exists()

    def test_unexpected_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        def broken(config):
            raise ValueError("surprise")

        monkeypatch.setattr(cli, "run_check", broken)
        config = write_config(tmp_path)
        assert cli.main(["check", "--config", str(config)]) == 3
        assert "unexpected error" in capsys.readouterr().err


def _scaled(low: int, high: int) -> st.SearchStrategy[float]:
    """Positive doubles of every decade from 10^low to 10^high."""
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.999), st.integers(low, high))


# The extremes a config can carry: subnormal, smallest normal, largest double.
_FLOAT_EDGES = st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
_SIGN = st.sampled_from([1.0, -1.0])
_PART = (st.floats(-9.0, 9.0) | st.builds(float.__mul__, _SIGN, _FLOAT_EDGES | _scaled(-323, 307))
         | st.sampled_from([0.0, -0.0]))


_EXTREMES = {
    "n_elements": st.integers(1, 80) | st.booleans() | st.integers(-2**70, 2**70),
    "scheme": st.just("fibonacci"),
    "omega0": _FLOAT_EDGES | _scaled(-323, 307) | st.sampled_from([0.0, -1.0]),
    "c_p": st.lists(_PART, min_size=2, max_size=2),
    "horizon": _FLOAT_EDGES | _scaled(-300, 300),
    "step": _FLOAT_EDGES | _scaled(-300, 300) | st.sampled_from(["0.1", "fast"]),
    "seed": st.integers(2**64, 2**200) | st.booleans() | st.integers(-3, 2**32),
}


@st.composite
def raw_configs(draw) -> dict:
    """A JSON config as a user may write it: a valid config of any scheme,
    with up to three of its fields replaced by an extreme value (_EXTREMES)."""
    scheme = draw(st.sampled_from(builder.SCHEMES))
    n = draw(st.integers(1, 12))
    raw = {
        "n_elements": n + n % 2 if scheme == builder.SCHEME_ALL_HARMONICS else n,
        "scheme": scheme,
        "omega0": draw(st.floats(0.1, 10.0)),
        "c_p": [draw(st.floats(-9.0, 9.0)), draw(st.floats(0.1, 9.0))],
        "horizon": draw(st.floats(0.1, 20.0)),
    }
    if scheme == builder.SCHEME_RANDOM:
        raw["seed"] = draw(st.integers(0, 2**32))
    step = draw(st.none() | st.just("auto") | st.floats(0.01, 1.0))
    if step is not None:
        raw["step"] = step
    for name in sorted(draw(st.sets(st.sampled_from(sorted(_EXTREMES)), max_size=3))):
        raw[name] = draw(_EXTREMES[name])
    return raw


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(raw=raw_configs(), command=st.sampled_from(["build", "check", "timeavg", "simulate"]))
def test_every_raw_config_exits_with_a_documented_code(raw, command):
    """Any JSON config, down to subnormal and up to the largest doubles and
    counts, exits 0, 1 or 2 through cli.main with no traceback and no
    warning (which would end as an unexpected error, exit 3); a run that
    passes prints only finite numbers. Physical memory is taken as 4 MiB,
    which admits chains up to N = 73 for check."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_physical_memory", lambda: 4 << 20), \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({**raw, "output_dir": str(Path(tmp) / "out")}))
        code = cli.main([command, "--config", str(config)])
    printed, errors = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), errors
    assert "Traceback" not in errors and "unexpected error" not in errors, errors
    if code == 2:
        assert printed == "" and errors.startswith("error: ") and errors.count("\n") == 1, errors
    if code == 0:
        numbers = re.findall(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf|NaN|Infinity)", printed)
        assert numbers and all(np.isfinite(float(x)) for x in numbers), printed



@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scheme=st.sampled_from(builder.SCHEMES), n=st.integers(1, 12),
       c_p=st.tuples(st.floats(-9.0, 9.0), st.floats(0.1, 9.0)),
       exponent=st.floats(-70.0, 70.0), command=st.sampled_from(["build", "check"]))
@example(scheme="odd-harmonics", n=5, c_p=(1.0, 0.7), exponent=5.0, command="build")
@example(scheme="odd-harmonics", n=5, c_p=(1.0, 0.7), exponent=6.0, command="check")
def test_rescaled_plant_row_passes_alike(scheme, n, c_p, exponent, command):
    """The base report's fixed_point_residual and plant_row_of_c_a_a_a
    residuals apply A_o and A_a to alpha, and their bounds carry ||c_p||,
    so every scheme passes build and check with c_p scaled anywhere from
    1e-70 to 1e70. Bounds without ||c_p|| failed odd-harmonics N=5 at
    c_p (1e5, 7e4), and also on the plant row at (1e6, 7e5)."""
    config = {"n_elements": n + n % 2 if scheme == builder.SCHEME_ALL_HARMONICS else n,
              "scheme": scheme, "omega0": 1.0, "horizon": 8.0,
              "c_p": [c_p[0] * 10.0**exponent, c_p[1] * 10.0**exponent]}
    if scheme == builder.SCHEME_RANDOM:
        config["seed"] = 3
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**config, "output_dir": str(Path(tmp) / "out")}))
        code = cli.main([command, "--config", str(path)])
    assert code == 0, err.getvalue()


class TestCommandLine:
    @pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
    def test_help_lists_every_command(self, flag, capsys):
        assert cli.main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: chainobs")
        for command in ("build", "simulate", "timeavg", "check"):
            assert re.search(rf"^  {command} ", out, re.MULTILINE), command

    @pytest.mark.parametrize("argv,fragment", [
        (["--config", "CFG", "--output-dir", "OUT"], "a command is required"),
        (["bild", "--config", "CFG", "--output-dir", "OUT"],
         "invalid command 'bild' (choose from build, simulate, timeavg, check)"),
        (["build", "check", "--config", "CFG", "--output-dir", "OUT"], "a second command: check"),
        (["build", "--config", "CFG", "--output-dir", "OUT", "--seed", "3"],
         "unrecognized option: --seed"),
        (["build", "--config", "CFG", "-o", "OUT"], "unrecognized option: -o"),
        (["build", "--config", "CFG", "--output-dir", "OUT", "--h", "3"], "ambiguous option: --h"),
        (["build", "--output-dir", "OUT", "--config"], "--config expects a value"),
        (["build", "--output-dir", "OUT"], "--config is required"),
        (["build", "--config", "CFG", "--output-dir", "OUT", "--horizon", "abc"],
         "horizon: expected a number, got 'abc'"),
        (["build", "--config", "CFG", "--output-dir", "OUT", "--step=fast"],
         "step: expected 'auto' or a number, got 'fast'"),
    ])
    def test_malformed_command_line_exits_two(self, tmp_path, capsys, argv, fragment):
        config = write_config(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        argv = [{"CFG": str(config), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: chainobs ")
        assert error == f"chainobs: error: {fragment}"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config=CFG", "--output-dir=OUT", "--horizon=1.0", "--step=0.05"],
        ["simulate", "--conf", "CFG", "--out", "OUT", "--hor", "1.0", "--st", "0.05"],
        ["--config", "CFG", "--output-dir", "OUT", "--horizon", "1.0", "--step", "0.05", "simulate"],
    ])
    def test_accepted_forms_reach_the_config(self, tmp_path, argv):
        config = write_config(tmp_path)
        argv = [a.replace("CFG", str(config)).replace("OUT", str(tmp_path / "out")) for a in argv]
        assert cli.main(argv) == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 21 * 4

    def test_non_level_log_value_keeps_warning(self, tmp_path):
        """CHAINOBS_LOG takes logging's level names; another attribute of logging,
        such as BASIC_FORMAT, is not a level and leaves WARNING."""
        (tmp_path / "config.json").write_text(config_text())
        proc = run_python(["-m", "chainobs.cli", "check", "--config", "config.json"], tmp_path,
                          CHAINOBS_LOG="BASIC_FORMAT")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["passed"] is True

    @pytest.mark.parametrize("command, written", [("check", []), ("timeavg", ["time_averages.csv"])])
    def test_closed_stdout_exits_three(self, tmp_path, command, written):
        """A reader that closed the pipe before the run: check's JSON and
        timeavg's summary lines meet a broken pipe, which exits 3 (not 1, the
        failed certificate) with one error line and no traceback."""
        (tmp_path / "config.json").write_text(config_text(output_dir="out"))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "chainobs.cli", command, "--config", "config.json"],
                cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == 3
        assert proc.stderr == "error: standard output was closed before the results were written\n"
        assert [p.name for p in (tmp_path / "out").glob("*.csv")] == written


class TestConsoleEntryPoint:
    def test_installed_script_runs_check(self, tmp_path):
        config = write_config(tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(co.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "chainobs.cli", "check", "--config", str(config)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_module_run_is_quiet_and_import_is_lazy(self, tmp_path):
        """`python -m chainobs.cli` must not find the module imported by the package."""
        env = {**os.environ, "PYTHONPATH": str(Path(co.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "chainobs.cli", "--help"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, chainobs; print('chainobs.cli' in sys.modules)"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_star_import_binds_exactly_the_public_names(self):
        """__all__ repeats the package's import list; the two must agree."""
        namespace: dict = {}
        exec("from chainobs import *", namespace)
        assert all(namespace[name] is getattr(co, name) for name in co.__all__)
        public = {
            name for name, value in vars(co).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }
        assert len(set(co.__all__)) == len(co.__all__) == 28
        assert set(co.__all__) == public

    def test_public_names_are_what_library_use_shows(self):
        """Every name in __all__ but the errors is shown or named in README's
        "Library use", and every co.<name> used there is in __all__."""
        section = library_use()
        errors = {name for name in co.__all__ if name.endswith("Error")}
        assert all(issubclass(getattr(co, name), co.ChainobsError) for name in errors)
        assert len(errors) == 12
        assert [name for name in sorted(set(co.__all__) - errors)
                if not re.search(rf"\b{name}\b", section)] == []
        assert set(re.findall(r"\bco\.(\w+)", section)) <= set(co.__all__)

    def test_library_use_example_runs_as_written(self, capsys):
        section = library_use()
        start = section.index("```python\n") + len("```python\n")
        example = section[start:section.index("```", start)]
        exec(compile(example, "README.md", "exec"), {})
        assert capsys.readouterr().out.split() == ["10.48272666856287", "0.004943993368747585"]

    @staticmethod
    def _env(blas_timeout):
        env = {**os.environ, "PYTHONPATH": str(Path(co.__file__).resolve().parents[1])}
        env.pop("OPENBLAS_THREAD_TIMEOUT", None)
        if blas_timeout is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = blas_timeout
        return env

    @pytest.mark.parametrize("preset,expected", [(None, "22"), ("10", "10")])
    def test_import_sets_the_blas_thread_timeout_unless_set(self, tmp_path, preset, expected):
        proc = subprocess.run(
            [sys.executable, "-c", "import os, chainobs; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"],
            cwd=tmp_path, env=self._env(preset), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected

    def test_blas_thread_timeout_is_set_before_numpy_loads(self):
        """Every import in `__init__` but `import os` loads numpy, which reads the timeout once."""
        tree = ast.parse(Path(co.__file__).read_text())
        setdefault = next(
            node for node in tree.body
            if isinstance(node, ast.Expr)
            and ast.unparse(node) == "os.environ.setdefault('OPENBLAS_THREAD_TIMEOUT', '22')"
        )
        imports = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and ast.unparse(node) != "import os"
        ]
        assert imports
        assert all(node.lineno > setdefault.lineno for node in imports)

    def test_blas_thread_timeout_leaves_every_output_byte_identical(self, tmp_path):
        """The timeout only decides when an idle BLAS worker sleeps; 28 is OpenBLAS's own default."""
        runs = {
            "check": ({"n_elements": 50, "scheme": "random", "seed": 1, "horizon": 800.0}, set()),
            "timeavg": (
                {"n_elements": 50, "scheme": "odd-harmonics", "horizon": 8.0},
                {"report.json", "time_averages.csv"},
            ),
        }
        for command, (fields, names) in runs.items():
            config = tmp_path / f"{command}.json"
            config.write_text(json.dumps(dict(fields, omega0=1.0, c_p=[1.0, 0.0], step="auto")))
            results = []
            for blas_timeout in (None, "28"):
                out = tmp_path / f"{command}-{blas_timeout}"
                proc = subprocess.run(
                    [sys.executable, "-m", "chainobs.cli", command, "--config", str(config),
                     "--output-dir", str(out)],
                    cwd=tmp_path, env=self._env(blas_timeout), capture_output=True, text=True,
                )
                assert proc.returncode == 0, proc.stderr
                files = sorted(out.iterdir()) if out.exists() else []
                digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
                assert set(digests) == names
                results.append((proc.stdout, digests))
            assert results[0] == results[1], command


SRC = Path(co.__file__).resolve().parents[1]


def run_python(args: list[str], cwd: Path, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("command", ["build", "simulate", "timeavg"])
def test_rerun_replaces_its_outputs(tmp_path, capsys, command):
    """Each output is replaced by a new file, not rewritten in place: a rerun
    into the same output_dir writes the same bytes again, a hard link to an
    earlier run's file keeps that run's bytes, and a symlink at an output
    path is replaced while its target stays as it was."""
    out, links = tmp_path / "out", tmp_path / "links"
    target = tmp_path / "target.txt"
    target.write_text("not an output\n")

    def run(n: int) -> dict[str, bytes]:
        config = write_config(tmp_path, n_elements=n, output_dir=str(out))
        assert cli.main([command, "--config", str(config)]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    first = run(3)
    links.mkdir()
    for name in first:
        os.link(out / name, links / name)
    (out / "report.json").unlink()
    (out / "report.json").symlink_to(target)
    second = run(4)
    assert second["report.json"] != first["report.json"]
    assert {name: (links / name).read_bytes() for name in first} == first
    assert not (out / "report.json").is_symlink()
    assert target.read_text() == "not an output\n"
    assert run(3) == first
    capsys.readouterr()


MODULES_AFTER_EACH_COMMAND = """
import json, sys
from chainobs import cli

def unneeded_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "logging") or m.startswith("numpy.random")
                  or m in ("argparse", "locale"))

seen = {"import": [0, unneeded_modules()]}
for command in ("build", "check", "timeavg", "simulate"):
    code = cli.main([command, "--config", "config.json", "--output-dir", command])
    seen[command] = [code, unneeded_modules()]
print(json.dumps(seen))
"""


def test_cli_import_leaves_scipy_integrate_out(tmp_path, monkeypatch):
    """Neither scipy nor numpy.random is loaded by importing the CLI, nor
    later, lazily, by a run of any subcommand on a random-scheme chain, whose
    draws come from the package's own stream. Nor are argparse and locale:
    the command line is read without argparse, whose help strings went
    through gettext, and so imported locale, on every run. Nor, with
    CHAINOBS_LOG unset, is logging: the library's loggers load it on
    demand (chainobs.logs)."""
    monkeypatch.delenv("CHAINOBS_LOG", raising=False)
    config = {"n_elements": 3, "scheme": "random", "seed": 5, "omega0": 1.0,
              "c_p": [1.0, 0.0], "horizon": 1.0}
    (tmp_path / "config.json").write_text(json.dumps(config))
    proc = run_python(["-c", MODULES_AFTER_EACH_COMMAND], tmp_path)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {stage: [0, []] for stage in ("import", "build", "check", "timeavg", "simulate")}


def test_timeavg_info_log_changes_no_output(tmp_path):
    config = {"n_elements": 3, "scheme": "uniform", "omega0": 1.0, "c_p": [1.0, 0.0],
              "horizon": 8.0}
    (tmp_path / "config.json").write_text(json.dumps(config))
    runs = []
    for level in ("WARNING", "INFO"):
        out = tmp_path / level
        proc = run_python(
            ["-m", "chainobs.cli", "timeavg", "--config", "config.json", "--output-dir", level],
            tmp_path,
            CHAINOBS_LOG=level,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc, (out / "report.json").read_text(),
                     (out / "time_averages.csv").read_text()))
    (quiet, *quiet_files), (loud, *loud_files) = runs
    assert quiet.stdout == loud.stdout
    assert quiet_files == loud_files
    assert "normal modes" not in quiet.stderr
    assert sum("normal modes" in line for line in loud.stderr.splitlines()) == 1


def test_check_info_log_changes_no_output(tmp_path):
    """check under CHAINOBS_LOG=INFO, the one path that loads logging in a
    fresh process, prints the same report, and its stderr carries the
    sweep's and the eigensolve's INFO lines once each."""
    config = {"n_elements": 50, "scheme": "random", "seed": 1, "omega0": 1.0,
              "c_p": [1.0, 0.0], "horizon": 8.0}
    (tmp_path / "config.json").write_text(json.dumps(config))
    runs = {}
    for level in ("WARNING", "INFO"):
        proc = run_python(["-m", "chainobs.cli", "check", "--config", "config.json"], tmp_path,
                          CHAINOBS_LOG=level)
        assert proc.returncode == 0, proc.stderr
        runs[level] = proc
    quiet, loud = runs["WARNING"], runs["INFO"]
    assert quiet.stdout == loud.stdout
    assert quiet.stderr == ""
    lines = loud.stderr.splitlines()
    assert sum(line.startswith("INFO chainobs.analysis: exp bound:") for line in lines) == 1
    assert sum(line.startswith("INFO chainobs.simulate: normal modes") for line in lines) == 1
