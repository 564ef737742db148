"""The Simpson rule and the streamed quadrature oracle of tests/oracles.py.

scipy.integrate.simpson is the independent check on simpson_weights; scipy
is imported by tests only, and the library never pays for importing it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

import chainobs as co
import oracles
from conftest import build_system
from oracles import (
    exp_bound_unscreened,
    observer_hamiltonian,
    output_matrix,
    simpson_weights,
    time_average_streamed,
)

SAMPLE_COUNTS = [2, 3, 4, 5, 10, 11, 4180]


def grid_times(samples: int, uniform: bool) -> np.ndarray:
    if uniform:
        return co.TimeGrid.from_count(3.0, samples).times()
    rng = np.random.default_rng(samples)
    return np.cumsum(rng.uniform(0.2, 1.8, size=samples)) * (3.0 / samples)


def integrands(t: np.ndarray) -> np.ndarray:
    """Three positive columns, so relative errors are not inflated by cancellation."""
    return np.stack([np.exp(t), 1.0 + t**2, 2.0 + np.cos(5.0 * t)], axis=1)


class TestSimpsonWeights:
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    def test_matches_scipy_simpson(self, samples, uniform):
        t = grid_times(samples, uniform)
        y = integrands(t)
        expected = simpson(y, x=t, axis=0)
        got = simpson_weights(t) @ y
        assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))

    def test_even_count_uses_the_last_interval_correction(self):
        """Cartwright's correction integrates quadratics exactly on uneven grids."""
        t = np.array([0.0, 0.3, 1.0, 1.2, 2.0, 2.9])
        got = simpson_weights(t) @ (t**2)
        assert got == pytest.approx(2.9**3 / 3.0, rel=1e-14)

    @pytest.mark.parametrize(
        "times", [[0.0], [[0.0, 1.0]], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.inf]]
    )
    def test_rejects_bad_times(self, times):
        with pytest.raises(co.InvalidParameterError):
            simpson_weights(np.array(times))


def simpson_over_stored_trajectory(modes: co.NormalModes, grid: co.TimeGrid) -> np.ndarray:
    rows = co.coefficient_trajectory(modes, grid).coefficient_rows
    return np.tensordot(simpson_weights(grid.times()), rows, axes=1) / grid.t_end


def assert_close(a: co.TimeAverage, b: np.ndarray, rel: float) -> None:
    assert np.linalg.norm(a.averaged_rows - b, ord="fro") <= rel * np.linalg.norm(b, ord="fro")


class TestStreamedOracle:
    @pytest.mark.parametrize(
        "c_p,variant,omega0,n,seed,horizon",
        [
            ([1.0, 0.0], "odd-harmonics", 1.0, 5, None, 20.0),
            ([0.0, 2.0], "random", 1.0, 4, 9, 3.7),
            ([1.0, 0.0], "uniform", 2.0, 3, None, 0.05),
        ],
    )
    def test_matches_the_stored_trajectory_route(self, c_p, variant, omega0, n, seed, horizon):
        chain = build_system(c_p, variant, omega0, n, seed=seed)
        modes = co.normal_modes(chain)
        step = co.default_step(modes)
        stored = simpson_over_stored_trajectory(modes, co.TimeGrid.covering(horizon, step))
        streamed = time_average_streamed(chain, horizon, step)
        assert streamed.horizon == horizon
        assert_close(streamed, stored, 1e-13)

    def test_explicit_step(self, example_system):
        chain = example_system
        modes = co.normal_modes(chain)
        stored = simpson_over_stored_trajectory(modes, co.TimeGrid.covering(2.0, 0.002))
        assert_close(time_average_streamed(chain, 2.0, 0.002), stored, 1e-13)

    def test_coarse_step_is_rejected_before_propagation(self, example_system, monkeypatch):
        chain = example_system

        def no_propagation(a, t):
            raise AssertionError("propagated before the step ceiling was checked")

        monkeypatch.setattr(oracles, "propagator", no_propagation)
        with pytest.raises(ValueError, match="exceeds the quadrature ceiling"):
            time_average_streamed(chain, 2.0, 0.1)

    def test_injected_drift_fails_both_routes_at_the_same_sample(
        self, example_system, monkeypatch
    ):
        """The streamed oracle and the unscreened exponential-bound sweep share
        the library's per-sample symplectic check, which names the sample."""
        chain = example_system
        true_drift = co.symplectic_drift
        calls = []

        def drifting(phi):
            calls.append(None)
            return 1.0 if len(calls) == 38 else true_drift(phi)

        monkeypatch.setattr("chainobs.analysis.symplectic_drift", drifting)
        bound = co.certify_positive_definite(observer_hamiltonian(chain)).exp_norm_bound
        messages = []
        for route in (
            lambda: exp_bound_unscreened(co.normal_modes(chain), bound, co.TimeGrid(1.0, 0.01)),
            lambda: time_average_streamed(chain, 1.0),
        ):
            calls.clear()
            with pytest.raises(co.ToleranceExceededError) as failure:
                route()
            messages.append(str(failure.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("at sample 37")

    def test_memory_does_not_grow_with_the_horizon(self):
        """O(N^2) memory: a fraction of what the stored trajectory would take."""
        chain = build_system([1.0, 0.0], "odd-harmonics", 1.0, 10)
        step = co.default_step(co.normal_modes(chain))
        horizon = 10_500 * step
        grid = co.TimeGrid.covering(horizon, step)
        stored_bytes = grid.samples * output_matrix(chain).nbytes
        assert stored_bytes >= 20e6
        tracemalloc.start()
        try:
            time_average_streamed(chain, horizon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stored_bytes / 10


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


MODULES_AFTER_EACH_COMMAND = """
import json, sys
from chainobs import cli

def heavy_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.startswith("numpy.random"))

seen = {"import": [0, heavy_modules()]}
for command in ("build", "check", "timeavg", "simulate"):
    code = cli.main([command, "--config", "config.json", "--output-dir", command])
    seen[command] = [code, heavy_modules()]
print(json.dumps(seen))
"""


def test_cli_import_leaves_scipy_integrate_out(tmp_path):
    """Neither scipy nor numpy.random is loaded by importing the CLI, nor
    later, lazily, by a run of any subcommand on a random-scheme chain, whose
    draws come from the package's own stream."""
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
