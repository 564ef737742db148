"""Tests of the benchmark itself, not of chainobs.

Run from the repository root (they take about two minutes):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

SMALL = {
    "simulate": {"n_elements": 3, "scheme": "odd-harmonics", "horizon": 5.0},
    "timeavg": {"n_elements": 3, "scheme": "odd-harmonics", "horizon": 8.0},
    "check": {"n_elements": 4, "scheme": "random", "horizon": 1.0, "seed": 3},
    "build": {"n_elements": 6, "scheme": "odd-harmonics", "horizon": 1.0},
}

# Exact per-layer counts of one traced run of each workload.
EXPECTED_COUNTS = {
    "simulate-ref100": {"lqs.symplectic_drift_calls": 67150, "simulate.trajectory_samples": 67150},
    "timeavg-n20": {"lqs.symplectic_drift_calls": 79012, "simulate.exact_avg_calls": 5},
    "check-n50": {"simulate.propagator_calls": 500, "analysis.certify_calls": 3},
    "build-n1000": {"serialize.files": 5, "analysis.certify_calls": 2},
    "timeavg-n50": {"lqs.symplectic_drift_calls": 4180, "simulate.exact_avg_calls": 5, "serialize.files": 2},
}


def _run_child(work: Path, command: str, config: dict, traced: bool) -> run.Child:
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    child = run.launch([command, "--config", str(config_path)], traced, work, run.child_env(), 150.0)
    assert child.ok, child.problems
    assert (child.trace is not None) == traced
    return child


def _small(tmp_path: Path, command: str, traced: bool) -> tuple[run.Child, Path]:
    out = tmp_path / f"out-{command}-{traced}"
    config = {**run.BASE_CONFIG, **SMALL[command], "output_dir": str(out)}
    return _run_child(tmp_path / f"work-{command}-{traced}", command, config, traced), out


@pytest.mark.parametrize("command", sorted(SMALL))
def test_traced_run_writes_the_same_bytes_as_untraced(tmp_path, command):
    outputs = []
    for traced in (False, True):
        child, out = _small(tmp_path, command, traced)
        files = {p.name: verify.sha256(p) for p in out.iterdir()} if out.is_dir() else {}
        outputs.append((child.stdout, files))
    assert outputs[0] == outputs[1]
    assert outputs[0][1] or command == "check"


@pytest.mark.parametrize("workload", sorted(EXPECTED_COUNTS))
def test_traced_counts_are_exact_and_repeat(tmp_path, workload):
    refs = json.loads(run.REFERENCES.read_text())
    counts = []
    for attempt in range(2):
        out = tmp_path / f"out{attempt}"
        command, config = run.make_config(workload, run.DEFAULT_SEED, out)
        child = _run_child(tmp_path / f"work{attempt}", command, config, traced=True)
        run.check_outputs(child, workload, run.DEFAULT_SEED, out, refs)
        assert child.ok, child.problems
        values = layers.span_metrics(child.trace)
        counts.append({k: v for k, v in values.items() if layers.UNITS[k] == "count"})
    assert counts[0] == counts[1]
    for name, expected in EXPECTED_COUNTS[workload].items():
        assert counts[0][name] == expected, name


def test_gate_tells_moved_last_bits_from_wrong_numbers(tmp_path):
    _, out = _small(tmp_path, "simulate", traced=False)
    refs = verify.fingerprint_files(out)
    assert verify.check_files(out, refs) == ([], 3)

    path = out / "trajectory.csv"
    position, _, _, values = refs["trajectory.csv"]["samples"][3]
    column, text = values[0]
    lines = path.read_text().split("\n")
    fields = lines[position].split(",")

    fields[column] = repr(float(text) * (1 + 4e-16))
    lines[position] = ",".join(fields)
    path.write_text("\n".join(lines))
    assert verify.check_files(out, refs) == ([], 2)

    fields[column] = repr(float(text) * (1 + 1e-6))
    lines[position] = ",".join(fields)
    path.write_text("\n".join(lines))
    problems, identical = verify.check_files(out, refs)
    assert identical == 2 and len(problems) == 1 and "values differ" in problems[0]


def test_child_over_its_time_limit_is_killed_and_fails(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    command, config = run.make_config("simulate-ref100", run.DEFAULT_SEED, tmp_path / "out")
    (work / "config.json").write_text(json.dumps(config))
    child = run.launch([command, "--config", str(work / "config.json")], False, work, run.child_env(), 1.0)
    assert not child.ok and "time limit" in child.problems[0]


def test_printed_metrics_are_the_declared_ones():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key, printed in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", layers.UNITS)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "check-n50",
             "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        # Undeclared metrics are printed by name and unit, not put in the result.
        for name, unit in {**printed, "fail_frac": "1"}.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert any(re.match(rf"{re.escape(name)} +\S+ {re.escape(unit)} ", line) for line in lines), name
