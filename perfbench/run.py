"""The chainobs benchmark: one CLI workload, run again and again for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each run is a real ``chainobs.cli.main(argv)`` invocation in a fresh child
interpreter that imports chainobs from ``src/``. Children run one at a time
in a closed loop with a single client: the next starts only after the
previous one has exited and its outputs have been checked. The benchmark
sets no BLAS or OpenMP thread variables, so the program runs as users run
it.

With ``--trace 0`` every child is untraced and the end-to-end metrics are
reported. With ``--trace 1`` untraced and traced children alternate; the
traced ones give the per-layer metrics and the untraced ones the base for
``trace.overhead_frac``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

DEFAULT_SEED = 1
# Every child, and so the whole run, must end well inside the 180 s a run
# may take; a child still running at the deadline is killed and fails.
DEADLINE_S = 150.0
# A run on a slow host still ends near --seconds: two children suffice
# for a median, and with --trace 1 they are one untraced and one traced.
MIN_CHILDREN = 2

BASE_CONFIG = {"omega0": 1.0, "c_p": [1.0, 0.0], "step": "auto"}
# name -> (subcommand, config fields); see README.md for why each was chosen.
# BENCHMARK.json declares only check-n50 and timeavg-n50: the wall times of
# the other three swing too far from run to run on a shared host to gate on.
WORKLOADS = {
    "simulate-ref100": ("simulate", {"n_elements": 5, "scheme": "odd-harmonics", "horizon": 100.0}),
    "timeavg-n20": ("timeavg", {"n_elements": 20, "scheme": "odd-harmonics", "horizon": 400.0}),
    "check-n50": ("check", {"n_elements": 50, "scheme": "random", "horizon": 800.0}),
    "build-n1000": ("build", {"n_elements": 1000, "scheme": "odd-harmonics", "horizon": 800.0}),
    "timeavg-n50": ("timeavg", {"n_elements": 50, "scheme": "odd-harmonics", "horizon": 8.0}),
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def make_config(workload: str, seed: int, out_dir: Path) -> tuple[str, dict]:
    """The subcommand and config of a workload; only random schemes use the seed."""
    command, fields = WORKLOADS[workload]
    config = {**BASE_CONFIG, **fields, "output_dir": str(out_dir)}
    if config["scheme"] == "random":
        config["seed"] = seed
    return command, config


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    """One CLI invocation: its measurements, or why it failed."""

    traced: bool
    problems: list[str] = field(default_factory=list)
    measured: dict[str, float] = field(default_factory=dict)
    trace: dict | None = None
    stdout: str = ""
    identical: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def launch(argv: list[str], traced: bool, work: Path, env: dict, timeout: float) -> Child:
    """Run one child to completion (or kill it at the timeout) and read its measurements."""
    child = Child(traced=traced)
    measure = work / "measure.json"
    measure.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "child.py"), str(measure), "1" if traced else "0", "--", *argv]
    with open(work / "stdout.txt", "w") as out, open(work / "stderr.txt", "w") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            child.problems.append(f"killed after the {timeout:.0f} s time limit")
            return child
    child.stdout = (work / "stdout.txt").read_text()
    if proc.returncode != 0:
        tail = (work / "stderr.txt").read_text().strip().splitlines()[-3:]
        child.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    if not measure.is_file():
        child.problems.append("child wrote no measurements")
        return child
    record = json.loads(measure.read_text())
    child.measured = {
        "wall_s": record["main_end"] - record["main_start"],
        "setup_s": record["main_start"] - launched,
        "cpu_s": record["cpu_s"],
        "peak_rss_mb": record["maxrss_kb"] * 1024 / 1e6,
    }
    child.trace = record.get("trace")
    return child


def check_outputs(child: Child, workload: str, seed: int, out_dir: Path, refs: dict) -> None:
    """Apply the correctness gate to a finished child (outside its timed window)."""
    ref = refs["workloads"][workload]
    if WORKLOADS[workload][0] == "check":
        child.problems += verify.check_stdout(child.stdout, ref["checks"], ref["seeds"].get(str(seed)))
    else:
        problems, child.identical = verify.check_files(out_dir, ref["files"])
        child.problems += problems


def probe(env: dict) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "machine.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if result.returncode != 0:
        raise RuntimeError(f"cannot import chainobs, numpy and scipy: {result.stderr.strip()}")
    facts = json.loads(result.stdout)
    if not Path(facts["chainobs_file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"chainobs resolves to {facts['chainobs_file']}, not under {SRC}")
    return facts


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize_untraced(children: list[Child]) -> dict[str, float]:
    good = [c for c in children if not c.traced and c.ok]
    metrics = {}
    for name, unit in END_TO_END.items():
        values = [c.measured[name] for c in good]
        q1, median, q3 = quartiles(values)
        metrics[name] = median
        print(f"{name:<12} {median:.4f} {unit}  (q1 {q1:.4f}, q3 {q3:.4f}; n={len(values)})")
    return metrics


def summarize_traced(children: list[Child], untraced_wall: float) -> dict[str, float]:
    traced = [c for c in children if c.traced and c.ok]
    per_child = []
    for child in traced:
        values = layers.span_metrics(child.trace)
        values["serialize.files_identical"] = child.identical
        values["trace.overhead_frac"] = child.measured["wall_s"] / untraced_wall - 1.0
        per_child.append(values)
    metrics = {}
    for name, unit in layers.UNITS.items():
        metrics[name] = statistics.median(v[name] for v in per_child)
        print(f"{name:<30} {metrics[name]:.6g} {unit}  (n={len(per_child)})")
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed, the config seed of random schemes (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to keep starting runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "chainobs" / "cli.py").is_file():
        print(f"error: no chainobs sources under {SRC}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCES.read_text())
    work = WORK / args.workload
    out_dir = work / "out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    try:
        machine = probe(env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    command, config = make_config(args.workload, args.seed, out_dir)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    argv_cli = [command, "--config", str(config_path)]
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload}: chainobs {command} {json.dumps(config, sort_keys=True)}")
    print(f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")

    deadline = started + DEADLINE_S
    loop_start = time.monotonic()
    children: list[Child] = []
    while True:
        traced = bool(args.trace) and len(children) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        child = launch(argv_cli, traced, work, env, deadline - time.monotonic())
        if child.measured:
            check_outputs(child, args.workload, args.seed, out_dir, refs)
        children.append(child)
        m = child.measured
        print(
            f"run {len(children)} {'traced' if traced else 'untraced'}: "
            + (f"wall {m['wall_s']:.3f} s, setup {m['setup_s']:.3f} s, cpu {m['cpu_s']:.3f} s, "
               f"rss {m['peak_rss_mb']:.1f} MB, identical files {child.identical}; " if m else "")
            + ("ok" if child.ok else "FAILED: " + "; ".join(child.problems[:5]))
        )
        elapsed = time.monotonic() - loop_start
        cycle = elapsed / len(children)
        if time.monotonic() + cycle > deadline:
            break
        if len(children) >= MIN_CHILDREN and elapsed + cycle > args.seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(not c.ok for c in children)
    untraced = [c for c in children if not c.traced and c.ok]
    traced_ok = [c for c in children if c.traced and c.ok]
    if not untraced or (args.trace and not traced_ok):
        print(f"error: {failed} of {len(children)} runs failed, nothing to report", file=sys.stderr)
        return 1
    print(f"{'fail_frac':<12} {failed / len(children):.4f} 1  ({failed} of {len(children)} runs failed)")
    metrics = summarize_untraced(children)
    if args.trace:
        metrics = summarize_traced(children, metrics["wall_s"])
        units = layers.UNITS
    else:
        units = END_TO_END
    # The result carries only the metrics BENCHMARK.json declares; the rest
    # (fail_frac, trace.overhead_frac, layers idle on the gated workloads)
    # are printed by name above.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
