"""Run the benchmark once per seed and report how much each metric spreads.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload NAME [--seeds 1,2,3] [--trace 0|1] [--record PATH]

For every metric it prints the median of the runs' values, their first and
third quartiles (``statistics.quantiles(values, n=4)``) and the distance
between the quartiles as a share of the median. For end-to-end metrics that
share is set beside the metric's bound from BENCHMARK.json: a steady
benchmark keeps it below a third of the bound. ``--record`` merges the runs
and their summary into a JSON file under the workload's name, with the
machine facts of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]

    runs, machine = [], None
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        machine = machine or json.loads(lines[0].split(":", 1)[1])
        runs.append({"seed": seed, **result})
        values = ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()
                           if k in bounds or args.trace)
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}; {values}",
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        share = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "iqr_share": share}
        note = f"  (a third of the bound: {bounds[name] / 3:.4f})" if name in bounds else ""
        print(f"{name:<30} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {share:.4f}{note}")

    if args.record:
        record = json.loads(args.record.read_text()) if args.record.is_file() else {}
        record.setdefault("machine", machine)
        record.setdefault("run_seconds", bench["run_seconds"])
        key = "per_layer" if args.trace else "end_to_end"
        record.setdefault(key, {})[args.workload] = {"summary": summary, "runs": runs}
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
