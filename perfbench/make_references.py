"""Regenerate references.json, the correctness gate's stored outputs.

Usage (from the repository root):

    python3 perfbench/make_references.py

Run it only on a commit whose outputs are known to be right: it records
whatever the program writes. Each workload runs once, untraced, exactly as
the benchmark runs it; ``check-n50`` runs once per seed 0..127, since its
config seed is the benchmark seed; other seeds get only its pass-flag check.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import verify

# check-n50 seeds with stored references: 0..CHECK_SEEDS-1.
CHECK_SEEDS = 128


def main() -> int:
    env = run.child_env()
    work = run.WORK / "references"
    out_dir = work / "out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = {"tolerance": verify.RTOL, "workloads": {}}
    for workload, (command, _) in run.WORKLOADS.items():
        seeds = range(CHECK_SEEDS) if command == "check" else [run.DEFAULT_SEED]
        entry: dict = {"seeds": {}} if command == "check" else {}
        for seed in seeds:
            _, config = run.make_config(workload, seed, out_dir)
            config_path = work / "config.json"
            config_path.write_text(json.dumps(config))
            shutil.rmtree(out_dir, ignore_errors=True)
            child = run.launch([command, "--config", str(config_path)], False, work, env, 600.0)
            if not child.ok:
                print(f"{workload} seed {seed}: {'; '.join(child.problems)}", file=sys.stderr)
                return 1
            if command == "check":
                entry["checks"] = [c["name"] for c in json.loads(child.stdout)["checks"]]
                entry["seeds"][str(seed)] = verify.fingerprint_check(child.stdout)
            else:
                entry["files"] = verify.fingerprint_files(out_dir)
            print(f"{workload} seed {seed}: wall {child.measured['wall_s']:.2f} s", flush=True)
        refs["workloads"][workload] = entry
    shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
