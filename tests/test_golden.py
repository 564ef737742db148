"""Every ladder run of the golden corpus (tests/golden.json) keeps its exit
code, its stdout and every file it writes, byte for byte.

The corpus and its ladder of runs are described in tests/make_golden.py,
which regenerates it when a change moves output bytes on purpose. The pinned
runs at its end are replayed one by one, under their labels, by test_cli.py.
"""

from __future__ import annotations

import json

from make_golden import load, run, runs


def test_every_run_keeps_its_bytes(tmp_path):
    ladder, pinned = load()
    assert [(e["command"], e["config"]) for e in ladder + list(pinned.values())] == runs()
    moved = []
    for i, entry in enumerate(ladder):
        observed = run(entry["command"], entry["config"], tmp_path / str(i))
        if observed != entry:
            moved.append(f"{entry['command']} {json.dumps(entry['config'])}: "
                         f"{ {k: observed[k] for k in observed if observed[k] != entry[k]} }")
    assert not moved, f"{len(moved)} of {len(ladder)} runs moved:\n" + "\n".join(moved)
