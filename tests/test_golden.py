"""Every ladder run of the golden corpus (tests/golden.json) keeps its exit
code, its stdout and every file it writes, byte for byte.

The corpus and its ladder of runs are described in tests/make_golden.py,
which regenerates it when a change moves output bytes on purpose. The pinned
runs at its end are replayed one by one, under their labels, by test_cli.py.
"""

from __future__ import annotations

import json

import pytest

from make_golden import HORIZONS, load, run, runs


def test_corpus_lists_every_run_in_order():
    ladder, pinned = load()
    assert [(e["command"], e["config"]) for e in ladder + list(pinned.values())] == runs()


@pytest.mark.parametrize("command", list(HORIZONS))
def test_every_run_keeps_its_bytes(tmp_path, command):
    """One id per subcommand, so a failure names the subcommand whose runs moved."""
    ladder = [entry for entry in load()[0] if entry["command"] == command]
    moved = []
    for i, entry in enumerate(ladder):
        observed = run(entry["command"], entry["config"], tmp_path / str(i))
        if observed != entry:
            moved.append(f"{json.dumps(entry['config'])}: "
                         f"{ {k: observed[k] for k in observed if observed[k] != entry[k]} }")
    assert not moved, f"{len(moved)} of {len(ladder)} {command} runs moved:\n" + "\n".join(moved)
