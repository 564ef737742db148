"""Write tests/golden.json, the output digests that test_golden.py replays.

For every run of a fixed ladder the corpus holds the exit code, the SHA-256
of stdout and the SHA-256 of every file the run wrote. The ladder is build,
check, timeavg (T = 8) and simulate (T = 1) over every scheme, N in
{1, 2, 5, 16} (all-harmonics on even N only) and three plant rows c_p, the
random scheme on seed 3: 168 runs. Then come timeavg and simulate in the
band where LAPACK's eigh turns to divide and conquer (N > 25), which the
ladder's N <= 16 never reaches: N in {26, 50, 200} on odd-harmonics and on
random (seed 3) with c_p (0.6, -1.3), simulate on a step of 0.25 (its auto
step would write 0.9 GB of rows at N = 50). test_golden.py replays those
180 runs. After them come the runs whose digests were pinned one by one
before the corpus existed: build on three chains, and check at horizon 800
on random N=50 (seeds 0-4) and on uniform and odd-harmonics N=200, replayed
under their labels by test_cli.py.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

A change that moves output bytes on purpose regenerates the file; its diff
then lists every run whose outputs moved. The corpus was written with numpy
2.4.6's OpenBLAS on two threads. check's sweep runs on one BLAS thread up to
N = 128, so its N=50 pins hold at every thread count; at N = 200 its last
digits depend on how BLAS splits products.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from chainobs import cli
from chainobs.builder import SCHEME_ALL_HARMONICS, SCHEME_ODD_HARMONICS, SCHEME_RANDOM, SCHEMES

GOLDEN = Path(__file__).with_name("golden.json")
HORIZONS = {"build": 8.0, "check": 8.0, "timeavg": 8.0, "simulate": 1.0}
PLANT_ROWS = ([1.0, 0.0], [-0.0, 2.0], [0.6, -1.3])
# build's digests date from before the library held R_a and A_a as blocks
# alone: odd-harmonics N=5's r_a.csv holds 30 negative zeros and uniform
# N=7's c_a.csv 8 (from c_p[0] = -0.0), which an assembly by np.kron would
# turn into +0 or add to. check's date from before the sweep skipped samples
# by their norm bounds.
PINNED = {
    "odd-harmonics-5": ("build", {"n_elements": 5, "scheme": "odd-harmonics", "c_p": [1.0, 0.0]}),
    "random-12": ("build", {"n_elements": 12, "scheme": "random", "seed": 3, "c_p": [0.6, -1.3]}),
    "uniform-7": ("build", {"n_elements": 7, "scheme": "uniform", "c_p": [-0.0, 2.0]}),
    **{f"random-50-{seed}": ("check", {"n_elements": 50, "scheme": "random", "seed": seed,
                                       "c_p": [1.0, 0.0], "horizon": 800.0})
       for seed in range(5)},
    "uniform-200": ("check", {"n_elements": 200, "scheme": "uniform", "c_p": [1.0, 0.0],
                              "horizon": 800.0}),
    "odd-harmonics-200": ("check", {"n_elements": 200, "scheme": "odd-harmonics",
                                    "c_p": [1.0, 0.0], "horizon": 800.0}),
}


def runs() -> list[tuple[str, dict]]:
    """(subcommand, config) of every run in the corpus, in corpus order."""
    ladder = []
    for command, horizon in HORIZONS.items():
        for scheme in SCHEMES:
            for n in (1, 2, 5, 16):
                if scheme == SCHEME_ALL_HARMONICS and n % 2:
                    continue
                for c_p in PLANT_ROWS:
                    config = {"n_elements": n, "scheme": scheme, "c_p": c_p, "horizon": horizon}
                    if scheme == SCHEME_RANDOM:
                        config["seed"] = 3
                    ladder.append((command, config))
    for command, step in (("timeavg", {}), ("simulate", {"step": 0.25})):
        for scheme, seed in ((SCHEME_ODD_HARMONICS, {}), (SCHEME_RANDOM, {"seed": 3})):
            for n in (26, 50, 200):
                ladder.append((command, {"n_elements": n, "scheme": scheme, **seed,
                                         "c_p": PLANT_ROWS[2], "horizon": HORIZONS[command],
                                         **step}))
    pinned = [(command, {"horizon": 1.0, **fields}) for command, fields in PINNED.values()]
    return [(command, {"omega0": 1.0, **config}) for command, config in ladder + pinned]


def load() -> tuple[list[dict], dict[str, dict]]:
    """The corpus: the ladder's entries, and the pinned runs' entries by label."""
    entries = json.loads(GOLDEN.read_text())
    ladder = len(entries) - len(PINNED)
    return entries[:ladder], dict(zip(PINNED, entries[ladder:]))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(command: str, config: dict, directory: Path) -> dict:
    """One run through cli.main in a fresh directory, as its corpus entry."""
    directory.mkdir(parents=True)
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    out = directory / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(path), "--output-dir", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {
        "command": command,
        "config": config,
        "code": code,
        "stdout": _digest(stdout.getvalue().encode()),
        "files": {p.name: _digest(p.read_bytes()) for p in files},
    }


def corpus(directory: Path) -> list[dict]:
    return [run(command, config, directory / str(i))
            for i, (command, config) in enumerate(runs())]


def dumps(entries: list[dict]) -> str:
    """One entry per line, so that a diff names the runs whose outputs moved."""
    return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n"


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(dumps(corpus(Path(scratch))))
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
