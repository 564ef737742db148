"""The vectorised formatter against Python's own '%.17g', value by value."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

import chainobs as co
from chainobs import serialize
from chainobs.float17 import RowFormat

MAX = 1.7976931348623157e308
PINNED = [1e23, 2.0**-30, 5e-324, MAX, -MAX, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]


def formatted(values) -> list[str]:
    """One value per line through the vectorised formatter."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    return RowFormat([]).format(column).decode().split("\n")[:-1]


def python(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def test_exact_ties_round_half_to_even():
    values = [1000000000000000.25, 1000000000000000.75]
    assert formatted(values) == ["1000000000000000.2", "1000000000000000.8"] == python(values)


def test_pinned_values():
    assert formatted(PINNED) == python(PINNED)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)])
    values = np.concatenate([values, -values])
    assert formatted(values) == python(values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@settings(max_examples=400, deadline=None)
def test_any_bit_pattern(bits):
    """Every float64, NaN payloads and subnormals included."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert formatted(values) == python(values)


@given(st.integers(1, 5), st.integers(1, 4), st.sampled_from([b",", b",s,", b",err_", b"; "]),
       st.sampled_from([b"\n", b",,,\n", b"," * 40 + b"\n"]), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_lines_carry_their_separators(rows, cols, separator, end, seed):
    """Separators of any length, and a line end longer than a value, stay literal."""
    table = np.random.default_rng(seed).normal(size=(rows, cols)) * 1e5
    separators = [separator] + [b","] * (cols - 2) if cols > 1 else []
    expected = b"".join(
        b"".join(("%.17g" % v).encode() + sep for v, sep in zip(row, [*separators, end]))
        for row in table.tolist()
    )
    assert RowFormat(separators, end).format(table) == expected


def with_digits(k: int, x: int) -> float:
    """The first double, by k-digit mantissa, that '%.17g' writes with exactly
    k significant digits and decimal exponent x."""
    for mantissa in range(10 ** (k - 1), 10**k):
        value = float(f"{mantissa}e{x - k + 1}")
        digits, exponent = ("%.16e" % value).split("e")
        if mantissa % 10 and len(digits.replace(".", "").rstrip("0")) == k and int(exponent) == x:
            return value
    raise AssertionError(f"no double has {k} digits at exponent {x}")


@pytest.mark.parametrize("x", [*range(-8, 18), -100, -99, 99, 100])
def test_every_digit_count_at_every_layout(x):
    """1 to 17 significant digits, both signs: every fixed-point exponent, the
    e-notation ones next to them, and two- and three-digit exponents. No double
    writes as one digit at X = -7, -6, -5 or 99 (none lies within half a unit
    in the 17th digit of d * 10**X), so those start at two."""
    values = [with_digits(k, x) for k in range(2 if x in (-7, -6, -5, 99) else 1, 18)]
    values += [-v for v in values]
    assert formatted(values) == python(values)


@pytest.mark.parametrize("zeros", [0, 1, 31, 32, 33, 63, 64])
def test_zeros_and_values_in_any_proportion(zeros):
    """A 64-value table takes the path for dense values below 33 zeros and the
    one for sparse matrices above; each value keeps its bytes either way."""
    rng = np.random.default_rng(zeros)
    values = rng.normal(size=64) * 10.0 ** rng.integers(-20, 20, size=64)
    values[:4] = [np.inf, -np.inf, np.nan, 1.0]
    values[rng.permutation(64)[:zeros]] = rng.choice([0.0, -0.0], size=zeros)
    assert formatted(values) == python(values)
    assert RowFormat([b","] * 7).format(values.reshape(8, 8)).decode() == "".join(
        ",".join(python(row)) + "\n" for row in values.reshape(8, 8))


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
def test_writers_do_not_depend_on_the_chunk(tmp_path, monkeypatch, chunk):
    """Every CSV writer gives the same bytes whatever the number of values per chunk."""
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(4, 3, 6)) * 10.0 ** rng.integers(-8, 8, size=(4, 3, 6))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    trajectory = co.Trajectory(grid=co.TimeGrid(t_end=0.75, step=0.25), coefficient_rows=rows)
    averages = [co.TimeAverage(horizon, rows[i]) for i, horizon in enumerate([0.5, 1.0, 2.0])]

    def write_all(directory):
        directory.mkdir()
        serialize.write_matrix_csv(directory / "matrix.csv", rows[0])
        serialize.write_trajectory_csv(directory / "trajectory.csv", trajectory)
        serialize.write_spatial_csv(directory / "spatial.csv", trajectory, rows[:, 0])
        serialize.write_averages_csv(directory / "averages.csv", averages, [0.25, -1e-300])
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    default = write_all(tmp_path / "default")
    monkeypatch.setattr(serialize, "CHUNK", chunk)
    assert write_all(tmp_path / "patched") == default


def test_check_builds_no_formatter_table(tmp_path):
    """The formatter loads on the first write: importing the CLI and running
    `check`, which writes no CSV, neither imports it nor builds its tables."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_elements": 5, "scheme": "odd-harmonics", "omega0": 1.0,
                                  "c_p": [1.0, 0.0], "horizon": 20.0}))
    script = (
        "import sys, chainobs.cli\n"
        "code = chainobs.cli.main(['check', '--config', sys.argv[1]])\n"
        "loaded = 'chainobs.float17' in sys.modules\n"
        "import chainobs.float17 as f\n"
        "print(code, loaded, f._formatter.cache_info().currsize, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(co.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, str(config)],
                          env=env, capture_output=True, text=True)
    assert proc.stderr.split()[-3:] == ["0", "False", "0"], proc.stderr
