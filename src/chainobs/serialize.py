"""CSV and JSON writers for the run artifacts.

Every CSV is written by ``numpy.savetxt`` with one float template, ``%.17g``:
17 significant digits, enough for a binary64 value to survive a write/read
round trip bit for bit. Labels are literal parts of each line template, and
each block of lines is formatted row by row from one stacked array, so no
file is held in memory as text. Matrices are plain comma-separated values
with no header; trajectory and average files carry the headers the plotting
tools expect.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .simulate import TimeAverage, Trajectory

FLOAT = "%.17g"


def _line(label: str, dim: int) -> str:
    """Line template: a float, a row label, then dim floats."""
    return ",".join([FLOAT, label, *[FLOAT] * dim])


def write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    np.savetxt(path, m, fmt=FLOAT, delimiter=",")


def read_matrix_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)


def trajectory_header(dim: int) -> str:
    return "t,row," + ",".join(f"c_{j}" for j in range(1, dim + 1))


def average_header(dim: int) -> str:
    return "T,row," + ",".join(f"avg_c_{j}" for j in range(1, dim + 1))


def _labeled(first: np.ndarray, n_rows: int, values: np.ndarray) -> np.ndarray:
    """Columns (first[k], i, values) for each k and rows i = 1..n_rows."""
    labels = np.tile(np.arange(1.0, n_rows + 1), len(first))
    return np.column_stack([np.repeat(first, n_rows), labels, values])


def write_trajectory_csv(path: Path, trajectory: Trajectory) -> None:
    """One line per (sample, output row), rows labeled 1..N+1."""
    _, n_rows, dim = trajectory.coefficient_rows.shape
    table = _labeled(trajectory.grid.times(), n_rows, trajectory.coefficient_rows.reshape(-1, dim))
    np.savetxt(path, table, fmt=_line("%d", dim), header=trajectory_header(dim), comments="")


def write_spatial_csv(path: Path, trajectory: Trajectory, spatial: np.ndarray) -> None:
    """Same column layout as the trajectory file, row label 's'."""
    dim = spatial.shape[1]
    table = np.column_stack([trajectory.grid.times(), spatial])
    np.savetxt(path, table, fmt=_line("s", dim), header=trajectory_header(dim), comments="")


def write_averages_csv(
    path: Path, averages: list[TimeAverage], row_errors: list[float]
) -> None:
    """Averaged rows per horizon, then one consensus summary line per row.

    Data lines carry row labels 1..N+1 for each horizon in order. Summary
    lines (row label err_i for observer row i) repeat the final horizon,
    put the row's distance to the plant row in the first value column, and
    leave the rest empty.
    """
    n_rows, dim = averages[0].averaged_rows.shape
    horizons = np.array([avg.horizon for avg in averages], dtype=float)
    table = _labeled(horizons, n_rows, np.vstack([avg.averaged_rows for avg in averages]))
    errors = np.asarray(row_errors, dtype=float)
    rows = np.arange(2.0, len(errors) + 2)
    summary = np.column_stack([np.full(len(errors), horizons[-1]), rows, errors])
    with open(path, "w") as out:
        np.savetxt(out, table, fmt=_line("%d", dim), header=average_header(dim), comments="")
        np.savetxt(out, summary, fmt=_line("err_%d", 1) + "," * (dim - 1))


def write_report_json(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
