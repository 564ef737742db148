"""CSV and JSON writers for the run artifacts.

Every float in a CSV is written exactly as ``'%.17g' % x`` writes it: 17
significant digits, enough for a binary64 value to survive a write/read
round trip bit for bit. One vectorised formatter (``float17.RowFormat``)
writes every line; it is imported on the first write, so a run that writes
no CSV never loads it. Row labels are integral floats, for which ``%.17g`` and
``%d`` agree, so they take the same path; literal text (the spatial row
label ``s``, the ``err_`` prefix, trailing commas) is part of the separator
bytes. Lines are formatted in chunks of about CHUNK values, so no file is
held in memory as text. Matrices are plain comma-separated values with no
header; trajectory and average files carry the headers the plotting tools
expect.

Every writer replaces its file rather than rewriting it in place (_create):
the old file, or a symlink, at the path is removed first. Some filesystems
(ext4 with its default auto_da_alloc) force a file that was truncated and
written again to disk when it is closed, which cost about 60 ms for each
file of a rerun into the same directory; a new file is not forced. A hard
link to an earlier run's file therefore keeps that run's bytes.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO

import numpy as np

CHUNK = 2048  # values formatted at a time


def _create(path: Path) -> BinaryIO:
    """path opened for writing as a new file, whatever was there removed first."""
    path.unlink(missing_ok=True)
    return open(path, "xb")


def _write(out: BinaryIO, n_rows: int, rows: Callable[[int, int], np.ndarray],
           separators: list[bytes], end: bytes = b"\n") -> None:
    """Write the lines of rows(start, stop) of an n_rows-row table, a chunk at a time:
    value j of a row, then separators[j], and end after the last value."""
    from .float17 import RowFormat

    lines = RowFormat(separators, end)
    step = max(1, CHUNK // (len(separators) + 1))
    for start in range(0, n_rows, step):
        out.write(lines.format(rows(start, min(start + step, n_rows))))


def write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    with _create(path) as out:
        _write(out, len(m), lambda a, b: m[a:b], [b","] * (m.shape[1] - 1))


def trajectory_header(dim: int) -> str:
    return "t,row," + ",".join(f"c_{j}" for j in range(1, dim + 1))


def average_header(dim: int) -> str:
    return "T,row," + ",".join(f"avg_c_{j}" for j in range(1, dim + 1))


def _write_labeled(out: BinaryIO, first: np.ndarray, values: np.ndarray) -> None:
    """Lines (first[k], i, values[k, i - 1]) for each k and rows i = 1..n_rows."""
    n_first, n_rows, dim = values.shape
    flat = values.reshape(-1, dim)

    def rows(start: int, stop: int) -> np.ndarray:
        index = np.arange(start, stop)
        return np.column_stack([first[index // n_rows], index % n_rows + 1.0, flat[start:stop]])

    _write(out, len(flat), rows, [b","] * (dim + 1))


def write_trajectory_csv(path: Path, times: np.ndarray, rows: np.ndarray) -> None:
    """One line per (sample, output row) of rows at the times, rows labeled 1..N+1."""
    with _create(path) as out:
        out.write(f"{trajectory_header(rows.shape[2])}\n".encode())
        _write_labeled(out, times, rows)


def write_spatial_csv(path: Path, times: np.ndarray, spatial: np.ndarray) -> None:
    """Same column layout as the trajectory file, row label 's'."""
    dim = spatial.shape[1]
    with _create(path) as out:
        out.write(f"{trajectory_header(dim)}\n".encode())
        _write(out, len(spatial), lambda a, b: np.column_stack([times[a:b], spatial[a:b]]),
               [b",s,"] + [b","] * (dim - 1))


def write_averages_csv(path: Path, horizons: list[float], averages: list[np.ndarray],
                       row_errors: np.ndarray | list[float]) -> None:
    """Averaged rows per horizon, then one consensus summary line per row.

    averages[k] holds the rows averaged up to horizons[k]. Data lines carry
    row labels 1..N+1 for each horizon in order. Summary lines (row label
    err_i for observer row i) repeat the final horizon, put the row's
    distance to the plant row in the first value column, and leave the rest
    empty.
    """
    dim = averages[0].shape[1]
    errors = np.asarray(row_errors, dtype=float)
    summary = np.column_stack([np.full(len(errors), float(horizons[-1])),
                               np.arange(2.0, len(errors) + 2), errors])
    with _create(path) as out:
        out.write(f"{average_header(dim)}\n".encode())
        for horizon, rows in zip(horizons, averages):
            _write_labeled(out, np.array([horizon], dtype=float), rows[None])
        _write(out, len(summary), lambda a, b: summary[a:b], [b",err_", b","],
               b"," * (dim - 1) + b"\n")


def write_report_json(path: Path, report: dict) -> None:
    with _create(path) as out:
        out.write((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
