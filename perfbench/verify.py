"""Correctness gate: compare a run's outputs with stored references.

The references (``references.json``) were generated from the program at the
commit that introduced the benchmark. Each output file is first compared by
SHA-256. Only when the digest differs are its numbers compared, on a
stored subsample:

* CSV files: the line count, the header and 8 evenly spaced lines. Key
  columns (time and row label of the trajectory and average tables) must
  match exactly when they are labels and to ``RTOL`` relative when they are
  numbers. The value columns of a sampled line must match normwise:
  ``||x - r||_2 <= RTOL * ||r||_2``, the same Frobenius-relative form as the
  program's own 1e-8 oracle check, and no looser.
* JSON reports: the same keys, strings and pass flags, and every number
  within ``RTOL`` relative, except check values and the two top-level
  residuals, which are roundoff-level quantities covered by their pass
  flags.

A file whose digest differs but whose numbers agree is correct but not
identical; ``serialize.files_identical`` counts only the identical ones.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-8
SAMPLED_LINES = 8
MATRIX_FILES = frozenset({"r_a.csv", "a_a.csv", "c_a.csv", "r_o_reduced.csv"})
TABLE_KEYS = 2
RESIDUAL_KEYS = frozenset({"fixed_point_residual", "realizability_residual"})


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _line_count(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def _sample_positions(lines: int, first: int) -> list[int]:
    span = lines - 1 - first
    if span < 0:
        return []
    count = min(SAMPLED_LINES, span + 1)
    if count == 1:
        return [first]
    return sorted({first + round(j * span / (count - 1)) for j in range(count)})


def _read_lines(path: Path, positions: list[int]) -> dict[int, str]:
    wanted = set(positions)
    found = {}
    with open(path) as fh:
        for number, line in enumerate(fh):
            if number in wanted:
                found[number] = line.rstrip("\n")
    return found


def _layout(name: str) -> tuple[int, int]:
    """(header lines, key columns) of a CSV output file."""
    return (0, 0) if name in MATRIX_FILES else (1, TABLE_KEYS)


def fingerprint_csv(path: Path) -> dict:
    """Digest and numeric subsample of one CSV file, for references.json."""
    header_lines, keys = _layout(path.name)
    lines = _line_count(path)
    positions = _sample_positions(lines, header_lines)
    text = _read_lines(path, positions + list(range(header_lines)))
    samples = []
    for position in positions:
        fields = text[position].split(",")
        values = [
            [i, field]
            for i, field in enumerate(fields[keys:], start=keys)
            if _number(field) != 0.0
        ]
        samples.append([position, len(fields), fields[:keys], values])
    return {
        "sha256": sha256(path),
        "lines": lines,
        "header": text.get(0) if header_lines else None,
        "samples": samples,
    }


def compare_csv(path: Path, ref: dict) -> list[str]:
    """Problems found comparing a CSV file's numbers with its reference."""
    header_lines, _ = _layout(path.name)
    lines = _line_count(path)
    if lines != ref["lines"]:
        return [f"{path.name}: {lines} lines, reference has {ref['lines']}"]
    positions = [sample[0] for sample in ref["samples"]]
    text = _read_lines(path, positions + list(range(header_lines)))
    problems = []
    if header_lines and text.get(0) != ref["header"]:
        problems.append(f"{path.name}: header differs")
    for position, width, keys, values in ref["samples"]:
        fields = text[position].split(",")
        where = f"{path.name} line {position + 1}"
        if len(fields) != width:
            problems.append(f"{where}: {len(fields)} fields, reference has {width}")
            continue
        for got, want in zip(fields, keys):
            x, r = _number(got), _number(want)
            if x is None or r is None:
                if got != want:
                    problems.append(f"{where}: key {got!r}, reference {want!r}")
            elif abs(x - r) > RTOL * abs(r):
                problems.append(f"{where}: key {got}, reference {want}")
        reference = dict(values)
        diff2 = norm2 = 0.0
        for i in range(len(keys), width):
            want = reference.get(i, "0")
            x, r = _number(fields[i]), _number(want)
            if x is None or r is None:
                if fields[i] != want:
                    problems.append(f"{where}: field {i + 1} {fields[i]!r}, reference {want!r}")
                continue
            diff2 += (x - r) ** 2
            norm2 += r * r
        if not math.sqrt(diff2) <= RTOL * math.sqrt(norm2):
            problems.append(
                f"{where}: values differ by {math.sqrt(diff2):.3e}, "
                f"allowed {RTOL:g} * {math.sqrt(norm2):.3e}"
            )
    return problems


def compare_report(got, want, where: str = "report") -> list[str]:
    """Problems found comparing a JSON report with its reference."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys differ"]
        problems = []
        for key in want:
            if key == "value" or key in RESIDUAL_KEYS:
                continue
            problems += compare_report(got[key], want[key], f"{where}.{key}")
        return problems
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        problems = []
        for i, (g, w) in enumerate(zip(got, want)):
            problems += compare_report(g, w, f"{where}[{i}]")
        return problems
    numeric = (int, float)
    if (
        isinstance(want, numeric) and not isinstance(want, bool)
        and isinstance(got, numeric) and not isinstance(got, bool)
    ):
        if abs(got - want) > RTOL * abs(want):
            return [f"{where}: {got!r}, reference {want!r}"]
        return []
    if got != want or type(got) is not type(want):
        return [f"{where}: {got!r}, reference {want!r}"]
    return []


def fingerprint_files(out_dir: Path) -> dict:
    """References for every file a run wrote."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            files[path.name] = {
                "sha256": sha256(path),
                "report": json.loads(path.read_text()),
            }
        else:
            files[path.name] = fingerprint_csv(path)
    return files


def check_files(out_dir: Path, refs: dict) -> tuple[list[str], int]:
    """(problems, byte-identical files) for the files a run wrote."""
    written = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if written != sorted(refs):
        return [f"wrote {written}, expected {sorted(refs)}"], 0
    problems, identical = [], 0
    for name, ref in refs.items():
        path = out_dir / name
        if sha256(path) == ref["sha256"]:
            identical += 1
        elif "report" in ref:
            try:
                report = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                problems.append(f"{name}: not JSON: {exc}")
                continue
            problems += compare_report(report, ref["report"], name)
        else:
            problems += compare_csv(path, ref)
    return problems, identical


def fingerprint_check(stdout: str) -> dict:
    """Reference for the report ``check`` prints, for one seed."""
    report = json.loads(stdout)
    return {
        "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "certificate": report["certificate"],
    }


def check_stdout(stdout: str, checks: list[str], ref: dict | None) -> list[str]:
    """Problems in the report ``check`` printed.

    Every seed must print a passing report with the expected checks; seeds
    with a stored reference must also reproduce its certificate.
    """
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"check report is not JSON: {exc}"]
    problems = []
    if report.get("passed") is not True:
        problems.append("check report did not pass")
    names = [c.get("name") for c in report.get("checks", [])]
    if names != checks:
        problems.append(f"check report has checks {names}, expected {checks}")
    if not all(c.get("passed") is True for c in report.get("checks", [])):
        problems.append("a check in the report failed")
    if ref is not None and hashlib.sha256(stdout.encode()).hexdigest() != ref["sha256"]:
        problems += compare_report(report.get("certificate"), ref["certificate"], "certificate")
    return problems
