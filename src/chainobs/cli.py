"""Experiment orchestration and the ``chainobs`` command-line tool (see HELP).

All subcommands read a JSON config (see parse_config); --output-dir,
--horizon and --step replace that field of the config before it is
validated, exactly as if the file had said so.

Exit codes:

  0  every certificate and tolerance in the run passed
  1  a certificate or tolerance failed
  2  the command line or config was rejected, or the run would not fit in physical memory
  3  unexpected error, or standard output closed before the results were
     written (a broken pipe)

The CHAINOBS_LOG environment variable (a logging level name such as INFO or
DEBUG; any other value leaves WARNING) controls log verbosity.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import serialize
from .analysis import (
    BOUND_CHUNK,
    EXP_BOUND_REL_TOL,
    SpectralCertificate,
    build_reduced,
    certify_positive_definite,
    observer_certificate,
    verify_exp_bound,
    verify_mode_generator,
)
from .builder import (
    SCHEME_ALL_HARMONICS,
    SCHEME_RANDOM,
    SCHEMES,
    ChainObserverParams,
    ParameterScheme,
    build_chain,
    check_fixed_point,
    make_mu_schedule,
)
from .errors import (
    BoundViolatedError,
    ChainobsError,
    ConfigError,
    ConfigSchemaError,
    ConfigValidationError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    ToleranceExceededError,
)
from .lqs import realizability_residual
from .simulate import (
    TimeGrid,
    _chunk_times,
    coefficient_trajectory,
    default_step,
    identity_residuals,
    normal_modes,
    row_distances,
    spatial_average,
    time_average_spectral,
    verify_trajectory,
)

log = logging.getLogger("chainobs")

REALIZABILITY_REL_TOL = 1e-12
FIXED_POINT_REL_TOL = 1e-12
ROW_SUM_REL_TOL = 1e-14
PLANT_ROW_REL_TOL = 1e-13
PLANT_ROW_DRIFT_TOL = 1e-9
ORACLE_REL_TOL = 1e-8
EXP_BOUND_SAMPLES = 500
EXP_BOUND_SPAN = 50.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, as read from a JSON config file."""

    n_elements: int
    scheme: str
    omega0: float
    c_p: tuple[float, float]
    horizon: float
    seed: int | None = None
    step: float | str = "auto"
    output_dir: str = "."


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool


@dataclass
class RunReport:
    """Certificates and residuals of one run, plus where its files went."""

    certificate: SpectralCertificate
    fixed_point_residual: float
    realizability_residual: float
    consensus_error_curve: list[tuple[float, float]] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    passed: bool = True

    def add(self, name: str, value: float, bound: float) -> None:
        ok = bool(value <= bound)
        self.checks.append(CheckResult(name, float(value), float(bound), ok))
        if not ok:
            self.passed = False
        log.info("%s %s: %.6e (bound %.6e)", "ok" if ok else "FAIL", name, value, bound)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return asdict(self)


def _expect(condition: bool, exc: type[ConfigError], message: str) -> None:
    if not condition:
        raise exc(message)


def _number(raw: object, path: str) -> float:
    _expect(
        isinstance(raw, (int, float)) and not isinstance(raw, bool),
        ConfigSchemaError,
        f"{path}: expected a number, got {raw!r}",
    )
    value = float(raw)
    _expect(np.isfinite(value), ConfigSchemaError, f"{path}: must be finite, got {raw!r}")
    return value


def parse_config(text: str, **overrides: object) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Each override replaces (or supplies) that field of the parsed object
    before validation. Schema problems (anything from invalid JSON to a
    missing or mistyped field) raise a schema error naming the field;
    semantically inconsistent values raise a validation error.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSchemaError(f"config is not valid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), ConfigSchemaError, "config must be a JSON object")
    raw.update(overrides)

    known = fields(ExperimentConfig)
    unknown = sorted(set(raw) - {f.name for f in known})
    _expect(not unknown, ConfigSchemaError, f"unknown config fields: {', '.join(unknown)}")
    for name in (f.name for f in known if f.default is MISSING):
        _expect(name in raw, ConfigSchemaError, f"{name}: required field is missing")

    _expect(
        isinstance(raw["n_elements"], int) and not isinstance(raw["n_elements"], bool),
        ConfigSchemaError,
        f"n_elements: expected an integer, got {raw['n_elements']!r}",
    )
    n_elements = raw["n_elements"]
    _expect(isinstance(raw["scheme"], str), ConfigSchemaError, "scheme: expected a string")
    scheme = raw["scheme"]
    omega0 = _number(raw["omega0"], "omega0")
    _expect(
        isinstance(raw["c_p"], list) and len(raw["c_p"]) == 2,
        ConfigSchemaError,
        "c_p: expected a list of exactly 2 numbers",
    )
    c_p = tuple(_number(v, f"c_p[{i}]") for i, v in enumerate(raw["c_p"]))
    horizon = _number(raw["horizon"], "horizon")

    seed = raw.get("seed")
    if seed is not None:
        _expect(
            isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            ConfigSchemaError,
            f"seed: expected a nonnegative integer, got {seed!r}",
        )
    step: float | str = raw.get("step", "auto")
    if step != "auto":
        step = _number(step, "step")
    output_dir = raw.get("output_dir", ".")
    _expect(isinstance(output_dir, str), ConfigSchemaError, "output_dir: expected a string")

    _expect(n_elements >= 1, ConfigValidationError, f"n_elements must be >= 1, got {n_elements}")
    _expect(
        scheme in SCHEMES,
        ConfigValidationError,
        f"scheme must be one of {', '.join(SCHEMES)}; got {scheme!r}",
    )
    _expect(omega0 > 0, ConfigValidationError, f"omega0 must be positive, got {omega0}")
    _expect(horizon > 0, ConfigValidationError, f"horizon must be positive, got {horizon}")
    if step != "auto":
        _expect(step > 0, ConfigValidationError, f"step must be positive, got {step}")
    _expect(
        c_p != (0.0, 0.0),
        ConfigValidationError,
        "c_p must not be the zero vector (degenerate output: nothing to observe)",
    )
    if scheme == SCHEME_RANDOM:
        _expect(seed is not None, ConfigValidationError, "scheme 'random' requires a seed")
    else:
        _expect(
            seed is None,
            ConfigValidationError,
            f"seed is only meaningful for the random scheme, not {scheme!r}",
        )
    if scheme == SCHEME_ALL_HARMONICS:
        _expect(
            n_elements % 2 == 0,
            ConfigValidationError,
            f"the all-harmonics scheme needs an even n_elements, got {n_elements}",
        )
    return ExperimentConfig(
        n_elements=n_elements,
        scheme=scheme,
        omega0=omega0,
        c_p=c_p,
        horizon=horizon,
        seed=seed,
        step=step,
        output_dir=output_dir,
    )


def load_config(path: str | Path, **overrides: object) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigSchemaError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, **overrides)


def _physical_memory() -> int | None:
    """Bytes of physical memory, where the platform reports them."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _check_fits(n: int, command: str = "", grid: TimeGrid | None = None) -> None:
    """Reject a run whose arrays cannot fit in physical memory, before any is formed.

    Counted in Python ints, so no chain length overflows, and as if every
    array the run forms were held at once, so the count bounds its peak.
    Without a grid, that is the chain's set-up, checked before the couplings
    are drawn: every run holds the N x N reduced matrix and one N x N
    temporary. build also holds its dense (2N+2)-square R_a and A_a. check
    holds its normal modes' five N x N factors (V, Omega^(1/2) V,
    Omega^(-1/2) V, G and H), one formed propagator's four 2N x 2N arrays
    (P, its Gram, and the symplectic product and its difference), seven
    samples x N arrays (D(t)'s three entries and, while NormalModes.weights
    forms them, at most four temporaries) and ten BOUND_CHUNK x N temporaries
    of the norm bounds. timeavg holds seven more N x N arrays (the normal
    modes' V, Omega^(1/2) V and Omega^(-1/2) V, and four temporaries of the
    rows), nine arrays of (N+1) x (2N+2) rows (the five averages and four of
    the cross-check's temporaries) and the writer's text for one chunk of
    serialize.CHUNK values, counted at 256 bytes a value (about 205 are
    used). With simulate's grid it is the trajectory: samples x (N+1) rows
    of 2N+2 doubles, two samples x (2N+2) arrays (the plant rows and the
    spatial average) and one chunk of rows' temporaries (at most
    simulate.TRAJECTORY_CHUNK_BYTES); the writers format the rows a few
    thousand values at a time and copy none of them whole.
    """
    if grid is None:
        needed, arrays = 2 * n * n, "two N x N arrays"
        if command == "build":
            needed += 2 * (2 * n + 2) ** 2
            arrays += " and its dense R_a and A_a"
        elif command == "check":
            vectors = 7 * EXP_BOUND_SAMPLES + 10 * BOUND_CHUNK
            needed += 5 * n * n + 4 * (2 * n) ** 2 + vectors * n
            arrays += (f", its normal modes' five N x N factors, one propagator's four "
                       f"2N x 2N arrays and {vectors} N-vectors of the sweep's weights and bounds")
        elif command == "timeavg":
            needed += 7 * n * n + 9 * (n + 1) * (2 * n + 2) + 32 * serialize.CHUNK
            arrays += (", seven more N x N arrays, nine (N+1) x (2N+2) arrays of rows "
                       "(five averages and four cross-check temporaries) and the writer's "
                       "chunk of text")
        needed *= 8
    else:
        chunk = min(grid.samples, _chunk_times(n))
        needed = (grid.samples * (n + 3) + chunk * (n + 1)) * (2 * n + 2) * 8
    memory = _physical_memory()
    if memory is None or needed <= memory:
        return
    # three significant digits; Decimal also rounds counts past the largest float
    from decimal import Decimal

    if grid is None:
        held = f"a chain of {n} elements would hold about {Decimal(needed):.3g} bytes in {arrays}"
        remedy = "shorten the chain"
    else:
        held = (f"simulate would hold {Decimal(grid.samples):.3g} samples of {n + 1} x "
                f"{2 * n + 2} rows, about {Decimal(needed):.3g} bytes with the plant rows, the "
                f"spatial average and one chunk of temporaries")
        remedy = "shorten the horizon or lengthen the step"
    raise ConfigValidationError(
        f"{held}, more than the {memory} bytes of physical memory; {remedy}"
    )


def _construct(config: ExperimentConfig, command: str = "") -> ChainObserverParams:
    """The config's chain, once command's arrays are known to fit (_check_fits)."""
    _check_fits(config.n_elements, command)
    scheme = ParameterScheme(variant=config.scheme, omega0=config.omega0, seed=config.seed)
    return build_chain(config.c_p, make_mu_schedule(scheme, config.n_elements))


def _base_report(chain: ChainObserverParams) -> RunReport:
    """Certify the construction itself; shared by every subcommand.

    Everything here works from the chain's O(N) blocks and the N x N
    reduced matrix; no (2N+2)-square array is formed.
    """
    reduced = build_reduced(chain)
    reduced_certificate = certify_positive_definite(reduced)
    report = RunReport(
        certificate=observer_certificate(reduced_certificate, chain.omega),
        fixed_point_residual=check_fixed_point(chain),
        realizability_residual=realizability_residual(chain.dynamics),
    )
    a_norm = chain.dynamics.frobenius_norm()
    report.add("realizability_residual", report.realizability_residual, REALIZABILITY_REL_TOL * a_norm)
    o_norm = chain.observer_dynamics.frobenius_norm()
    report.add("fixed_point_residual", report.fixed_point_residual, FIXED_POINT_REL_TOL * o_norm)

    if chain.n_elements > 1:
        # the path Laplacian L = R_red - mu~_1 e_1 e_1^T, formed in R_red's
        # place now that its certificate is taken. Each row sum cancels
        # entries of R_red (omega_i against mu~_i + mu~_(i+1)), so
        # ||R_red||_2 = lambda_max (R_red is positive definite) scales it
        laplacian = reduced
        laplacian[0, 0] -= chain.mu_tilde[0]
        row_scale = reduced_certificate.lambda_max
        row_sums = float(np.abs(laplacian.sum(axis=1)).max())
        report.add("laplacian_row_sums", row_sums, ROW_SUM_REL_TOL * row_scale)
        lap_eigs = np.linalg.eigvalsh(laplacian)
        lap_scale = float(max(-lap_eigs[0], lap_eigs[-1]))  # ||L||_2
        report.add("laplacian_min_eigenvalue", -float(lap_eigs[0]), 1e-12 * row_scale)
        # kernel must be exactly one-dimensional: second eigenvalue strictly positive
        report.add("laplacian_kernel_excess", -float(lap_eigs[1]), -1e-12 * lap_scale)

    # C_a's plant row is (alpha, 0, ..., 0)
    plant = np.zeros(2 * chain.n_elements + 2)
    plant[:2] = chain.alpha
    plant_row = float(np.abs(plant @ chain.dynamics).max())
    report.add("plant_row_of_c_a_a_a", plant_row, PLANT_ROW_REL_TOL * a_norm)

    # every observer output row C_o is alpha on its own element
    outputs = chain.x_star[2:].reshape(-1, 2) @ chain.alpha
    report.add("consensus_target_identity", float(np.abs(outputs - 1.0).max()), 1e-12)
    return report


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(out: Path, report: RunReport) -> RunReport:
    report.outputs["report"] = "report.json"
    serialize.write_report_json(out / "report.json", report.to_dict())
    return report


def run_build(config: ExperimentConfig) -> RunReport:
    """Construct and certify the observer, then serialize its matrices.

    The only run that forms the dense (2N+2)-square R_a and A_a, from their
    blocks. C_a is alpha in each mode's own block, written in place so that
    its zeros stay +0.0 whatever the signs in alpha.
    """
    chain = _construct(config, "build")
    report = _base_report(chain)
    out = _out_dir(config)
    n = chain.n_elements
    modes = np.arange(n + 1)
    c_a = np.zeros((n + 1, 2 * n + 2))
    c_a.reshape(n + 1, n + 1, 2)[modes, modes] = chain.alpha
    files = {
        "r_a": chain.hamiltonian.dense(),
        "a_a": chain.dynamics.dense(),
        "c_a": c_a,
        "r_o_reduced": build_reduced(chain),
    }
    for name, matrix in files.items():
        path = out / f"{name}.csv"
        serialize.write_matrix_csv(path, matrix)
        report.outputs[name] = path.name
        log.info("wrote %s", path)
    return _finish(out, report)


def run_simulate(config: ExperimentConfig) -> RunReport:
    """Sample the coefficient trajectory and write it with its spatial average.

    One eigensolve of the chain's normal modes sets the auto step and gives
    every row in closed form; the stored rows are then checked against the
    chain's dynamics (simulate.verify_trajectory), a failure exiting 1. A
    grid whose rows would not fit in physical memory is rejected (exit 2)
    before any row is formed.
    """
    chain = _construct(config)
    report = _base_report(chain)
    modes = normal_modes(chain)
    step = default_step(modes) if config.step == "auto" else float(config.step)
    grid = TimeGrid.covering(config.horizon, step)
    _check_fits(chain.n_elements, grid=grid)
    trajectory = coefficient_trajectory(modes, grid)
    verify_trajectory(modes, trajectory)

    # C_a's plant row is (alpha, 0, ..., 0)
    plant_rows = trajectory.coefficient_rows[:, 0, :].copy()
    plant_rows[:, :2] -= chain.alpha
    plant_row_drift = float(np.linalg.norm(plant_rows, axis=1).max())
    report.add("plant_row_drift", plant_row_drift, PLANT_ROW_DRIFT_TOL)

    out = _out_dir(config)
    serialize.write_trajectory_csv(out / "trajectory.csv", trajectory)
    serialize.write_spatial_csv(
        out / "spatial_average.csv", trajectory, spatial_average(trajectory)
    )
    report.outputs["trajectory"] = "trajectory.csv"
    report.outputs["spatial_average"] = "spatial_average.csv"
    log.info("wrote trajectory with %d samples", grid.samples)
    return _finish(out, report)


def run_timeavg(config: ExperimentConfig) -> RunReport:
    """Closed-form time averages on the horizon ladder T/16, T/8, T/4, T/2, T.

    One eigensolve of the chain's normal modes serves all five horizons, and
    nothing is sampled or exponentiated. The average at T/16 is checked
    against the chain's dynamics through two identities it must satisfy
    (simulate.identity_residuals); a summed residual beyond 1e-8 of the
    average fails the run, since the averaging itself could not be trusted.
    """
    chain = _construct(config, "timeavg")
    report = _base_report(chain)
    horizons = [config.horizon / 16, config.horizon / 8, config.horizon / 4,
                config.horizon / 2, config.horizon]
    modes = normal_modes(chain)
    averages = [time_average_spectral(modes, t) for t in horizons]
    distances = [row_distances(avg) for avg in averages]
    report.consensus_error_curve = [(avg.horizon, float(d.max()))
                                    for avg, d in zip(averages, distances)]

    residual = sum(identity_residuals(modes, averages[0]))
    scale = float(np.linalg.norm(averages[0].averaged_rows, ord="fro"))
    report.add("time_average_oracle_disagreement", residual, ORACLE_REL_TOL * scale)

    out = _out_dir(config)
    serialize.write_averages_csv(out / "time_averages.csv", averages, distances[-1])
    report.outputs["time_averages"] = "time_averages.csv"
    return _finish(out, report)


def run_check(config: ExperimentConfig) -> RunReport:
    """Run every certificate, including the exponential bound; write nothing.

    The bound is swept through the chain's normal modes, which must first
    generate the chain's observer dynamics (verify_mode_generator).
    """
    chain = _construct(config, "check")
    report = _base_report(chain)
    grid = TimeGrid.from_count(EXP_BOUND_SPAN, EXP_BOUND_SAMPLES)
    bound = report.certificate.exp_norm_bound
    modes = normal_modes(chain)
    verify_mode_generator(modes)
    observed = verify_exp_bound(modes, bound, grid)
    report.add("exp_norm_observed", observed, bound * (1.0 + EXP_BOUND_REL_TOL))
    return report


_EXIT_TOLERANCE = (
    NotPositiveDefiniteError,
    BoundViolatedError,
    ToleranceExceededError,
    NumericalFailureError,
)


HELP = """\
usage: chainobs [-h] {build|simulate|timeavg|check} --config PATH [--output-dir DIR] [--horizon T] [--step H]

commands:
  build      construct the observer, certify it, write the matrices as CSV
  simulate   sample the coefficient trajectory and the spatial average
  timeavg    closed-form time averages on a geometric horizon ladder
  check      run every certificate without writing files (report to stdout)

options, before or after the command, as --name value, --name=value or a unique prefix of --name:
  -h, --help        print this help and exit
  --config PATH     path to the JSON config (required)
  --output-dir DIR  replace the config's output_dir
  --horizon T       replace the config's horizon
  --step H          replace the config's step ('auto' or a number)
"""
_OPTIONS = ("config", "output-dir", "horizon", "step", "help")


def _flag_number(name: str, raw: str) -> float | str:
    """The value of --horizon or --step as its config field takes it ('auto' stays, for --step)."""
    try:
        return raw if name == "step" and raw == "auto" else float(raw)
    except ValueError:
        auto = "'auto' or " if name == "step" else ""
        raise ConfigSchemaError(f"{name}: expected {auto}a number, got {raw!r}") from None


def _parse_command_line(argv: list[str], commands: dict) -> tuple[str, str, dict] | None:
    """argv's command, config path and overrides, or None for -h; raise ConfigSchemaError if malformed."""
    command, given, args = None, {}, iter(argv)
    for arg in args:
        name, has_value, value = arg[2:].partition("=")
        matches = [o for o in _OPTIONS if o.startswith(name)] if arg[:2] == "--" and name else []
        if arg == "-h" or matches == ["help"]:
            return None
        if not arg.startswith("-"):
            _expect(command is None, ConfigSchemaError, f"a second command: {arg}")
            _expect(arg in commands, ConfigSchemaError,
                    f"invalid command {arg!r} (choose from {', '.join(commands)})")
            command = arg
            continue
        _expect(len(matches) == 1, ConfigSchemaError,
                f"{'ambiguous' if matches else 'unrecognized'} option: {arg}")
        given[matches[0]] = value if has_value else next(args, None)
        _expect(given[matches[0]] is not None, ConfigSchemaError, f"--{matches[0]} expects a value")
    _expect(command is not None, ConfigSchemaError, "a command is required")
    _expect("config" in given, ConfigSchemaError, "--config is required")
    config = given.pop("config")
    overrides = {name.replace("-", "_"): value if name == "output-dir" else _flag_number(name, value)
                 for name, value in given.items()}
    return command, config, overrides


def _print_out(text: str) -> bool:
    """Print text to stdout and flush it; False if the reader has closed the pipe."""
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        # the flush at exit would fail again and print a traceback of its own
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    runs = {"build": run_build, "simulate": run_simulate, "timeavg": run_timeavg, "check": run_check}
    try:
        parsed = _parse_command_line(sys.argv[1:] if argv is None else argv, runs)
    except ConfigSchemaError as exc:
        print(f"{HELP.splitlines()[0]}\nchainobs: error: {exc}", file=sys.stderr)
        return 2
    if parsed is None:
        return 0 if _print_out(HELP) else 3
    command, config_path, overrides = parsed

    level = logging.getLevelName(os.environ.get("CHAINOBS_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        config = load_config(config_path, **overrides)
        report = runs[command](config)
    except ChainobsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _EXIT_TOLERANCE) else 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 3

    if command == "check":
        lines = [json.dumps(report.to_dict(), indent=2, sort_keys=True)]
    else:
        lines = [f"{'ok  ' if result.passed else 'FAIL'} {result.name}: "
                 f"{result.value:.6e} (bound {result.bound:.6e})" for result in report.checks]
        lines += [f"consensus error at T = {horizon:g}: {err:.6e}"
                  for horizon, err in report.consensus_error_curve]
        if report.outputs:
            lines.append("outputs: " + ", ".join(sorted(report.outputs.values())))
    written = _print_out("".join(line + "\n" for line in lines))
    if not report.passed:
        print(f"FAILED checks: {', '.join(report.failing())}", file=sys.stderr)
        return 1
    if not written:
        print("error: standard output was closed before the results were written", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
