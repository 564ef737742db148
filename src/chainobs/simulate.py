"""Coefficient trajectories and their time averages.

Everything simulated here is a coefficient function: the rows of
C_a exp(A_a t) give each output's dependence on the initial quadratures, so
no initial condition is ever sampled. The propagator itself comes from
scaling-and-squaring (a diagonal rational approximant of fixed high order).
One propagation engine yields Phi(t_k) sample by sample through the
recurrence Phi(t + h) = Phi(h) Phi(t), re-certifying the symplectic
identity at every sample so drift cannot accumulate silently. Stored
trajectories and the streamed quadrature consume it for the augmented
system and apply C_a themselves; the exponential-bound sweep in analysis
consumes it for the observer block alone.

Time averages (1/T) int_0^T C_a exp(A_a s) ds are computed three
independent ways. The exact route takes the exponential of the doubled
block matrix [[A_a, I], [0, 0]], whose upper-right block is the integral
(this works even though A_a is singular, which rules out the
A^{-1}(exp(AT) - I) shortcut). The spectral route never assembles A_a:
rotated per mode into (q, p) = (alpha^ . x, J alpha^ . x), the observer
chain is an N x N symmetric tridiagonal oscillator chain driven by the
constant plant quadrature, so its average has a closed form in the normal
modes of K = Omega^(1/2) R_red Omega^(1/2), found by one tridiagonal
eigensolve. The CLI's timeavg cross-checks the exact route against the
spectral one and samples nothing; the two must agree to 1e-8 relative.
Composite Simpson quadrature of the sampled rows is a third route, streamed
through the propagation engine in O(N^2) memory, which the tests use as the
independent sampled reference.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

from .builder import AugmentedSystem, ChainObserverParams
from .errors import (
    InvalidDimensionError,
    InvalidInputError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    StepTooCoarseError,
    ToleranceExceededError,
)
from .lqs import SYMPLECTIC_UNIT, SymplecticForm, symplectic_drift

# Quadrature is trustworthy only when the fastest mode is well resolved:
# at least 100 samples per shortest period, i.e. step <= 0.01 * (2 pi / w).
QUADRATURE_STEP_FACTOR = 0.01
DEFAULT_STEP_FACTOR = 0.005
DEFAULT_HORIZON = 500.0
SYMPLECTIC_DRIFT_TOL = 1e-9

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid on [t0, t_end] with a step that divides the span."""

    t0: float
    t_end: float
    step: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t0) and self.t0 >= 0.0):
            raise InvalidParameterError(f"t0 must be finite and nonnegative, got {self.t0!r}")
        if not (np.isfinite(self.t_end) and self.t_end > self.t0):
            raise InvalidParameterError(f"t_end must exceed t0, got {self.t_end!r}")
        if not (np.isfinite(self.step) and self.step > 0.0):
            raise InvalidParameterError(f"step must be positive, got {self.step!r}")
        span = self.t_end - self.t0
        intervals = round(span / self.step)
        if intervals < 1 or abs(intervals * self.step - span) > 1e-9 * max(span, 1.0):
            raise InvalidParameterError(
                f"step {self.step!r} does not divide the span {span!r} into whole intervals"
            )

    @property
    def samples(self) -> int:
        return round((self.t_end - self.t0) / self.step) + 1

    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(self.samples)

    @classmethod
    def covering(cls, t0: float, t_end: float, max_step: float) -> "TimeGrid":
        """Grid over [t0, t_end] whose step divides the span and is <= max_step."""
        if not (np.isfinite(max_step) and max_step > 0.0):
            raise InvalidParameterError(f"max_step must be positive, got {max_step!r}")
        span = t_end - t0
        intervals = max(1, math.ceil(span / max_step))
        while span / intervals > max_step:
            intervals += 1
        return cls(t0=t0, t_end=t_end, step=span / intervals)

    @classmethod
    def from_count(cls, t0: float, t_end: float, samples: int) -> "TimeGrid":
        if samples < 2:
            raise InvalidParameterError(f"a grid needs at least 2 samples, got {samples}")
        return cls(t0=t0, t_end=t_end, step=(t_end - t0) / (samples - 1))


@dataclass(frozen=True)
class Trajectory:
    """Sampled coefficient rows C_a Phi(t), one (N+1) x (2N+2) matrix per time."""

    grid: TimeGrid
    coefficient_rows: np.ndarray


@dataclass(frozen=True)
class TimeAverage:
    """Averaged coefficient rows (1/T) int_0^T C_a Phi(t) dt up to horizon T."""

    horizon: float
    averaged_rows: np.ndarray
    method: str


def propagator(a: np.ndarray, t: float) -> np.ndarray:
    """Matrix exponential exp(a t)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidDimensionError(f"dynamics matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("dynamics matrix contains non-finite entries")
    if not np.isfinite(t):
        raise InvalidInputError(f"time must be finite, got {t!r}")
    # overflow is detected explicitly below, so the intermediate warnings
    # from the scaling-and-squaring steps are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        phi = expm(a * float(t))
    if not np.all(np.isfinite(phi)):
        raise NumericalFailureError(f"exponential overflowed at t = {t!r}")
    return phi


def max_frequency(a: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a dynamics matrix (its fastest mode)."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("dynamics matrix contains non-finite entries")
    return float(np.abs(np.linalg.eigvals(a)).max())


def default_step(aug: AugmentedSystem) -> float:
    """Default sampling step: half the quadrature ceiling for the fastest mode."""
    return _auto_step(max_frequency(aug.a_a))


def _auto_step(omega_max: float) -> float:
    if omega_max == 0.0:
        raise InvalidParameterError("dynamics have no oscillatory modes to resolve")
    return DEFAULT_STEP_FACTOR * (2.0 * math.pi / omega_max)


def _propagate(a: np.ndarray, theta: SymplecticForm, grid: TimeGrid) -> Iterator[np.ndarray]:
    """Yield Phi(t_k) = exp(a t_k) for each grid time via the one-step recurrence.

    Consumers apply any output map themselves. The symplectic identity
    Phi Theta Phi^T = Theta is checked at every sample, before the sample is
    yielded, against the relative tolerance 1e-9; exceeding it aborts the
    run, since anything computed from a non-symplectic propagator is
    garbage. One exponential is taken for the step (and one for t0 when it
    is not zero); every further sample costs one product.
    """
    theta_norm = float(np.linalg.norm(theta.matrix, ord="fro"))
    step_phi = propagator(a, grid.step)
    phi = np.eye(a.shape[0]) if grid.t0 == 0.0 else propagator(a, grid.t0)
    for k in range(grid.samples):
        drift = symplectic_drift(phi, theta)
        if drift > SYMPLECTIC_DRIFT_TOL * theta_norm:
            raise ToleranceExceededError(
                f"symplectic drift {drift:.3e} exceeds {SYMPLECTIC_DRIFT_TOL:.0e} "
                f"* ||Theta||_F at sample {k}"
            )
        yield phi
        if k + 1 < grid.samples:
            phi = step_phi @ phi


def coefficient_trajectory(aug: AugmentedSystem, grid: TimeGrid) -> Trajectory:
    """Sample and store C_a Phi(t) on the grid (O(samples * N^2) memory)."""
    rows = np.empty((grid.samples, *aug.c_a.shape))
    for k, phi in enumerate(_propagate(aug.a_a, aug.theta, grid)):
        rows[k] = aug.c_a @ phi
    return Trajectory(grid=grid, coefficient_rows=rows)


def integral_of_propagator(a: np.ndarray, horizon: float) -> np.ndarray:
    """Exact int_0^T exp(a s) ds via the doubled block matrix.

    exp([[a, I], [0, 0]] T) has the integral as its upper-right block; this
    stays valid when a is singular.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidDimensionError(f"dynamics matrix must be square, got shape {a.shape}")
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise InvalidParameterError(f"horizon must be positive, got {horizon!r}")
    n = a.shape[0]
    doubled = np.zeros((2 * n, 2 * n))
    doubled[:n, :n] = a
    doubled[:n, n:] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        block = expm(doubled * float(horizon))[:n, n:]
    if not np.all(np.isfinite(block)):
        raise NumericalFailureError(f"propagator integral overflowed at horizon {horizon!r}")
    return block


def time_average_exact(aug: AugmentedSystem, horizon: float) -> TimeAverage:
    """Exact time average of the coefficient rows up to the horizon."""
    integral = integral_of_propagator(aug.a_a, horizon)
    averaged = aug.c_a @ integral / float(horizon)
    return TimeAverage(
        horizon=float(horizon), averaged_rows=averaged, method="exact-block-exponential"
    )


def _one_minus_sinc(x: np.ndarray) -> np.ndarray:
    """1 - sin(x)/x for x > 0, by its Taylor series below x = 1 where the
    direct form cancels (terms through x^18 leave < 1e-16 relative)."""
    x2 = x * x
    series = np.zeros_like(x)
    for k in range(9, 0, -1):
        series = (-1.0) ** (k + 1) / math.factorial(2 * k + 1) + x2 * series
    return np.where(x < 1.0, x2 * series, 1.0 - np.sin(x) / x)


def time_average_spectral(chain: ChainObserverParams, horizon: float) -> TimeAverage:
    """Closed-form time average of the coefficient rows from the chain's normal modes.

    Built from alpha, mu~ and omega alone, never from the assembled A_a, so
    it is independent of time_average_exact. Per mode, q = alpha^ . x and
    p = J alpha^ . x give q' = -2 Omega p and p' = 2 R_red q - 2 mu~_1 q_0 e_1
    with the plant quadrature q_0 constant, and every output is ||alpha||
    times a q. With u = q - q_0 1 (R_red 1 = mu~_1 e_1) and
    K = Omega^(1/2) R_red Omega^(1/2) = V diag(lambda) V^T, the normal modes
    Omega^(-1/2) u oscillate at nu = 2 sqrt(lambda), so over [0, T]
    q(0) is weighted by sin(nu T)/(nu T), p(0) by -2 (1 - cos nu T)/(nu^2 T)
    and q_0 by mu~_1 sqrt(omega_1) (1 - sin(nu T)/(nu T))/lambda, each
    pulled back through Omega^(+-1/2) V.
    """
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise InvalidParameterError(f"horizon must be positive, got {horizon!r}")
    alpha = chain.alpha
    n = chain.n_elements
    root = np.sqrt(chain.omega)
    lam, v = eigh_tridiagonal(chain.omega**2, -chain.mu_tilde[1:] * root[:-1] * root[1:])
    if not lam[0] > 0.0:
        raise NotPositiveDefiniteError(
            f"normal-mode matrix is not positive definite: lambda_min = {lam[0]:.6e}",
            lambda_min=lam[0],
        )
    nu = 2.0 * np.sqrt(lam)
    horizon = float(horizon)
    phase = nu * horizon
    q_weight = np.sin(phase) / phase
    p_weight = -4.0 * np.sin(0.5 * phase) ** 2 / (nu * nu * horizon)
    plant_weight = _one_minus_sinc(phase) / lam
    left = root[:, None] * v
    from_q = (left * q_weight) @ (v.T / root)
    from_p = (left * p_weight) @ (v.T * root)
    from_plant = chain.mu_tilde[0] * root[0] * (left @ (plant_weight * v[0]))
    rows = np.zeros((n + 1, 2 * n + 2))
    rows[0, :2] = alpha
    rows[1:, :2] = np.outer(from_plant, alpha)
    j_alpha = SYMPLECTIC_UNIT @ alpha
    rows[1:, 2:] = (from_q[..., None] * alpha + from_p[..., None] * j_alpha).reshape(n, 2 * n)
    log.info(
        "normal-mode oracle: %d modes, horizon %.6e, fastest frequency nu_max %.6e",
        n, horizon, nu[-1],
    )
    return TimeAverage(horizon=horizon, averaged_rows=rows, method="spectral-normal-mode")


def simpson_weights(times: np.ndarray) -> np.ndarray:
    """Composite Simpson weights w with sum_k w_k y(t_k) ~ int y dt.

    Reproduces scipy.integrate.simpson(y, x=times): Simpson's rule for
    possibly uneven spacing on consecutive interval pairs and, for an even
    sample count, Cartwright's three-point correction on the last interval
    (two samples fall back to the trapezoid).
    """
    x = np.asarray(times, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InvalidParameterError(f"Simpson weights need at least 2 times, got shape {x.shape}")
    h = np.diff(x)
    if not (np.all(np.isfinite(x)) and np.all(h > 0.0)):
        raise InvalidParameterError("times must be finite and strictly increasing")
    weights = np.zeros(x.size)
    if x.size == 2:
        weights[:] = 0.5 * h[0]
        return weights
    end = 2 * ((x.size - 1) // 2)  # last sample reached by whole interval pairs
    h0, h1 = h[0:end:2], h[1:end:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    sixth = hsum / 6.0
    weights[0:end:2] += sixth * (2.0 - 1.0 / h0divh1)
    weights[1:end:2] += sixth * (hsum * (hsum / (h0 * h1)))
    weights[2 : end + 1 : 2] += sixth * (2.0 - h0divh1)
    if end < x.size - 1:
        h0, h1 = h[-2], h[-1]
        weights[-1] += (2.0 * h1**2 + 3.0 * h0 * h1) / (6.0 * (h1 + h0))
        weights[-2] += (h1**2 + 3.0 * h0 * h1) / (6.0 * h0)
        weights[-3] -= h1**3 / (6.0 * h0 * (h0 + h1))
    return weights


def _check_quadrature_step(step: float, omega_max: float) -> None:
    """Reject a step above 0.01 of the fastest mode's period."""
    if omega_max > 0.0:
        ceiling = QUADRATURE_STEP_FACTOR * (2.0 * math.pi / omega_max)
        if step > ceiling * (1.0 + 1e-12):
            raise StepTooCoarseError(
                f"step {step:.6e} exceeds the quadrature ceiling {ceiling:.6e} "
                f"for the fastest mode {omega_max:.6e}"
            )


def time_average_quadrature(trajectory: Trajectory, omega_max: float) -> TimeAverage:
    """Composite-Simpson time average of a stored trajectory from t = 0.

    Demands a grid that starts at zero and resolves the fastest mode
    omega_max of the sampled dynamics (step at most 0.01 of its period).
    """
    grid = trajectory.grid
    if grid.t0 != 0.0:
        raise InvalidParameterError("quadrature averages must start at t0 = 0")
    _check_quadrature_step(grid.step, omega_max)
    integral = np.tensordot(simpson_weights(grid.times()), trajectory.coefficient_rows, axes=1)
    return TimeAverage(
        horizon=grid.t_end, averaged_rows=integral / grid.t_end, method="quadrature"
    )


def time_average_streamed(
    aug: AugmentedSystem, horizon: float, step: float | None = None
) -> TimeAverage:
    """Composite-Simpson time average over [0, horizon], streamed sample by sample.

    The sampled route the tests hold against time_average_exact and
    time_average_spectral. Equal, up to rounding, to time_average_quadrature
    of the trajectory on TimeGrid.covering(0, horizon, step), but it holds
    one propagator and one running sum of propagators instead of the whole
    trajectory, and applies C_a once to the sum. The step defaults to
    default_step; the quadrature ceiling is checked before any propagation.
    """
    omega_max = max_frequency(aug.a_a)
    if step is None:
        step = _auto_step(omega_max)
    grid = TimeGrid.covering(0.0, horizon, step)
    _check_quadrature_step(grid.step, omega_max)
    weights = simpson_weights(grid.times())
    summed = np.zeros(aug.a_a.shape)
    for w, phi in zip(weights, _propagate(aug.a_a, aug.theta, grid)):
        summed += w * phi
    log.info(
        "quadrature oracle: %d samples, step %.6e, %d bytes of propagators held "
        "(a stored trajectory would take %d)",
        grid.samples, grid.step, 2 * summed.nbytes, grid.samples * aug.c_a.nbytes,
    )
    return TimeAverage(
        horizon=grid.t_end, averaged_rows=aug.c_a @ summed / grid.t_end, method="quadrature"
    )


def spatial_average(trajectory: Trajectory) -> np.ndarray:
    """Per-sample mean of the observer rows (rows 2..N+1) of the trajectory."""
    return trajectory.coefficient_rows[:, 1:, :].mean(axis=1)


def consensus_error(avg: TimeAverage) -> float:
    """Largest distance from an observer row's average to the plant row's."""
    rows = avg.averaged_rows
    deviations = np.linalg.norm(rows[1:] - rows[0], axis=1)
    return float(deviations.max())
