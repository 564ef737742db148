"""Coefficient trajectories and their time averages.

Everything simulated here is a coefficient function: the rows of
C_a exp(A_a t) give each output's dependence on the initial quadratures, so
no initial condition is ever sampled. The propagator itself comes from
scaling and squaring (Higham 2005): a diagonal Pade approximant of degree
3, 5, 7, 9 or 13, chosen from the 1-norm, of the matrix scaled by 2^-s,
then squared s times. One propagation engine yields Phi(t_k) sample by
sample through the recurrence Phi(t + h) = Phi(h) Phi(t), re-certifying the
symplectic identity at every sample so drift cannot accumulate silently. Stored
trajectories consume it for the augmented system and apply C_a themselves.
The exponential-bound sweep in analysis does not: it forms each observer
propagator it needs in closed form from the normal modes below, and
certifies it through the same per-sample symplectic check.

Time averages (1/T) int_0^T C_a exp(A_a s) ds have one route, a closed form
in the chain's normal modes that never assembles A_a and samples nothing.
Rotated per mode into (q, p) = (alpha^ . x, J alpha^ . x), the observer
chain is an N x N symmetric tridiagonal oscillator chain driven by the
constant plant quadrature, so both its average over [0, T] and its end rows
C_a Phi(T) are per-mode weights pulled back through the normal modes of
K = Omega^(1/2) R_red Omega^(1/2). One tridiagonal eigensolve of K
(normal_modes: dense eigh of K, each eigenvalue refined by its Rayleigh
quotient) serves every horizon, and its fastest frequency sets the default
sampling step. identity_residuals holds an average against the
assembled A_a through two identities that every true average satisfies.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .builder import AugmentedSystem, ChainObserverParams
from .errors import (
    InvalidDimensionError,
    InvalidInputError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    ToleranceExceededError,
)
from .lqs import SYMPLECTIC_UNIT, SymplecticForm, symplectic_drift

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


@dataclass(frozen=True)
class NormalModes:
    """K = Omega^(1/2) R_red Omega^(1/2) = V diag(lam) V^T for one chain.

    K is symmetric tridiagonal, omega_i^2 on the diagonal and
    -mu~_(i+1) sqrt(omega_i omega_(i+1)) off it, and positive definite;
    mode k oscillates at nu_k = 2 sqrt(lam_k).
    """

    chain: ChainObserverParams
    lam: np.ndarray
    v: np.ndarray

    @property
    def nu(self) -> np.ndarray:
        return 2.0 * np.sqrt(self.lam)


def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e.

    Dense divide-and-conquer gives the eigenvectors; each eigenvalue is then
    replaced by its Rayleigh quotient v^T K v, from an O(N^2) tridiagonal
    product. Against 40-digit referees this makes the time averages up to
    14x more accurate than the eigenvalues eigh returns.
    """
    k = np.diag(d)
    i = np.arange(len(e))
    k[i, i + 1] = k[i + 1, i] = e
    _, v = np.linalg.eigh(k)
    kv = d[:, None] * v
    kv[:-1] += e[:, None] * v[1:]
    kv[1:] += e[:, None] * v[:-1]
    lam = np.einsum("ij,ij->j", v, kv)
    order = np.argsort(lam, kind="stable")
    return lam[order], v[:, order]


def normal_modes(chain: ChainObserverParams) -> NormalModes:
    """The chain's normal modes, by one tridiagonal eigensolve of K."""
    root = np.sqrt(chain.omega)
    lam, v = _eigh_tridiagonal(chain.omega**2, -chain.mu_tilde[1:] * root[:-1] * root[1:])
    if not lam[0] > 0.0:
        raise NotPositiveDefiniteError(
            f"normal-mode matrix is not positive definite: lambda_min = {lam[0]:.6e}",
            lambda_min=lam[0],
        )
    log.info(
        "normal modes: %d modes, fastest frequency nu_max %.6e",
        chain.n_elements, 2.0 * math.sqrt(lam[-1]),
    )
    return NormalModes(chain=chain, lam=lam, v=v)


# Pade degrees m with the largest 1-norm theta_m at which the degree-m
# approximant is accurate to double precision (Higham 2005), and
# the coefficients b_0 .. b_m of its numerator p(x); the denominator is p(-x).
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with a Pade approximant (Higham 2005).

    The lowest degree whose theta covers ||a||_1 is used unscaled; above
    theta_13, a is scaled by 2^-s into it and the result squared s times.
    A singular denominator raises numpy's LinAlgError.
    """
    norm = float(np.linalg.norm(a, 1))
    s = 0
    for m in (3, 5, 7, 9, 13):
        if norm <= _PADE_THETA[m]:
            break
    else:
        s = math.ceil(math.log2(norm / _PADE_THETA[13]))
        a = np.ldexp(a, -s)
    b = _PADE_COEFFS[m]
    ident = np.eye(a.shape[0])
    a2 = a @ a
    if m < 13:
        powers = [ident, a2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    else:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    phi = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        phi = phi @ phi
    return phi


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
        at = a * float(t)
        # a finite 1-norm also means every entry is finite
        if not np.isfinite(np.linalg.norm(at, 1)):
            raise NumericalFailureError(f"dynamics times t = {t!r} overflowed")
        try:
            phi = _expm(at)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"Pade denominator is singular at t = {t!r}") from exc
    if not np.all(np.isfinite(phi)):
        raise NumericalFailureError(f"exponential overflowed at t = {t!r}")
    return phi


def default_step(chain: ChainObserverParams) -> float:
    """Default sampling step: 0.005 of the period of the fastest normal mode."""
    return DEFAULT_STEP_FACTOR * (2.0 * math.pi / normal_modes(chain).nu[-1])


def _check_symplectic(phi: np.ndarray, theta: SymplecticForm, k: int) -> None:
    """Certify Phi Theta Phi^T = Theta for the propagator of sample k.

    Raises a numerical failure when phi is not finite, and a
    tolerance-exceeded error when the drift exceeds 1e-9 ||Theta||_F.
    """
    try:
        drift = symplectic_drift(phi, theta)
    except InvalidInputError as exc:
        raise NumericalFailureError(f"propagator is not finite at sample {k}") from exc
    # ||Theta||_F = sqrt(2 N), the square root of its dimension
    if drift > SYMPLECTIC_DRIFT_TOL * math.sqrt(theta.dimension):
        raise ToleranceExceededError(
            f"symplectic drift {drift:.3e} exceeds {SYMPLECTIC_DRIFT_TOL:.0e} "
            f"* ||Theta||_F at sample {k}"
        )


def _propagate(a: np.ndarray, theta: SymplecticForm, grid: TimeGrid) -> Iterator[np.ndarray]:
    """Yield Phi(t_k) = exp(a t_k) for each grid time via the one-step recurrence.

    Consumers apply any output map themselves. The symplectic identity
    Phi Theta Phi^T = Theta is checked at every sample, before the sample is
    yielded, against the relative tolerance 1e-9; exceeding it aborts the
    run, since anything computed from a non-symplectic propagator is
    garbage. One exponential is taken for the step (and one for t0 when it
    is not zero); every further sample costs one product.
    """
    step_phi = propagator(a, grid.step)
    phi = np.eye(a.shape[0]) if grid.t0 == 0.0 else propagator(a, grid.t0)
    for k in range(grid.samples):
        _check_symplectic(phi, theta, k)
        yield phi
        if k + 1 < grid.samples:
            phi = step_phi @ phi


def coefficient_trajectory(aug: AugmentedSystem, grid: TimeGrid) -> Trajectory:
    """Sample and store C_a Phi(t) on the grid (O(samples * N^2) memory)."""
    rows = np.empty((grid.samples, *aug.c_a.shape))
    for k, phi in enumerate(_propagate(aug.a_a, aug.theta, grid)):
        rows[k] = aug.c_a @ phi
    return Trajectory(grid=grid, coefficient_rows=rows)


def _one_minus_sinc(x: np.ndarray) -> np.ndarray:
    """1 - sin(x)/x for x > 0, by its Taylor series below x = 1 where the
    direct form cancels (terms through x^18 leave < 1e-16 relative)."""
    x2 = x * x
    series = np.zeros_like(x)
    for k in range(9, 0, -1):
        series = (-1.0) ** (k + 1) / math.factorial(2 * k + 1) + x2 * series
    return np.where(x < 1.0, x2 * series, 1.0 - np.sin(x) / x)


def _average_weights(modes: NormalModes, horizon: float) -> tuple[np.ndarray, ...]:
    """Per-mode weights of the average over [0, T] on q(0), p(0) and q_0."""
    nu = modes.nu
    x = nu * horizon
    return (
        np.sin(x) / x,
        -4.0 * np.sin(0.5 * x) ** 2 / (nu * nu * horizon),
        _one_minus_sinc(x) / modes.lam,
    )


def _end_weights(modes: NormalModes, t: float) -> tuple[np.ndarray, ...]:
    """Per-mode weights of C_a Phi(t) on q(0), p(0) and q_0."""
    nu = modes.nu
    x = nu * t
    return np.cos(x), -2.0 * np.sin(x) / nu, 2.0 * np.sin(0.5 * x) ** 2 / modes.lam


def _rows(
    modes: NormalModes, q_weight: np.ndarray, p_weight: np.ndarray, plant_weight: np.ndarray
) -> np.ndarray:
    """Coefficient rows whose observer q's carry the given per-mode weights.

    Per mode, q = alpha^ . x and p = J alpha^ . x give q' = -2 Omega p and
    p' = 2 R_red q - 2 mu~_1 q_0 e_1 with the plant quadrature q_0 constant,
    and every output is ||alpha|| times a q. With u = q - q_0 1
    (R_red 1 = mu~_1 e_1), the normal modes V^T Omega^(-1/2) u oscillate at
    nu, so q(0), p(0) and q_0 reach q through Omega^(1/2) V diag(w) V^T
    times Omega^(-1/2), Omega^(1/2) and mu~_1 sqrt(omega_1) e_1
    (= K Omega^(-1/2) 1) respectively; the plant weights carry the 1/lambda
    of K^(-1).
    """
    chain, v = modes.chain, modes.v
    alpha = chain.alpha
    n = chain.n_elements
    root = np.sqrt(chain.omega)
    left = root[:, None] * v
    from_q = (left * q_weight) @ (v.T / root)
    from_p = (left * p_weight) @ (v.T * root)
    from_plant = chain.mu_tilde[0] * root[0] * (left @ (plant_weight * v[0]))
    rows = np.zeros((n + 1, 2 * n + 2))
    rows[0, :2] = alpha
    rows[1:, :2] = np.outer(from_plant, alpha)
    j_alpha = SYMPLECTIC_UNIT @ alpha
    rows[1:, 2:] = (from_q[..., None] * alpha + from_p[..., None] * j_alpha).reshape(n, 2 * n)
    return rows


def _positive_time(t: float) -> float:
    if not (np.isfinite(t) and t > 0.0):
        raise InvalidParameterError(f"horizon must be positive, got {t!r}")
    return float(t)


def time_average_spectral(modes: NormalModes, horizon: float) -> TimeAverage:
    """Time average of the coefficient rows over [0, T], in closed form.

    With x = nu T, q(0) is weighted by sin(x)/x, p(0) by
    -4 sin^2(x/2)/(nu^2 T) and q_0 by (1 - sin(x)/x)/lambda.
    """
    horizon = _positive_time(horizon)
    rows = _rows(modes, *_average_weights(modes, horizon))
    return TimeAverage(horizon=horizon, averaged_rows=rows)


def end_rows(modes: NormalModes, t: float) -> np.ndarray:
    """C_a Phi(t) in closed form.

    With x = nu t, q(0) is weighted by cos(x), p(0) by -2 sin(x)/nu and
    q_0 by 2 sin^2(x/2)/lambda.
    """
    t = _positive_time(t)
    return _rows(modes, *_end_weights(modes, t))


def identity_residuals(
    aug: AugmentedSystem, modes: NormalModes, avg: TimeAverage
) -> tuple[float, float]:
    """Residuals of two identities every average R = R(T) satisfies, in units of R.

    (i) R A_a = (C_a Phi(T) - C_a) / T, with A_a the assembled dynamics and
    C_a Phi(T) from end_rows: ||R A_a - (C_a Phi(T) - C_a) / T||_inf /
    ||A_a||_inf. (ii) R x* = 1 for x* = (alpha, ..., alpha) / ||alpha||^2,
    whose every output stays 1 for all t: ||R x* - 1||_inf / ||x*||_inf.
    Both are needed. The conserved plant quadrature q_0 spans the left null
    space of A_a, so (i) cannot see an error u alpha^T in the plant columns,
    the term that carries consensus, and (ii) sees exactly that term; (ii)
    in turn cannot see an error in the p(0) weights, which (i) does.
    """
    rows, horizon = avg.averaged_rows, avg.horizon
    drift = rows @ aug.a_a - (end_rows(modes, horizon) - aug.c_a) / horizon
    alpha = modes.chain.alpha
    x_star = np.tile(alpha, modes.chain.n_elements + 1) / float(alpha @ alpha)
    return (
        float(np.linalg.norm(drift, np.inf) / np.linalg.norm(aug.a_a, np.inf)),
        float(np.linalg.norm(rows @ x_star - 1.0, np.inf) / np.linalg.norm(x_star, np.inf)),
    )


def spatial_average(trajectory: Trajectory) -> np.ndarray:
    """Per-sample mean of the observer rows (rows 2..N+1) of the trajectory."""
    return trajectory.coefficient_rows[:, 1:, :].mean(axis=1)


def consensus_error(avg: TimeAverage) -> float:
    """Largest distance from an observer row's average to the plant row's."""
    rows = avg.averaged_rows
    deviations = np.linalg.norm(rows[1:] - rows[0], axis=1)
    return float(deviations.max())
