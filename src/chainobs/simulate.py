"""Coefficient trajectories and their time averages, from the normal modes.

Everything simulated here is a coefficient function: the rows of
C_a exp(A_a t) give each output's dependence on the initial quadratures, so
no initial condition is ever sampled. Nothing is exponentiated either.
Rotated per mode into (q, p) = (alpha^ . x, J alpha^ . x), the observer
chain is an N x N symmetric tridiagonal oscillator chain driven by the
constant plant quadrature, so its rows C_a Phi(t) at any time, and their
average over [0, T], are per-mode weights pulled back through the normal
modes of K = Omega^(1/2) R_red Omega^(1/2); NormalModes.weights holds the
closed form P(t) = S D(t) S^-1. One tridiagonal eigensolve of K
(normal_modes: dense eigh of K, each eigenvalue refined by its Rayleigh
quotient) serves every time and horizon, and its fastest frequency sets the
default sampling step. Up to N = ONE_THREAD_MAX_N a chain's dense work runs
with numpy's OpenBLAS held to one thread (_one_blas_thread), where threaded
calls stall: that eigh, and check's sweep over formed propagators
(analysis.verify_exp_bound). The eigh gives the threaded call's bits; the
sweep gives the same bits at every OpenBLAS thread count. Every other BLAS
call, and both of these above ONE_THREAD_MAX_N, keeps OpenBLAS's own
thread count.

Stored trajectories evaluate the rows on the grid in chunks of at most
TRAJECTORY_CHUNK times and TRAJECTORY_CHUNK_BYTES of rows (_chunk_times),
so temporaries stay small beside the stored rows at every N, and every
sample is independent of the others: no error accumulates with the number
of steps. verify_trajectory holds a trajectory against the
assembled A_a, and identity_residuals an average, each through identities
that every true solution satisfies; both multiply rows by A_a block by
block (ChainObserverParams.dynamics, the only form the library holds it
in), O(N) per row, and take x* from ChainObserverParams.x_star, both read
from the modes' own chain.
"""

from __future__ import annotations

import ctypes
import logging
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .builder import ChainObserverParams
from .errors import InvalidParameterError, NotPositiveDefiniteError, ToleranceExceededError
from .lqs import SYMPLECTIC_UNIT, tridiagonal

DEFAULT_STEP_FACTOR = 0.005
# Times evaluated per batch of rows: a few N x N temporaries per time, so
# a batch is also capped by the bytes of its rows. N <= 63 keeps 512 times.
TRAJECTORY_CHUNK = 512
TRAJECTORY_CHUNK_BYTES = 32 << 20
# How far a stored trajectory may stray from the identities verify_trajectory
# holds it to, relative to ||rows||_inf times ||x*||_inf or ||A_a||_inf.
# Rounding leaves at most 6.1e-13 (x*) and 2.4e-15 (derivative) on every
# scheme up to N = 200 and T = 12800.
TRAJECTORY_REL_TOL = 1e-10
# Largest chain length N whose dense work runs on one BLAS thread: the
# eigensolve of K, of order N, and check's sweep over formed propagators, of
# order 2N <= 256. Threaded OpenBLAS stalls in both on two cores: in eigh
# from N = 26 to about 130 (8 ms against 0.2 ms at N = 50, 112 against
# 1.7 ms at N = 128), and at N = 50 in the sweep's 100 x 100 Gram product
# (3.7-7.8 ms against 0.04-0.07 ms) and its eigvalsh (8.3 ms against
# 0.4-0.55 ms). The eigensolve's bits stay the threaded call's: on a
# tridiagonal K, eigh's reduction and back-transform multiply by zero
# reflectors, exact on any thread count, and its divide-and-conquer merges'
# gemm rounds differently only when OpenBLAS splits its m rows between
# threads, which takes n <= m and m n k > 64^3; a merge of N <= 128 has
# m, k <= 64. Above, some chains' eigenvectors do differ (first seen at
# N = 283). The sweep's last digits do depend on the thread count, so on one
# thread its output is the same at every OPENBLAS_NUM_THREADS.
ONE_THREAD_MAX_N = 128
# (setter, getter) names of OpenBLAS's thread count, newest builds first
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_BLAS_THREADS_LOCK = threading.Lock()

log = logging.getLogger(__name__)


def _interval_count(t_end: float, step: float) -> float:
    """t_end / step, which must be finite to be counted in whole intervals."""
    count = t_end / step
    if not math.isfinite(count):
        raise InvalidParameterError(
            f"span {t_end!r} over step {step!r} is not a finite number of intervals"
        )
    return count


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid on [0, t_end] with a step that divides it."""

    t_end: float
    step: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise InvalidParameterError(f"t_end must be positive, got {self.t_end!r}")
        if not (np.isfinite(self.step) and self.step > 0.0):
            raise InvalidParameterError(f"step must be positive, got {self.step!r}")
        intervals = round(_interval_count(self.t_end, self.step))
        if intervals < 1 or abs(intervals * self.step - self.t_end) > 1e-9 * max(self.t_end, 1.0):
            raise InvalidParameterError(
                f"step {self.step!r} does not divide the span {self.t_end!r} into whole intervals"
            )

    @property
    def samples(self) -> int:
        return round(self.t_end / self.step) + 1

    def times(self) -> np.ndarray:
        return self.step * np.arange(self.samples)

    @classmethod
    def covering(cls, t_end: float, max_step: float) -> "TimeGrid":
        """Grid over [0, t_end] whose step divides the span and is <= max_step."""
        if not (np.isfinite(max_step) and max_step > 0.0):
            raise InvalidParameterError(f"max_step must be positive, got {max_step!r}")
        intervals = max(1, math.ceil(_interval_count(t_end, max_step)))
        while t_end / intervals > max_step:
            intervals += 1
        return cls(t_end=t_end, step=t_end / intervals)

    @classmethod
    def from_count(cls, t_end: float, samples: int) -> "TimeGrid":
        if samples < 2:
            raise InvalidParameterError(f"a grid needs at least 2 samples, got {samples}")
        return cls(t_end=t_end, step=t_end / (samples - 1))


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

    @cached_property
    def left(self) -> np.ndarray:
        """L1 = Omega^(1/2) V."""
        return np.sqrt(self.chain.omega)[:, None] * self.v

    @cached_property
    def right(self) -> np.ndarray:
        """L2 = Omega^(-1/2) V."""
        return self.v / np.sqrt(self.chain.omega)[:, None]

    def weights(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The closed form of the observer propagator at the times t: D(t) per mode.

        Rotated per mode into (q, p) = (alpha^ . x, J alpha^ . x), the
        observer chain solves q' = -2 Omega p and p' = 2 R_red q -
        2 mu~_1 q_0 e_1 with the plant quadrature q_0 constant, and every
        output is ||alpha|| times a q. With u = q - q_0 1 (R_red 1 =
        mu~_1 e_1) the normal modes V^T Omega^(-1/2) u oscillate at nu, so
        the observer propagator is P(t) = S D(t) S^-1, S = diag(L1, L2) and
        S^-1 = diag(L2^T, L1^T), with the blocks [[L1 cos L2^T, L1 up L1^T],
        [L2 down L2^T, L2 cos L1^T]] (each a _block), where, mode by mode,
        cos = cos(nu t), up = -2 sin(nu t) / nu and down = nu sin(nu t) / 2.
        Returns (cos, up, down), one row per time when t is an array; the
        plant's share of q is drive(t).
        """
        nu = self.nu
        x = np.multiply.outer(t, nu)
        sin = np.sin(x)
        return np.cos(x), -2.0 * sin / nu, 0.5 * nu * sin

    def drive(self, t: float | np.ndarray) -> np.ndarray:
        """The plant drive at the times t: how q_0 reaches the observer q's.

        q_0 reaches q through L1 diag(drive) V^T mu~_1 sqrt(omega_1) e_1
        (= L1 diag(drive) V^T K Omega^(-1/2) 1), drive = 2 sin^2(nu t / 2) / lam
        carrying the 1/lam of K^(-1); one row per time when t is an array.
        The propagator alone (weights) does not need it.
        """
        return 2.0 * np.sin(0.5 * np.multiply.outer(t, self.nu)) ** 2 / self.lam


def _block(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a diag(w) b^T, one BLAS product per set of weights w of shape (..., N)."""
    return (a * w[..., None, :]) @ b.T


@cache
def _openblas_threads():
    """(set, get) of the thread count of the OpenBLAS that numpy.linalg
    calls, or None when it cannot be reached.

    Looked up once, through the handle of numpy's own LAPACK extension,
    whose symbol lookup also searches the libraries it is linked against.
    """
    try:
        from numpy.linalg import _umath_linalg

        library = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for setter, getter in _OPENBLAS_THREAD_SYMBOLS:
        set_threads, get_threads = getattr(library, setter, None), getattr(library, getter, None)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


def _blas_threads(n: int) -> int | None:
    """BLAS threads the dense work of a chain of n modes runs on (its
    eigensolve, and check's sweep), None when unknown."""
    control = _openblas_threads()
    if control is None:
        return None
    return 1 if n <= ONE_THREAD_MAX_N else control[1]()


def _blas_threads_text(n: int) -> str:
    """_blas_threads(n) as an INFO line names it."""
    threads = _blas_threads(n)
    if threads is None:
        return "numpy's default BLAS threads"
    return f"{threads} BLAS thread{'s' if threads > 1 else ''}"


@contextmanager
def _one_blas_thread(n: int):
    """Limit OpenBLAS to one thread for the dense work of a chain of n modes
    where the rule in _blas_threads says so, and restore its count
    afterwards, whatever happens inside. The count is process-wide, so the
    lock keeps two concurrent scopes from restoring each other's limit; the
    lock is not reentrant, so scopes must not nest."""
    if _blas_threads(n) != 1:
        yield
        return
    set_threads, get_threads = _openblas_threads()
    with _BLAS_THREADS_LOCK:
        previous = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(previous)


def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e.

    Dense divide-and-conquer gives the eigenvectors, on one BLAS thread up
    to ONE_THREAD_MAX_N (_one_blas_thread); each eigenvalue is then
    replaced by its Rayleigh quotient v^T K v, from an O(N^2) tridiagonal
    product. Against 40-digit referees this makes the time averages up to
    14x more accurate than the eigenvalues eigh returns.
    """
    with _one_blas_thread(len(d)):
        _, v = np.linalg.eigh(tridiagonal(d, e))
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
        "normal modes: %d modes, fastest frequency nu_max %.6e, eigensolve on %s",
        chain.n_elements, 2.0 * math.sqrt(lam[-1]), _blas_threads_text(chain.n_elements),
    )
    return NormalModes(chain=chain, lam=lam, v=v)


def default_step(modes: NormalModes) -> float:
    """Default sampling step: 0.005 of the period of the fastest normal mode."""
    return DEFAULT_STEP_FACTOR * (2.0 * math.pi / modes.nu[-1])


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


def _derivative_weights(modes: NormalModes, t: float) -> tuple[np.ndarray, ...]:
    """Per-mode weights of d/dt C_a Phi(t): the time derivatives of
    NormalModes.weights' cos and up and of NormalModes.drive."""
    nu = modes.nu
    x = nu * t
    return -nu * np.sin(x), -2.0 * np.cos(x), nu * np.sin(x) / modes.lam


def _rows(
    modes: NormalModes, q_weight: np.ndarray, p_weight: np.ndarray, plant_weight: np.ndarray
) -> np.ndarray:
    """Coefficient rows whose observer q's carry the given per-mode weights.

    Weights of shape (..., N) give rows of shape (..., N + 1, 2N + 2), pulled
    back through the normal modes as NormalModes.weights and NormalModes.drive
    describe: q(0), p(0) and q_0 reach q through L1 diag(w) times L2^T, L1^T
    and V^T mu~_1 sqrt(omega_1) e_1. Each set of weights takes the same
    arithmetic whatever the leading shape.
    """
    chain, left = modes.chain, modes.left
    alpha = chain.alpha
    n = chain.n_elements
    from_q = _block(left, q_weight, modes.right)
    from_p = _block(left, p_weight, left)
    plant = plant_weight * modes.v[0]
    from_plant = chain.mu_tilde[0] * np.sqrt(chain.omega[0]) * (left @ plant[..., None])
    lead = q_weight.shape[:-1]
    rows = np.zeros((*lead, n + 1, 2 * n + 2))
    rows[..., 0, :2] = alpha
    rows[..., 1:, :2] = from_plant * alpha
    j_alpha = SYMPLECTIC_UNIT @ alpha
    for c in range(2):
        rows[..., 1:, 2 + c :: 2] = from_q * alpha[c] + from_p * j_alpha[c]
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
    """C_a Phi(t) in closed form (NormalModes.weights and NormalModes.drive)."""
    t = _positive_time(t)
    cos, up, _ = modes.weights(t)
    return _rows(modes, cos, up, modes.drive(t))


def _chunk_times(n: int) -> int:
    """Times per batch of (N + 1) x (2N + 2) rows."""
    row_bytes = (n + 1) * (2 * n + 2) * 8
    return min(TRAJECTORY_CHUNK, max(1, TRAJECTORY_CHUNK_BYTES // row_bytes))


def coefficient_trajectory(modes: NormalModes, grid: TimeGrid) -> Trajectory:
    """Sample and store C_a Phi(t) on the grid (O(samples * N^2) memory).

    Each sample is end_rows at its time, evaluated _chunk_times(N) times at
    a time; the row at a time t equals end_rows(modes, t) bit for bit.
    """
    times = grid.times()
    n = modes.chain.n_elements
    rows = np.empty((grid.samples, n + 1, 2 * n + 2))
    step = _chunk_times(n)
    for start in range(0, grid.samples, step):
        chunk = times[start : start + step]
        cos, up, _ = modes.weights(chunk)
        rows[start : start + chunk.size] = _rows(modes, cos, up, modes.drive(chunk))
    return Trajectory(grid=grid, coefficient_rows=rows)


def verify_trajectory(modes: NormalModes, trajectory: Trajectory) -> None:
    """Hold a stored trajectory against the dynamics A_a of the modes' chain.

    (i) rows(t) x* = 1 at every sample, with x* = ChainObserverParams.x_star,
    within TRAJECTORY_REL_TOL ||rows(t)||_inf ||x*||_inf: O(N^2) per sample.
    (ii) rows'(t) = rows(t) A_a at the last sample of every chunk of
    _chunk_times(N) samples, with rows'(t) from the derivative weights,
    within TRAJECTORY_REL_TOL ||rows(t)||_inf ||A_a||_inf on the observer
    rows (the plant row is c_a's by construction). As for the averages, both
    are needed: q_0 spans the left null space of A_a, so (ii) cannot see an
    error in the plant weights, which (i) does, and (i) cannot see the p(0)
    weights, which (ii) does. Raises a tolerance-exceeded error naming the
    first failing sample.
    """
    chain = modes.chain
    rows, times = trajectory.coefficient_rows, trajectory.grid.times()
    x_star = chain.x_star
    x_scale = float(np.linalg.norm(x_star, np.inf))
    a_scale = chain.dynamics.inf_norm()
    step = _chunk_times(chain.n_elements)
    for start in range(0, times.size, step):
        chunk = rows[start : start + step]
        scale = np.abs(chunk).sum(axis=2).max(axis=1)
        residual = np.abs(chunk.reshape(-1, x_star.size) @ x_star - 1.0)
        residual = residual.reshape(len(chunk), -1).max(axis=1)
        bad = np.flatnonzero(~(residual <= TRAJECTORY_REL_TOL * scale * x_scale))
        if bad.size:
            k = int(bad[0])
            raise ToleranceExceededError(
                f"x* identity residual {residual[k]:.3e} exceeds {TRAJECTORY_REL_TOL:.0e} "
                f"* ||rows||_inf ||x*||_inf at sample {start + k}"
            )
        last = start + len(chunk) - 1
        derivative = _rows(modes, *_derivative_weights(modes, times[last]))
        drift = float(np.linalg.norm(derivative[1:] - rows[last, 1:] @ chain.dynamics, np.inf))
        if not drift <= TRAJECTORY_REL_TOL * scale[-1] * a_scale:
            raise ToleranceExceededError(
                f"derivative identity residual {drift:.3e} exceeds {TRAJECTORY_REL_TOL:.0e} "
                f"* ||rows||_inf ||A_a||_inf at sample {last}"
            )


def identity_residuals(modes: NormalModes, avg: TimeAverage) -> tuple[float, float]:
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
    chain = modes.chain
    rows, horizon = avg.averaged_rows, avg.horizon
    change = end_rows(modes, horizon)
    # C_a Phi(T) - C_a: C_a is alpha in every mode's own block
    diagonal = np.arange(change.shape[0])
    change.reshape(diagonal.size, diagonal.size, 2)[diagonal, diagonal] -= chain.alpha
    drift = rows @ chain.dynamics - change / horizon
    x_star = chain.x_star
    return (
        float(np.linalg.norm(drift, np.inf) / chain.dynamics.inf_norm()),
        float(np.linalg.norm(rows @ x_star - 1.0, np.inf) / np.linalg.norm(x_star, np.inf)),
    )


def spatial_average(trajectory: Trajectory) -> np.ndarray:
    """Per-sample mean of the observer rows (rows 2..N+1) of the trajectory."""
    return trajectory.coefficient_rows[:, 1:, :].mean(axis=1)


def row_distances(avg: TimeAverage) -> np.ndarray:
    """Each observer row's distance from its average to the plant row's."""
    rows = avg.averaged_rows
    return np.linalg.norm(rows[1:] - rows[0], axis=1)


def consensus_error(avg: TimeAverage) -> float:
    """Largest distance from an observer row's average to the plant row's."""
    return float(row_distances(avg).max())
