"""Independent numerical oracles used to cross-check the library.

Each quantity the library computes has one float oracle here, plus the
40-digit mpmath referees the tests build for the smallest systems. The
oracles deliberately avoid the code paths under test. The library takes
every propagator, row and average from the chain's normal modes, a
closed form in one tridiagonal eigensolve; the exponential oracles work
from the assembled A_a instead and never see the modes.

propagator is exp(A t) by scipy's expm (Al-Mohy & Higham 2009: scaling
and squaring with a Pade approximant chosen from norm estimates), with
input and overflow checks. It is the reference for the end rows
C_a Phi(t) and for the observer propagators of check's sweep.
integral_of_propagator takes the same expm of the doubled block
[[A_a, I], [0, 0]], whose upper-right block is the integral of the
propagator (valid although A_a is singular, which rules out the
A^{-1}(exp(AT) - I) shortcut); time_average_exact applies C_a to it and
is the one float oracle for the time averages. max_frequency is the
fastest mode by a dense nonsymmetric eigensolve of A_a.

The definiteness oracle runs a leading-principal-minor recurrence instead
of an eigensolver. The drift oracle forms Phi Theta Phi^T with dense
products, ignoring the block structure of Theta that the library
exploits, and the unscreened exponential-bound sweep forms every sample
of the library's closed-form observer propagator in time order and takes
its exact norm, with none of the library's sorting or Frobenius screens.
The assembly oracle writes the augmented system as Kronecker products of
(N+1) x (N+1) matrices with 2 x 2 blocks instead of filling blocks in
place, and the energy oracle measures how far a propagator is from
conserving a quadratic Hamiltonian.

The library holds R_a and A_a only as the chain's 2 x 2 blocks; a test
that needs them dense reads the blocks' dense(). Theta = diag(J, ..., J)
(symplectic_matrix) and C_a = kron(I, alpha) (output_matrix) are built
here, and observer_hamiltonian is the observer block of R_a. The
dense-system oracles are the routes the library once took through the
assembled (2N+2) x (2N+2) matrices, which it now replaces by products and
norms over the blocks: the dynamics as the product 2 Theta @ R, the
realizability residual A Theta + Theta A^T, the fixed-point residual
through the dense a_o, and the mode-generator check rotating the dense
a_o. reference_eigenvalues is the 40-digit referee for a symmetric
matrix's spectrum.

The CSV oracles are the per-value writers the library once used: each
float goes through Python's format(x, ".17g") on its own, labels and
padding are joined in as strings, and the file text is returned whole.
"""

from __future__ import annotations

import mpmath
import numpy as np
from scipy.linalg import expm

from chainobs.analysis import observer_flow
from chainobs.builder import ChainObserverParams
from chainobs.errors import (
    InvalidDimensionError,
    InvalidInputError,
    InvalidParameterError,
    NumericalFailureError,
)
from chainobs.simulate import NormalModes, TimeGrid

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_matrix(n_modes: int) -> np.ndarray:
    """Theta = diag(J, ..., J) for n_modes modes, as one Kronecker product."""
    return np.kron(np.eye(n_modes), J)


def observer_hamiltonian(chain: ChainObserverParams) -> np.ndarray:
    """The dense 2N x 2N R_o, the observer block of R_a's blocks assembled."""
    return chain.hamiltonian.dense()[2:, 2:]


def output_matrix(chain: ChainObserverParams) -> np.ndarray:
    """C_a = kron(I, alpha): every mode's output row is alpha on its own block."""
    return np.kron(np.eye(chain.n_elements + 1), chain.alpha)


def propagator(a: np.ndarray, t: float) -> np.ndarray:
    """Matrix exponential exp(a t), by scipy's expm (Al-Mohy & Higham 2009)."""
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
        phi = expm(at)
    if not np.all(np.isfinite(phi)):
        raise NumericalFailureError(f"exponential overflowed at t = {t!r}")
    return phi


def minors_positive_definite(diagonal: np.ndarray, off_diagonal: np.ndarray) -> bool:
    """Sylvester test for a symmetric tridiagonal matrix.

    Runs the leading-principal-minor recurrence
    d_k = a_k d_{k-1} - b_{k-1}^2 d_{k-2}; the matrix is positive definite
    exactly when every d_k is positive.
    """
    a = np.asarray(diagonal, dtype=float)
    b = np.asarray(off_diagonal, dtype=float)
    d_prev, d = 1.0, a[0]
    if d <= 0:
        return False
    for k in range(1, a.size):
        d, d_prev = a[k] * d - b[k - 1] ** 2 * d_prev, d
        if d <= 0:
            return False
    return True


def rotation(angle: float) -> np.ndarray:
    """Closed form exp(J angle) = cos(angle) I + sin(angle) J for one mode."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]])


def collapse_blocks(x: np.ndarray) -> np.ndarray:
    """Per-mode norms: map a 2N-vector to the N-vector of its 2-block norms."""
    pairs = np.asarray(x, dtype=float).reshape(-1, 2)
    return np.linalg.norm(pairs, axis=1)


def dense_symplectic_drift(phi: np.ndarray, theta: np.ndarray) -> float:
    """||Phi Theta Phi^T - Theta||_F by two full products, for any Theta."""
    phi = np.asarray(phi, dtype=float)
    return float(np.linalg.norm(phi @ theta @ phi.T - theta, ord="fro"))


def exp_bound_unscreened(modes: NormalModes, grid: TimeGrid) -> float:
    """The exponential-bound sweep with every sample's norm taken exactly.

    Forms every sample in time order through the library's closed-form
    propagator (observer_flow, with its two per-sample checks) and returns
    the largest sqrt(eigvalsh(P^T P)[-1]).
    """
    flow = observer_flow(modes, grid)
    worst = 0.0
    for k in range(grid.samples):
        phi = flow.propagator(k)
        worst = max(worst, float(np.sqrt(np.linalg.eigvalsh(phi.T @ phi)[-1])))
    return worst


def dense_augmented(chain: ChainObserverParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r_a, a_a, c_a) of a chain's plant+observer system, by Kronecker products only.

    Reads the chain's stored alpha, mu~ and omega, never its blocks.

    With mu = mu~ / ||alpha||^2 and S the symmetric (N+1) x (N+1) path
    matrix carrying -mu on its first off-diagonals,
    r_a = kron(diag(0, omega), I) + kron(S, alpha alpha^T),
    a_a = 2 Theta r_a = 2 (kron(diag(0, omega), J) + kron(S, J alpha alpha^T))
    and c_a = kron(I, alpha). Every entry is a single product (the other
    term is an exact zero there) and the doubling is exact, also for
    subnormal entries, so a correct assembly matches bit for bit.
    """
    alpha = chain.alpha
    mu = chain.mu_tilde / float(alpha @ alpha)
    n = mu.size
    energies = np.diag(np.concatenate(([0.0], chain.omega)))
    path = np.diag(-mu, 1) + np.diag(-mu, -1)
    outer = np.outer(alpha, alpha)
    r_a = np.kron(energies, np.eye(2)) + np.kron(path, outer)
    a_a = 2.0 * (np.kron(energies, J) + np.kron(path, J @ outer))
    c_a = np.kron(np.eye(n + 1), alpha)
    return r_a, a_a, c_a


def dense_dynamics(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """A = 2 Theta R by one dense product."""
    return 2.0 * theta @ r


def dense_realizability_residual(a: np.ndarray, theta: np.ndarray) -> float:
    """||A Theta + Theta A^T||_F by dense products."""
    return float(np.linalg.norm(a @ theta + theta @ a.T, ord="fro"))


def dense_fixed_point_residual(a_o: np.ndarray, chain: ChainObserverParams) -> float:
    """||a_o (alpha; ...; alpha) + b_o ||alpha||^2|| with the dense a_o, b_o = 2 J beta_1 on element 1."""
    stack = np.tile(chain.alpha, chain.n_elements)
    norm2 = float(chain.alpha @ chain.alpha)
    b_o = np.zeros(2 * chain.n_elements)
    b_o[0:2] = 2.0 * J @ (-chain.mu[0] * chain.alpha)
    return float(np.linalg.norm(a_o @ stack + b_o * norm2))


def dense_mode_generator_residual(modes: NormalModes, a_o: np.ndarray) -> float:
    """Relative Frobenius distance from the modes' generator to the dense a_o
    rotated per mode into (q, p) = (alpha^ . x, J alpha^ . x)."""
    left, right = modes.left, modes.right
    n = modes.lam.size
    expected = np.zeros((2 * n, 2 * n))
    expected[0::2, 1::2] = -2.0 * (left @ left.T)
    expected[1::2, 0::2] = 2.0 * ((right * modes.lam) @ right.T)
    alpha_hat = modes.chain.alpha / np.linalg.norm(modes.chain.alpha)
    rotation = np.array([alpha_hat, J @ alpha_hat])
    blocks = np.asarray(a_o, dtype=float).reshape(n, 2, n, 2)
    rotated = np.einsum("ab,ibjc,dc->iajd", rotation, blocks, rotation).reshape(2 * n, 2 * n)
    return float(np.linalg.norm(rotated - expected) / np.linalg.norm(rotated))


def reference_eigenvalues(m: np.ndarray, digits: int = 40) -> list:
    """Ascending eigenvalues of a symmetric matrix at the given precision, as mpmath numbers."""
    with mpmath.workdps(digits):
        values = mpmath.eigsy(mpmath.matrix(np.asarray(m, dtype=float).tolist()), eigvals_only=True)
        return sorted(values[i] for i in range(len(values)))


def hamiltonian_drift(r: np.ndarray, phi: np.ndarray) -> float:
    """Frobenius norm of Phi^T R Phi - R.

    Measures how far a propagator Phi has drifted from conserving the
    quadratic Hamiltonian with coefficient matrix R.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise InvalidDimensionError(f"Hamiltonian matrix must be square, got shape {r.shape}")
    if phi.shape != r.shape:
        raise InvalidDimensionError(
            f"propagator shape {phi.shape} does not match Hamiltonian shape {r.shape}"
        )
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(phi))):
        raise InvalidInputError("Hamiltonian matrix or propagator contains non-finite entries")
    return float(np.linalg.norm(phi.T @ r @ phi - r, ord="fro"))


def max_frequency(a: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a dynamics matrix (its fastest mode)."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("dynamics matrix contains non-finite entries")
    return float(np.abs(np.linalg.eigvals(a)).max())


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


def time_average_exact(chain: ChainObserverParams, horizon: float) -> np.ndarray:
    """Time average of the coefficient rows by the doubled-block exponential."""
    integral = integral_of_propagator(chain.dynamics.dense(), horizon)
    return output_matrix(chain) @ integral / float(horizon)


def _csv_line(*fields) -> str:
    """Comma-joined fields; floats at 17 significant digits, strings as they are."""
    return ",".join(f if isinstance(f, str) else format(float(f), ".17g") for f in fields)


def matrix_csv_text(matrix: np.ndarray) -> str:
    rows = np.atleast_2d(np.asarray(matrix, dtype=float))
    return "".join(_csv_line(*row) + "\n" for row in rows)


def trajectory_csv_text(times: np.ndarray, coefficient_rows: np.ndarray) -> str:
    dim = coefficient_rows.shape[2]
    lines = ["t,row," + ",".join(f"c_{j}" for j in range(1, dim + 1))]
    for t, rows in zip(times, coefficient_rows):
        lines += [_csv_line(t, str(i), *row) for i, row in enumerate(rows, start=1)]
    return "\n".join(lines) + "\n"


def spatial_csv_text(times: np.ndarray, spatial: np.ndarray) -> str:
    dim = spatial.shape[1]
    lines = ["t,row," + ",".join(f"c_{j}" for j in range(1, dim + 1))]
    lines += [_csv_line(t, "s", *row) for t, row in zip(times, spatial)]
    return "\n".join(lines) + "\n"


def averages_csv_text(
    horizons: list[float], averages: list[np.ndarray], row_errors: list[float]
) -> str:
    dim = averages[0].shape[1]
    lines = ["T,row," + ",".join(f"avg_c_{j}" for j in range(1, dim + 1))]
    for horizon, avg in zip(horizons, averages):
        lines += [_csv_line(horizon, str(i), *row) for i, row in enumerate(avg, start=1)]
    final = horizons[-1]
    lines += [
        _csv_line(final, f"err_{i}", err) + "," * (dim - 1)
        for i, err in enumerate(row_errors, start=2)
    ]
    return "\n".join(lines) + "\n"
