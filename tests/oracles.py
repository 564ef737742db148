"""Independent numerical oracles used to cross-check the library.

These deliberately avoid the code paths under test: the exponential oracle
goes through a symmetric eigendecomposition and a similarity transform
instead of scaling-and-squaring, and the definiteness oracle runs a
leading-principal-minor recurrence instead of an eigensolver. The drift
oracle forms Phi Theta Phi^T with dense products, ignoring the block
structure of Theta that the library exploits. The assembly oracle writes
the augmented system as Kronecker products of (N+1) x (N+1) matrices with
2 x 2 blocks instead of filling blocks in place, and the energy oracle
measures how far a propagator is from conserving a quadratic Hamiltonian.
"""

from __future__ import annotations

import numpy as np

from chainobs.errors import InvalidDimensionError, InvalidInputError

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def spectral_propagator(r_o: np.ndarray, theta: np.ndarray, t: float) -> np.ndarray:
    """exp(2 Theta R_o t) for symmetric positive definite R_o, by spectra.

    With S = R_o^(1/2), the matrix K = 2 S Theta S is real skew-symmetric
    and similar to the dynamics: A = 2 Theta R_o = S^{-1} K S. Then iK is
    Hermitian, so exp(K t) follows from a reliable Hermitian eigensolve and
    exp(A t) = S^{-1} exp(K t) S.
    """
    w, v = np.linalg.eigh(np.asarray(r_o, dtype=float))
    if w.min() <= 0:
        raise ValueError("oracle needs a positive definite matrix")
    sqrt_w = np.sqrt(w)
    s = (v * sqrt_w) @ v.T
    s_inv = (v / sqrt_w) @ v.T
    k = 2.0 * s @ theta @ s
    lam, u = np.linalg.eigh(1j * k)
    exp_k = (u * np.exp(-1j * lam * t)) @ u.conj().T
    result = s_inv @ exp_k @ s
    assert np.abs(result.imag).max() < 1e-10
    return result.real


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


def dense_augmented(
    c_p: np.ndarray, mu_tilde: np.ndarray, omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r_a, a_a, c_a) of the plant+observer system, by Kronecker products only.

    With mu = mu~ / ||alpha||^2 and S the symmetric (N+1) x (N+1) path
    matrix carrying -mu on its first off-diagonals,
    r_a = kron(diag(0, omega), I) + kron(S, alpha alpha^T),
    a_a = 2 Theta r_a = 2 (kron(diag(0, omega), J) + kron(S, J alpha alpha^T))
    and c_a = kron(I, alpha). Every entry is a single product (the other
    term is an exact zero there) and the doubling is exact, also for
    subnormal entries, so a correct assembly matches bit for bit.
    """
    alpha = np.asarray(c_p, dtype=float)
    mu = np.asarray(mu_tilde, dtype=float) / float(alpha @ alpha)
    n = mu.size
    energies = np.diag(np.concatenate(([0.0], omega)))
    path = np.diag(-mu, 1) + np.diag(-mu, -1)
    outer = np.outer(alpha, alpha)
    r_a = np.kron(energies, np.eye(2)) + np.kron(path, outer)
    a_a = 2.0 * (np.kron(energies, J) + np.kron(path, J @ outer))
    c_a = np.kron(np.eye(n + 1), alpha)
    return r_a, a_a, c_a


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
