"""Independent numerical oracles used to cross-check the library.

These deliberately avoid the code paths under test: the exponential oracle
goes through a symmetric eigendecomposition and a similarity transform
instead of scaling-and-squaring, and the definiteness oracle runs a
leading-principal-minor recurrence instead of an eigensolver. The drift
oracle forms Phi Theta Phi^T with dense products, ignoring the block
structure of Theta that the library exploits.
"""

from __future__ import annotations

import numpy as np


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
