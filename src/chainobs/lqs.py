"""Closed linear quantum systems at the quadrature-coefficient level.

A network of n oscillator modes carries the canonical commutation structure
through the block-diagonal symplectic form Theta = diag(J, ..., J) with
J = [[0, 1], [-1, 0]]. A quadratic Hamiltonian with symmetric coefficient
matrix R generates the linear dynamics A = 2 Theta R. Such dynamics are
physically realizable exactly when A Theta + Theta A^T = 0, and the flow
Phi(t) = exp(A t) then preserves both the symplectic form and the
Hamiltonian itself. This module provides the symplectic form, the dynamics
of a Hamiltonian, and the residuals that certify realizability and
symplecticity numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, InvalidInputError

SYMPLECTIC_UNIT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")


@dataclass(frozen=True)
class SymplecticForm:
    """The commutation matrix Theta for ``n_modes`` oscillator modes."""

    n_modes: int
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return 2 * self.n_modes


def make_symplectic(n_modes: int) -> SymplecticForm:
    """Build Theta = diag(J, ..., J) with one 2x2 block per mode."""
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
        raise InvalidDimensionError(
            f"n_modes must be a positive integer, got {n_modes!r}"
        )
    matrix = np.kron(np.eye(int(n_modes)), SYMPLECTIC_UNIT)
    return SymplecticForm(n_modes=int(n_modes), matrix=matrix)


def dynamics_from_hamiltonian(r: np.ndarray, theta: SymplecticForm) -> np.ndarray:
    """Return A = 2 Theta R for a symmetric Hamiltonian coefficient matrix."""
    r = np.asarray(r, dtype=float)
    if r.shape != (theta.dimension, theta.dimension):
        raise InvalidDimensionError(
            f"Hamiltonian matrix shape {r.shape} does not match "
            f"symplectic dimension {theta.dimension}"
        )
    _require_finite(r, "Hamiltonian matrix")
    return 2.0 * theta.matrix @ r


def realizability_residual(a: np.ndarray, theta: SymplecticForm) -> float:
    """Frobenius norm of A Theta + Theta A^T.

    Zero (up to roundoff) exactly when the dynamics preserve the canonical
    commutation relations, i.e. when A = 2 Theta R for some symmetric R.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (theta.dimension, theta.dimension):
        raise InvalidDimensionError(
            f"dynamics shape {a.shape} does not match symplectic dimension {theta.dimension}"
        )
    _require_finite(a, "dynamics matrix")
    t = theta.matrix
    return float(np.linalg.norm(a @ t + t @ a.T, ord="fro"))


def symplectic_drift(phi: np.ndarray, theta: SymplecticForm) -> float:
    """Frobenius norm of Phi Theta Phi^T - Theta for a propagator Phi.

    Since Theta = diag(J, ..., J), Phi Theta Phi^T = M - M^T with
    M = Phi[:, 0::2] Phi[:, 1::2]^T: one n x n/2 x n product instead of two
    dense n x n x n ones.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (theta.dimension, theta.dimension):
        raise InvalidDimensionError(
            f"propagator shape {phi.shape} does not match symplectic dimension {theta.dimension}"
        )
    _require_finite(phi, "propagator")
    # BLAS needs a unit stride, and numpy releases differ in whether matmul
    # copies a strided view for it or falls back to its much slower own loop
    even = np.ascontiguousarray(phi[:, 0::2])
    odd = np.ascontiguousarray(phi[:, 1::2])
    m = even @ odd.T
    # subtract Theta on its nonzeros only: +1 at (2i, 2i+1), -1 at (2i+1, 2i)
    n = theta.dimension
    d = m - m.T
    d.flat[1 :: 2 * n + 2] -= 1.0
    d.flat[n :: 2 * n + 2] += 1.0
    return float(np.linalg.norm(d, ord="fro"))
