"""Closed linear quantum systems at the quadrature-coefficient level.

A network of n oscillator modes carries the canonical commutation structure
through the block-diagonal symplectic form Theta = diag(J, ..., J) with
J = [[0, 1], [-1, 0]]. A quadratic Hamiltonian with symmetric coefficient
matrix R generates the linear dynamics A = 2 Theta R. Such dynamics are
physically realizable exactly when A Theta + Theta A^T = 0, and the flow
Phi(t) = exp(A t) then preserves both the symplectic form and the
Hamiltonian itself. This module provides the dynamics of a Hamiltonian and
the residuals that certify realizability and symplecticity numerically.

Since Theta pairs each row q_i with the row p_i of the same mode, 2 Theta R
is a row swap and scale: rows q_i of A are 2 times rows p_i of R, and rows
p_i are -2 times rows q_i. A chain network couples each mode to its
neighbours only, so its R and A are block tridiagonal in 2 x 2 blocks;
BlockTridiagonal stores those blocks alone, and its products, norms and
realizability residual cost O(n) per row instead of O(n^2). Those blocks
are the only form of R and A; dense() assembles the full array for a
caller that must write it out. A chain's scalar tridiagonals (its reduced
matrix and its normal-mode matrix) are assembled by tridiagonal alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidDimensionError, InvalidInputError

SYMPLECTIC_UNIT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")


def tridiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The dense symmetric tridiagonal matrix with diagonal d and off-diagonal e."""
    matrix = np.diag(d)
    i = np.arange(len(e))
    matrix[i, i + 1] = matrix[i + 1, i] = e
    return matrix


@dataclass(frozen=True)
class BlockTridiagonal:
    """A 2n x 2n matrix of 2 x 2 blocks that vanish off the three central block diagonals.

    diagonal[i] is block (i, i), upper[i] block (i, i + 1) and lower[i]
    block (i + 1, i). ``m @ x`` and ``rows @ m`` work on the last axis of
    an array, as with the dense matrix, at O(n) per vector; dense()
    assembles the full array and T is the transpose.
    """

    diagonal: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    # numpy defers ``rows @ m`` to __rmatmul__ instead of converting m
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        n = self.diagonal.shape[0]
        shapes = (self.diagonal.shape, self.upper.shape, self.lower.shape)
        if shapes != ((n, 2, 2), (n - 1, 2, 2), (n - 1, 2, 2)):
            raise InvalidDimensionError(f"block shapes {shapes} do not form a block tridiagonal")

    @property
    def n_modes(self) -> int:
        return self.diagonal.shape[0]

    def dense(self) -> np.ndarray:
        n = self.n_modes
        out = np.zeros((2 * n, 2 * n))
        blocks = out.reshape(n, 2, n, 2)  # blocks[i, :, j, :] is the (i, j) block
        i = np.arange(n)
        blocks[i, :, i, :] = self.diagonal
        blocks[i[:-1], :, i[1:], :] = self.upper
        blocks[i[1:], :, i[:-1], :] = self.lower
        return out

    @property
    def T(self) -> "BlockTridiagonal":
        return BlockTridiagonal(
            _transposed(self.diagonal), _transposed(self.lower), _transposed(self.upper)
        )

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.T

    def __rmatmul__(self, rows: np.ndarray) -> np.ndarray:
        """rows @ m: block column j is (x_(j-1), x_j, x_(j+1)) times the 6 x 2
        stack (upper[j-1]; diagonal[j]; lower[j]), one batched product."""
        rows = np.asarray(rows, dtype=float)
        n = self.n_modes
        padded = np.zeros((rows.size // (2 * n), 2 * n + 4))
        padded[:, 2:-2] = rows.reshape(-1, 2 * n)
        windows = sliding_window_view(padded, 6, axis=1)[:, ::2]
        columns = np.zeros((n, 6, 2))
        columns[1:, 0:2] = self.upper
        columns[:, 2:4] = self.diagonal
        columns[:-1, 4:6] = self.lower
        out = np.matmul(windows.transpose(1, 0, 2), columns)
        return out.transpose(1, 0, 2).reshape(rows.shape)

    def frobenius_norm(self) -> float:
        return math.hypot(*(float(np.linalg.norm(b)) for b in (self.diagonal, self.upper, self.lower)))

    def inf_norm(self) -> float:
        """Largest absolute row sum, as ``np.linalg.norm(dense, np.inf)``."""
        sums = np.abs(self.diagonal).sum(axis=2)
        sums[:-1] += np.abs(self.upper).sum(axis=2)
        sums[1:] += np.abs(self.lower).sum(axis=2)
        return float(sums.max())


def _transposed(blocks: np.ndarray) -> np.ndarray:
    """Each 2 x 2 block of a stack transposed."""
    return np.swapaxes(blocks, 1, 2)


def _two_theta(r: np.ndarray) -> np.ndarray:
    """2 Theta r for r whose axis -2 holds one mode's (q, p) rows.

    Rows q become 2 times rows p and rows p -2 times rows q. Adding 0.0
    turns -0.0 into 0.0, as the sums of the dense product 2 Theta @ r do,
    so the result equals that product bit for bit.
    """
    a = np.empty_like(r)
    a[..., 0, :] = 2.0 * r[..., 1, :]
    a[..., 1, :] = -2.0 * r[..., 0, :]
    a += 0.0
    return a


def block_dynamics(r: BlockTridiagonal) -> BlockTridiagonal:
    """A = 2 Theta R for a block-tridiagonal R, block by block: O(n)."""
    for blocks in (r.diagonal, r.upper, r.lower):
        _require_finite(blocks, "Hamiltonian matrix")
    return BlockTridiagonal(_two_theta(r.diagonal), _two_theta(r.upper), _two_theta(r.lower))


def realizability_residual(a: BlockTridiagonal) -> float:
    """Frobenius norm of A Theta + Theta A^T for block-tridiagonal dynamics A.

    Its (i, j) block is A_ij J + J A_ji^T, so it vanishes off the three
    central block diagonals, and it is zero (up to roundoff) exactly when
    the dynamics preserve the canonical commutation relations, i.e. when
    A = 2 Theta R for some symmetric R.
    """
    for blocks in (a.diagonal, a.upper, a.lower):
        _require_finite(blocks, "dynamics matrix")
    j = SYMPLECTIC_UNIT
    parts = (
        a.diagonal @ j + j @ _transposed(a.diagonal),
        a.upper @ j + j @ _transposed(a.lower),
        a.lower @ j + j @ _transposed(a.upper),
    )
    return math.hypot(*(float(np.linalg.norm(p)) for p in parts))


def symplectic_drift(phi: np.ndarray) -> float:
    """Frobenius norm of Phi Theta Phi^T - Theta for a propagator Phi.

    Theta is diag(J, ..., J) of Phi's size, so Phi Theta Phi^T = M - M^T
    with M = Phi[:, 0::2] Phi[:, 1::2]^T: one n x n/2 x n product instead of
    two dense n x n x n ones. The column halves are freed once M is formed,
    so no more than Phi, M and M - M^T are held at once.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1] or phi.shape[0] % 2:
        raise InvalidDimensionError(
            f"propagator shape {phi.shape} is not square with an even side"
        )
    _require_finite(phi, "propagator")
    # BLAS needs a unit stride, and numpy releases differ in whether matmul
    # copies a strided view for it or falls back to its much slower own loop
    m = np.ascontiguousarray(phi[:, 0::2]) @ np.ascontiguousarray(phi[:, 1::2]).T
    # subtract Theta on its nonzeros only: +1 at (2i, 2i+1), -1 at (2i+1, 2i)
    n = phi.shape[0]
    d = m - m.T
    d.flat[1 :: 2 * n + 2] -= 1.0
    d.flat[n :: 2 * n + 2] += 1.0
    return float(np.linalg.norm(d, ord="fro"))
