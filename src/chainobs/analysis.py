"""Certificates for the observer chain: definiteness and norm bounds.

The full observer Hamiltonian block R_o is 2N x 2N, but it splits exactly
into an N x N reduced matrix and a diagonal. Rotate each observer mode into
the orthonormal basis (a, J a) with a = alpha / ||alpha||: every coupling
block -mu_i alpha alpha^T becomes -mu~_i e_a e_a^T, which couples the
a-components of neighbouring modes alone, and the self-energies omega_i I
stay diagonal. R_o is then orthogonally similar to R_red (+) diag(omega),
where R_red is the symmetric tridiagonal matrix with omega on the diagonal
and -mu~_2 .. -mu~_N off it, so spec(R_o) = spec(R_red) U {omega_i}. Every
omega_i is positive, hence R_o is positive definite exactly when R_red is.
build_reduced writes R_red as a dense array straight from the chain's omega
and mu~. It splits into a rank-one part diag(mu~_1, 0, ..., 0) plus a
weighted chain Laplacian, so it is positive definite whenever the chain is
connected and mu~_1 > 0.

Positive definiteness of R_o in turn bounds the propagator: the flow
exp(2 Theta R_o t) conserves the quadratic form of R_o, which traps its
spectral norm below sqrt(lambda_max / lambda_min) for all time. The
certificate produced here carries exactly that ratio. verify_exp_bound
checks it on a uniform time grid, taking the propagators from the one
propagation engine in simulate (one exponential for the step, then one
product and one symplectic check per sample). It screens each sample with
||Phi||_2 <= ||Phi||_F, then ||Phi||_2 <= sqrt(||Phi^T Phi||_F), against the
running maximum of exact norms sqrt(lambda_max(Phi^T Phi)), which never
exceeds the bound: a screened sample can neither raise it nor break the
bound. The singular values of a symplectic Phi pair as (s, 1/s), which
leaves relative margins of about (N - 1) / s_1^2 and (N - 1) / (2 s_1^4).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .builder import ChainObserverParams
from .errors import (
    BoundViolatedError,
    InvalidParameterError,
    NotPositiveDefiniteError,
)
from .lqs import SymplecticForm, dynamics_from_hamiltonian
from .simulate import TimeGrid, _propagate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpectralCertificate:
    """Extreme eigenvalues of a positive definite matrix and the norm bound

    exp_norm_bound = sqrt(lambda_max / lambda_min), which dominates
    ||exp(2 Theta R t)||_2 for every t when R carries the certificate.
    """

    lambda_min: float
    lambda_max: float
    exp_norm_bound: float


def build_reduced(chain: ChainObserverParams) -> np.ndarray:
    """The N x N reduced matrix R_red of a chain's 2N x 2N Hamiltonian block.

    R_red is the block R_o restricted to the alpha-direction of every mode:
    omega on the diagonal and -mu~_2 .. -mu~_N off it. The orthogonal
    complement carries diag(omega), so the spectrum of R_o is that of R_red
    together with the omega_i.
    """
    matrix = np.diag(chain.omega)
    i = np.arange(chain.n_elements - 1)
    matrix[i, i + 1] = matrix[i + 1, i] = -chain.mu_tilde[1:]
    return matrix


def laplacian_split(reduced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the reduced matrix into rank-one plus chain-Laplacian parts.

    The rank-one part is diag(mu~_1, 0, ..., 0) with mu~_1 recovered from
    the first row sum; the remainder is the Laplacian of the weighted path
    graph, whose rows sum to zero and whose kernel is the all-ones vector.
    """
    n = reduced.shape[0]
    mu_1 = float(reduced[0].sum())
    rank_one = np.zeros((n, n))
    rank_one[0, 0] = mu_1
    laplacian = reduced - rank_one
    return rank_one, laplacian


def certify_positive_definite(r_o: np.ndarray) -> SpectralCertificate:
    """Eigenvalue certificate that a symmetric matrix is positive definite.

    Raises a not-positive-definite error carrying lambda_min when the
    smallest eigenvalue fails the relative threshold 1e-10 * lambda_max.
    """
    m = np.asarray(r_o, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"matrix must be square, got shape {m.shape}")
    asym = float(np.abs(m - m.T).max()) if m.size else 0.0
    scale = float(np.abs(m).max()) if m.size else 0.0
    if asym > 1e-12 * max(1.0, scale):
        raise InvalidParameterError("matrix must be symmetric")
    eigenvalues = np.linalg.eigvalsh(m)
    lam_min = float(eigenvalues[0])
    lam_max = float(eigenvalues[-1])
    if lam_max <= 0.0 or lam_min <= 1e-10 * lam_max:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: lambda_min = {lam_min:.6e}, "
            f"lambda_max = {lam_max:.6e}",
            lambda_min=lam_min,
        )
    return SpectralCertificate(
        lambda_min=lam_min,
        lambda_max=lam_max,
        exp_norm_bound=float(np.sqrt(lam_max / lam_min)),
    )


def verify_exp_bound(
    r_o: np.ndarray,
    theta: SymplecticForm,
    grid: TimeGrid,
) -> tuple[float, float]:
    """Check ||exp(2 Theta R_o t)||_2 against the certificate bound on a grid.

    Returns (max observed spectral norm, bound). The propagators come from
    the one propagation engine (simulate._propagate), with the symplectic
    identity checked at every sample (a failure raises a tolerance-exceeded
    error). Samples that ||Phi||_F or sqrt(||Phi^T Phi||_F) put at or below
    the largest norm so far are skipped; every other norm is
    sqrt(lambda_max(Phi^T Phi)), within about n * eps relative of the largest
    singular value, far inside the 1e-9 slack. Raises a bound-violated error
    at the first sample above bound * (1 + 1e-9), a sign of an inaccurate
    propagator, not of bad parameters. Logs the counts and margin at INFO.
    """
    bound = certify_positive_definite(r_o).exp_norm_bound
    a = dynamics_from_hamiltonian(np.asarray(r_o, dtype=float), theta)
    worst, grams, eigensolves = 0.0, 0, 0
    for t, phi in zip(grid.times(), _propagate(a, theta, grid)):
        if np.linalg.norm(phi) <= worst:
            continue
        gram = phi.T @ phi
        grams += 1
        if np.sqrt(np.linalg.norm(gram)) <= worst:
            continue
        norm = _spectral_norm(gram)
        eigensolves += 1
        worst = max(worst, norm)
        if norm > bound * (1.0 + 1e-9):
            raise BoundViolatedError(
                f"||exp(A t)||_2 = {norm:.12e} at t = {t:g} exceeds the certified "
                f"bound {bound:.12e}"
            )
    log.info("exp bound: %d samples, %d Gram products, %d eigensolves, max %.6e, bound %.6e, "
             "margin %.6e", grid.samples, grams, eigensolves, worst, bound, worst / bound)
    return worst, bound


def _spectral_norm(gram: np.ndarray) -> float:
    """Largest singular value of phi, from the top eigenvalue of gram = phi^T phi."""
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))
