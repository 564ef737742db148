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
and mu~ (lqs.tridiagonal). It is the rank-one part mu~_1 e_1 e_1^T plus the
Laplacian L of the path weighted by mu~_2 .. mu~_N, whose kernel is span(1),
so it is positive definite whenever the chain is connected and mu~_1 > 0.
The base report (cli._base_report) forms L as R_red less the chain's own
mu~_1 in its corner, so L's row sums test the frequency lineup on every
row, the first included. The certificate of R_o is read off R_red's
(observer_certificate): no 2N x 2N matrix is formed.

Positive definiteness of R_o in turn bounds the propagator: the flow
exp(2 Theta R_o t) conserves the quadratic form of R_o, which traps its
spectral norm below sqrt(lambda_max / lambda_min) for all time. The
certificate produced here carries exactly that ratio. verify_exp_bound
returns the largest norm on a uniform time grid, which the run's report
holds to that bound (cli.run_check), taking each propagator in closed form
from the chain's normal modes (NormalModes.weights), P = S D(t) S^-1, so any
sample can be formed on its own, and most need not be. One O(N^3) set-up
gives every sample's ||P||_F (the screen), an upper bound on ||P||_2. The
sweep takes the samples in decreasing screen order, BOUND_CHUNK at a time,
and keeps those whose screen still exceeds the floor, the largest exact
norm sqrt(lambda_max(P^T P)) so far. Only for those, three power steps on
P^T P through the factors give a Kato-Temple upper bound on ||P||_2 that
is at most the screen (ObserverFlow.norm_bounds), and the chunk's samples
are visited in decreasing order of that bound until it is no larger than
the floor. An unvisited sample cannot raise the maximum. A visited sample
is also skipped when sqrt(||P^T P||_F) is no larger. Every formed P is
checked (symplectic, and ||P||_F against its screen), and every exact norm
against its own bound, so a bound that failed would stop the run rather
than hide a sample. The whole sweep, screens and bounds included, follows
the one-thread rule at simulate.ONE_THREAD_MAX_N. The closed form is tied
to the assembled system by verify_mode_generator: its generator, rebuilt
from the modes, must equal the blocks of a_o rotated into the modes' (q, p)
basis. Each formed P is held to Phi Theta Phi^T = Theta with
Theta = diag(J, ..., J) of P's own size (lqs.symplectic_drift), so no Theta
is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .builder import ChainObserverParams
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    ToleranceExceededError,
)
from .logs import Logger
from .lqs import SYMPLECTIC_UNIT, symplectic_drift, tridiagonal
from .simulate import NormalModes, TimeGrid, _blas_threads_text, _block, _one_blas_thread

# How far a formed propagator may stray from Phi Theta Phi^T = Theta,
# relative to ||Theta||_F.
SYMPLECTIC_DRIFT_TOL = 1e-9
# How far a formed ||P||_F may stray from its screen value, relative.
# Rounding leaves about 1e-15. The screen stands in for the trace of P^T P
# in every Kato-Temple bound, which therefore takes its upper end,
# ||P||_F^2 (1 + 2 SCREEN_REL_TOL). The screen is itself an upper bound
# on ||P||_2, used where a sample has no Kato-Temple bound or before one is
# computed, safe by the pairing margin (N - 1) / s_1^2, above 1e-7 on every
# config measured.
SCREEN_REL_TOL = 1e-12
# How far a formed sample's exact norm may exceed its Kato-Temple bound,
# relative; rounding leaves about 1e-15. The sweep's stop widens every bound
# by BOUND_SLACK, a hundred times more.
BOUND_REL_TOL = 1e-12
BOUND_SLACK = 1e-10
# Samples per batch of the screens and of the bounds' power steps: a few
# BOUND_CHUNK x N arrays at a time.
BOUND_CHUNK = 128
# Power steps on P^T P behind each Kato-Temple bound.
POWER_STEPS = 3
# How far the generator the normal modes give may stray from the assembled
# a_o, relative in the Frobenius norm; rounding leaves at most 3.9e-15 on
# every scheme from N = 1 to 1000.
GENERATOR_REL_TOL = 1e-12

log = Logger(__name__)


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
    return tridiagonal(chain.omega, -chain.mu_tilde[1:])


def _certificate(lam_min: float, lam_max: float) -> SpectralCertificate:
    """Certificate from extreme eigenvalues; raises a not-positive-definite
    error carrying lambda_min when it fails the relative threshold
    1e-10 * lambda_max."""
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


def certify_positive_definite(r_o: np.ndarray) -> SpectralCertificate:
    """Eigenvalue certificate that a symmetric matrix is positive definite.

    Raises a not-positive-definite error carrying lambda_min when the
    smallest eigenvalue fails the relative threshold 1e-10 * lambda_max.
    """
    m = np.asarray(r_o, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"matrix must be square, got shape {m.shape}")
    asym = scale = 0.0
    if m.size:
        d = m - m.T  # the one N x N temporary, reused for |m|
        asym = float(np.abs(d, out=d).max())
        scale = float(np.abs(m, out=d).max())
    if asym > 1e-12 * max(1.0, scale):
        raise InvalidParameterError("matrix must be symmetric")
    eigenvalues = np.linalg.eigvalsh(m)
    return _certificate(float(eigenvalues[0]), float(eigenvalues[-1]))


def observer_certificate(reduced: SpectralCertificate, omega: np.ndarray) -> SpectralCertificate:
    """The certificate of R_o from that of R_red and the self-energies.

    spec(R_o) = spec(R_red) U {omega_i}, so the extremes of R_o are those of
    R_red's extremes and omega's. (Each omega_i is a diagonal entry of R_red
    and lies between its extremes, so this only guards against rounding.)
    """
    return _certificate(min(reduced.lambda_min, float(omega.min())),
                        max(reduced.lambda_max, float(omega.max())))


def _check_symplectic(phi: np.ndarray, k: int) -> None:
    """Certify Phi Theta Phi^T = Theta for the propagator of sample k.

    Raises a numerical failure when phi is not finite, and a
    tolerance-exceeded error when the drift exceeds 1e-9 ||Theta||_F.
    """
    try:
        drift = symplectic_drift(phi)
    except InvalidInputError as exc:
        raise NumericalFailureError(f"propagator is not finite at sample {k}") from exc
    # ||Theta||_F = sqrt(2 N), the square root of its dimension
    if drift > SYMPLECTIC_DRIFT_TOL * math.sqrt(phi.shape[0]):
        raise ToleranceExceededError(
            f"symplectic drift {drift:.3e} exceeds {SYMPLECTIC_DRIFT_TOL:.0e} "
            f"* ||Theta||_F at sample {k}"
        )


@dataclass(frozen=True)
class ObserverFlow:
    """The observer propagator P(t) = S D(t) S^-1 on a time grid, in closed form.

    cos and sin hold the phases' cosines and sines for every sample
    (NormalModes.weights), from which D(t_k)'s entries up and down are formed
    for the samples in use; g and h hold the Gram factors G = L1^T L1 and
    H = L2^T L2. screen is ||P(t_k)||_F for every sample, from them alone.
    """

    modes: NormalModes
    cos: np.ndarray
    sin: np.ndarray
    g: np.ndarray
    h: np.ndarray
    screen: np.ndarray

    def norm_bounds(self, rows: np.ndarray) -> np.ndarray:
        """Upper bounds on ||P(t_k)||_2 for the samples k in rows, each at
        most its screen.

        P^T P = S^-T D^T (S^T S) D S^-1 with S^T S = diag(G, H) and
        S^-1 S^-T = diag(H, G), so an iterate x is held as v = S^T x, with
        S^-1 x = diag(H, G) v, |x|^2 = v . diag(H, G) v and
        S^T P^T P x = D^T diag(G, H) D S^-1 x. From x_0 = (1, ..., 1),
        POWER_STEPS steps give x_1 = P^T P x_0 and x_(i+1) = P^T P x_i / |x_i|.
        With u = x_2 / |x_2|, the Rayleigh quotient rho = u . P^T P u and the
        residual r = P^T P u - rho u bound the top eigenvalue
        (_top_eigenvalue_bound) with ||P||_F^2 as the trace of P^T P; where
        that gives no bound, the screen stands. The three steps and |r|^2
        cost twelve len(rows) x N x N products (S^-1 x_0 is shared by every
        row), and P is never formed.
        """
        modes, g, h = self.modes, self.g, self.h
        sin = self.sin[rows]
        c, u, d = self.cos[rows], modes.up(sin), modes.down(sin)
        left, right = modes.left, modes.right

        def gram_step(yq: np.ndarray, yp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """S^T P^T P x, row by row, for the rows x with S^-1 x = (yq, yp)."""
            wq = (c * yq + u * yp) @ g
            wp = (d * yq + c * yp) @ h
            return c * wq + d * wp, u * wq + c * wp

        ones = np.ones(left.shape[0])
        wq, wp = gram_step(right.T @ ones, left.T @ ones)
        for _ in range(POWER_STEPS - 1):
            yq, yp = wq @ h, wp @ g
            length = np.sqrt(_rowdot(yq, wq) + _rowdot(yp, wp))[:, None]
            for iterate in (wq, wp, yq, yp):
                iterate /= length
            vq, vp = wq, wp
            wq, wp = gram_step(yq, yp)
        length = _rowdot(yq, vq) + _rowdot(yp, vp)
        rho = (_rowdot(yq, wq) + _rowdot(yp, wp)) / length
        wq -= rho[:, None] * vq
        wp -= rho[:, None] * vp
        residual = (_rowdot(wq @ h, wq) + _rowdot(wp @ g, wp)) / length
        screen = self.screen[rows]
        squared = _top_eigenvalue_bound(rho, residual, screen ** 2 * (1.0 + 2.0 * SCREEN_REL_TOL))
        # fmin keeps the screen where the steps overflowed to inf or nan
        return np.fmin(np.sqrt(squared), screen)

    def propagator(self, k: int) -> np.ndarray:
        """P(t_k) in the interleaved (q_1, p_1, ..., q_N, p_N) layout, checked.

        Two checks run before P is returned: the symplectic identity, and
        ||P||_F against screen[k], which the sweep trusts for the samples it
        never forms. A failure of either raises a tolerance-exceeded error;
        a non-finite P raises a numerical failure.
        """
        modes = self.modes
        left, right = modes.left, modes.right
        n = left.shape[0]
        phi = np.empty((2 * n, 2 * n))
        phi[0::2, 0::2] = _block(left, self.cos[k], right)
        phi[0::2, 1::2] = _block(left, modes.up(self.sin[k]), left)
        phi[1::2, 0::2] = _block(right, modes.down(self.sin[k]), right)
        phi[1::2, 1::2] = _block(right, self.cos[k], left)
        _check_symplectic(phi, k)
        frobenius = float(np.linalg.norm(phi))
        if abs(frobenius - self.screen[k]) > SCREEN_REL_TOL * frobenius:
            raise ToleranceExceededError(
                f"||P||_F = {frobenius:.17e} at sample {k} disagrees with its screen "
                f"value {self.screen[k]:.17e}"
            )
        return phi


def verify_mode_generator(modes: NormalModes) -> float:
    """Check that the normal modes generate their chain's observer dynamics.

    The closed form P(t) = S D(t) S^-1 has the generator dP/dt at t = 0,
    [[0, -2 L1 L1^T], [2 L2 diag(lam) L2^T, 0]] in (q, p) blocks, which is
    [[0, -2 Omega], [2 R_red, 0]] exactly when V is orthogonal (so S^-1
    inverts S) and V, lam diagonalise K. The blocks of a_o = 2 Theta R_o,
    read from modes.chain and rotated per mode into (q, p) =
    (alpha^ . x, J alpha^ . x), must equal it; off the three central block
    diagonals a_o is zero, so there the residual is the generator itself.
    This ties every propagator the sweep forms to the chain's own blocks;
    the per-sample checks alone hold for any orthogonal V. Costs two N x N
    products. Returns the relative Frobenius residual and raises a
    tolerance-exceeded error above GENERATOR_REL_TOL.
    """
    n = modes.lam.size
    q_to_p = _block(modes.left, np.full(n, -2.0), modes.left)
    p_to_q = _block(modes.right, 2.0 * modes.lam, modes.right)
    alpha_hat = modes.chain.alpha / np.linalg.norm(modes.chain.alpha)
    rotation = np.array([alpha_hat, SYMPLECTIC_UNIT @ alpha_hat])
    a_o = modes.chain.observer_dynamics
    i = np.arange(n)
    rotated, qq_pp = [], []
    for blocks, rows, cols in ((a_o.diagonal, i, i), (a_o.upper, i[:-1], i[1:]),
                               (a_o.lower, i[1:], i[:-1])):
        turned = rotation @ blocks @ rotation.T
        q_to_p[rows, cols] -= turned[:, 0, 1]
        p_to_q[rows, cols] -= turned[:, 1, 0]
        qq_pp += [turned[:, 0, 0], turned[:, 1, 1]]
        rotated.append(turned)
    scale = math.hypot(*(float(np.linalg.norm(t)) for t in rotated))
    residual = math.hypot(float(np.linalg.norm(q_to_p)), float(np.linalg.norm(p_to_q)),
                          float(np.linalg.norm(np.concatenate(qq_pp)))) / scale
    if not residual <= GENERATOR_REL_TOL:
        raise ToleranceExceededError(
            f"normal-mode generator differs from the assembled observer dynamics by "
            f"{residual:.3e} relative (tolerance {GENERATOR_REL_TOL:.0e})"
        )
    return residual


def observer_flow(modes: NormalModes, grid: TimeGrid) -> ObserverFlow:
    """Set up the closed-form observer propagator on a grid: O(N^3) once.

    The rotation into the modes' (q, p) basis is orthogonal, so P has the
    singular values of exp(2 Theta R_o t). With G = L1^T L1 = V^T Omega V
    and H = L2^T L2 = V^T Omega^-1 V, each block's squared Frobenius norm is
    a quadratic form in its weights, so ||P||_F^2 = cos (2 G o H) cos +
    up (G o G) up + down (H o H) down (o the entrywise product): three
    BOUND_CHUNK x N x N products per chunk of samples give every screen.
    Only cos and sin are held for the grid; up and down are formed a chunk
    at a time. No norm bound is computed yet (ObserverFlow.norm_bounds).
    """
    cos, sin = modes.weights(grid.times())
    left, right = modes.left, modes.right
    g, h = left.T @ left, right.T @ right
    cross, gg, hh = 2.0 * g * h, g * g, h * h
    screen = np.empty(cos.shape[0])
    for lo in range(0, cos.shape[0], BOUND_CHUNK):
        batch = slice(lo, lo + BOUND_CHUNK)
        s = sin[batch]
        c, u, d = cos[batch], modes.up(s), modes.down(s)
        screen[batch] = np.sqrt(_rowdot(c @ cross, c) + _rowdot(u @ gg, u) + _rowdot(d @ hh, d))
    return ObserverFlow(modes=modes, cos=cos, sin=sin, g=g, h=h, screen=screen)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b."""
    return np.einsum("ij,ij->i", a, b)


def _top_eigenvalue_bound(rho: np.ndarray, residual: np.ndarray,
                          trace: np.ndarray) -> np.ndarray:
    """Kato-Temple upper bound on the top eigenvalue of a PSD matrix A, or inf.

    rho = x^T A x / x^T x and residual = |A x - rho x|^2 / x^T x. Any alpha
    with lambda_2 <= alpha < rho gives lambda_1 <= rho + residual /
    (rho - alpha) (Kato 1949, Temple 1928), since x^T (A - lambda_1)
    (A - alpha) x >= 0. A is PSD and rho <= lambda_1, so lambda_2 <=
    trace - lambda_1 <= trace - rho = alpha, which lies below rho when
    2 rho > trace; otherwise there is no bound (inf).
    """
    gap = 2.0 * rho - trace
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(gap > 0.0, rho + residual / gap, np.inf)


def verify_exp_bound(modes: NormalModes, grid: TimeGrid) -> float:
    """The largest ||exp(2 Theta R_o t)||_2 on a grid; cli.run_check holds it
    to the certified bound.

    The floor is the largest norm so far; every screen and bound is widened
    by BOUND_SLACK for its rounding before it is held to the floor. The
    sweep takes the samples in decreasing screen order, BOUND_CHUNK at a
    time, and stops at a chunk whose largest screen is at or below the
    floor. Of a chunk it keeps the samples whose screen exceeds the floor,
    bounds their norms (ObserverFlow.norm_bounds) and visits them in
    decreasing bound order until the bound is at or below the floor. It
    forms P once for each visited sample (with the two checks of
    ObserverFlow.propagator), skipping it if sqrt(||P^T P||_F) is at or
    below the floor; else its norm is sqrt(lambda_max(P^T P)), within about
    n * eps relative of the largest singular value. A norm above its
    sample's bound by more than BOUND_REL_TOL raises a tolerance-exceeded
    error, since the samples the sweep skips are only safe while the bounds
    hold. The screens, bounds and formed samples follow the one-thread rule
    (simulate.ONE_THREAD_MAX_N). Logs the counts, the maximum, its time and
    the sweep's BLAS threads at INFO.
    """
    n = modes.lam.size
    worst, at, bounded, grams, eigensolves = 0.0, 0, 0, 0, 0
    with _one_blas_thread(n):
        flow = observer_flow(modes, grid)
        bad = ~np.isfinite(flow.screen)
        if bad.any():
            raise NumericalFailureError(
                f"propagator is not finite at sample {int(np.argmax(bad))}"
            )
        order = np.argsort(-flow.screen, kind="stable")
        for lo in range(0, order.size, BOUND_CHUNK):
            chunk = order[lo:lo + BOUND_CHUNK]
            above = flow.screen[chunk] * (1.0 + BOUND_SLACK) > worst
            if not above[0]:
                break
            chunk = chunk[above]
            bounds = flow.norm_bounds(chunk)
            bounded += chunk.size
            reach = bounds * (1.0 + BOUND_SLACK)
            for i in np.argsort(-reach, kind="stable"):
                if reach[i] <= worst:
                    break
                k = chunk[i]
                phi = flow.propagator(k)
                gram = phi.T @ phi
                del phi  # the norm needs the Gram matrix alone
                grams += 1
                if np.sqrt(np.linalg.norm(gram)) <= worst:
                    continue
                norm = _spectral_norm(gram)
                eigensolves += 1
                if norm - bounds[i] > BOUND_REL_TOL * norm:
                    raise ToleranceExceededError(
                        f"||P||_2 = {norm:.17e} at sample {k} exceeds its bound {bounds[i]:.17e}"
                    )
                if norm > worst:
                    worst, at = norm, k
    log.info("exp bound: %d samples, %d bounded, %d Gram products, %d eigensolves, max %.6e "
             "at t = %g, sweep on %s", grid.samples, bounded, grams, eigensolves, worst,
             grid.times()[at], _blas_threads_text(n))
    return worst


def _spectral_norm(gram: np.ndarray) -> float:
    """Largest singular value of phi, from the top eigenvalue of gram = phi^T phi."""
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))
