"""Construction of chain-coupled distributed observers.

The plant is a single oscillator mode with a static quadrature output
z_p = c_p x_p and no internal dynamics. The observer is a chain of N
oscillator modes in which element 1 couples to the plant and element i
couples to element i+1, all through rank-one Hamiltonian interaction blocks
built from the plant's output direction alpha = c_p^T:

    coupling blocks   R_ci = -mu_i * alpha alpha^T,
    self-energies     R_oi = omega_i * I,
    element outputs   C_oi = c_p.

With the frequency lineup omega_i = mu~_i + mu~_{i+1} (omega_N = mu~_N),
where mu~_i = mu_i ||alpha||^2 are the output-normalized coupling strengths,
the stacked observer state direction (alpha; ...; alpha) is a fixed point of
the observer dynamics driven by the constant plant output. That algebraic
identity is what check_fixed_point certifies.

A chain is stored as (alpha, mu~, omega) alone, and it is the whole
plant+observer system: its Hamiltonian and dynamics are the
block-tridiagonal 2 x 2 blocks above (lqs.BlockTridiagonal, O(N) numbers),
formed when first read and the only form the library holds them in, and it
inherits physical realizability by construction.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateOutputError,
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedSchemeError,
)
from .lqs import SYMPLECTIC_UNIT, BlockTridiagonal, block_dynamics

SCHEME_UNIFORM = "uniform"
SCHEME_ODD_HARMONICS = "odd-harmonics"
SCHEME_ALL_HARMONICS = "all-harmonics"
SCHEME_RANDOM = "random"
SCHEMES = (SCHEME_UNIFORM, SCHEME_ODD_HARMONICS, SCHEME_ALL_HARMONICS, SCHEME_RANDOM)

# numpy's SeedSequence (pool of four 32-bit words) and PCG64 constants.
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class ParameterScheme:
    """Recipe for the coupling strengths mu~ of an N-element chain.

    ``variant`` selects the schedule; ``omega0`` is the fundamental
    frequency that scales it; ``seed`` feeds the generator for the random
    variant and must be left None otherwise.
    """

    variant: str
    omega0: float
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in SCHEMES:
            raise UnsupportedSchemeError(
                f"unknown scheme {self.variant!r}, expected one of {', '.join(SCHEMES)}"
            )
        if not (np.isfinite(self.omega0) and self.omega0 > 0):
            raise InvalidParameterError(f"omega0 must be positive, got {self.omega0!r}")
        if self.seed is not None:
            seed = self.seed
            if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
                raise InvalidParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")
            if self.variant != SCHEME_RANDOM:
                raise InvalidParameterError(
                    f"seed is only meaningful for the random scheme, not {self.variant!r}"
                )


@dataclass(frozen=True)
class ChainObserverParams:
    """An N-element observer chain: output direction, couplings, frequencies.

    ``alpha`` is the plant output direction c_p^T and ``mu_tilde`` the
    output-normalized coupling strengths. ``omega`` is stored rather than
    derived so that a mistuned lineup, one that breaks
    omega_i = mu~_i + mu~_{i+1}, stays representable (for example through
    ``dataclasses.replace(chain, omega=...)``); build_chain always sets the
    tuned one.

    The chain is also the plant+observer system as one closed linear
    quantum system: mode 0 is the plant and modes 1..N are the observer
    elements, hamiltonian and dynamics hold the block-tridiagonal R_a and
    A_a = 2 Theta R_a, and every mode's output row is alpha.
    """

    alpha: np.ndarray
    mu_tilde: np.ndarray
    omega: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.mu_tilde.size

    @property
    def mu(self) -> np.ndarray:
        """Raw coupling strengths mu_i = mu~_i / ||alpha||^2."""
        return self.mu_tilde / float(self.alpha @ self.alpha)

    @cached_property
    def hamiltonian(self) -> BlockTridiagonal:
        """R_a: zero for the plant and omega_i I on the diagonal, the coupling
        -mu_i alpha alpha^T between mode i-1 and mode i."""
        diagonal = np.zeros((self.n_elements + 1, 2, 2))
        diagonal[1:] = self.omega[:, None, None] * np.eye(2)
        coupling = -self.mu[:, None, None] * np.outer(self.alpha, self.alpha)
        return BlockTridiagonal(diagonal, coupling, coupling)

    @cached_property
    def dynamics(self) -> BlockTridiagonal:
        """A_a = 2 Theta R_a, block by block."""
        return block_dynamics(self.hamiltonian)

    @property
    def observer_dynamics(self) -> BlockTridiagonal:
        """A_o, the blocks of A_a among modes 1..N."""
        a = self.dynamics
        return BlockTridiagonal(a.diagonal[1:], a.upper[1:], a.lower[1:])

    @property
    def x_star(self) -> np.ndarray:
        """x* = (alpha, ..., alpha) / ||alpha||^2, whose every output stays 1."""
        return np.tile(self.alpha, self.n_elements + 1) / float(self.alpha @ self.alpha)


def _seed_words(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, uint64).

    The seed's little-endian 32-bit words are hashed into a pool of four
    (hashmix, then every pool word mixed into every other), words past the
    fourth are mixed into each pool word, and the pool is hashed out again
    as eight 32-bit words, read in pairs as little-endian 64-bit words.
    """
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]


def _unit_stream(seed: int) -> Iterator[float]:
    """The doubles of numpy's default_rng(seed).random(), bit for bit.

    PCG64 (O'Neill 2014): a 128-bit linear congruential state, seeded from
    _seed_words as numpy's pcg64_set_seed does, advanced before each output
    and output through XSL-RR (the two 64-bit halves xored, rotated right
    by the top six bits); each output x gives (x >> 11) * 2^-53 in [0, 1).
    """
    s0, s1, s2, s3 = _seed_words(int(seed))
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        yield (((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0**-53


def make_mu_schedule(scheme: ParameterScheme, n_elements: int) -> np.ndarray:
    """Produce the coupling strengths mu~ for an N-element chain.

    uniform          mu~_i = omega0
    odd-harmonics    mu~_i = i * omega0
    all-harmonics    mu~_{2i-1} = mu~_{2i} = omega0 (N/2 + 1 - i), N even
    random           N independent draws, uniform on (0, omega0*N]

    The random draws are numpy's default_rng(seed).uniform(0, omega0*N, N),
    bit for bit, computed in pure Python (_unit_stream) so that no run
    imports numpy's random module: draw i is (omega0*N) * u_i for the i-th
    double u_i of the seed's PCG64 stream. A draw of exactly 0 is replaced,
    in rounds and in ascending index order, by the next doubles of the same
    stream.
    """
    if not isinstance(n_elements, (int, np.integer)) or n_elements < 1:
        raise InvalidDimensionError(f"n_elements must be a positive integer, got {n_elements!r}")
    n = int(n_elements)
    w0 = float(scheme.omega0)
    if scheme.variant == SCHEME_UNIFORM:
        return np.full(n, w0)
    if scheme.variant == SCHEME_ODD_HARMONICS:
        with np.errstate(over="ignore"):  # build_chain rejects what overflows
            return w0 * np.arange(1, n + 1, dtype=float)
    if scheme.variant == SCHEME_ALL_HARMONICS:
        if n % 2 != 0:
            raise UnsupportedSchemeError(
                f"the all-harmonics schedule is defined for even chain lengths only, got N={n}"
            )
        out = np.empty(n)
        for i in range(1, n // 2 + 1):
            out[2 * i - 2] = out[2 * i - 1] = w0 * (n / 2 + 1 - i)
        return out
    # random variant; the stream is created here and never shared
    if scheme.seed is None:
        raise InvalidParameterError("the random scheme requires a seed")
    stream = _unit_stream(scheme.seed)
    scale = w0 * n
    draws = [scale * next(stream) for _ in range(n)]
    while 0.0 in draws:
        draws = [d if d != 0.0 else scale * next(stream) for d in draws]
    return np.array(draws)


def omegas_from_mu(mu_tilde: np.ndarray) -> np.ndarray:
    """Frequency lineup omega_i = mu~_i + mu~_{i+1}, with omega_N = mu~_N.

    Couplings whose lineup would overflow float64 in the runs are rejected.
    The largest sum of squares a run takes is ||A_a||_F^2 = 8 (|omega|^2 +
    |mu~|^2): every Frobenius norm and the normal-mode matrix K, whose
    entries and eigenvalues are at most 2 omega_max^2, lie below it, so it
    must be finite.
    """
    mt = np.asarray(mu_tilde, dtype=float).reshape(-1)
    if mt.size < 1:
        raise InvalidDimensionError("mu_tilde must have at least one entry")
    if not np.all(np.isfinite(mt)) or np.any(mt <= 0.0):
        raise InvalidParameterError("all coupling strengths must be positive and finite")
    omega = np.empty_like(mt)
    omega[-1] = mt[-1]
    with np.errstate(over="ignore"):
        omega[:-1] = mt[:-1] + mt[1:]
        squares = 8.0 * (omega @ omega + mt @ mt)
    if not np.isfinite(squares):
        raise InvalidParameterError(
            f"coupling strengths up to {mt.max():.6e} overflow float64: "
            f"||A_a||_F^2 = 8 (|omega|^2 + |mu~|^2) is not finite"
        )
    return omega


def build_chain(c_p: np.ndarray, mu_tilde: np.ndarray) -> ChainObserverParams:
    """Construct the observer chain for a plant output row and coupling strengths.

    c_p must be finite and nonzero, with ||c_p||^2 a normal double and
    mu = mu~ / ||c_p||^2 finite, so that mu and x* = alpha / ||alpha||^2
    can be formed; the couplings are checked by omegas_from_mu.
    """
    alpha = np.array(c_p, dtype=float).reshape(-1)
    if alpha.shape != (2,):
        raise InvalidDimensionError(f"plant output must have exactly 2 entries, got {alpha.shape}")
    if not np.all(np.isfinite(alpha)):
        raise InvalidParameterError("plant output c_p must be finite")
    if not np.any(alpha):
        raise DegenerateOutputError("plant output c_p is zero; the chain cannot observe it")
    with np.errstate(over="ignore"):
        norm2 = float(alpha @ alpha)
    if not np.finfo(float).tiny <= norm2 < np.inf:
        flow = "overflows float64" if norm2 == np.inf else "is below float64's normal range"
        raise InvalidParameterError(
            f"plant output c_p = ({alpha[0]:.6e}, {alpha[1]:.6e}) is out of scale: "
            f"||c_p||^2 = {norm2:.6e} {flow}"
        )
    mt = np.asarray(mu_tilde, dtype=float).reshape(-1)
    omega = omegas_from_mu(mt)
    if not np.isfinite(float(mt.max()) / norm2):
        raise InvalidParameterError(
            f"plant output c_p = ({alpha[0]:.6e}, {alpha[1]:.6e}) is too small for coupling "
            f"strengths up to {mt.max():.6e}: mu = mu~ / ||c_p||^2 overflows float64"
        )
    return ChainObserverParams(alpha=alpha, mu_tilde=mt.copy(), omega=omega)


def check_fixed_point(chain: ChainObserverParams) -> float:
    """Residual of the constant-drive fixed point of the observer chain.

    The observer dynamics read x_o' = a_o x_o + b_o z_p with z_p scalar,
    where the drive column b_o is 2 J beta_1 on element 1 (beta_1 =
    -mu_1 alpha) and zero elsewhere. Returns the norm of
    a_o (alpha; ...; alpha) + b_o ||alpha||^2, which is zero exactly when
    the frequency lineup matches the coupling strengths; a_o acts through
    its blocks, O(N). Diagnostic only; never raises on a nonzero residual.
    """
    stack = np.tile(chain.alpha, chain.n_elements)
    norm2 = float(chain.alpha @ chain.alpha)
    beta_1 = -chain.mu[0] * chain.alpha
    b_o = np.zeros(2 * chain.n_elements)
    b_o[0:2] = 2.0 * SYMPLECTIC_UNIT @ beta_1
    return float(np.linalg.norm(chain.observer_dynamics @ stack + b_o * norm2))
