"""Chain-coupled distributed observers for closed linear quantum networks.

Construct an N-element observer chain that couples directly to a one-mode
static plant, from the plant output row c_p and the coupling strengths mu~
alone (build_chain(c_p, mu_tilde)), and certify the construction: the
internal energy matrix must be positive definite and the dynamics
physically realizable, with the frequency lineup pinned by a constant-drive
fixed point. The chain is the plant+observer system: it holds R_a and A_a
as its 2 x 2 blocks alone (chain.hamiltonian, chain.dynamics), and the
certificates work from them and from its N x N reduced matrix. The
simulation layer then
evaluates the coefficient rows C_a exp(A_a t), and their time averages, in
closed form from the chain's normal modes to demonstrate time-averaged
consensus of the observer outputs onto the plant output.

Importing chainobs sets ``OPENBLAS_THREAD_TIMEOUT=22`` in the environment
unless it is already set, so that numpy's BLAS worker thread sleeps after
about 2 ms idle instead of spinning for about 128 ms (at 2.1 GHz); a user's
own value wins, and the default has no effect if numpy was imported first.
"""

import os

# OpenBLAS reads this once, when numpy first loads it. Its default, 2^28
# cycles (about 128 ms at 2.1 GHz), keeps a worker spinning after each
# threaded product for longer than a whole N=50 run. 2^22 cycles (about
# 2 ms) still outlasts the gap between back-to-back products in the
# library's loops, so those never pay a wake-up; thread counts, and so
# every result, are unchanged.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")

from .analysis import (
    build_reduced,
    certify_positive_definite,
    observer_certificate,
    verify_mode_generator,
)
from .builder import ParameterScheme, build_chain, make_mu_schedule
from .errors import (
    ChainobsError,
    ConfigError,
    ConfigSchemaError,
    ConfigValidationError,
    DegenerateOutputError,
    InvalidDimensionError,
    InvalidInputError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    ToleranceExceededError,
    UnsupportedSchemeError,
)
from .lqs import BlockTridiagonal
from .simulate import (
    TimeGrid,
    coefficient_trajectory,
    consensus_error,
    default_step,
    identity_residuals,
    normal_modes,
    time_average_spectral,
    verify_trajectory,
)

__version__ = "0.1.0"

# What README's "Library use" shows or names, and the errors; every other
# name imports from its own module. The config and report names stay in
# chainobs.cli, which the package does not import: `python -m chainobs.cli`
# would then find it imported and warn.
__all__ = [
    "BlockTridiagonal",
    "ChainobsError",
    "ConfigError",
    "ConfigSchemaError",
    "ConfigValidationError",
    "DegenerateOutputError",
    "InvalidDimensionError",
    "InvalidInputError",
    "InvalidParameterError",
    "NotPositiveDefiniteError",
    "NumericalFailureError",
    "ParameterScheme",
    "TimeGrid",
    "ToleranceExceededError",
    "UnsupportedSchemeError",
    "build_chain",
    "build_reduced",
    "certify_positive_definite",
    "coefficient_trajectory",
    "consensus_error",
    "default_step",
    "identity_residuals",
    "make_mu_schedule",
    "normal_modes",
    "observer_certificate",
    "time_average_spectral",
    "verify_mode_generator",
    "verify_trajectory",
]
