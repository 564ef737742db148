"""The closed-form normal-mode time average and its referees.

time_average_spectral is built from the chain's couplings alone, so it is
held against both other routes: the doubled-block exponential
(time_average_exact) over long and short horizons, and the streamed Simpson
quadrature where its samples resolve the fastest mode. A 40-digit mpmath
exponential of the doubled block, assembled in high precision from the same
chain parameters, referees both closed-form routes for small chains.
"""

from __future__ import annotations

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chainobs as co
from chainobs.simulate import _one_minus_sinc
from conftest import build_system

# Worst relative Frobenius gaps seen over 1,500 random draws of each
# property below, with a margin: 2.1e-11 against the exact route (mostly the
# doubled-block exponential's own error near T = 50), so 1e-10; 3.1e-7
# against Simpson quadrature (its truncation error, largest on 3-interval
# grids where the last-interval correction dominates), so 1e-6.
EXACT_REL_TOL = 1e-10
STREAMED_REL_TOL = 1e-6


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want, ord="fro") / np.linalg.norm(want, ord="fro"))


def random_chain(variant, n, angle, radius, seed):
    if variant == co.SCHEME_ALL_HARMONICS:
        n += n % 2
    c_p = radius * np.array([np.cos(angle), np.sin(angle)])
    return build_system(c_p, variant, 1.0, n, seed=seed if variant == co.SCHEME_RANDOM else None)


chains = st.tuples(
    st.sampled_from(co.SCHEMES),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.floats(min_value=1e-2, max_value=1e2),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(chains, st.floats(min_value=1e-3, max_value=50.0))
def test_matches_the_exact_route(chain_args, horizon):
    chain, aug = random_chain(*chain_args)
    spectral = co.time_average_spectral(chain, horizon)
    exact = co.time_average_exact(aug, horizon)
    assert spectral.horizon == exact.horizon == horizon
    assert spectral.method == "spectral-normal-mode"
    assert relative_gap(spectral.averaged_rows, exact.averaged_rows) <= EXACT_REL_TOL


@settings(max_examples=30, deadline=None)
@given(chains, st.integers(min_value=2, max_value=400))
def test_matches_streamed_quadrature_on_resolved_horizons(chain_args, intervals):
    """Short horizons of 2-400 auto steps, where Simpson's rule is in its regime."""
    chain, aug = random_chain(*chain_args)
    horizon = intervals * co.default_step(aug)
    streamed = co.time_average_streamed(aug, horizon)
    spectral = co.time_average_spectral(chain, streamed.horizon)
    assert relative_gap(spectral.averaged_rows, streamed.averaged_rows) <= STREAMED_REL_TOL


def test_one_minus_sinc_does_not_cancel():
    """The plant weight's 1 - sin(x)/x keeps full relative precision as x -> 0."""
    x = np.logspace(-8, 2, 301)
    with mpmath.workdps(40):
        want = np.array([float(1 - mpmath.sin(mpmath.mpf(v)) / mpmath.mpf(v)) for v in x])
    assert np.all(np.abs(_one_minus_sinc(x) - want) <= 2e-15 * want)


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
def test_rejects_bad_horizons(example_system, horizon):
    chain, _ = example_system
    with pytest.raises(co.InvalidParameterError):
        co.time_average_spectral(chain, horizon)


def test_rejects_an_indefinite_chain(example_system):
    """Frequencies that do not dominate the couplings leave no normal modes."""
    chain, _ = example_system
    with pytest.raises(co.NotPositiveDefiniteError) as failure:
        co.time_average_spectral(dataclasses.replace(chain, omega=np.ones(chain.n_elements)), 1.0)
    assert failure.value.lambda_min < 0.0


def mpmath_time_average(chain: co.ChainObserverParams, horizon: float) -> np.ndarray:
    """(1/T) C_a int_0^T exp(A_a s) ds at 40 digits, from alpha, mu~ and omega.

    Assembles R_a, A_a = 2 Theta R_a and the doubled block [[A_a, I], [0, 0]]
    in mpmath from the chain's float parameters taken as exact, so neither
    the assembly nor the exponential rounds at double precision. At T = 800
    the rounded rows of a 50-digit run differ from these by under 1e-41
    relative.
    """
    with mpmath.workdps(40):
        n = chain.n_elements
        dim = 2 * n + 2
        alpha = [mpmath.mpf(float(a)) for a in chain.alpha]
        norm2 = alpha[0] ** 2 + alpha[1] ** 2
        r = mpmath.zeros(dim, dim)
        for i in range(n):
            lo, row = 2 * (i + 1), 2 * i
            r[lo, lo] = r[lo + 1, lo + 1] = mpmath.mpf(float(chain.omega[i]))
            mu = mpmath.mpf(float(chain.mu_tilde[i])) / norm2
            for a in range(2):
                for b in range(2):
                    r[row + a, lo + b] = r[lo + b, row + a] = -mu * alpha[a] * alpha[b]
        doubled = mpmath.zeros(2 * dim, 2 * dim)
        for k in range(0, dim, 2):
            for j in range(dim):
                doubled[k, j] = 2 * r[k + 1, j]
                doubled[k + 1, j] = -2 * r[k, j]
        for j in range(dim):
            doubled[j, dim + j] = 1
        t = mpmath.mpf(float(horizon))
        block = mpmath.expm(doubled * t)
        rows = np.empty((n + 1, dim))
        for i in range(n + 1):
            for j in range(dim):
                integral = alpha[0] * block[2 * i, dim + j] + alpha[1] * block[2 * i + 1, dim + j]
                rows[i, j] = float(integral / t)
        return rows


@pytest.mark.parametrize("horizon", [0.5, 50.0, 800.0])
@pytest.mark.parametrize(
    "c_p,variant,n,seed",
    [
        ([1.0, 0.0], "uniform", 1, None),
        ([-0.4, 2.2], "all-harmonics", 2, None),
        ([1.3, 0.7], "odd-harmonics", 3, None),
        ([0.6, -1.3], "random", 4, 11),
    ],
)
def test_mpmath_referee(c_p, variant, n, seed, horizon):
    """The spectral route is within 1e-12 of 40-digit arithmetic at every horizon;
    the doubled-block route drifts with T ||A_a|| but stays within 1e-9 here."""
    chain, aug = build_system(c_p, variant, 1.0, n, seed=seed)
    referee = mpmath_time_average(chain, horizon)
    assert relative_gap(co.time_average_spectral(chain, horizon).averaged_rows, referee) <= 1e-12
    assert relative_gap(co.time_average_exact(aug, horizon).averaged_rows, referee) <= 1e-9
