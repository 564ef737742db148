"""The closed-form normal-mode time average, its end rows and their referees.

time_average_spectral is built from the chain's couplings alone, so it is
held against the oracle route that works from the assembled A_a, the
doubled-block exponential (time_average_exact), over long and short
horizons. The two identities of identity_residuals must hold on every
ladder horizon. A 40-digit mpmath exponential of the doubled block,
assembled in high precision from the same chain parameters, referees the
averages and the end rows C_a Phi(T) for small chains, and an exponential
of its observer block referees check's exponential-bound sweep.
"""

from __future__ import annotations

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chainobs as co
from chainobs import analysis
from chainobs.cli import EXP_BOUND_SAMPLES, EXP_BOUND_SPAN, ORACLE_REL_TOL
from chainobs.simulate import _one_minus_sinc
from conftest import build_system
from oracles import observer_hamiltonian, output_matrix, propagator, time_average_exact

# Worst relative Frobenius gap seen over 1,500 random draws of the property
# below, with a margin: 2.1e-11 against the exact route (mostly the
# doubled-block exponential's own error near T = 50), so 1e-10.
EXACT_REL_TOL = 1e-10


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want, ord="fro") / np.linalg.norm(want, ord="fro"))


def random_chain(variant, n, angle, radius, seed):
    if variant == co.SCHEME_ALL_HARMONICS:
        n += n % 2
    c_p = radius * np.array([np.cos(angle), np.sin(angle)])
    return build_system(c_p, variant, 1.0, n, seed=seed if variant == co.SCHEME_RANDOM else None)


def chains(max_n: int = 12):
    return st.tuples(
        st.sampled_from(co.SCHEMES),
        st.integers(min_value=1, max_value=max_n),
        st.floats(min_value=0.0, max_value=2.0 * np.pi),
        st.floats(min_value=1e-2, max_value=1e2),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


@settings(max_examples=60, deadline=None)
@given(chains(), st.floats(min_value=1e-3, max_value=50.0))
def test_matches_the_exact_route(chain_args, horizon):
    chain = random_chain(*chain_args)
    spectral = co.time_average_spectral(co.normal_modes(chain), horizon)
    exact = time_average_exact(chain, horizon)
    assert spectral.horizon == exact.horizon == horizon
    assert relative_gap(spectral.averaged_rows, exact.averaged_rows) <= EXACT_REL_TOL


@settings(max_examples=60, deadline=None)
@given(chains(max_n=40), st.floats(min_value=1e-2, max_value=1e4))
def test_identities_hold_on_the_whole_ladder(chain_args, horizon):
    """Each identity stays within timeavg's bound at every ladder horizon, not just T/16."""
    chain = random_chain(*chain_args)
    modes = co.normal_modes(chain)
    for t in (horizon / 16, horizon / 8, horizon / 4, horizon / 2, horizon):
        avg = co.time_average_spectral(modes, t)
        bound = ORACLE_REL_TOL * np.linalg.norm(avg.averaged_rows, ord="fro")
        drift, consensus = co.identity_residuals(modes, avg)
        assert drift <= bound and consensus <= bound


def test_one_minus_sinc_does_not_cancel():
    """The plant weight's 1 - sin(x)/x keeps full relative precision as x -> 0."""
    x = np.logspace(-8, 2, 301)
    with mpmath.workdps(40):
        want = np.array([float(1 - mpmath.sin(mpmath.mpf(v)) / mpmath.mpf(v)) for v in x])
    assert np.all(np.abs(_one_minus_sinc(x) - want) <= 2e-15 * want)


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
def test_rejects_bad_horizons(example_system, horizon):
    modes = co.normal_modes(example_system)
    with pytest.raises(co.InvalidParameterError):
        co.time_average_spectral(modes, horizon)
    with pytest.raises(co.InvalidParameterError):
        co.end_rows(modes, horizon)


def test_rejects_an_indefinite_chain(example_system):
    """Frequencies that do not dominate the couplings leave no normal modes."""
    chain = example_system
    with pytest.raises(co.NotPositiveDefiniteError) as failure:
        co.normal_modes(dataclasses.replace(chain, omega=np.ones(chain.n_elements)))
    assert failure.value.lambda_min < 0.0


def mpmath_energy(chain: co.ChainObserverParams) -> mpmath.matrix:
    """R_a in mpmath from the chain's float parameters taken as exact; call
    inside mpmath.workdps, so the assembly does not round at double precision."""
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
    return r


def mpmath_dynamics(r: mpmath.matrix, size: int) -> mpmath.matrix:
    """2 Theta r, padded with zeros to size x size; doubling and swapping are exact."""
    a = mpmath.zeros(size, size)
    for k in range(0, r.rows, 2):
        for j in range(r.cols):
            a[k, j] = 2 * r[k + 1, j]
            a[k + 1, j] = -2 * r[k, j]
    return a


def mpmath_rows(chain: co.ChainObserverParams, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """(1/T) C_a int_0^T exp(A_a s) ds and C_a exp(A_a T) at 40 digits, from alpha, mu~ and omega.

    Assembles R_a, A_a = 2 Theta R_a and the doubled block [[A_a, I], [0, 0]]
    in mpmath from the chain's float parameters taken as exact, so neither
    the assembly nor the exponential rounds at double precision. The
    exponential holds exp(A_a T) as its upper-left block and the integral as
    its upper-right one. At T = 800 the rounded rows of a 50-digit run
    differ from these by under 1e-41 relative.
    """
    with mpmath.workdps(40):
        n = chain.n_elements
        dim = 2 * n + 2
        alpha = [mpmath.mpf(float(a)) for a in chain.alpha]
        doubled = mpmath_dynamics(mpmath_energy(chain), 2 * dim)
        for j in range(dim):
            doubled[j, dim + j] = 1
        t = mpmath.mpf(float(horizon))
        block = mpmath.expm(doubled * t)
        averaged = np.empty((n + 1, dim))
        end = np.empty((n + 1, dim))
        for i in range(n + 1):
            for j in range(dim):
                integral = alpha[0] * block[2 * i, dim + j] + alpha[1] * block[2 * i + 1, dim + j]
                averaged[i, j] = float(integral / t)
                end[i, j] = float(alpha[0] * block[2 * i, j] + alpha[1] * block[2 * i + 1, j])
        return averaged, end


@pytest.mark.parametrize("horizon", [0.5, 50.0, 800.0])
@pytest.mark.parametrize(
    "c_p,variant,n,seed",
    [
        ([1.0, 0.0], "uniform", 1, None),
        ([-0.4, 2.2], "all-harmonics", 2, None),
        ([1.3, 0.7], "odd-harmonics", 3, None),
        ([0.6, -1.3], "random", 4, 11),
        ([1.0, 0.0], "odd-harmonics", 5, None),
    ],
)
def test_mpmath_referee(c_p, variant, n, seed, horizon):
    """Errors against 40-digit arithmetic. The closed-form average stays within 1e-12
    at every horizon (worst seen 4.7e-15). Its end rows carry each eigenvalue's
    rounding into the phase nu T, so they drift with T, to 2.1e-12 at T = 800:
    pinned at 1e-10. The doubled-block average and the oracle's exponential
    drift with T ||A_a|| (worst 1.5e-10 and 1.6e-10) and stay within 1e-9."""
    chain = build_system(c_p, variant, 1.0, n, seed=seed)
    averaged, end = mpmath_rows(chain, horizon)
    modes = co.normal_modes(chain)
    assert relative_gap(co.time_average_spectral(modes, horizon).averaged_rows, averaged) <= 1e-12
    assert relative_gap(co.end_rows(modes, horizon), end) <= 1e-10
    assert relative_gap(time_average_exact(chain, horizon).averaged_rows, averaged) <= 1e-9
    direct = output_matrix(chain) @ propagator(chain.dynamics.dense(), horizon)
    assert relative_gap(direct, end) <= 1e-9


def spectral_norm(phi: np.ndarray) -> float:
    return float(np.sqrt(np.linalg.eigvalsh(phi.T @ phi)[-1]))


@pytest.mark.parametrize(
    "c_p,variant,n,seed",
    [
        ([1.0, 0.0], "uniform", 1, None),
        ([-0.4, 2.2], "all-harmonics", 2, None),
        ([1.3, 0.7], "odd-harmonics", 3, None),
        ([0.6, -1.3], "random", 4, 11),
        ([1.0, 0.0], "odd-harmonics", 5, None),
    ],
)
def test_sweep_maximum_referee(c_p, variant, n, seed, monkeypatch):
    """check's sweep maximum against 40-digit exponentials of A_o = 2 Theta R_o.

    On check's grid (500 samples in [0, 50]) the engine takes the oracle
    exponential of one step h and its powers, Phi(k h) = exp(A_o h)^k. The
    referee takes the four visited samples with the largest closed-form
    norms and the engine's largest sample. The closed form's maximum is
    within 1e-14 of the referee's (worst seen 4.2e-15) and the engine's
    within 1e-13 (8.1e-15). At single samples both stray further, the
    closed form through each eigenvalue's rounding in the phase nu t and the
    engine through the recurrence: both within 1e-12 (worst seen 4.2e-15
    and 1.1e-14). One exponential per sample strays further still: at
    N = 1 and t = 34, ||exp(A_o t)||_2 comes out 1.4e-12 above one."""
    chain = build_system(c_p, variant, 1.0, n, seed=seed)
    modes = co.normal_modes(chain)
    grid = co.TimeGrid.from_count(EXP_BOUND_SPAN, EXP_BOUND_SAMPLES)
    visited = []
    form = analysis.ObserverFlow.propagator
    monkeypatch.setattr(
        analysis.ObserverFlow, "propagator", lambda flow, k: visited.append(k) or form(flow, k)
    )
    observed = co.verify_exp_bound(
        modes, co.certify_positive_definite(observer_hamiltonian(chain)).exp_norm_bound, grid
    )
    monkeypatch.undo()
    flow = analysis.observer_flow(modes, grid)
    closed = {k: spectral_norm(flow.propagator(k)) for k in visited}
    step = propagator(chain.dynamics.dense()[2:, 2:], grid.step)
    phi = np.eye(2 * n)
    engine = []
    for _ in range(grid.samples):
        engine.append(spectral_norm(phi))
        phi = step @ phi
    samples = sorted(visited, key=closed.get)[-4:] + [int(np.argmax(engine))]
    referee = {}
    with mpmath.workdps(40):
        a_o = mpmath_dynamics(mpmath_energy(chain)[2:, 2:], 2 * n)
        for k in samples:
            phi = mpmath.expm(a_o * mpmath.mpf(float(grid.times()[k])))
            referee[k] = float(mpmath.sqrt(max(mpmath.eigsy(phi.T * phi, eigvals_only=True))))
    top = max(referee.values())
    assert abs(observed - top) <= 1e-14 * top
    assert abs(max(engine) - top) <= 1e-13 * top
    for k, want in referee.items():
        assert abs(spectral_norm(flow.propagator(k)) - want) <= 1e-12 * want
        assert abs(engine[k] - want) <= 1e-12 * want
