from __future__ import annotations

import contextlib
import dataclasses
import logging
import math
import re
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chainobs as co
from chainobs import builder, lqs, simulate
from chainobs.cli import ORACLE_REL_TOL
from conftest import build_system
from oracles import (
    integral_of_propagator,
    max_frequency,
    output_matrix,
    propagator,
    rotation,
    symplectic_matrix,
    time_average_exact,
)
from test_spectral import EXACT_REL_TOL, relative_gap


def static_chain(n_elements: int = 1) -> builder.ChainObserverParams:
    """A hand-built chain with zero dynamics, for edge cases."""
    zeros = np.zeros(n_elements)
    chain = builder.ChainObserverParams(alpha=np.array([1.0, 0.0]), mu_tilde=zeros, omega=zeros)
    assert not chain.dynamics.dense().any()
    return chain


# 1-norm bands, one per Pade degree 3, 5, 7, 9 and 13 that scipy's expm
# picks (Al-Mohy & Higham 2009, theta_3 to theta_13) and one that scales and
# squares
EXPM_THETAS = [1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
               2.097847961257068e0, 5.371920351148152e0]
NORM_BANDS = list(zip([1e-4, *EXPM_THETAS], [*EXPM_THETAS, 1e3]))
BAND_IDS = ["3", "5", "7", "9", "13", "squared"]

# Chains of three shapes, each with a horizon: a long odd-harmonics run, a
# random lineup under a vertical plant row, and a fast uniform chain
# (omega0 = 2) over a horizon of a few default steps.
CHAINS = [
    pytest.param([1.0, 0.0], "odd-harmonics", 1.0, 5, None, 20.0, id="odd-harmonics-5-T20"),
    pytest.param([0.0, 2.0], "random", 1.0, 4, 9, 3.7, id="random-4-T3.7"),
    pytest.param([1.0, 0.0], "uniform", 2.0, 3, None, 0.05, id="uniform-3-T0.05"),
]
# and the reference chain over a short horizon
CHAINS_AND_REFERENCE = [
    *CHAINS,
    pytest.param([1.0, 0.0], "odd-harmonics", 1.0, 5, None, 2.0, id="odd-harmonics-5-T2"),
]


def hamiltonian_dynamics(rng: np.random.Generator, band: tuple[float, float]) -> np.ndarray:
    """Random dynamics 2 Theta R on 1-4 modes, R positive definite, scaled to
    a 1-norm inside the band."""
    n_modes = int(rng.integers(1, 5))
    q, _ = np.linalg.qr(rng.standard_normal((2 * n_modes, 2 * n_modes)))
    r = (q * rng.uniform(1.0, 4.0, 2 * n_modes)) @ q.T
    a = 2.0 * symplectic_matrix(n_modes) @ (0.5 * (r + r.T))
    low, high = band
    return a * (low * (high / low) ** rng.uniform() / np.linalg.norm(a, 1))


def mpmath_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) in 40-digit arithmetic, rounded to floats."""
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=float)


def trajectory_case(c_p, variant, omega0, n, seed, horizon):
    """A chain, and the times and rows of its trajectory on the default-step grid."""
    chain = build_system(c_p, variant, omega0, n, seed=seed)
    modes = co.normal_modes(chain)
    grid = co.TimeGrid.covering(horizon, co.default_step(modes))
    return chain, *co.coefficient_trajectory(modes, grid)


class TestTimeGrid:
    def test_basic_properties(self):
        grid = co.TimeGrid(t_end=1.0, step=0.25)
        assert grid.samples == 5
        assert np.array_equal(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize(
        "t_end,step",
        [
            (-1.0, 0.5),
            (0.0, 0.5),
            (1.0, 0.0),
            (1.0, -0.1),
            (1.0, 0.3),
            (math.inf, 1.0),
            (1.0, math.nan),
        ],
    )
    def test_rejects_bad_grids(self, t_end, step):
        with pytest.raises(co.InvalidParameterError):
            co.TimeGrid(t_end=t_end, step=step)

    def test_covering_shrinks_to_divide(self):
        grid = co.TimeGrid.covering(1.0, 0.3)
        assert grid.step == 0.25
        assert grid.samples == 5

    def test_covering_keeps_exact_step(self):
        grid = co.TimeGrid.covering(2.0, 0.5)
        assert grid.step == 0.5

    def test_covering_rejects_bad_step(self):
        with pytest.raises(co.InvalidParameterError):
            co.TimeGrid.covering(1.0, 0.0)

    @pytest.mark.parametrize("step", [1e-10, 1e-300, 5e-324])
    def test_rejects_a_span_of_infinitely_many_steps(self, step):
        """1e300 / step overflows to inf, which no grid can count."""
        with pytest.raises(co.InvalidParameterError, match="not a finite number of intervals"):
            co.TimeGrid.covering(1e300, step)
        with pytest.raises(co.InvalidParameterError, match="not a finite number of intervals"):
            co.TimeGrid(t_end=1e300, step=step)

    def test_from_count(self):
        grid = co.TimeGrid.from_count(math.pi, 201)
        assert grid.samples == 201
        assert grid.times()[-1] == pytest.approx(math.pi, abs=1e-15)

    def test_from_count_needs_two_samples(self):
        with pytest.raises(co.InvalidParameterError):
            co.TimeGrid.from_count(1.0, 1)

    @given(
        span=st.floats(min_value=1e-2, max_value=1e4),
        max_step=st.floats(min_value=1e-4, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_covering_never_exceeds_requested_step(self, span, max_step):
        grid = co.TimeGrid.covering(span, max_step)
        assert grid.step <= max_step
        assert grid.t_end == span
        assert grid.samples >= 2


class TestPropagator:
    def test_zero_dynamics_give_identity(self):
        assert np.array_equal(propagator(np.zeros((3, 3)), 5.0), np.eye(3))

    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 7.5, 50.0])
    def test_single_mode_matches_rotation(self, t):
        a = 2.0 * lqs.SYMPLECTIC_UNIT
        assert np.allclose(propagator(a, t), rotation(2.0 * t), rtol=0.0, atol=1e-13)

    def test_semigroup_property(self, example_system):
        chain = example_system
        a_a = chain.dynamics.dense()
        phi_a = propagator(a_a, 1.3)
        phi_b = propagator(a_a, 2.4)
        phi_ab = propagator(a_a, 3.7)
        assert np.allclose(phi_b @ phi_a, phi_ab, rtol=0.0, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(co.InvalidDimensionError):
            propagator(np.zeros((2, 3)), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(co.InvalidInputError):
            propagator(np.array([[np.nan]]), 1.0)
        with pytest.raises(co.InvalidInputError):
            propagator(np.zeros((2, 2)), math.inf)

    def test_overflow_is_an_error(self):
        with pytest.raises(co.NumericalFailureError):
            propagator(np.array([[700.0]]), 10.0)
        with pytest.raises(co.NumericalFailureError):
            propagator(np.array([[1e300]]), 1e10)

    @pytest.mark.parametrize("index", range(len(NORM_BANDS)), ids=BAND_IDS)
    def test_matches_the_mpmath_referee(self, index):
        """Three draws of random Hamiltonian dynamics in each norm band against
        a 40-digit exponential. Worst gap seen over 900 draws: 1.7e-14 *
        max(1, ||a||_1) relative, so 1e-13."""
        rng = np.random.default_rng(index)
        for _ in range(3):
            a = hamiltonian_dynamics(rng, NORM_BANDS[index])
            want = mpmath_exponential(a)
            gap = np.linalg.norm(propagator(a, 1.0) - want) / np.linalg.norm(want)
            assert gap <= 1e-13 * max(1.0, np.linalg.norm(a, 1))


class TestFrequencies:
    def test_single_rotation(self):
        assert abs(max_frequency(2.0 * lqs.SYMPLECTIC_UNIT) - 2.0) <= 1e-14

    def test_reference_regression(self, example_system):
        chain = example_system
        assert np.isclose(max_frequency(chain.dynamics.dense()), 21.095207100132644, rtol=1e-12)
        assert np.isclose(co.normal_modes(chain).nu[-1], 21.095207100132644, rtol=1e-12)

    def test_default_step_resolves_fastest_mode(self, example_system):
        chain = example_system
        step = co.default_step(co.normal_modes(chain))
        period = 2.0 * math.pi / max_frequency(chain.dynamics.dense())
        assert np.isclose(step, 0.005 * period, rtol=1e-15)

    def test_default_step_rejects_a_chain_without_normal_modes(self, example_system):
        """Frequencies that do not dominate the couplings leave nothing to resolve."""
        chain = example_system
        with pytest.raises(co.NotPositiveDefiniteError):
            co.default_step(co.normal_modes(dataclasses.replace(chain, omega=np.ones(chain.n_elements))))


def normal_mode_matrix(variant: str, n: int, seed: int | None = None):
    """Diagonal and off-diagonal of K for a chain of the scheme, as normal_modes forms them."""
    chain = build_system([0.6, -1.3], variant, 1.0, n, seed=seed)
    root = np.sqrt(chain.omega)
    return chain.omega**2, -chain.mu_tilde[1:] * root[:-1] * root[1:]


def thread_count() -> int:
    control = simulate._openblas_threads()
    if control is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be reached")
    return control[1]()


def same_bits(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> bool:
    return all(np.array_equal(x.view(np.uint64), y.view(np.uint64)) for x, y in zip(a, b))


EIGH_ORDERS = [26, 64, 100, simulate.ONE_THREAD_MAX_N, 200]


class TestOneThreadEigensolve:
    """The eigensolve runs on one BLAS thread up to ONE_THREAD_MAX_N,
    with the same bits as numpy's threaded call."""

    @pytest.mark.parametrize("variant, n, seed", [
        *[(variant, n, 3 if variant == builder.SCHEME_RANDOM else None)
          for variant in builder.SCHEMES for n in EIGH_ORDERS],
        # on two cores its eigenvectors on one thread differ in the last bits
        (builder.SCHEME_RANDOM, 283, 2),
    ])
    def test_bits_are_the_threaded_eigensolves(self, monkeypatch, variant, n, seed):
        d, e = normal_mode_matrix(variant, n, seed=seed)
        scoped = simulate._eigh_tridiagonal(d, e)
        monkeypatch.setattr(simulate, "_one_blas_thread", lambda n: contextlib.nullcontext())
        assert same_bits(scoped, simulate._eigh_tridiagonal(d, e))

    @pytest.mark.parametrize("n", EIGH_ORDERS)
    def test_bits_without_the_thread_control(self, monkeypatch, n):
        d, e = normal_mode_matrix(builder.SCHEME_RANDOM, n, seed=11)
        scoped = simulate._eigh_tridiagonal(d, e)
        monkeypatch.setattr(simulate, "_openblas_threads", lambda: None)
        assert simulate._blas_threads(n) is None
        assert same_bits(scoped, simulate._eigh_tridiagonal(d, e))

    def test_numpy_openblas_is_reached(self):
        """A lookup that finds nothing would keep every output and silently
        give the stall back, so on numpy's own OpenBLAS it must succeed."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy is built against {blas.get('name')}")
        assert simulate._openblas_threads() is not None

    @pytest.mark.parametrize("n", [26, simulate.ONE_THREAD_MAX_N + 1])
    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_thread_count_is_restored(self, monkeypatch, n, raises):
        before = thread_count()
        seen = []
        eigh = np.linalg.eigh

        def watched(k):
            seen.append(thread_count())
            if raises:
                raise np.linalg.LinAlgError("synthetic failure")
            return eigh(k)

        monkeypatch.setattr(np.linalg, "eigh", watched)
        d, e = normal_mode_matrix(builder.SCHEME_UNIFORM, n)
        if raises:
            with pytest.raises(np.linalg.LinAlgError):
                simulate._eigh_tridiagonal(d, e)
        else:
            simulate._eigh_tridiagonal(d, e)
        assert seen == [1 if n <= simulate.ONE_THREAD_MAX_N else before]
        assert thread_count() == before

    def test_concurrent_scopes_restore_the_count(self):
        """Eigensolves from more threads than cores, switching often, leave
        OpenBLAS's count as it was: no scope restores another's limit."""
        before = thread_count()
        d, e = normal_mode_matrix(builder.SCHEME_UNIFORM, 26)
        errors = []

        def solve():
            try:
                for _ in range(50):
                    simulate._eigh_tridiagonal(d, e)
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=solve) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers) and not errors
        assert thread_count() == before

    def test_info_line_names_the_threads(self, monkeypatch, caplog):
        threads = thread_count()
        caplog.set_level(logging.INFO, logger="chainobs.simulate")
        for n in (26, 200):
            co.normal_modes(build_system([1.0, 0.0], builder.SCHEME_ODD_HARMONICS, 1.0, n))
        monkeypatch.setattr(simulate, "_openblas_threads", lambda: None)
        co.normal_modes(build_system([1.0, 0.0], builder.SCHEME_ODD_HARMONICS, 1.0, 26))
        plural = "s" if threads > 1 else ""
        assert [r.getMessage().split(", eigensolve on ")[1] for r in caplog.records] == [
            "1 BLAS thread", f"{threads} BLAS thread{plural}", "numpy's default BLAS threads"]


class TestTrajectory:
    def test_first_sample_is_the_output_matrix(self, example_system):
        """At t = 0 the closed form is Omega^(1/2) V V^T Omega^(-1/2), the
        identity to rounding: within 1e-15 of C_a on the README config."""
        chain = example_system
        grid = co.TimeGrid(1.0, 0.01)
        _, rows = co.coefficient_trajectory(co.normal_modes(chain), grid)
        assert rows.shape == (101, 6, 12)
        assert np.abs(rows[0] - output_matrix(chain)).max() <= 1e-15

    @pytest.mark.parametrize("variant", builder.SCHEMES)
    def test_first_sample_on_every_scheme(self, variant):
        """The first row is within 1e-14 of C_a on every scheme up to N = 200
        with ||c_p|| = 2 (worst seen 4.7e-15, random N=200)."""
        c_p = 2.0 * np.array([np.cos(0.7), np.sin(0.7)])
        for n in (1, 2, 12, 50, 199, 200):
            if variant == builder.SCHEME_ALL_HARMONICS and n % 2:
                continue
            seed = 5 if variant == builder.SCHEME_RANDOM else None
            chain = build_system(c_p, variant, 1.0, n, seed=seed)
            _, rows = co.coefficient_trajectory(co.normal_modes(chain), co.TimeGrid(1.0, 1.0))
            assert np.abs(rows[0] - output_matrix(chain)).max() <= 1e-14, n

    def test_last_sample_is_end_rows_bit_for_bit(self, example_system):
        """Rows evaluated in chunks take the arithmetic of a single end_rows call."""
        chain = example_system
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.covering(20.0, co.default_step(modes))
        assert grid.samples > 2 * simulate.TRAJECTORY_CHUNK
        times, rows = co.coefficient_trajectory(modes, grid)
        assert times[-1] == 20.0
        for k in (1, simulate.TRAJECTORY_CHUNK, grid.samples - 1):
            assert np.array_equal(rows[k], simulate.end_rows(modes, times[k]))

    def test_chunk_temporaries_are_bounded_in_bytes(self):
        """Up to N = 63 a chunk holds 512 times. At N = 200 a row takes
        631 KiB, so a chunk holds 51 times: beyond the stored rows, the peak
        stays within four chunk budgets, 128 MiB (about 3 here, where 101
        times in one chunk took about 6)."""
        assert simulate._chunk_times(63) == 512 > simulate._chunk_times(64)
        assert simulate._chunk_times(200) == 51
        chain = build_system([0.6, -1.3], "odd-harmonics", 1.0, 200)
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.from_count(0.5, 101)
        tracemalloc.start()
        try:
            times, rows = co.coefficient_trajectory(modes, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - rows.nbytes < 4 * simulate.TRAJECTORY_CHUNK_BYTES
        simulate.verify_trajectory(modes, times, rows)

    @pytest.mark.parametrize("c_p,variant,omega0,n,seed,horizon", CHAINS_AND_REFERENCE)
    def test_rows_match_direct_exponentials(self, c_p, variant, omega0, n, seed, horizon):
        """At the second, middle and last sample. Worst gap seen 2.4e-13 (T = 20)."""
        chain, times, rows = trajectory_case(c_p, variant, omega0, n, seed, horizon)
        c_a, a_a = output_matrix(chain), chain.dynamics.dense()
        scale = np.linalg.norm(c_a, ord="fro")
        for k in (1, times.size // 2, times.size - 1):
            direct = c_a @ propagator(a_a, times[k])
            drift = np.linalg.norm(rows[k] - direct, ord="fro")
            assert drift <= 1e-11 * scale

    def test_plant_row_is_constant(self, example_system):
        """The plant output row never moves: its coefficient row at every
        sample is the initial output functional, exactly."""
        chain = example_system
        grid = co.TimeGrid(50.0, 0.5)
        _, rows = co.coefficient_trajectory(co.normal_modes(chain), grid)
        plant_row = output_matrix(chain)[0]
        assert np.array_equal(
            rows[:, 0, :],
            np.broadcast_to(plant_row, (grid.samples, plant_row.size)),
        )


class TestVerifyTrajectory:
    """verify_trajectory holds the rows to rows(t) x* = 1 at every sample and
    rows'(t) = rows(t) A_a at every chunk's last sample."""

    @pytest.mark.parametrize(
        "c_p,variant,n,seed",
        [
            ([1.0, 0.0], "odd-harmonics", 5, None),
            ([0.6, -1.3], "random", 12, 7),
            ([1.0, 0.0], "uniform", 40, None),
        ],
    )
    def test_true_rows_pass(self, c_p, variant, n, seed):
        chain = build_system(c_p, variant, 1.0, n, seed=seed)
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.covering(3.0, co.default_step(modes))
        co.verify_trajectory(modes, *co.coefficient_trajectory(modes, grid))

    @pytest.mark.parametrize("variant", builder.SCHEMES)
    def test_rounding_stays_far_below_the_tolerance(self, variant):
        """Measured as verify_trajectory measures them, rounding leaves at
        most 2e-12 on (i) and 1e-14 on (ii), relative, on every scheme up to
        N = 200 and T = 12,800 with ||c_p|| = 2 (worst seen 8.2e-13 and
        2.5e-15), far inside TRAJECTORY_REL_TOL."""
        c_p = 2.0 * np.array([np.cos(0.7), np.sin(0.7)])
        for n in (1, 2, 12, 50, 199, 200):
            if variant == builder.SCHEME_ALL_HARMONICS and n % 2:
                continue
            chain = build_system(c_p, variant, 1.0, n,
                                 seed=5 if variant == builder.SCHEME_RANDOM else None)
            modes = co.normal_modes(chain)
            x_star, a_a = chain.x_star, chain.dynamics.dense()
            for horizon in (8.0, 800.0, 12800.0):
                grid = co.TimeGrid.from_count(horizon, 9)
                times, rows = co.coefficient_trajectory(modes, grid)
                scale = np.abs(rows).sum(axis=2).max(axis=1)
                x_star_residual = np.abs(rows @ x_star - 1.0).max(axis=1) / scale
                assert x_star_residual.max() <= 2e-12 * np.abs(x_star).max(), (n, horizon)
                for t, row, row_scale in zip(times, rows, scale):
                    derivative = simulate._rows(modes, *simulate._derivative_weights(modes, t))
                    drift = np.abs(derivative[1:] - row[1:] @ a_a).sum(axis=1).max()
                    assert drift <= 1e-14 * row_scale * np.abs(a_a).sum(axis=1).max(), (n, t)

    @pytest.mark.parametrize(
        "mutant,message",
        [("plant", "x* identity"), ("p", "derivative identity"), ("q", "x* identity")],
    )
    def test_weight_mutants_fail(self, example_system, monkeypatch, mutant, message):
        """A 1e-6 error in the plant or q(0) weights breaks identity (i), a sign
        flip of the p(0) weights identity (ii); both name the sample."""
        chain = example_system
        modes = co.normal_modes(chain)
        true_weights, true_drive = simulate.NormalModes.weights, simulate.NormalModes.drive

        def mutated(modes, t):
            cos, sin = true_weights(modes, t)
            if mutant == "q":
                cos = cos * (1.0 + 1e-6)
            elif mutant == "p":
                sin = -sin
            return cos, sin

        def mutated_drive(modes, t):
            drive = true_drive(modes, t)
            return drive * (1.0 + 1e-6) if mutant == "plant" else drive

        monkeypatch.setattr(simulate.NormalModes, "weights", mutated)
        monkeypatch.setattr(simulate.NormalModes, "drive", mutated_drive)
        grid = co.TimeGrid(50.0, 0.05)
        times, rows = co.coefficient_trajectory(modes, grid)
        with pytest.raises(co.ToleranceExceededError, match=rf"^{re.escape(message)} .* at sample \d+$"):
            co.verify_trajectory(modes, times, rows)


class TestIntegralOfPropagator:
    def test_zero_dynamics_integrate_to_scaled_identity(self):
        integral = integral_of_propagator(np.zeros((3, 3)), 8.0)
        assert np.allclose(integral, 8.0 * np.eye(3), rtol=0.0, atol=1e-13)

    def test_full_period_integrates_to_zero(self):
        a = 2.0 * lqs.SYMPLECTIC_UNIT
        integral = integral_of_propagator(a, math.pi)
        assert np.abs(integral).max() <= 1e-12

    def test_quarter_period_closed_form(self):
        a = 2.0 * lqs.SYMPLECTIC_UNIT
        integral = integral_of_propagator(a, math.pi / 4.0)
        expected = 0.5 * np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert np.allclose(integral, expected, rtol=0.0, atol=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(co.InvalidDimensionError):
            integral_of_propagator(np.zeros((2, 3)), 1.0)
        with pytest.raises(co.InvalidParameterError):
            integral_of_propagator(np.zeros((2, 2)), 0.0)
        with pytest.raises(co.InvalidParameterError):
            integral_of_propagator(np.zeros((2, 2)), math.inf)

    def test_overflow_is_an_error(self):
        with pytest.raises(co.NumericalFailureError):
            integral_of_propagator(np.array([[100.0]]), 100.0)

    @pytest.mark.parametrize("index", range(len(NORM_BANDS)), ids=BAND_IDS)
    def test_matches_the_mpmath_referee(self, index):
        """The draws of TestPropagator's referee test, against the upper-right
        block of a 40-digit exponential of [[a, I], [0, 0]]. Worst gap seen
        over 900 draws: 1.9e-14 * max(1, ||a||_1) relative, so 1e-13."""
        rng = np.random.default_rng(index)
        for _ in range(3):
            a = hamiltonian_dynamics(rng, NORM_BANDS[index])
            n = a.shape[0]
            doubled = np.block([[a, np.eye(n)], [np.zeros((n, 2 * n))]])
            want = mpmath_exponential(doubled)[:n, n:]
            gap = np.linalg.norm(integral_of_propagator(a, 1.0) - want) / np.linalg.norm(want)
            assert gap <= 1e-13 * max(1.0, np.linalg.norm(a, 1))


class TestTimeAverages:
    def test_static_average_is_the_output_matrix(self):
        chain = static_chain(2)
        avg = time_average_exact(chain, 8.0)
        assert np.allclose(avg, output_matrix(chain), rtol=0.0, atol=1e-14)

    def test_plant_row_average_stays_put(self, example_system):
        chain = example_system
        avg = co.time_average_spectral(co.normal_modes(chain), 800.0)
        assert np.abs(avg[0] - output_matrix(chain)[0]).max() <= 1e-9

    @pytest.mark.parametrize("c_p,variant,omega0,n,seed,horizon", CHAINS_AND_REFERENCE)
    def test_closed_form_matches_the_exact_route(self, c_p, variant, omega0, n, seed, horizon):
        """Pinned chains beside test_spectral's random ones, which keep omega0 = 1.
        Worst gap seen 5.0e-15."""
        chain = build_system(c_p, variant, omega0, n, seed=seed)
        spectral = co.time_average_spectral(co.normal_modes(chain), horizon)
        exact = time_average_exact(chain, horizon)
        assert relative_gap(spectral, exact) <= EXACT_REL_TOL

    @pytest.mark.parametrize("c_p,variant,omega0,n,seed,horizon", CHAINS_AND_REFERENCE)
    def test_exact_route_satisfies_the_identities(self, c_p, variant, omega0, n, seed, horizon):
        """The doubled-block average holds both identities of identity_residuals
        within timeavg's bound, so the oracle is checked by algebra rather than
        by a second route. Worst residual seen 3.2e-15."""
        chain = build_system(c_p, variant, omega0, n, seed=seed)
        avg = time_average_exact(chain, horizon)
        bound = ORACLE_REL_TOL * np.linalg.norm(avg, ord="fro")
        drift, consensus = co.identity_residuals(co.normal_modes(chain), avg, horizon)
        assert drift <= bound and consensus <= bound

    def test_reference_consensus_error(self, example_system):
        chain = example_system
        avg = co.time_average_spectral(co.normal_modes(chain), 800.0)
        assert np.isclose(co.consensus_error(avg), 0.00494399336874341, rtol=1e-9)


class TestSpatialAverage:
    def test_initial_sample_pattern(self, example_system):
        chain = example_system
        rows = np.stack([output_matrix(chain)] * 3)
        spatial = simulate.spatial_average(rows)
        expected = np.zeros(12)
        expected[2::2] = 0.2
        assert spatial.shape == (3, 12)
        assert np.array_equal(spatial[0], expected)


    @pytest.mark.parametrize("c_p,variant,omega0,n,seed,horizon", CHAINS)
    def test_is_the_mean_of_direct_observer_rows(self, c_p, variant, omega0, n, seed, horizon):
        """At the second, middle and last sample. Worst gap seen 9.2e-14 (T = 20)."""
        chain, times, rows = trajectory_case(c_p, variant, omega0, n, seed, horizon)
        spatial = simulate.spatial_average(rows)
        c_a, a_a = output_matrix(chain), chain.dynamics.dense()
        for k in (1, times.size // 2, times.size - 1):
            want = (c_a @ propagator(a_a, times[k]))[1:].mean(axis=0)
            assert np.linalg.norm(spatial[k] - want) <= 1e-11 * np.linalg.norm(want)


class TestConsensusError:
    def test_hand_value(self):
        assert co.consensus_error(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0


class TestBrokenFixedPointGrowsLinearly:
    """Regression guard: replacing the observer dynamics with a bare drive
    from the plant output must destroy consensus, with the time-averaged
    error growing linearly in the horizon.

    With the dynamics nilpotent of order two the average has the closed form
    C (I + (T/2) A), so every value below is checked against exact algebra.
    """

    @staticmethod
    def broken_dynamics(c_a: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """A bare drive from the plant output into element 1; it comes from no
        Hamiltonian, so no chain holds it."""
        dim = c_a.shape[1]
        drive = np.zeros(dim - 2)
        drive[0:2] = alpha
        a_broken = np.zeros((dim, dim))
        a_broken[2:, 0:2] = np.outer(drive, c_a[0, 0:2])
        return a_broken

    def test_error_follows_the_linear_law(self, example_system):
        chain = example_system
        c_a = output_matrix(chain)
        a_broken = self.broken_dynamics(c_a, chain.alpha)
        for horizon in (10.0, 20.0, 40.0):
            rows = c_a @ integral_of_propagator(a_broken, horizon) / horizon
            expected_rows = c_a + (horizon / 2.0) * c_a @ a_broken
            assert np.allclose(rows, expected_rows, rtol=1e-10, atol=1e-12)
            expected_error = math.hypot(horizon / 2.0 - 1.0, 1.0)
            assert np.isclose(co.consensus_error(rows), expected_error, rtol=1e-10)

    def test_healthy_system_does_not_grow(self, example_system):
        chain = example_system
        modes = co.normal_modes(chain)
        errors = [co.consensus_error(co.time_average_spectral(modes, t)) for t in (10.0, 40.0)]
        assert errors[1] < errors[0]
