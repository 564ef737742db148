from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import chainobs as co
import oracles
from chainobs import simulate
from conftest import build_system
from oracles import (
    _PADE_THETA,
    integral_of_propagator,
    max_frequency,
    output_matrix,
    propagator,
    rotation,
    simpson_weights,
    spectral_propagator,
    symplectic_matrix,
    time_average_exact,
    time_average_streamed,
)


def static_chain(n_elements: int = 1) -> co.ChainObserverParams:
    """A hand-built chain with zero dynamics, for edge cases."""
    zeros = np.zeros(n_elements)
    chain = co.ChainObserverParams(alpha=np.array([1.0, 0.0]), mu_tilde=zeros, omega=zeros)
    assert not chain.dynamics.dense().any()
    return chain


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
        a = 2.0 * co.SYMPLECTIC_UNIT
        assert np.allclose(propagator(a, t), rotation(2.0 * t), rtol=0.0, atol=1e-13)

    def test_semigroup_property(self, example_system):
        chain = example_system
        a_a = chain.dynamics.dense()
        phi_a = propagator(a_a, 1.3)
        phi_b = propagator(a_a, 2.4)
        phi_ab = propagator(a_a, 3.7)
        assert np.allclose(phi_b @ phi_a, phi_ab, rtol=0.0, atol=1e-12)

    def test_matches_spectral_route(self, example_system):
        """Two independent exponentials of the observer dynamics must agree:
        scaling-and-squaring versus diagonalizing the conserved quadratic."""
        chain = example_system
        a_o, r_o = chain.dynamics.dense()[2:, 2:], chain.hamiltonian.dense()[2:, 2:]
        for t in (0.7, 3.3, 12.0):
            direct = propagator(a_o, t)
            spectral = spectral_propagator(r_o, t)
            scale = np.linalg.norm(direct, ord="fro")
            assert np.linalg.norm(direct - spectral, ord="fro") <= 1e-11 * scale

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

    def test_singular_pade_denominator_is_a_numerical_failure(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(oracles, "_expm", singular)
        with pytest.raises(co.NumericalFailureError, match="singular"):
            propagator(2.0 * co.SYMPLECTIC_UNIT, 1.0)

    # 1-norm bands, one per Pade degree 3, 5, 7, 9 and 13 and one that scales and squares
    NORM_BANDS = list(zip([1e-4, *_PADE_THETA.values()], [*_PADE_THETA.values(), 1e3]))

    @pytest.mark.parametrize("band", NORM_BANDS, ids=["3", "5", "7", "9", "13", "squared"])
    @given(
        n_modes=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        position=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scipy_expm(self, band, n_modes, seed, position):
        """Random Hamiltonian dynamics 2 Theta R with R positive definite, scaled
        to a 1-norm inside the band. Worst gap seen over 2,400 draws: 1.9e-14
        * max(1, ||a||_1) relative, so 1e-13."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((2 * n_modes, 2 * n_modes)))
        r = (q * rng.uniform(1.0, 4.0, 2 * n_modes)) @ q.T
        a = 2.0 * symplectic_matrix(n_modes) @ (0.5 * (r + r.T))
        low, high = band
        a *= low * (high / low) ** position / np.linalg.norm(a, 1)
        want = expm(a)
        gap = np.linalg.norm(propagator(a, 1.0) - want) / np.linalg.norm(want)
        assert gap <= 1e-13 * max(1.0, np.linalg.norm(a, 1))


class TestFrequencies:
    def test_single_rotation(self):
        assert abs(max_frequency(2.0 * co.SYMPLECTIC_UNIT) - 2.0) <= 1e-14

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


class TestTrajectory:
    def test_first_sample_is_the_output_matrix(self, example_system):
        """At t = 0 the closed form is Omega^(1/2) V V^T Omega^(-1/2), the
        identity to rounding: within 3.3e-16 here, 6.2e-15 on every scheme
        up to N = 200 with ||c_p|| = 2."""
        chain = example_system
        grid = co.TimeGrid(1.0, 0.01)
        trajectory = co.coefficient_trajectory(co.normal_modes(chain), grid)
        assert trajectory.coefficient_rows.shape == (101, 6, 12)
        assert np.abs(trajectory.coefficient_rows[0] - output_matrix(chain)).max() <= 1e-15

    def test_last_sample_is_end_rows_bit_for_bit(self, example_system):
        """Rows evaluated in chunks take the arithmetic of a single end_rows call."""
        chain = example_system
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.covering(20.0, co.default_step(modes))
        assert grid.samples > 2 * simulate.TRAJECTORY_CHUNK
        times = grid.times()
        assert times[-1] == 20.0
        rows = co.coefficient_trajectory(modes, grid).coefficient_rows
        for k in (1, simulate.TRAJECTORY_CHUNK, grid.samples - 1):
            assert np.array_equal(rows[k], co.end_rows(modes, times[k]))

    def test_chunk_temporaries_are_bounded_in_bytes(self):
        """At N = 200 a row takes 631 KiB, so a chunk holds 51 times, not 512:
        beyond the stored rows, the peak stays within a few chunk budgets
        (about 3 here, where 101 times in one chunk took about 6)."""
        chain = build_system([0.6, -1.3], "odd-harmonics", 1.0, 200)
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.from_count(0.5, 101)
        tracemalloc.start()
        try:
            rows = co.coefficient_trajectory(modes, grid).coefficient_rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - rows.nbytes < 4 * simulate.TRAJECTORY_CHUNK_BYTES
        simulate.verify_trajectory(modes, co.Trajectory(grid, rows))

    def test_rows_match_direct_exponentials(self, example_system):
        chain = example_system
        grid = co.TimeGrid(2.0, 0.05)
        trajectory = co.coefficient_trajectory(co.normal_modes(chain), grid)
        c_a = output_matrix(chain)
        scale = np.linalg.norm(c_a, ord="fro")
        for k in (7, 23, 40):
            direct = c_a @ propagator(chain.dynamics.dense(), grid.times()[k])
            drift = np.linalg.norm(trajectory.coefficient_rows[k] - direct, ord="fro")
            assert drift <= 1e-11 * scale

    def test_plant_row_is_constant(self, example_system):
        """The plant output row never moves: its coefficient row at every
        sample is the initial output functional, exactly."""
        chain = example_system
        grid = co.TimeGrid(50.0, 0.5)
        trajectory = co.coefficient_trajectory(co.normal_modes(chain), grid)
        plant_row = output_matrix(chain)[0]
        assert np.array_equal(
            trajectory.coefficient_rows[:, 0, :],
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
        co.verify_trajectory(modes, co.coefficient_trajectory(modes, grid))

    @pytest.mark.parametrize(
        "mutant,message",
        [("plant", "x* identity"), ("p", "derivative identity"), ("q", "x* identity")],
    )
    def test_weight_mutants_fail(self, example_system, monkeypatch, mutant, message):
        """A 1e-6 error in the plant or q(0) weights breaks identity (i), a sign
        flip of the p(0) weights identity (ii); both name the sample."""
        chain = example_system
        modes = co.normal_modes(chain)
        true_weights = simulate.NormalModes.weights

        def mutated(modes, t):
            cos, up, down, plant = true_weights(modes, t)
            if mutant == "plant":
                plant = plant * (1.0 + 1e-6)
            elif mutant == "q":
                cos = cos * (1.0 + 1e-6)
            else:
                up = -up
            return cos, up, down, plant

        monkeypatch.setattr(simulate.NormalModes, "weights", mutated)
        grid = co.TimeGrid(50.0, 0.05)
        trajectory = co.coefficient_trajectory(modes, grid)
        with pytest.raises(co.ToleranceExceededError, match=rf"^{re.escape(message)} .* at sample \d+$"):
            co.verify_trajectory(modes, trajectory)


class TestIntegralOfPropagator:
    def test_zero_dynamics_integrate_to_scaled_identity(self):
        integral = integral_of_propagator(np.zeros((3, 3)), 8.0)
        assert np.allclose(integral, 8.0 * np.eye(3), rtol=0.0, atol=1e-13)

    def test_full_period_integrates_to_zero(self):
        a = 2.0 * co.SYMPLECTIC_UNIT
        integral = integral_of_propagator(a, math.pi)
        assert np.abs(integral).max() <= 1e-12

    def test_quarter_period_closed_form(self):
        a = 2.0 * co.SYMPLECTIC_UNIT
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


class TestTimeAverages:
    def test_static_average_is_the_output_matrix(self):
        chain = static_chain(2)
        avg = time_average_exact(chain, 8.0)
        assert avg.horizon == 8.0
        assert np.allclose(avg.averaged_rows, output_matrix(chain), rtol=0.0, atol=1e-14)

    def test_plant_row_average_stays_put(self, example_system):
        chain = example_system
        avg = co.time_average_spectral(co.normal_modes(chain), 800.0)
        assert np.abs(avg.averaged_rows[0] - output_matrix(chain)[0]).max() <= 1e-9

    def test_reference_consensus_error(self, example_system):
        chain = example_system
        avg = co.time_average_spectral(co.normal_modes(chain), 800.0)
        assert np.isclose(co.consensus_error(avg), 0.00494399336874341, rtol=1e-9)

    def test_quadrature_of_constant_rows(self):
        times = co.TimeGrid.from_count(2.0, 401).times()
        assert np.isclose(simpson_weights(times).sum() / 2.0, 1.0, rtol=0.0, atol=1e-14)

    def test_quadrature_of_full_sine_period_cancels(self):
        times = co.TimeGrid.from_count(math.pi, 201).times()
        assert abs(simpson_weights(times) @ np.sin(2.0 * times)) / math.pi <= 1e-10

    def test_exact_and_quadrature_routes_agree(self, example_system):
        chain = example_system
        horizon = 20.0
        quadrature = time_average_streamed(chain, horizon)
        exact = time_average_exact(chain, horizon)
        scale = np.linalg.norm(exact.averaged_rows, ord="fro")
        gap = np.linalg.norm(quadrature.averaged_rows - exact.averaged_rows, ord="fro")
        assert gap <= 1e-8 * scale


class TestSpatialAverage:
    def test_initial_sample_pattern(self, example_system):
        chain = example_system
        rows = np.stack([output_matrix(chain)] * 3)
        spatial = co.spatial_average(co.Trajectory(co.TimeGrid(1.0, 0.5), rows))
        expected = np.zeros(12)
        expected[2::2] = 0.2
        assert spatial.shape == (3, 12)
        assert np.array_equal(spatial[0], expected)


class TestConsensusError:
    def test_hand_value(self):
        avg = co.TimeAverage(horizon=1.0, averaged_rows=np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert co.consensus_error(avg) == 5.0


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
            avg = co.TimeAverage(horizon=horizon, averaged_rows=rows)
            expected_rows = c_a + (horizon / 2.0) * c_a @ a_broken
            assert np.allclose(avg.averaged_rows, expected_rows, rtol=1e-10, atol=1e-12)
            expected_error = math.hypot(horizon / 2.0 - 1.0, 1.0)
            assert np.isclose(co.consensus_error(avg), expected_error, rtol=1e-10)

    def test_healthy_system_does_not_grow(self, example_system):
        chain = example_system
        modes = co.normal_modes(chain)
        errors = [co.consensus_error(co.time_average_spectral(modes, t)) for t in (10.0, 40.0)]
        assert errors[1] < errors[0]
