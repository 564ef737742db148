from __future__ import annotations

import dataclasses
import json
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chainobs as co
from chainobs import analysis, cli, simulate
from chainobs.analysis import _spectral_norm
from conftest import build_system, path_laplacian, perturb_omega
from oracles import (
    collapse_blocks,
    exp_bound_unscreened,
    minors_positive_definite,
    observer_hamiltonian,
    propagator,
)
from test_acceptance import systems
from test_simulate import thread_count


def traced_peak(fn, *args) -> int:
    """Peak bytes numpy and Python allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


mu_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=12
).map(np.array)


def chain_from(mu):
    return co.build_chain([1.0, 0.0], np.asarray(mu, dtype=float))


class TestBuildReduced:
    def test_reference(self, example_system):
        chain = example_system
        reduced = co.build_reduced(chain)
        assert np.array_equal(chain.omega, [3.0, 5.0, 7.0, 9.0, 5.0])
        assert np.array_equal(-chain.mu_tilde[1:], [-2.0, -3.0, -4.0, -5.0])
        assert np.array_equal(np.diag(reduced), chain.omega)
        assert np.array_equal(np.diag(reduced, 1), -chain.mu_tilde[1:])

    def test_single_element(self):
        reduced = co.build_reduced(chain_from([0.3]))
        assert np.array_equal(reduced, [[0.3]])

    def test_uniform_three(self):
        reduced = co.build_reduced(chain_from([1.0, 1.0, 1.0]))
        assert np.array_equal(np.diag(reduced), [2.0, 2.0, 1.0])
        assert np.array_equal(np.diag(reduced, 1), [-1.0, -1.0])

    @given(mu_vectors)
    @settings(max_examples=40, deadline=None)
    def test_tridiagonal_pattern(self, mu):
        m = co.build_reduced(chain_from(mu))
        n = m.shape[0]
        for i in range(n):
            for j in range(n):
                if abs(i - j) > 1:
                    assert m[i, j] == 0.0
        assert np.array_equal(m, m.T)


class TestLaplacianSplit:
    def test_reference(self, example_system):
        chain = example_system
        assert chain.mu_tilde[0] == 1.0
        assert np.array_equal(path_laplacian(chain)[0], [2.0, -2.0, 0.0, 0.0, 0.0])

    def test_single_element(self):
        chain = chain_from([0.9])
        assert chain.mu_tilde[0] == 0.9
        assert np.array_equal(path_laplacian(chain), [[0.0]])

    @given(mu_vectors)
    @settings(max_examples=60, deadline=None)
    def test_chain_laplacian_properties(self, mu):
        """Row sums vanish, and whenever the chain has at least one edge the
        kernel is exactly the all-ones line."""
        chain = chain_from(mu)
        reduced = co.build_reduced(chain)
        laplacian = path_laplacian(chain)
        n = laplacian.shape[0]
        rank_one = np.zeros((n, n))
        rank_one[0, 0] = chain.mu_tilde[0]
        assert np.array_equal(rank_one + laplacian, reduced)
        # the same bits as subtracting the dense rank-one part
        assert laplacian.tobytes() == (reduced - rank_one).tobytes()
        if n == 1:
            assert laplacian[0, 0] == 0.0
            return
        scale = np.linalg.norm(laplacian, ord=2)
        # each row sum cancels entries of the comparison matrix (omega_i
        # against mu~_i + mu~_(i+1)), so its rounding is relative to that
        # matrix, not to the remainder
        row_scale = np.linalg.norm(reduced, ord=2)
        assert np.abs(laplacian.sum(axis=1)).max() <= 1e-14 * row_scale
        ones = np.ones(n) / np.sqrt(n)
        assert np.linalg.norm(laplacian @ ones) <= 1e-13 * row_scale
        eigenvalues = np.linalg.eigvalsh(laplacian)
        assert eigenvalues[0] >= -1e-12 * row_scale
        assert eigenvalues[1] > 1e-12 * scale

    @pytest.mark.parametrize("index", range(5))
    def test_row_sums_see_every_mistuned_omega(self, example_system, index):
        """omega_i raised by 1e-3 fails laplacian_row_sums at 1e-3 on every row,
        the first included: L is R_red less the chain's own mu~_1, so no row sum
        is cancelled by construction."""
        report = cli._base_report(perturb_omega(example_system, index, 1e-3))
        (row_sums,) = [c for c in report.checks if c.name == "laplacian_row_sums"]
        assert not row_sums.passed
        assert abs(row_sums.value - 1e-3) <= 1e-12


class TestCertify:
    def test_symmetry_check_holds_one_temporary(self):
        reduced = co.build_reduced(chain_from(np.linspace(0.5, 2.0, 300)))
        assert traced_peak(co.certify_positive_definite, reduced) < 1.5 * reduced.nbytes

    def test_identity(self):
        cert = co.certify_positive_definite(np.eye(4))
        assert cert.lambda_min == 1.0
        assert cert.lambda_max == 1.0
        assert cert.exp_norm_bound == 1.0

    def test_reference_regression(self, example_system):
        """Extreme eigenvalues of the reference observer block, frozen."""
        chain = example_system
        cert = co.certify_positive_definite(observer_hamiltonian(chain))
        assert np.isclose(cert.lambda_min, 0.12976937136773573, rtol=1e-10, atol=0.0)
        assert np.isclose(cert.lambda_max, 14.260039375715447, rtol=1e-10, atol=0.0)
        assert np.isclose(cert.exp_norm_bound, 10.48272666856287, rtol=1e-10, atol=0.0)

    def test_agrees_with_minor_recurrence(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            mu = rng.uniform(0.05, 5.0, n)
            chain = chain_from(mu)
            reduced = co.build_reduced(chain)
            cert = co.certify_positive_definite(reduced)
            assert minors_positive_definite(chain.omega, -chain.mu_tilde[1:])
            assert cert.lambda_min > 0.0
            # shifting just past lambda_min must flip the minor test
            shifted = reduced - (cert.lambda_min * 1.0001) * np.eye(n)
            assert not minors_positive_definite(np.diag(shifted), -chain.mu_tilde[1:])

    def test_laplacian_alone_is_not_definite(self):
        """Dropping the rank-one part restores the kernel, and the error
        carries the offending eigenvalue."""
        laplacian = path_laplacian(chain_from([1.0, 2.0, 3.0]))
        with pytest.raises(co.NotPositiveDefiniteError) as excinfo:
            co.certify_positive_definite(laplacian)
        scale = np.linalg.norm(laplacian, ord=2)
        assert abs(excinfo.value.lambda_min) <= 1e-12 * scale

    def test_rejects_asymmetric(self):
        with pytest.raises(co.InvalidParameterError):
            co.certify_positive_definite(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_symmetry_tolerance_scales_with_the_largest_entry(self):
        """An asymmetry of 1e-12 max(1, max |m_ij|) passes; twice that fails."""
        for scale in (1e-3, 1.0, 1e6):
            m = np.diag([scale, 2.0 * scale])
            tol = 1e-12 * max(1.0, 2.0 * scale)
            m[0, 1] = tol
            co.certify_positive_definite(m)
            m[0, 1] = 2.0 * tol
            with pytest.raises(co.InvalidParameterError, match="symmetric"):
                co.certify_positive_definite(m)

    def test_rejects_negative_definite(self):
        with pytest.raises(co.NotPositiveDefiniteError) as excinfo:
            co.certify_positive_definite(-np.eye(3))
        assert excinfo.value.lambda_min == -1.0

    @given(mu_vectors)
    @settings(max_examples=60, deadline=None)
    def test_reduced_and_full_certified_independently(self, mu):
        chain = co.build_chain([0.4, 1.1], mu)
        reduced_cert = co.certify_positive_definite(co.build_reduced(chain))
        full_cert = co.certify_positive_definite(observer_hamiltonian(chain))
        assert reduced_cert.lambda_min > 0.0
        assert full_cert.lambda_min > 0.0


def certified(chain) -> float:
    return co.certify_positive_definite(observer_hamiltonian(chain)).exp_norm_bound


class TestExpBound:
    def test_identity_rotation_stays_at_one(self):
        """N = 1: R_o = omega I, so the flow is a rotation and the bound is one."""
        chain = chain_from([0.3])
        bound = certified(chain)
        assert bound == 1.0
        grid = co.TimeGrid.from_count(10.0, 50)
        observed = co.verify_exp_bound(co.normal_modes(chain), bound, grid)
        assert abs(observed - 1.0) <= 1e-12

    def test_time_zero_norm_is_one(self, example_system):
        """The oracle's exp(A t) at t = 0 is the exact identity, whose Gram
        norm is exactly one. In the closed form every sine
        weight is an exact zero at t = 0, so the off-diagonal blocks vanish
        exactly, and the diagonal blocks are S S^-1: the identity, and a
        Gram norm of one, to rounding."""
        chain = example_system
        a = chain.dynamics.dense()[2:, 2:]
        grid = co.TimeGrid.from_count(1.0, 2)
        first = propagator(a, 0.0)
        assert np.array_equal(first, np.eye(10))
        assert _spectral_norm(first.T @ first) == 1.0
        closed = analysis.observer_flow(co.normal_modes(chain), grid).propagator(0)
        assert np.all(closed[0::2, 1::2] == 0.0) and np.all(closed[1::2, 0::2] == 0.0)
        assert np.abs(closed - np.eye(10)).max() <= 1e-14
        assert abs(_spectral_norm(closed.T @ closed) - 1.0) <= 1e-14
        assert certified(chain) > 1.0

    def test_reference_sweep(self, example_system):
        chain = example_system
        bound = certified(chain)
        grid = co.TimeGrid.from_count(50.0, 500)
        observed = co.verify_exp_bound(co.normal_modes(chain), bound, grid)
        assert observed <= bound * (1.0 + 1e-9)
        # the bound is meaningful: the flow really does approach it
        assert 6.0 < observed < bound

    def test_rejects_bad_times(self, example_system):
        """Invalid sample times are rejected by the grid itself."""
        chain = example_system
        modes = co.normal_modes(chain)
        with pytest.raises(co.InvalidParameterError):
            co.verify_exp_bound(modes, certified(chain), co.TimeGrid.from_count(-1.0, 2))
        with pytest.raises(co.InvalidParameterError):
            co.verify_exp_bound(modes, certified(chain), co.TimeGrid.from_count(1.0, 0))

    def test_observed_norm_is_numpys_spectral_norm(self):
        """The observed maximum equals numpy's 2-norm of the same exponentials."""
        grid = co.TimeGrid.from_count(50.0, 500)
        for _, chain in systems():
            observed = co.verify_exp_bound(co.normal_modes(chain), certified(chain), grid)
            a = chain.dynamics.dense()[2:, 2:]
            expected = max(np.linalg.norm(propagator(a, t), ord=2) for t in grid.times())
            assert abs(observed - expected) <= 1e-12 * expected

    def test_violation_is_reported(self, example_system):
        """A bound below the true maximum must trip the check, not pass silently."""
        chain = example_system
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.from_count(50.0, 500)
        observed = co.verify_exp_bound(modes, certified(chain), grid)
        with pytest.raises(co.BoundViolatedError):
            co.verify_exp_bound(modes, 0.999 * observed, grid)

    def test_screens_keep_the_first_violation(self, example_system):
        """A violation is reported at the sample the unscreened sweep reports:
        the first in time order, not the first the sorted sweep meets.

        On this grid the largest screen value sits at t = 46.7. With the
        bound lowered to 0.9 of the maximum the first violation is at
        t = 0.701, at 0.95 at t = 0.802 and at 0.99 at t = 37.6.
        """
        chain = example_system
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.from_count(50.0, 500)
        first_visited = grid.times()[np.argmax(analysis.observer_flow(modes, grid).screen)]
        maximum = exp_bound_unscreened(modes, 1e300, grid)
        for fraction, flagged in ((0.9, "0.701403"), (0.95, "0.801603"), (0.99, "37.5752")):
            with pytest.raises(co.BoundViolatedError) as expected:
                exp_bound_unscreened(modes, fraction * maximum, grid)
            assert f"at t = {flagged} " in str(expected.value)
            with pytest.raises(co.BoundViolatedError) as screened:
                co.verify_exp_bound(modes, fraction * maximum, grid)
            assert str(screened.value) == str(expected.value)
            assert float(flagged) < first_visited

    def test_violation_forms_no_sample_twice(self, example_system, monkeypatch):
        """Below the maximum the one sorted pass finds the violation itself:
        no sample's propagator is formed twice, and the error is the one the
        unscreened sweep raises."""
        chain = example_system
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.from_count(50.0, 500)
        maximum = exp_bound_unscreened(modes, 1e300, grid)
        formed = []
        true_propagator = analysis.ObserverFlow.propagator

        def counted(flow, k):
            formed.append(int(k))
            return true_propagator(flow, k)

        for fraction in (0.5, 0.9, 0.99, 0.999999):
            with pytest.raises(co.BoundViolatedError) as expected:
                exp_bound_unscreened(modes, fraction * maximum, grid)
            formed.clear()
            with monkeypatch.context() as patch:
                patch.setattr(analysis.ObserverFlow, "propagator", counted)
                with pytest.raises(co.BoundViolatedError) as screened:
                    co.verify_exp_bound(modes, fraction * maximum, grid)
            assert str(screened.value) == str(expected.value)
            assert formed and len(formed) == len(set(formed)), fraction

    def test_nan_step_ends_as_the_unscreened_sweep(self, example_system, monkeypatch, tmp_path):
        """A non-finite phase is stopped before the sorted sweep starts: the
        same numerical failure as the unscreened sweep, and exit 1."""
        chain = example_system
        modes = co.normal_modes(chain)
        true_weights = simulate.NormalModes.weights

        def nan_phases(modes, t):
            cos, up, down = true_weights(modes, t)
            cos[3, 1] = np.nan
            return cos, up, down

        monkeypatch.setattr(simulate.NormalModes, "weights", nan_phases)
        grid = co.TimeGrid.from_count(1.0, 10)
        with pytest.raises(co.NumericalFailureError) as expected:
            exp_bound_unscreened(modes, certified(chain), grid)
        assert "at sample 3" in str(expected.value)
        with pytest.raises(co.NumericalFailureError, match=re.escape(str(expected.value))):
            co.verify_exp_bound(modes, certified(chain), grid)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_elements": 5, "scheme": "odd-harmonics",
                                      "omega0": 1.0, "c_p": [1.0, 0.0], "horizon": 8.0}))
        assert cli.main(["check", "--config", str(config)]) == 1

    @staticmethod
    def logged_check(caplog, **fields):
        """run_check's report and the numbers of its one INFO line."""
        config = cli.parse_config(json.dumps({"omega0": 1.0, "c_p": [1.0, 0.0],
                                              "horizon": 800.0, **fields}))
        caplog.set_level(logging.INFO, logger="chainobs.analysis")
        report = cli.run_check(config)
        lines = [r.getMessage() for r in caplog.records if r.name == "chainobs.analysis"]
        assert len(lines) == 1
        found = re.fullmatch(
            r"exp bound: (\d+) samples, (\d+) Gram products, (\d+) eigensolves, "
            r"max (\S+), bound (\S+), margin (\S+), sweep on (.+)",
            lines[0],
        )
        assert found is not None, lines[0]
        assert found[7] == simulate._blas_threads_text(fields["n_elements"])
        observed, bound, margin = (float(found[i]) for i in (4, 5, 6))
        check = next(c for c in report.checks if c.name == "exp_norm_observed")
        assert observed == pytest.approx(check.value, rel=1e-6)
        assert margin == pytest.approx(observed / bound, rel=1e-5)
        return tuple(int(found[i]) for i in (1, 2, 3))

    def test_info_line_counts_the_screened_work(self, caplog):
        """check on random N=50 (seed 1) logs one line with its work and margin:
        the norm bounds leave one of the 500 samples to form, one Gram
        product and one eigensolve (the Frobenius screen alone left 109
        and 5)."""
        samples, grams, eigensolves = self.logged_check(
            caplog, n_elements=50, scheme="random", seed=1
        )
        assert samples == 500 and grams <= 3 and eigensolves <= 3

    def test_uniform_chain_forms_few_propagators(self, caplog):
        """On uniform N=200 the norm rises at nearly every sample, which left
        a time-ordered screen nothing to skip; sorted by the Frobenius
        screen, 46 of 500 were formed (95 on odd-harmonics N=200), and by
        the norm bounds one is."""
        for scheme in ("uniform", "odd-harmonics"):
            caplog.clear()
            samples, grams, eigensolves = self.logged_check(
                caplog, n_elements=200, scheme=scheme
            )
            assert samples == 500 and grams <= 3 and eigensolves <= 3, scheme

    def test_non_symplectic_step_is_a_tolerance_failure(self, example_system, monkeypatch):
        """Cosine weights scaled by 1 + 1e-5 break the symplectic identity of
        every formed propagator, and the sweep aborts before any norm is
        compared with the bound; the screen, scaled alike, cannot tell."""
        chain = example_system
        true_weights = simulate.NormalModes.weights

        def scaled_cos(modes, t):
            cos, up, down = true_weights(modes, t)
            return (1.0 + 1e-5) * cos, up, down

        monkeypatch.setattr(simulate.NormalModes, "weights", scaled_cos)
        with pytest.raises(co.ToleranceExceededError, match="symplectic drift"):
            co.verify_exp_bound(
                co.normal_modes(chain), certified(chain), co.TimeGrid.from_count(1.0, 2)
            )

    def test_largest_screen_is_not_the_largest_norm(self):
        """On odd-harmonics N=50 the largest ||P||_F (71.60, t = 40.1) is not at
        the largest norm (69.506, t = 49.6), and the margin (N - 1) / s_1^2 is
        1e-2: a sweep that stopped once the screen came within 5% of the best
        norm would report 69.379, short of the maximum the unscreened sweep
        finds."""
        chain = build_system([1.0, 0.0], "odd-harmonics", 1.0, 50)
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.from_count(cli.EXP_BOUND_SPAN, cli.EXP_BOUND_SAMPLES)
        flow = analysis.observer_flow(modes, grid)
        norms = []
        for k in range(grid.samples):
            phi = flow.propagator(k)
            norms.append(_spectral_norm(phi.T @ phi))
        assert np.argmax(flow.screen) != np.argmax(norms)
        observed = co.verify_exp_bound(modes, certified(chain), grid)
        assert observed == max(norms) == exp_bound_unscreened(modes, certified(chain), grid)

    def test_modes_generate_the_assembled_dynamics(self):
        """For every acceptance system the generator rebuilt from the normal
        modes is a_o rotated into (q, p), to rounding."""
        for _, chain in systems():
            residual = co.verify_mode_generator(co.normal_modes(chain))
            assert residual <= 1e-14

    def test_modes_of_another_system_are_a_tolerance_failure(self, example_system):
        """Modes that do not generate a_o pass both per-sample checks, since
        P stays symplectic and its screen agrees, so the generator check
        alone refuses them: eigenvalues off by 1e-9 relative, the first two
        eigenvectors turned by 1e-9 within their plane (V stays orthogonal),
        or the eigenpairs of a chain with another lineup filed under this
        chain, the one mismatch left now that the generator reads the blocks
        from the modes' own chain."""
        chain = example_system
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.from_count(50.0, 500)
        turned = modes.v.copy()
        c, s = np.cos(1e-9), np.sin(1e-9)
        turned[:, :2] = modes.v[:, :2] @ np.array([[c, -s], [s, c]])
        other = dataclasses.replace(chain, omega=chain.omega * (1.0 + 1e-9))
        for wrong in (
            dataclasses.replace(modes, lam=modes.lam * (1.0 + 1e-9)),
            dataclasses.replace(modes, v=turned),
            dataclasses.replace(co.normal_modes(other), chain=chain),
        ):
            co.verify_exp_bound(wrong, certified(chain), grid)
            with pytest.raises(co.ToleranceExceededError, match="normal-mode generator"):
                co.verify_mode_generator(wrong)

    def test_norm_bound_falls_back_to_the_screen_without_a_gap(self, example_system):
        """The bound needs 2 rho above the trace ||P||_F^2. At t = 0, P = I
        gives rho = 1 against 2N, and at N = 1 P is a rotation, rho = 1 = half
        the trace: both samples keep the screen. Elsewhere the bound is
        tighter."""
        grid = co.TimeGrid.from_count(50.0, 500)
        flow = analysis.observer_flow(co.normal_modes(example_system), grid)
        assert flow.bound[0] == flow.screen[0]
        assert np.all(flow.bound <= flow.screen) and np.any(flow.bound < flow.screen)
        rotation = analysis.observer_flow(co.normal_modes(chain_from([0.3])), grid)
        assert np.array_equal(rotation.bound, rotation.screen)

    def test_norm_above_its_bound_is_a_tolerance_failure(self, example_system):
        """An exact norm above its sample's bound by more than 1e-12 relative
        stops the sweep: the samples it skips are only safe while the bounds
        hold."""
        grid = co.TimeGrid.from_count(50.0, 500)
        flow = analysis.observer_flow(co.normal_modes(example_system), grid)
        k = int(np.argmax(flow.bound))
        phi = flow.propagator(k)
        gram = phi.T @ phi
        exact = _spectral_norm(gram)
        flow.bound[k] = exact * (1.0 - 1e-13)
        assert flow.spectral_norm(k, gram) == exact
        flow.bound[k] = exact * (1.0 - 1e-11)
        with pytest.raises(co.ToleranceExceededError, match=f"at sample {k} exceeds its bound"):
            flow.spectral_norm(k, gram)

    def test_norm_bound_without_its_residual_fails(self, monkeypatch):
        """A mutant bound without its residual term is sqrt(rho), a lower
        bound: on the check-n50 chain (random N=50, seed 1) it falls below
        formed norms, and the sweep stops at the first it forms."""
        chain = build_system([1.0, 0.0], "random", 1.0, 50, seed=1)
        modes = co.normal_modes(chain)
        grid = co.TimeGrid.from_count(cli.EXP_BOUND_SPAN, cli.EXP_BOUND_SAMPLES)
        assert bound_shortfall(analysis.observer_flow(modes, grid)) <= 1e-12
        monkeypatch.setattr(analysis, "_top_eigenvalue_bound",
                            lambda rho, residual, trace: np.where(2.0 * rho > trace, rho, np.inf))
        assert bound_shortfall(analysis.observer_flow(modes, grid)) > 1e-12
        with pytest.raises(co.ToleranceExceededError, match="exceeds its bound"):
            co.verify_exp_bound(modes, certified(chain), grid)

    def test_wrong_screen_is_a_tolerance_failure(self, example_system):
        """A screen value that disagrees with the formed ||P||_F stops the sweep:
        the samples it would skip are only safe while the two agree."""
        chain = example_system
        grid = co.TimeGrid.from_count(50.0, 500)
        flow = analysis.observer_flow(co.normal_modes(chain), grid)
        flow.screen[7] *= 1.0 + 1e-10
        with pytest.raises(co.ToleranceExceededError, match="at sample 7 disagrees"):
            flow.propagator(7)


class TestOneThreadSweep:
    """check's sweep runs on one BLAS thread up to ONE_THREAD_MAX_N, as the
    eigensolve does, and leaves OpenBLAS's thread count as it found it."""

    @staticmethod
    def sweep(monkeypatch, n, bound_fraction=1.0, scale_cos=1.0):
        """The BLAS thread counts that the sweep's symplectic checks and
        eigvalsh calls saw on uniform N = n, and the count before it."""
        before = thread_count()
        chain = build_system([1.0, 0.0], "uniform", 1.0, n)
        modes = co.normal_modes(chain)
        bound = bound_fraction * certified(chain)
        grid = co.TimeGrid.from_count(50.0, 100)
        seen = {"symplectic": [], "eigvalsh": []}
        drift, eigvalsh = analysis.symplectic_drift, np.linalg.eigvalsh
        true_weights = simulate.NormalModes.weights

        def watched_drift(phi):
            seen["symplectic"].append(thread_count())
            return drift(phi)

        def watched_eigvalsh(gram):
            seen["eigvalsh"].append(thread_count())
            return eigvalsh(gram)

        def scaled(modes, t):
            cos, up, down = true_weights(modes, t)
            return scale_cos * cos, up, down

        monkeypatch.setattr(analysis, "symplectic_drift", watched_drift)
        monkeypatch.setattr(np.linalg, "eigvalsh", watched_eigvalsh)
        monkeypatch.setattr(simulate.NormalModes, "weights", scaled)
        co.verify_exp_bound(modes, bound, grid)
        return before, seen

    @pytest.mark.parametrize("n", [26, simulate.ONE_THREAD_MAX_N, simulate.ONE_THREAD_MAX_N + 1])
    def test_sweep_runs_on_the_rule_s_threads(self, monkeypatch, n):
        before, seen = self.sweep(monkeypatch, n)
        expected = 1 if n <= simulate.ONE_THREAD_MAX_N else before
        assert seen["symplectic"] and set(seen["symplectic"]) == {expected}
        assert seen["eigvalsh"] and set(seen["eigvalsh"]) == {expected}
        assert thread_count() == before

    @pytest.mark.parametrize("n", [26, simulate.ONE_THREAD_MAX_N + 1])
    @pytest.mark.parametrize("error, mutant", [
        (co.BoundViolatedError, {"bound_fraction": 0.5}),
        (co.ToleranceExceededError, {"scale_cos": 1.0 + 1e-5}),
    ], ids=["bound-violated", "tolerance-exceeded"])
    def test_thread_count_is_restored(self, monkeypatch, n, error, mutant):
        """A bound below the observed maximum fails after the sweep, and cosine
        weights scaled by 1 + 1e-5 fail the first symplectic check inside it."""
        before = thread_count()
        with pytest.raises(error):
            self.sweep(monkeypatch, n, **mutant)
        assert thread_count() == before


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(co.SCHEMES),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.floats(min_value=1e-2, max_value=1e2),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-2, max_value=50.0),
    st.integers(min_value=2, max_value=200),
    st.floats(min_value=0.3, max_value=0.999),
)
def test_engine_sweep_matches_the_exponential_oracle(
    variant, n, angle, radius, seed, span, samples, fraction
):
    """The sweep's observed maximum is the largest spectral norm of the
    independent exponentials exp(A_o t) on the same times, within the bound,
    and exactly what the unscreened sweep returns: the sorted Frobenius
    screen and the Gram screen skip only samples that cannot change the
    result. Below the maximum, both name the same first violation. Worst
    gap seen between the maximum and the oracle's over 1,500 draws: 3.7e-12
    relative, so 1e-11."""
    if variant == co.SCHEME_ALL_HARMONICS:
        n += n % 2
    c_p = radius * np.array([np.cos(angle), np.sin(angle)])
    chain = build_system(
        c_p, variant, 1.0, n, seed=seed if variant == co.SCHEME_RANDOM else None
    )
    modes = co.normal_modes(chain)
    bound = certified(chain)
    grid = co.TimeGrid.from_count(span, samples)
    observed = co.verify_exp_bound(modes, bound, grid)
    assert observed == exp_bound_unscreened(modes, bound, grid)
    a_o = chain.dynamics.dense()[2:, 2:]
    expected = max(np.linalg.norm(propagator(a_o, t), ord=2) for t in grid.times())
    assert abs(observed - expected) <= 1e-11 * expected
    assert observed <= bound * (1.0 + 1e-9)
    lowered = fraction * observed
    with pytest.raises(co.BoundViolatedError) as unscreened:
        exp_bound_unscreened(modes, lowered, grid)
    with pytest.raises(co.BoundViolatedError) as screened:
        co.verify_exp_bound(modes, lowered, grid)
    assert str(screened.value) == str(unscreened.value)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(co.SCHEMES),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.floats(min_value=1e-2, max_value=1e2),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-2, max_value=800.0),
)
def test_screen_is_the_formed_frobenius_norm(variant, n, angle, radius, seed, span):
    """The quadratic-form screen is ||P||_F of the formed propagator to within
    1e-13 relative at every sample (worst seen 2.2e-15), and the modes
    generate the assembled dynamics to within 1e-14."""
    if variant == co.SCHEME_ALL_HARMONICS:
        n += n % 2
    c_p = radius * np.array([np.cos(angle), np.sin(angle)])
    chain = build_system(
        c_p, variant, 1.0, n, seed=seed if variant == co.SCHEME_RANDOM else None
    )
    modes = co.normal_modes(chain)
    assert co.verify_mode_generator(modes) <= 1e-14
    flow = analysis.observer_flow(modes, co.TimeGrid.from_count(span, 40))
    for k, screen in enumerate(flow.screen):
        formed = np.linalg.norm(flow.propagator(k))
        assert abs(formed - screen) <= 1e-13 * formed


def bound_shortfall(flow) -> float:
    """The largest relative amount by which a formed norm exceeds its bound."""
    exact = np.array([_spectral_norm(phi.T @ phi)
                      for phi in map(flow.propagator, range(flow.bound.size))])
    return float(((exact - flow.bound) / exact).max())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(co.SCHEMES),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.floats(min_value=1e-2, max_value=1e2),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-2, max_value=800.0),
)
def test_norm_bound_holds_at_every_sample(variant, n, angle, radius, seed, span):
    """Every sample's Kato-Temple bound is at least the formed eigvalsh norm,
    to 1e-12 relative, and at most the screen ||P||_F."""
    if variant == co.SCHEME_ALL_HARMONICS:
        n += n % 2
    c_p = radius * np.array([np.cos(angle), np.sin(angle)])
    chain = build_system(
        c_p, variant, 1.0, n, seed=seed if variant == co.SCHEME_RANDOM else None
    )
    flow = analysis.observer_flow(co.normal_modes(chain), co.TimeGrid.from_count(span, 40))
    assert np.all(flow.bound <= flow.screen)
    assert bound_shortfall(flow) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(co.SCHEMES),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.floats(min_value=1e-2, max_value=1e2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_observer_spectrum_is_reduced_spectrum_plus_self_energies(
    variant, n, angle, radius, seed
):
    """spec(R_o) = spec(R_red) U {omega_i}: the reduction is an exact orthogonal split."""
    if variant == co.SCHEME_ALL_HARMONICS:
        n += n % 2
    c_p = radius * np.array([np.cos(angle), np.sin(angle)])
    chain = build_system(
        c_p, variant, 1.0, n, seed=seed if variant == co.SCHEME_RANDOM else None
    )
    full = np.linalg.eigvalsh(observer_hamiltonian(chain))
    split = np.sort(np.concatenate([np.linalg.eigvalsh(co.build_reduced(chain)),
                                    chain.omega]))
    assert np.abs(full - split).max() <= 1e-12 * full[-1]


def test_observer_spectrum_split_holds_for_a_mistuned_lineup():
    """The chain's blocks and build_reduced read the same stored omega, so the
    split holds on a chain whose lineup no longer matches its couplings."""
    chain = co.build_chain([0.6, -1.3], np.array([1.0, 2.0, 3.0, 4.0]))
    omega = chain.omega + np.array([0.25, -0.5, 0.0, 1.5])
    mistuned = dataclasses.replace(chain, omega=omega)
    full = np.linalg.eigvalsh(observer_hamiltonian(mistuned))
    split = np.sort(np.concatenate([np.linalg.eigvalsh(co.build_reduced(mistuned)), omega]))
    assert np.abs(full - split).max() <= 1e-12 * full[-1]


class TestComparisonBound:
    def test_minor_oracle_matches_eigensolver_on_perturbations(self):
        """Validate the oracle itself before using it anywhere else."""
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            diag = rng.uniform(0.1, 4.0, n)
            off = rng.uniform(-2.0, 2.0, n - 1)
            m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            lam_min = np.linalg.eigvalsh(m)[0]
            assert minors_positive_definite(diag, off) == bool(lam_min > 0.0)

    @pytest.mark.parametrize(
        "c_p,variant,n,seed",
        [
            ([1.0, 0.0], "odd-harmonics", 5, None),
            ([0.0, 2.0], "uniform", 3, None),
            ([0.8, -0.6], "random", 7, 19),
        ],
    )
    def test_block_collapse_underestimates_energy(self, c_p, variant, n, seed):
        """Collapsing modes to their block norms can only lower the quadratic
        form: the coupling terms lose by Cauchy-Schwarz, the diagonal stays."""
        chain = build_system(c_p, variant, 1.0, n, seed=seed)
        reduced = co.build_reduced(chain)
        rng = np.random.default_rng(101)
        x = rng.normal(size=(1000, 2 * n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        full = np.einsum("ij,jk,ik->i", x, observer_hamiltonian(chain), x)
        collapsed = np.stack([collapse_blocks(row) for row in x])
        comparison = np.einsum("ij,jk,ik->i", collapsed, reduced, collapsed)
        assert np.all(full >= comparison - 1e-12)
