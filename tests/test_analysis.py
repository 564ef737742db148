from __future__ import annotations

import dataclasses
import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chainobs as co
from chainobs import analysis, cli
from chainobs.analysis import _spectral_norm
from chainobs.simulate import _propagate
from conftest import build_system
from oracles import (
    collapse_blocks,
    exp_bound_unscreened,
    minors_positive_definite,
    spectral_propagator,
)
from test_acceptance import systems

mu_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=12
).map(np.array)


def chain_from(mu):
    return co.build_chain([1.0, 0.0], np.asarray(mu, dtype=float))


class TestBuildReduced:
    def test_reference(self, example_system):
        chain, _ = example_system
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
        chain, _ = example_system
        rank_one, laplacian = co.laplacian_split(co.build_reduced(chain))
        assert np.array_equal(np.diag(rank_one), [1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(laplacian[0], [2.0, -2.0, 0.0, 0.0, 0.0])

    def test_single_element(self):
        rank_one, laplacian = co.laplacian_split(co.build_reduced(chain_from([0.9])))
        assert np.array_equal(rank_one, [[0.9]])
        assert np.array_equal(laplacian, [[0.0]])

    @given(mu_vectors)
    @settings(max_examples=60, deadline=None)
    def test_chain_laplacian_properties(self, mu):
        """Row sums vanish, and whenever the chain has at least one edge the
        kernel is exactly the all-ones line."""
        reduced = co.build_reduced(chain_from(mu))
        rank_one, laplacian = co.laplacian_split(reduced)
        n = laplacian.shape[0]
        assert np.array_equal(rank_one + laplacian, reduced)
        if n == 1:
            assert laplacian[0, 0] == 0.0
            return
        scale = np.linalg.norm(laplacian, ord=2)
        # the corner weight is recovered from a row of the comparison matrix,
        # so its rounding is relative to that matrix, not to the remainder
        row_scale = np.linalg.norm(reduced, ord=2)
        assert np.abs(laplacian.sum(axis=1)).max() <= 1e-14 * row_scale
        ones = np.ones(n) / np.sqrt(n)
        assert np.linalg.norm(laplacian @ ones) <= 1e-13 * row_scale
        eigenvalues = np.linalg.eigvalsh(laplacian)
        assert eigenvalues[0] >= -1e-12 * row_scale
        assert eigenvalues[1] > 1e-12 * scale


class TestCertify:
    def test_identity(self):
        cert = co.certify_positive_definite(np.eye(4))
        assert cert.lambda_min == 1.0
        assert cert.lambda_max == 1.0
        assert cert.exp_norm_bound == 1.0

    def test_reference_regression(self, example_system):
        """Extreme eigenvalues of the reference observer block, frozen."""
        _, aug = example_system
        cert = co.certify_positive_definite(aug.r_o)
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
        reduced = co.build_reduced(chain_from([1.0, 2.0, 3.0]))
        _, laplacian = co.laplacian_split(reduced)
        with pytest.raises(co.NotPositiveDefiniteError) as excinfo:
            co.certify_positive_definite(laplacian)
        scale = np.linalg.norm(laplacian, ord=2)
        assert abs(excinfo.value.lambda_min) <= 1e-12 * scale

    def test_rejects_asymmetric(self):
        with pytest.raises(co.InvalidParameterError):
            co.certify_positive_definite(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(co.NotPositiveDefiniteError) as excinfo:
            co.certify_positive_definite(-np.eye(3))
        assert excinfo.value.lambda_min == -1.0

    @given(mu_vectors)
    @settings(max_examples=60, deadline=None)
    def test_reduced_and_full_certified_independently(self, mu):
        chain = co.build_chain([0.4, 1.1], mu)
        aug = co.assemble_augmented(chain)
        reduced_cert = co.certify_positive_definite(co.build_reduced(chain))
        full_cert = co.certify_positive_definite(aug.r_o)
        assert reduced_cert.lambda_min > 0.0
        assert full_cert.lambda_min > 0.0


class TestExpBound:
    def test_identity_rotation_stays_at_one(self):
        theta = co.make_symplectic(1)
        grid = co.TimeGrid.from_count(0.0, 10.0, 50)
        observed, bound = co.verify_exp_bound(np.eye(2), theta, grid)
        assert bound == 1.0
        assert observed <= 1.0 + 1e-12

    def test_time_zero_norm_is_one(self, example_system):
        """The engine starts from the exact identity at t0 = 0, whose Gram
        norm is exactly one."""
        _, aug = example_system
        theta = co.make_symplectic(5)
        a = co.dynamics_from_hamiltonian(aug.r_o, theta)
        grid = co.TimeGrid.from_count(0.0, 1.0, 2)
        first = next(_propagate(a, theta, grid))
        assert np.array_equal(first, np.eye(10))
        assert _spectral_norm(first.T @ first) == 1.0
        _, bound = co.verify_exp_bound(aug.r_o, theta, grid)
        assert bound > 1.0

    def test_reference_sweep(self, example_system):
        _, aug = example_system
        theta = co.make_symplectic(5)
        grid = co.TimeGrid.from_count(0.0, 50.0, 500)
        observed, bound = co.verify_exp_bound(aug.r_o, theta, grid)
        assert observed <= bound * (1.0 + 1e-9)
        # the bound is meaningful: the flow really does approach it
        assert 6.0 < observed < bound

    def test_rejects_bad_times(self, example_system):
        """Invalid sample times are rejected by the grid itself."""
        _, aug = example_system
        theta = co.make_symplectic(5)
        with pytest.raises(co.InvalidParameterError):
            co.verify_exp_bound(aug.r_o, theta, co.TimeGrid.from_count(-1.0, 1.0, 2))
        with pytest.raises(co.InvalidParameterError):
            co.verify_exp_bound(aug.r_o, theta, co.TimeGrid.from_count(0.0, 1.0, 0))

    def test_observed_norm_is_numpys_spectral_norm(self):
        """The observed maximum equals numpy's 2-norm of the same exponentials."""
        grid = co.TimeGrid.from_count(0.0, 50.0, 500)
        for _, (chain, aug) in systems():
            theta = co.make_symplectic(chain.n_elements)
            observed, _ = co.verify_exp_bound(aug.r_o, theta, grid)
            a = co.dynamics_from_hamiltonian(aug.r_o, theta)
            expected = max(np.linalg.norm(co.propagator(a, t), ord=2) for t in grid.times())
            assert abs(observed - expected) <= 1e-12 * expected

    def test_violation_is_reported(self, example_system, monkeypatch):
        """A broken exponential must trip the bound check, not pass silently.

        The stand-in step propagator is symplectic (each 2 x 2 block has
        determinant one), so it passes the engine's drift check and reaches
        the bound check with norm 100.
        """
        _, aug = example_system
        theta = co.make_symplectic(5)
        monkeypatch.setattr(
            "chainobs.simulate.propagator",
            lambda a, t: np.kron(np.eye(a.shape[0] // 2), np.diag([100.0, 0.01])),
        )
        with pytest.raises(co.BoundViolatedError):
            co.verify_exp_bound(aug.r_o, theta, co.TimeGrid.from_count(0.0, 1.0, 2))

    def test_screens_keep_the_first_violation(self, example_system, monkeypatch):
        """A violation in mid-sweep, after both screens have skipped samples,
        is reported at the sample the unscreened sweep reports.

        The stand-in step is symplectic, with identity blocks but two: a
        diag(s, 1/s) block, whose norm s^k first exceeds the bound at k = 7,
        and a block of norm 5 whose powers alternate with +-I. Samples 2 and 4
        are cleared by the Frobenius norm and by the Gram matrix's Frobenius
        norm respectively, so six of the eight samples reach an eigensolve.
        """
        _, aug = example_system
        theta = co.make_symplectic(5)
        bound = co.certify_positive_definite(aug.r_o).exp_norm_bound
        s = bound ** (1.0 / 6.5)
        step = np.eye(10)
        step[0:2, 0:2] = np.diag([s, 1.0 / s])
        step[2:4, 2:4] = [[0.0, 5.0], [-0.2, 0.0]]
        monkeypatch.setattr("chainobs.simulate.propagator", lambda a, t: step)
        grid = co.TimeGrid.from_count(0.0, 1.0, 10)
        with pytest.raises(co.BoundViolatedError) as expected:
            exp_bound_unscreened(aug.r_o, theta, grid)
        assert "at t = 0.777778 " in str(expected.value)
        eigensolves = []
        monkeypatch.setattr(
            analysis, "_spectral_norm", lambda g: eigensolves.append(g) or _spectral_norm(g)
        )
        with pytest.raises(co.BoundViolatedError) as screened:
            co.verify_exp_bound(aug.r_o, theta, grid)
        assert str(screened.value) == str(expected.value)
        assert len(eigensolves) == 6

    def test_nan_step_ends_as_the_unscreened_sweep(self, example_system, monkeypatch, tmp_path):
        """A non-finite step is stopped by the engine before any screen sees it:
        the same numerical failure as the unscreened sweep, and exit 1."""
        _, aug = example_system
        theta = co.make_symplectic(5)
        true_propagator = co.propagator

        def nan_step(a, t):
            step = true_propagator(a, t)
            step[3, 4] = np.nan
            return step

        monkeypatch.setattr("chainobs.simulate.propagator", nan_step)
        grid = co.TimeGrid.from_count(0.0, 1.0, 10)
        with pytest.raises(co.NumericalFailureError) as expected:
            exp_bound_unscreened(aug.r_o, theta, grid)
        with pytest.raises(co.NumericalFailureError, match=re.escape(str(expected.value))):
            co.verify_exp_bound(aug.r_o, theta, grid)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_elements": 5, "scheme": "odd-harmonics",
                                      "omega0": 1.0, "c_p": [1.0, 0.0], "horizon": 8.0}))
        assert cli.main(["check", "--config", str(config)]) == 1

    def test_info_line_counts_the_screened_work(self, caplog):
        """check on random N=50 (seed 1) logs one line with its work and margin:
        most of the 500 samples need neither a Gram product nor an eigensolve."""
        config = cli.parse_config(json.dumps({
            "n_elements": 50, "scheme": "random", "seed": 1, "omega0": 1.0,
            "c_p": [1.0, 0.0], "horizon": 800.0,
        }))
        caplog.set_level(logging.INFO, logger="chainobs.analysis")
        report = cli.run_check(config)
        lines = [r.getMessage() for r in caplog.records if r.name == "chainobs.analysis"]
        assert len(lines) == 1
        found = re.fullmatch(
            r"exp bound: (\d+) samples, (\d+) Gram products, (\d+) eigensolves, "
            r"max (\S+), bound (\S+), margin (\S+)",
            lines[0],
        )
        assert found is not None, lines[0]
        samples, grams, eigensolves = (int(found[i]) for i in (1, 2, 3))
        observed, bound, margin = (float(found[i]) for i in (4, 5, 6))
        assert samples == 500 and grams <= 130 and eigensolves <= 30
        check = next(c for c in report.checks if c.name == "exp_norm_observed")
        assert observed == pytest.approx(check.value, rel=1e-6)
        assert margin == pytest.approx(observed / bound, rel=1e-5)

    def test_non_symplectic_step_is_a_tolerance_failure(self, example_system, monkeypatch):
        """A step propagator that breaks the symplectic identity aborts the
        sweep in the engine, before any norm is compared with the bound."""
        _, aug = example_system
        theta = co.make_symplectic(5)
        true_propagator = co.propagator
        monkeypatch.setattr(
            "chainobs.simulate.propagator",
            lambda a, t: (1.0 + 1e-5) * true_propagator(a, t),
        )
        with pytest.raises(co.ToleranceExceededError):
            co.verify_exp_bound(aug.r_o, theta, co.TimeGrid.from_count(0.0, 1.0, 2))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(co.SCHEMES),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.floats(min_value=1e-2, max_value=1e2),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-2, max_value=50.0),
    st.integers(min_value=2, max_value=200),
)
def test_engine_sweep_matches_the_eigh_oracle(variant, n, angle, radius, seed, span, samples):
    """The engine's observed maximum is the largest spectral norm of the
    independent eigh-route exponentials on the same times, within the bound,
    and exactly what the unscreened sweep returns: the Frobenius screens
    skip only samples that cannot change the result."""
    if variant == co.SCHEME_ALL_HARMONICS:
        n += n % 2
    c_p = radius * np.array([np.cos(angle), np.sin(angle)])
    chain, aug = build_system(
        c_p, variant, 1.0, n, seed=seed if variant == co.SCHEME_RANDOM else None
    )
    theta = co.make_symplectic(chain.n_elements)
    grid = co.TimeGrid.from_count(0.0, span, samples)
    observed, bound = co.verify_exp_bound(aug.r_o, theta, grid)
    assert (observed, bound) == exp_bound_unscreened(aug.r_o, theta, grid)
    expected = max(
        np.linalg.norm(spectral_propagator(aug.r_o, theta.matrix, t), ord=2)
        for t in grid.times()
    )
    assert abs(observed - expected) <= 1e-11 * expected
    assert observed <= bound * (1.0 + 1e-9)


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
    chain, aug = build_system(
        c_p, variant, 1.0, n, seed=seed if variant == co.SCHEME_RANDOM else None
    )
    full = np.linalg.eigvalsh(aug.r_o)
    split = np.sort(np.concatenate([np.linalg.eigvalsh(co.build_reduced(chain)),
                                    chain.omega]))
    assert np.abs(full - split).max() <= 1e-12 * full[-1]


def test_observer_spectrum_split_holds_for_a_mistuned_lineup():
    """assemble_augmented and build_reduced read the same stored omega, so the
    split holds on a chain whose lineup no longer matches its couplings."""
    chain = co.build_chain([0.6, -1.3], np.array([1.0, 2.0, 3.0, 4.0]))
    omega = chain.omega + np.array([0.25, -0.5, 0.0, 1.5])
    mistuned = dataclasses.replace(chain, omega=omega)
    full = np.linalg.eigvalsh(co.assemble_augmented(mistuned).r_o)
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
        chain, aug = build_system(c_p, variant, 1.0, n, seed=seed)
        reduced = co.build_reduced(chain)
        rng = np.random.default_rng(101)
        x = rng.normal(size=(1000, 2 * n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        full = np.einsum("ij,jk,ik->i", x, aug.r_o, x)
        collapsed = np.stack([collapse_blocks(row) for row in x])
        comparison = np.einsum("ij,jk,ik->i", collapsed, reduced, collapsed)
        assert np.all(full >= comparison - 1e-12)
