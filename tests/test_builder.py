from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chainobs as co
from chainobs import builder, cli, lqs
from conftest import build_system, perturb_omega
from oracles import dense_augmented, output_matrix

mu_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=10
).map(np.array)


class TestSchedules:
    def test_odd_harmonics_reference(self):
        scheme = co.ParameterScheme("odd-harmonics", 1.0)
        assert np.array_equal(co.make_mu_schedule(scheme, 5), [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_uniform(self):
        scheme = co.ParameterScheme("uniform", 2.0)
        assert np.array_equal(co.make_mu_schedule(scheme, 3), [2.0, 2.0, 2.0])

    def test_all_harmonics_pairs(self):
        scheme = co.ParameterScheme("all-harmonics", 1.0)
        mu = co.make_mu_schedule(scheme, 4)
        assert np.array_equal(mu, [2.0, 2.0, 1.0, 1.0])
        # the induced frequency lineup walks down the integers
        assert np.array_equal(builder.omegas_from_mu(mu), [4.0, 3.0, 2.0, 1.0])

    def test_all_harmonics_rejects_odd_length(self):
        scheme = co.ParameterScheme("all-harmonics", 1.0)
        with pytest.raises(co.UnsupportedSchemeError):
            co.make_mu_schedule(scheme, 5)

    def test_zero_elements_rejected(self):
        with pytest.raises(co.InvalidDimensionError):
            co.make_mu_schedule(co.ParameterScheme("uniform", 1.0), 0)

    def test_random_is_seed_deterministic(self):
        a = co.make_mu_schedule(co.ParameterScheme("random", 1.0, seed=7), 6)
        b = co.make_mu_schedule(co.ParameterScheme("random", 1.0, seed=7), 6)
        c = co.make_mu_schedule(co.ParameterScheme("random", 1.0, seed=8), 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_random_range(self):
        mu = co.make_mu_schedule(co.ParameterScheme("random", 1.5, seed=0), 50)
        assert mu.shape == (50,)
        assert np.all(mu > 0.0)
        assert np.all(mu <= 1.5 * 50)

    def test_random_requires_seed(self):
        with pytest.raises(co.InvalidParameterError):
            co.make_mu_schedule(co.ParameterScheme("random", 1.0), 3)

    def test_scheme_validation(self):
        with pytest.raises(co.UnsupportedSchemeError):
            co.ParameterScheme("fibonacci", 1.0)
        with pytest.raises(co.InvalidParameterError):
            co.ParameterScheme("uniform", 0.0)
        with pytest.raises(co.InvalidParameterError):
            co.ParameterScheme("random", 1.0, seed=-1)
        with pytest.raises(co.InvalidParameterError):
            co.ParameterScheme("uniform", 1.0, seed=3)
        with pytest.raises(co.InvalidParameterError):
            co.ParameterScheme("random", 1.0, seed=True)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=(1 << 200) - 1),
        n=st.integers(min_value=1, max_value=300),
        omega0=st.floats(min_value=1e-6, max_value=1e6),
        as_numpy=st.booleans(),
    )
    def test_random_matches_numpy_bit_for_bit(self, seed, n, omega0, as_numpy):
        """The in-package stream is numpy's default_rng(seed).uniform, bit for
        bit; seeds of five or more 32-bit words take SeedSequence's
        extra-entropy mixing, and numpy integer seeds take the same path."""
        if as_numpy:
            seed = np.uint64(seed % (1 << 64))
        mu = co.make_mu_schedule(co.ParameterScheme("random", omega0, seed=seed), n)
        expected = np.random.default_rng(seed).uniform(0.0, omega0 * n, n)
        assert mu.dtype == expected.dtype
        assert mu.tobytes() == expected.tobytes()

    def test_random_redraws_zeros_in_rounds(self, monkeypatch):
        """A draw of exactly 0 takes the next value of the stream, zeros in
        ascending index order, round after round, until none is left."""
        stream = [0.0, 0.5, 0.0, 0.25, 0.0, 0.125, 0.75, 0.875]
        monkeypatch.setattr(builder, "_unit_stream", lambda seed: iter(stream))
        mu = co.make_mu_schedule(co.ParameterScheme("random", 2.0, seed=0), 4)
        assert mu.tolist() == [8 * 0.75, 8 * 0.5, 8 * 0.125, 8 * 0.25]


class TestFrequencyLineup:
    def test_reference_values(self):
        assert np.array_equal(
            builder.omegas_from_mu(np.array([1.0, 2.0, 3.0, 4.0, 5.0])), [3.0, 5.0, 7.0, 9.0, 5.0]
        )

    def test_single_element(self):
        assert np.array_equal(builder.omegas_from_mu(np.array([0.75])), [0.75])

    def test_rejects_nonpositive(self):
        with pytest.raises(co.InvalidParameterError):
            builder.omegas_from_mu(np.array([1.0, 0.0]))
        with pytest.raises(co.InvalidParameterError):
            builder.omegas_from_mu(np.array([-1.0]))
        with pytest.raises(co.InvalidDimensionError):
            builder.omegas_from_mu(np.array([]))

    @given(mu_vectors)
    def test_neighbor_sum_identity_is_exact(self, mu):
        """omega_i is the floating-point sum of its two neighbors, bit for bit."""
        omega = builder.omegas_from_mu(mu)
        n = mu.size
        for i in range(n - 1):
            assert omega[i] == mu[i] + mu[i + 1]
        assert omega[n - 1] == mu[n - 1]


class TestBuildChain:
    def test_reference_chain(self):
        chain = co.build_chain([1.0, 0.0], np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert np.array_equal(chain.alpha, [1.0, 0.0])
        assert np.array_equal(chain.hamiltonian.dense()[0:2, 2:4], [[-1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(chain.omega, [3.0, 5.0, 7.0, 9.0, 5.0])

    def test_scaled_output_normalization(self):
        """A non-unit output direction rescales mu but not omega."""
        chain = co.build_chain([0.0, 2.0], np.array([4.0]))
        assert chain.mu[0] == 1.0
        assert np.array_equal(chain.hamiltonian.dense()[0:2, 2:4], [[0.0, 0.0], [0.0, -4.0]])
        assert chain.omega[0] == 4.0

    def test_zero_output_rejected(self):
        with pytest.raises(co.DegenerateOutputError):
            co.build_chain(np.zeros(2), np.array([1.0]))

    def test_output_row_shape_and_values_checked(self):
        with pytest.raises(co.InvalidDimensionError):
            co.build_chain([1.0, 0.0, 0.0], np.array([1.0]))
        with pytest.raises(co.InvalidParameterError):
            co.build_chain([np.nan, 1.0], np.array([1.0]))

    def test_observer_self_energy_blocks(self):
        chain = co.build_chain([1.0, 0.0], np.array([2.0, 3.0]))
        r_o = chain.hamiltonian.dense()[2:, 2:]
        assert np.array_equal(r_o[0:2, 0:2], 5.0 * np.eye(2))
        assert np.array_equal(r_o[2:4, 2:4], 3.0 * np.eye(2))


class TestAssemble:
    def test_smallest_case_by_hand(self):
        chain = co.build_chain([1.0, 0.0], np.array([1.0]))
        expected = np.array(
            [
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [-1.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.array_equal(chain.hamiltonian.dense(), expected)

    def test_reference_entries(self, example_system):
        chain = example_system
        r_a = chain.hamiltonian.dense()
        assert r_a.shape == (12, 12)
        assert r_a[0, 2] == -1.0
        assert r_a[2, 2] == 3.0
        assert np.array_equal(r_a, r_a.T)

    def test_off_tridiagonal_blocks_are_zero(self, example_system):
        chain = example_system
        r_a = chain.hamiltonian.dense()
        for i in range(6):
            for j in range(6):
                if abs(i - j) > 1:
                    block = r_a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    assert np.array_equal(block, np.zeros((2, 2)))

    def test_realizability(self, example_system):
        chain = example_system
        residual = lqs.realizability_residual(chain.dynamics)
        assert residual <= 1e-12 * np.linalg.norm(chain.dynamics.dense(), ord="fro")

    def test_output_rows(self, tmp_path):
        """build writes C_a with alpha = (1, 0) in each mode's own block."""
        config = tmp_path / "config.json"
        config.write_text('{"n_elements": 5, "scheme": "odd-harmonics", "omega0": 1.0, '
                          '"c_p": [1.0, 0.0], "horizon": 1.0}')
        assert cli.main(["build", "--config", str(config), "--output-dir", str(tmp_path)]) == 0
        c_a = np.loadtxt(tmp_path / "c_a.csv", delimiter=",", ndmin=2)
        assert c_a.shape == (6, 12)
        assert np.array_equal(c_a[0], np.eye(12)[0])
        for i in range(1, 6):
            expected = np.zeros(12)
            expected[2 * i] = 1.0
            assert np.array_equal(c_a[i], expected)

    def test_observer_views(self, example_system):
        """A_o is the block of A_a among modes 1..N."""
        chain = example_system
        assert np.array_equal(chain.observer_dynamics.dense(), chain.dynamics.dense()[2:, 2:])
        assert chain.n_elements == 5

    def test_drive_column(self):
        """The drive check_fixed_point uses is the plant-to-observer block of a_a.

        With x_p = alpha the plant output is z_p = ||alpha||^2, so the residual
        must equal the norm of the assembled observer rows acting on
        (alpha; alpha; ...; alpha). A mistuned lineup keeps that norm nonzero.
        """
        chain = perturb_omega(co.build_chain([0.6, -1.3], np.array([1.0, 2.0, 3.0])), 1, 0.5)
        a_a = chain.dynamics.dense()
        drive = a_a[2:, :2] @ chain.alpha
        assert np.array_equal(drive[2:], np.zeros(4))
        stack = np.tile(chain.alpha, chain.n_elements)
        expected = float(np.linalg.norm(a_a[2:, 2:] @ stack + drive))
        assert expected > 0.5
        assert abs(builder.check_fixed_point(chain) - expected) <= 1e-12 * expected

    def test_mistuned_lineup_reaches_the_assembled_system(self, example_system):
        """omega is the one stored lineup: a replaced one is what gets assembled."""
        chain = example_system
        perturbed = perturb_omega(chain, 2, 0.25)
        r_o = perturbed.hamiltonian.dense()[2:, 2:]
        assert np.array_equal(np.diag(r_o), np.repeat(perturbed.omega, 2))
        assert np.array_equal(np.diag(co.build_reduced(perturbed)), perturbed.omega)


class TestStoredState:
    def test_chain_stores_only_its_defining_arrays(self):
        chain = co.build_chain([0.0, 2.0], np.array([4.0, 2.0, 1.0]))
        fields = [f.name for f in dataclasses.fields(chain)]
        assert fields == ["alpha", "mu_tilde", "omega"]
        assert chain.n_elements == 3
        assert np.array_equal(chain.mu, chain.mu_tilde / 4.0)

    def test_chain_caches_only_its_blocks(self):
        chain = build_system([1.0, 0.0], "odd-harmonics", 1.0, 5)
        # the blocks are all it ever caches, and only once they are read
        assert set(vars(chain)) == {"alpha", "mu_tilde", "omega"}
        assert chain.hamiltonian.diagonal.shape == (6, 2, 2)
        assert chain.dynamics.upper.shape == (5, 2, 2)
        assert chain.observer_dynamics.lower.shape == (4, 2, 2)
        assert chain.x_star.shape == (12,)
        assert set(vars(chain)) == {"alpha", "mu_tilde", "omega", "hamiltonian", "dynamics"}

    def test_a_replaced_lineup_is_not_read_from_the_old_cache(self):
        """dataclasses.replace builds a new chain, so its blocks and x* come
        from its own omega, not from the blocks the old chain cached."""
        chain = build_system([0.6, -1.3], "odd-harmonics", 1.0, 4)
        old_r_a, old_a_a = chain.hamiltonian.dense(), chain.dynamics.dense()
        old_x_star = chain.x_star
        perturbed = perturb_omega(chain, 1, 0.5)
        assert "hamiltonian" not in vars(perturbed) and "dynamics" not in vars(perturbed)
        r_a, a_a, _ = dense_augmented(perturbed)
        assert np.array_equal(perturbed.hamiltonian.dense(), r_a)
        assert np.array_equal(perturbed.dynamics.dense(), a_a)
        assert not np.array_equal(perturbed.hamiltonian.dense(), old_r_a)
        assert not np.array_equal(perturbed.dynamics.dense(), old_a_a)
        assert np.array_equal(perturbed.x_star, old_x_star)
        # the old chain keeps its own blocks
        assert np.array_equal(chain.hamiltonian.dense(), old_r_a)
        assert np.array_equal(chain.dynamics.dense(), old_a_a)

    def test_build_chain_checks_its_coupling_strengths(self):
        with pytest.raises(co.InvalidDimensionError):
            co.build_chain([1.0, 0.0], np.array([]))
        with pytest.raises(co.InvalidParameterError):
            co.build_chain([1.0, 0.0], np.array([1.0, 0.0]))
        with pytest.raises(co.InvalidParameterError):
            co.build_chain([1.0, 0.0], np.array([1.0, np.inf]))

    def test_build_chain_copies_its_inputs(self):
        c_p = np.array([0.6, -1.3])
        mu_tilde = np.array([1.0, 2.0])
        chain = co.build_chain(c_p, mu_tilde)
        c_p[0] = mu_tilde[0] = 9.0
        assert np.array_equal(chain.alpha, [0.6, -1.3])
        assert np.array_equal(chain.mu_tilde, [1.0, 2.0])


class TestFixedPoint:
    def test_reference_residual(self, example_system):
        chain = example_system
        residual = builder.check_fixed_point(chain)
        assert residual <= 1e-12 * np.linalg.norm(chain.dynamics.dense()[2:, 2:], ord="fro")

    def test_single_element_residual(self):
        chain = build_system([1.0, 0.0], "uniform", 1.0, 1)
        assert builder.check_fixed_point(chain) <= 1e-15

    def test_unit_perturbation_gives_residual_two(self, example_system):
        chain = example_system
        perturbed = perturb_omega(chain, 0, 1.0)
        assert abs(builder.check_fixed_point(perturbed) - 2.0) <= 1e-12

    @given(
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=1e-6, max_value=1.0),
        st.sampled_from([(1.0, 0.0), (0.6, -1.3)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_perturbation_sensitivity(self, index, delta, c_p):
        """Breaking any one frequency relation shows up as 2 delta ||alpha||."""
        chain = co.build_chain(c_p, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        perturbed = perturb_omega(chain, index, delta)
        residual = builder.check_fixed_point(perturbed)
        expected = 2.0 * delta * float(np.linalg.norm(c_p))
        assert abs(residual - expected) <= 1e-9 * max(1.0, delta)

    @given(mu_vectors)
    @settings(max_examples=40, deadline=None)
    def test_every_constructed_chain_satisfies_it(self, mu):
        chain = co.build_chain([0.7, -1.3], mu)
        residual = builder.check_fixed_point(chain)
        assert residual <= 1e-12 * np.linalg.norm(chain.dynamics.dense()[2:, 2:], ord="fro")


class TestPlantOutputInvariance:
    def test_axis_aligned_output_row_is_exactly_zero(self, example_system):
        chain = example_system
        assert np.array_equal((output_matrix(chain) @ chain.dynamics.dense())[0], np.zeros(12))

    def test_generic_output_row_vanishes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c_p = rng.normal(size=2)
            chain = build_system(c_p, "random", 1.0, 4, seed=int(rng.integers(1 << 16)))
            a_a = chain.dynamics.dense()
            row = (output_matrix(chain) @ a_a)[0]
            assert np.abs(row).max() <= 1e-13 * np.linalg.norm(a_a, ord="fro")


def test_consensus_target_identity(example_system):
    """Every output of x* = (alpha, ..., alpha) / ||alpha||^2 is one."""
    chain = example_system
    assert np.abs(output_matrix(chain) @ chain.x_star - 1.0).max() <= 1e-15


def test_consensus_target_generic_output():
    chain = build_system([0.6, 2.2], "uniform", 0.5, 3)
    assert np.abs(output_matrix(chain) @ chain.x_star - 1.0).max() <= 1e-15


@st.composite
def assembly_cases(draw):
    variant = draw(st.sampled_from(builder.SCHEMES))
    n = draw(st.integers(min_value=1, max_value=60))
    if variant == builder.SCHEME_ALL_HARMONICS:
        n += n % 2
    seed = draw(st.integers(0, 2**32 - 1)) if variant == builder.SCHEME_RANDOM else None
    # keep ||c_p|| away from 1 so a dropped 1/||alpha||^2 cannot go unseen
    radius = draw(st.floats(0.05, 0.9) | st.floats(1.1, 20.0))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    return variant, n, seed, radius * np.array([np.cos(angle), np.sin(angle)])


@settings(max_examples=80, deadline=None)
@given(assembly_cases())
def test_assembly_matches_the_kronecker_oracle(case):
    """The blocks of R_a and A_a, assembled, equal their Kronecker-product form."""
    variant, n, seed, c_p = case
    chain = build_system(c_p, variant, 1.0, n, seed=seed)
    r_a, a_a, _ = dense_augmented(chain)
    assert np.array_equal(chain.hamiltonian.dense(), r_a)
    assert np.array_equal(chain.dynamics.dense(), a_a)
