from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chainobs as co
from chainobs import lqs
from oracles import (
    dense_dynamics,
    dense_symplectic_drift,
    hamiltonian_drift,
    propagator,
    rotation,
    symplectic_matrix,
)


def test_dynamics_of_zero_hamiltonian():
    zero = co.BlockTridiagonal(np.zeros((2, 2, 2)), np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
    assert np.array_equal(lqs.block_dynamics(zero).dense(), np.zeros((4, 4)))


def test_dynamics_of_identity_is_twice_theta():
    a = lqs.block_dynamics(single_mode(np.eye(2)))
    assert np.array_equal(a.dense(), 2.0 * symplectic_matrix(1))


def random_block_tridiagonal(rng: np.random.Generator, n_modes: int) -> co.BlockTridiagonal:
    """A random symmetric matrix of 2 x 2 blocks, zero off the three central block diagonals."""
    diagonal = rng.normal(size=(n_modes, 2, 2))
    upper = rng.normal(size=(n_modes - 1, 2, 2))
    return co.BlockTridiagonal(
        diagonal + np.swapaxes(diagonal, 1, 2), upper, np.swapaxes(upper, 1, 2)
    )


def test_system_factory_is_realizable():
    rng = np.random.default_rng(42)
    for _ in range(20):
        r = random_block_tridiagonal(rng, 3)
        dynamics = lqs.block_dynamics(r)
        residual = lqs.realizability_residual(dynamics)
        assert residual <= 1e-12 * dynamics.frobenius_norm()


def test_block_dynamics_match_the_dense_dynamics():
    rng = np.random.default_rng(7)
    for n_modes in (1, 2, 5):
        r = random_block_tridiagonal(rng, n_modes)
        dense = dense_dynamics(r.dense(), symplectic_matrix(n_modes))
        assert np.array_equal(lqs.block_dynamics(r).dense(), dense)


@pytest.mark.parametrize("n_modes", [1, 2, 5])
def test_block_products_and_norms_match_the_dense_matrix(n_modes):
    """Unequal upper and lower blocks, so a product that mixes them up shows."""
    rng = np.random.default_rng(n_modes)
    m = co.BlockTridiagonal(*(rng.normal(size=(k, 2, 2)) for k in (n_modes, n_modes - 1, n_modes - 1)))
    dense = m.dense()
    assert np.array_equal(m.T.dense(), dense.T)
    rows = rng.normal(size=(3, 4, 2 * n_modes))
    assert np.allclose(rows @ m, rows @ dense, rtol=0.0, atol=1e-14)
    assert np.allclose(m @ rows[0, 0], dense @ rows[0, 0], rtol=0.0, atol=1e-14)
    assert np.isclose(m.frobenius_norm(), np.linalg.norm(dense), rtol=1e-15, atol=0.0)
    assert np.isclose(m.inf_norm(), np.linalg.norm(dense, np.inf), rtol=1e-15, atol=0.0)


def single_mode(block: np.ndarray) -> co.BlockTridiagonal:
    return co.BlockTridiagonal(block[None], np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))


def test_realizability_residual_of_rotation_generator_is_zero():
    # a = 2J generates a pure rotation, the simplest realizable dynamics
    assert lqs.realizability_residual(single_mode(2.0 * lqs.SYMPLECTIC_UNIT)) == 0.0


def test_realizability_residual_of_identity():
    """A = I is not generated by any Hamiltonian; the residual is ||2 Theta||_F."""
    residual = lqs.realizability_residual(single_mode(np.eye(2)))
    assert abs(residual - 2.0 * np.sqrt(2.0)) <= 1e-14


def test_realizability_residual_sees_an_unmatched_coupling():
    """Off-diagonal blocks enter through A_ij J + J A_ji^T: a lower block that
    is not the mirror of the upper one is not realizable."""
    rng = np.random.default_rng(5)
    r = random_block_tridiagonal(rng, 3)
    a = lqs.block_dynamics(r)
    broken = co.BlockTridiagonal(a.diagonal, a.upper, a.lower + 1e-3 * np.eye(2))
    assert lqs.realizability_residual(broken) > 1e-4


def test_realizability_shape_check():
    """realizability_residual takes block-tridiagonal dynamics, whose block shapes are checked."""
    with pytest.raises(co.InvalidDimensionError):
        co.BlockTridiagonal(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(co.InvalidDimensionError):
        co.BlockTridiagonal(np.eye(4), np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))


def test_realizability_rejects_non_finite_dynamics():
    with pytest.raises(co.InvalidInputError):
        lqs.realizability_residual(single_mode(np.array([[np.nan, 0.0], [0.0, 1.0]])))


def test_hamiltonian_drift_of_identity_propagator():
    assert hamiltonian_drift(np.diag([1.0, 2.0]), np.eye(2)) == 0.0


def test_hamiltonian_drift_closed_form_rotation():
    """exp(2Jt) conserves the identity Hamiltonian: rotations are isometries."""
    for t in (0.1, 0.9, 4.0):
        phi = rotation(2.0 * t)
        assert hamiltonian_drift(np.eye(2), phi) <= 1e-14


def test_symplectic_drift_closed_form_rotation():
    for t in (0.25, 1.3, 7.7):
        assert lqs.symplectic_drift(rotation(2.0 * t)) <= 1e-14


def test_drift_shape_mismatch():
    with pytest.raises(co.InvalidDimensionError):
        hamiltonian_drift(np.eye(4), np.eye(2))
    with pytest.raises(co.InvalidDimensionError):
        lqs.symplectic_drift(np.eye(3))


def random_propagator(n_modes: int, seed: int, symplectic: bool) -> np.ndarray:
    """exp(2 Theta R t) for a random symmetric R, or an arbitrary matrix."""
    rng = np.random.default_rng(seed)
    dim = 2 * n_modes
    if not symplectic:
        return rng.normal(size=(dim, dim)) * rng.uniform(0.1, 10.0)
    r = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    a = dense_dynamics(r + r.T, symplectic_matrix(n_modes))
    return propagator(a, rng.uniform(0.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_symplectic_drift_matches_the_dense_oracle(n_modes, seed, symplectic):
    phi = random_propagator(n_modes, seed, symplectic)
    expected = dense_symplectic_drift(phi, symplectic_matrix(n_modes))
    scale = max(1.0, float(np.linalg.norm(phi, ord="fro")) ** 2)
    assert abs(lqs.symplectic_drift(phi) - expected) <= 1e-12 * scale


@pytest.mark.parametrize("n_modes", [1, 2, 5])
def test_symplectic_drift_takes_theta_from_the_propagator(n_modes):
    """Theta is diag(J, ..., J) of phi's size: a rotation of every mode is
    symplectic, and 2 I misses Theta by ||3 Theta||_F = 3 sqrt(2 n)."""
    assert lqs.symplectic_drift(np.kron(np.eye(n_modes), rotation(0.7))) <= 1e-15
    drift = lqs.symplectic_drift(2.0 * np.eye(2 * n_modes))
    assert abs(drift - 3.0 * np.sqrt(2 * n_modes)) <= 1e-14


def test_symplectic_drift_holds_two_arrays_beside_phi():
    """The column halves are freed before M - M^T is formed, so the check
    holds M and M - M^T beside phi, two arrays of phi's size; with the
    halves kept it would hold three."""
    phi = np.kron(np.eye(200), rotation(0.7))
    tracemalloc.start()
    try:
        lqs.symplectic_drift(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * phi.nbytes <= peak < 2.1 * phi.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_symplectic_drift_rejects_non_finite_propagators(bad):
    phi = np.eye(6)
    phi[3, 4] = bad
    with pytest.raises(co.InvalidInputError, match="propagator contains non-finite entries"):
        lqs.symplectic_drift(phi)


@pytest.mark.parametrize("shape", [(3, 3), (4, 6), (4,), (2, 4, 4)])
def test_symplectic_drift_rejects_wrong_shapes(shape):
    """Theta's size comes from the propagator, which must be square with an even side."""
    with pytest.raises(co.InvalidDimensionError, match="is not square with an even side"):
        lqs.symplectic_drift(np.zeros(shape))


def test_augmented_dynamics_match_blockwise_product(example_system):
    """A_a must equal 2 Theta R_a computed block row by block row."""
    chain = example_system
    j = lqs.SYMPLECTIC_UNIT
    r_a, a_a = chain.hamiltonian.dense(), chain.dynamics.dense()
    expected = np.empty_like(a_a)
    for i in range(chain.n_elements + 1):
        rows = slice(2 * i, 2 * i + 2)
        expected[rows] = 2.0 * j @ r_a[rows]
    assert np.array_equal(a_a, expected)


def test_observer_dynamics_spectrum_is_imaginary(example_system):
    """With r_o positive definite the observer dynamics are oscillatory."""
    chain = example_system
    a_o = chain.dynamics.dense()[2:, 2:]
    eigenvalues = np.linalg.eigvals(a_o)
    scale = np.linalg.norm(a_o, ord=2)
    assert np.abs(eigenvalues.real).max() <= 1e-12 * scale
