from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import chainobs as co


def build_system(c_p, variant="odd-harmonics", omega0=1.0, n=5, seed=None):
    """Construct a chain, the whole plant+observer system, in one call."""
    scheme = co.ParameterScheme(variant=variant, omega0=omega0, seed=seed)
    return co.build_chain(c_p, co.make_mu_schedule(scheme, n))


def path_laplacian(chain):
    """L = R_red - mu~_1 e_1 e_1^T, from the chain's own mu~_1: the Laplacian of
    the path weighted by mu~_2 .. mu~_N when omega follows the lineup."""
    laplacian = co.build_reduced(chain)
    laplacian[0, 0] -= chain.mu_tilde[0]
    return laplacian


def perturb_omega(chain, index, delta):
    """The chain with a single self-energy entry shifted."""
    omega = chain.omega.copy()
    omega[index] += delta
    return dataclasses.replace(chain, omega=omega)


@pytest.fixture(scope="session")
def example_system():
    """The five-element reference configuration used throughout the tests."""
    return build_system([1.0, 0.0], "odd-harmonics", 1.0, 5)


@pytest.fixture
def make_system():
    return build_system
