"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Every test prints "[acceptance] criterion N (name): PASS|FAIL" before its
assertion, so running with -s (or reading captured output on failure) always
shows the verdict table. Tolerances here are fixed contract values; loosening
them is never the right fix for a regression.
"""

from __future__ import annotations

import math

import numpy as np

import chainobs as co
from chainobs.analysis import observer_flow
from conftest import build_system, path_laplacian, perturb_omega
from oracles import (
    collapse_blocks,
    hamiltonian_drift,
    observer_hamiltonian,
    output_matrix,
    propagator,
    symplectic_matrix,
    time_average_exact,
)

# label, c_p, scheme variant, omega0, element count, seed
ACCEPTANCE_CONFIGS = [
    ("reference-five", [1.0, 0.0], "odd-harmonics", 1.0, 5, None),
    ("uniform-three", [1.0, 0.0], "uniform", 2.0, 3, None),
    ("all-harmonics-four", [1.0, 0.0], "all-harmonics", 1.0, 4, None),
    ("random-six", [1.0, 0.0], "random", 1.0, 6, 11),
    ("scaled-output-two", [0.0, 2.0], "odd-harmonics", 1.0, 2, None),
]


def verdict(number: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


def systems():
    for label, c_p, variant, omega0, n, seed in ACCEPTANCE_CONFIGS:
        yield label, build_system(c_p, variant, omega0, n, seed=seed)


def test_criterion_1_plant_output_invariance(example_system):
    chain = example_system
    grid = co.TimeGrid.from_count(50.0, 10_000)
    trajectory = co.coefficient_trajectory(co.normal_modes(chain), grid)
    target = np.zeros(12)
    target[0] = 1.0
    deviation = float(np.abs(trajectory.coefficient_rows[:, 0, :] - target).max())
    ok = deviation <= 1e-9
    verdict(1, "plant-output-invariance", ok)
    assert ok, f"plant output row drifted by {deviation:.3e} (tolerance 1e-09)"


def test_criterion_2_definiteness_sweep():
    failures: list[str] = []

    def examine(variant: str, n: int, seed: int | None) -> None:
        scheme = co.ParameterScheme(variant=variant, omega0=1.0, seed=seed)
        chain = co.build_chain([1.0, 0.0], co.make_mu_schedule(scheme, n))
        label = f"{variant} n={n} seed={seed}"
        try:
            co.certify_positive_definite(observer_hamiltonian(chain))
            reduced = co.build_reduced(chain)
            co.certify_positive_definite(reduced)
        except co.NotPositiveDefiniteError as exc:
            failures.append(f"{label}: {exc}")
            return
        if n == 1:
            return
        laplacian = path_laplacian(chain)
        scale = float(np.linalg.norm(reduced, ord=2))
        if np.abs(laplacian.sum(axis=1)).max() > 1e-14 * scale:
            failures.append(f"{label}: laplacian row sums are not zero")
        eigenvalues = np.linalg.eigvalsh(laplacian)
        if not (eigenvalues[0] >= -1e-12 * scale and eigenvalues[1] > 0.0):
            failures.append(f"{label}: laplacian kernel is not exactly span(1)")

    for n in range(1, 13):
        examine("uniform", n, None)
        examine("odd-harmonics", n, None)
        if n % 2 == 0:
            examine("all-harmonics", n, None)
        for seed in range(50):
            examine("random", n, seed)

    ok = not failures
    verdict(2, "definiteness-sweep", ok)
    assert ok, "definiteness sweep failures:\n" + "\n".join(failures)


def test_criterion_3_fixed_point():
    ok = True
    details = []
    for label, chain in systems():
        residual = co.check_fixed_point(chain)
        bound = 1e-12 * float(np.linalg.norm(chain.dynamics.dense()[2:, 2:], ord="fro"))
        if residual > bound:
            ok = False
            details.append(f"{label}: residual {residual:.3e} > {bound:.3e}")
        for index in range(chain.n_elements):
            perturbed = perturb_omega(chain, index, 1e-3)
            sensitivity = co.check_fixed_point(perturbed)
            if sensitivity <= 1e-4:
                ok = False
                details.append(
                    f"{label}: omega[{index}] shift left residual at {sensitivity:.3e}"
                )
    verdict(3, "fixed-point", ok)
    assert ok, "\n".join(details)


def test_criterion_4_time_averaged_consensus(example_system):
    chain = example_system
    horizons = [50.0, 100.0, 200.0, 400.0, 800.0]
    modes = co.normal_modes(chain)
    averages = {t: co.time_average_spectral(modes, t) for t in horizons}
    errors = {t: co.consensus_error(averages[t]) for t in horizons}

    ok = True
    details = []
    for t in (100.0, 200.0):
        ratio = errors[2 * t] / errors[t]
        if not 0.3 <= ratio <= 0.7:
            ok = False
            details.append(f"error({2 * t:g})/error({t:g}) = {ratio:.4f} outside [0.3, 0.7]")

    # the decay has an almost-periodic modulation on top of the 1/T law, so
    # the envelope constant is fitted on the shorter horizons and every
    # horizon must stay within a factor of two of it, both ways
    envelope = max(t * errors[t] for t in horizons[:-1])
    for t in horizons:
        scaled = t * errors[t]
        if not envelope / 2.0 <= scaled <= 2.0 * envelope:
            ok = False
            details.append(f"T*error(T) = {scaled:.4f} at T = {t:g} leaves the envelope")

    target = np.zeros(12)
    target[0] = 1.0
    final = averages[800.0].averaged_rows
    for i in range(1, final.shape[0]):
        row_error = float(np.linalg.norm(final[i] - target))
        if row_error > 2.0 * envelope / 800.0:
            ok = False
            details.append(f"observer row {i} at T = 800 is off by {row_error:.3e}")

    verdict(4, "time-averaged-consensus", ok)
    assert ok, "\n".join(details)


def test_criterion_5_exponential_bound():
    ok = True
    details = []
    grid = co.TimeGrid.from_count(50.0, 500)
    for label, chain in systems():
        bound = co.certify_positive_definite(observer_hamiltonian(chain)).exp_norm_bound
        try:
            observed = co.verify_exp_bound(co.normal_modes(chain), bound, grid)
        except co.BoundViolatedError as exc:
            ok = False
            details.append(f"{label}: {exc}")
            continue
        if observed > bound * (1.0 + 1e-9):
            ok = False
            details.append(f"{label}: {observed:.6e} > {bound:.6e}")
    verdict(5, "exponential-bound", ok)
    assert ok, "\n".join(details)


def test_criterion_6_conservation():
    ok = True
    details = []
    for label, chain in systems():
        r_a, a_a = chain.hamiltonian.dense(), chain.dynamics.dense()
        theta_norm = float(np.linalg.norm(symplectic_matrix(chain.n_elements + 1), ord="fro"))
        energy_norm = float(np.linalg.norm(r_a, ord="fro"))
        grid = co.TimeGrid.covering(50.0, 0.02)
        step_phi = propagator(a_a, grid.step)
        phi = np.eye(a_a.shape[0])
        worst_symplectic = 0.0
        worst_energy = 0.0
        for _ in range(grid.samples):
            worst_symplectic = max(worst_symplectic, co.symplectic_drift(phi))
            worst_energy = max(worst_energy, hamiltonian_drift(r_a, phi))
            phi = step_phi @ phi
        if worst_symplectic > 1e-9 * theta_norm:
            ok = False
            details.append(f"{label}: symplectic drift {worst_symplectic:.3e}")
        if worst_energy > 1e-9 * energy_norm:
            ok = False
            details.append(f"{label}: energy drift {worst_energy:.3e}")

        spectrum = np.linalg.eigvals(a_a)
        scale = float(np.linalg.norm(a_a, ord=2))
        purity = float(np.abs(spectrum.real).max())
        if purity > 1e-10 * scale:
            ok = False
            details.append(f"{label}: eigenvalue real parts reach {purity:.3e}")
    verdict(6, "conservation", ok)
    assert ok, "\n".join(details)


def test_criterion_7_oracle_equivalence():
    """The library's closed forms against the independent oracles: the
    averages against the doubled-block exponential, and C_a Phi(t) and the
    observer propagator against the exponential of A_a."""
    ok = True
    details = []

    def compare(label: str, library: np.ndarray, oracle: np.ndarray, tolerance: float) -> None:
        nonlocal ok
        scale = float(np.linalg.norm(oracle, ord="fro"))
        gap = float(np.linalg.norm(library - oracle, ord="fro"))
        if gap > tolerance * scale:
            ok = False
            details.append(f"{label}: disagree by {gap:.3e}")

    for k in range(20):
        n = k % 8 + 1
        chain = build_system([1.0, 0.0], "random", 1.0, n, seed=100 + k)
        horizon = 10.0
        library = co.time_average_spectral(co.normal_modes(chain), horizon).averaged_rows
        label = f"random seed {100 + k} n={n}"
        compare(f"{label}: averages and doubled block", library,
                time_average_exact(chain, horizon).averaged_rows, 1e-8)

    for label, chain in systems():
        modes = co.normal_modes(chain)
        a_a = chain.dynamics.dense()
        n = chain.n_elements
        # the flow is in the modes' (q, p) = (alpha^ . x, J alpha^ . x) basis
        alpha_hat = chain.alpha / np.linalg.norm(chain.alpha)
        rotation = np.kron(np.eye(n), np.array([alpha_hat, symplectic_matrix(1) @ alpha_hat]))
        flow = observer_flow(modes, co.TimeGrid(5.0, 1.0))
        for t in (1.0, 5.0):
            exact = propagator(a_a, t)
            compare(f"{label} at t={t:g}: end rows", co.end_rows(modes, t),
                    output_matrix(chain) @ exact, 1e-11)
            compare(f"{label} at t={t:g}: propagators",
                    rotation.T @ flow.propagator(int(t)) @ rotation, exact[2:, 2:], 1e-11)

    verdict(7, "oracle-equivalence", ok)
    assert ok, "\n".join(details)


def test_criterion_8_comparison_bound():
    ok = True
    details = []
    for index, (label, chain) in enumerate(systems()):
        reduced = co.build_reduced(chain)
        rng = np.random.default_rng(7000 + index)
        x = rng.normal(size=(1000, 2 * chain.n_elements))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        full = np.einsum("ij,jk,ik->i", x, observer_hamiltonian(chain), x)
        collapsed = np.stack([collapse_blocks(row) for row in x])
        comparison = np.einsum("ij,jk,ik->i", collapsed, reduced, collapsed)
        margin = float((full - comparison).min())
        if margin < -1e-12:
            ok = False
            details.append(f"{label}: comparison bound violated by {margin:.3e}")
    verdict(8, "comparison-bound", ok)
    assert ok, "\n".join(details)
