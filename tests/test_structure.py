"""The block-tridiagonal routes against their dense oracles and a 40-digit referee.

The library holds R_a and A_a as the chain's 2 x 2 blocks alone, and
check, timeavg and simulate never form the (2N+2) x (2N+2) system: every
product, norm and residual they take runs over the blocks, and the
certificate of R_o comes from R_red and omega. Each such route is held here
to the dense route it replaced (tests/oracles.py), on the blocks' dense().
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chainobs as co
from chainobs import analysis, builder, lqs
from conftest import build_system
from oracles import (
    dense_dynamics,
    dense_fixed_point_residual,
    dense_mode_generator_residual,
    dense_realizability_residual,
    observer_hamiltonian,
    reference_eigenvalues,
    symplectic_matrix,
)
from test_acceptance import ACCEPTANCE_CONFIGS

EPS = np.finfo(float).eps

# |lambda - referee| / lambda_max for the extreme eigenvalues of R_o. Worst
# seen on the nine pinned systems: 3.6e-16 (R_red and omega) and 4.7e-16
# (dense eigvalsh of R_o), both at random N=12.
CERTIFICATE_REFEREE_TOL = 2e-15


def structural_certificate(chain: builder.ChainObserverParams) -> analysis.SpectralCertificate:
    reduced = co.certify_positive_definite(co.build_reduced(chain))
    return co.observer_certificate(reduced, chain.omega)


coordinate = st.sampled_from([0.0, -0.0]) | st.floats(0.05, 20.0) | st.floats(-20.0, -0.05)


@st.composite
def chains(draw, mistune: bool = False):
    """Every scheme, N 1-60, c_p with signed-zero entries; optionally one omega
    shifted, which can leave R_o indefinite."""
    variant = draw(st.sampled_from(builder.SCHEMES))
    n = draw(st.integers(min_value=1, max_value=60))
    if variant == builder.SCHEME_ALL_HARMONICS:
        n += n % 2
    seed = draw(st.integers(0, 2**32 - 1)) if variant == builder.SCHEME_RANDOM else None
    c_p = np.array([draw(coordinate), draw(coordinate)])
    if not c_p.any():
        c_p[draw(st.integers(0, 1))] = draw(st.sampled_from([1.0, -2.5]))
    chain = build_system(c_p, variant, 1.0, n, seed=seed)
    if mistune:
        omega = chain.omega.copy()
        omega[draw(st.integers(0, n - 1))] *= draw(st.floats(-1.0, 1.5))
        chain = dataclasses.replace(chain, omega=omega)
    return chain, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(chains(mistune=True))
def test_dynamics_are_the_dense_product_bit_for_bit(case):
    """The row swap 2 Theta R, block by block and then assembled, equals 2 Theta @ R
    in every bit, sign bits of zeros included."""
    chain, _ = case
    expected = dense_dynamics(chain.hamiltonian.dense(), symplectic_matrix(chain.n_elements + 1))
    assert np.array_equal(chain.dynamics.dense().view(np.uint64), expected.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(chains(mistune=True))
def test_block_products_match_the_dense_products(case):
    """rows @ A_a and A_o @ x agree with the dense products to a few eps of
    |rows| |A_a| and |A_o| |x|, entry by entry."""
    chain, seed = case
    rng = np.random.default_rng(seed)
    a_a = chain.dynamics.dense()
    a_o = a_a[2:, 2:]
    rows = rng.normal(size=(3, a_a.shape[0]))
    tolerance = 16 * EPS * (np.abs(rows) @ np.abs(a_a))
    assert np.all(np.abs(rows @ chain.dynamics - rows @ a_a) <= tolerance)
    x = rng.normal(size=a_o.shape[0])
    tolerance = 16 * EPS * (np.abs(a_o) @ np.abs(x))
    assert np.all(np.abs(chain.observer_dynamics @ x - a_o @ x) <= tolerance)


@settings(max_examples=60, deadline=None)
@given(chains(mistune=True))
def test_block_norms_and_residuals_match_the_dense_routes(case):
    """||A_a||_F, ||A_a||_inf and the realizability and fixed-point residuals,
    each against its dense route."""
    chain, _ = case
    a_a = chain.dynamics.dense()
    a_o = a_a[2:, 2:]
    frobenius = np.linalg.norm(a_a)
    assert abs(chain.dynamics.frobenius_norm() - frobenius) <= 4 * EPS * frobenius
    inf_norm = np.linalg.norm(a_a, np.inf)
    assert abs(chain.dynamics.inf_norm() - inf_norm) <= 4 * EPS * inf_norm
    theta = symplectic_matrix(chain.n_elements + 1)
    assert lqs.realizability_residual(chain.dynamics) == dense_realizability_residual(a_a, theta) == 0.0
    scale = np.linalg.norm(a_o) * np.linalg.norm(np.tile(chain.alpha, chain.n_elements))
    expected = dense_fixed_point_residual(a_o, chain)
    assert abs(builder.check_fixed_point(chain) - expected) <= 16 * EPS * scale


@settings(max_examples=40, deadline=None)
@given(chains())
def test_mode_generator_matches_the_dense_rotation(case):
    chain, _ = case
    modes = co.normal_modes(chain)
    dense = dense_mode_generator_residual(modes, chain.dynamics.dense()[2:, 2:])
    assert dense <= 1e-14
    assert abs(co.verify_mode_generator(modes) - dense) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(chains(mistune=True))
def test_both_routes_agree_on_definiteness(case):
    """R_red and omega certify R_o exactly when dense eigvalsh of R_o does."""
    chain, _ = case
    try:
        dense = co.certify_positive_definite(observer_hamiltonian(chain))
    except co.NotPositiveDefiniteError:
        dense = None
    try:
        structural = structural_certificate(chain)
    except co.NotPositiveDefiniteError:
        structural = None
    assert (dense is None) == (structural is None)
    if dense is not None:
        assert abs(structural.lambda_max - dense.lambda_max) <= 1e-13 * dense.lambda_max
        assert abs(structural.lambda_min - dense.lambda_min) <= 1e-13 * dense.lambda_max


REFEREE_SYSTEMS = [(label, c_p, variant, omega0, n, seed)
                   for label, c_p, variant, omega0, n, seed in ACCEPTANCE_CONFIGS] + [
    (f"random-twelve-{seed}", [0.6, -1.3], builder.SCHEME_RANDOM, 1.0, 12, seed) for seed in range(4)
]


@pytest.mark.parametrize("label,c_p,variant,omega0,n,seed", REFEREE_SYSTEMS,
                         ids=[case[0] for case in REFEREE_SYSTEMS])
def test_certificate_against_the_referee(label, c_p, variant, omega0, n, seed):
    """Both routes' extreme eigenvalues of R_o lie within
    CERTIFICATE_REFEREE_TOL * lambda_max of 40-digit ones."""
    chain = build_system(c_p, variant, omega0, n, seed=seed)
    r_o = observer_hamiltonian(chain)
    reference = reference_eigenvalues(r_o)
    scale = float(reference[-1])
    dense = np.linalg.eigvalsh(r_o)
    structural = structural_certificate(chain)
    for route, (lam_min, lam_max) in (("structural", (structural.lambda_min, structural.lambda_max)),
                                      ("dense", (dense[0], dense[-1]))):
        for value, ref in ((lam_min, reference[0]), (lam_max, reference[-1])):
            error = float(abs(mpmath.mpf(float(value)) - ref)) / scale
            assert error <= CERTIFICATE_REFEREE_TOL, (route, error)


def _holders(source: str, matches) -> set[str]:
    """Qualified names of the functions holding a node that matches accepts."""
    holders: set[str] = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if matches(node):
            holders.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return holders


def _callers(source: str, is_target) -> set[str]:
    """Qualified names of the functions holding a call whose callee is_target accepts."""
    return _holders(source, lambda node: isinstance(node, ast.Call) and is_target(node.func))


def _is_trig(func: ast.expr) -> bool:
    """sin or cos of numpy or math."""
    return (isinstance(func, ast.Attribute) and func.attr in ("sin", "cos")
            and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy", "math"))


def test_one_closed_form_takes_the_phases():
    """The propagator's phases are taken in one place, NormalModes.weights,
    and the plant drive, which the propagator does not need, in
    NormalModes.drive; the other trigonometry in the library belongs to the
    independent routes (the averages and the derivative rows) and to
    1 - sin(x)/x."""
    package = Path(co.__file__).parent
    callers = {f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
               for name in _callers(path.read_text(), _is_trig)}
    assert callers == {"simulate.NormalModes.weights", "simulate.NormalModes.drive",
                       "simulate._average_weights", "simulate._derivative_weights",
                       "simulate._one_minus_sinc"}


def _is_exponential(func: ast.expr) -> bool:
    """expm, bare or as an attribute of any module."""
    return (isinstance(func, ast.Name) and func.id == "expm"
            or isinstance(func, ast.Attribute) and func.attr == "expm")


def test_one_float_exponential_in_the_oracles():
    """The test oracles take exp(A t) one way, scipy's expm, and only in
    propagator and in integral_of_propagator's doubled block."""
    source = (Path(__file__).parent / "oracles.py").read_text()
    assert _callers(source, _is_exponential) == {"propagator", "integral_of_propagator"}


def _eigh_uses(source: str) -> set[tuple[str, tuple[str, ...]]]:
    """(function, context managers of the enclosing with statements) of every
    reference to an eigh, as an attribute of any module or as a bare name."""
    uses: set[tuple[str, tuple[str, ...]]] = set()

    def visit(node: ast.AST, scope: tuple[str, ...], managers: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope, managers = (*scope, node.name), ()
        if isinstance(node, ast.With):
            managers = (*managers, *(ast.unparse(item.context_expr) for item in node.items))
        if (isinstance(node, ast.Attribute) and node.attr == "eigh"
                or isinstance(node, ast.Name) and node.id == "eigh"):
            uses.add((".".join(scope), managers))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, managers)

    visit(ast.parse(source), (), ())
    return uses


def test_one_eigh_in_the_library_on_one_thread():
    """The library's one dense eigensolve is np.linalg.eigh in
    _eigh_tridiagonal, inside its one-thread scope."""
    package = Path(co.__file__).parent
    uses = {(f"{path.stem}.{name}", managers) for path in sorted(package.glob("*.py"))
            for name, managers in _eigh_uses(path.read_text())}
    assert uses == {("simulate._eigh_tridiagonal", ("_one_blas_thread(len(d))",))}


def test_one_thread_rule_is_decided_once():
    """ONE_THREAD_MAX_N is read in _blas_threads alone, so the scopes the
    eigensolve and check's sweep run in and the INFO lines that name their
    threads cannot disagree."""
    package = Path(co.__file__).parent

    def reads_the_rule(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id == "ONE_THREAD_MAX_N"
                and isinstance(node.ctx, ast.Load))

    readers = {f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
               for name in _holders(path.read_text(), reads_the_rule)}
    assert readers == {"simulate._blas_threads"}


def _assembles_a_tridiagonal(node: ast.AST) -> bool:
    """np.diag of a vector, or a store into the entries (i, i + 1) or (i + 1, i)."""
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Attribute) and func.attr == "diag"
                and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))
    if not (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2):
        return False
    first, second = (ast.unparse(index) for index in node.slice.elts)
    return f"{first} + 1" == second or f"{second} + 1" == first


def test_one_constructor_assembles_every_tridiagonal():
    """lqs.tridiagonal alone writes a dense symmetric tridiagonal, and both of
    the chain's tridiagonals, R_red and the normal-mode matrix K, go through it."""
    package = Path(co.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assemblers = {f"{stem}.{name}" for stem, source in sources.items()
                  for name in _holders(source, _assembles_a_tridiagonal)}
    assert assemblers == {"lqs.tridiagonal"}

    def calls_it(func: ast.expr) -> bool:
        return isinstance(func, ast.Name) and func.id == "tridiagonal"

    callers = {f"{stem}.{name}" for stem, source in sources.items()
               for name in _callers(source, calls_it)}
    assert callers == {"analysis.build_reduced", "simulate._eigh_tridiagonal"}


def test_one_judge_for_the_exponential_bound():
    """The certified bound and its tolerance EXP_BOUND_REL_TOL are read in
    cli.run_check alone, which holds the sweep's maximum to them through the
    report; the sweep keeps no bounds of its own (ObserverFlow has no bound
    field)."""
    package = Path(co.__file__).parent

    def reads_the_bound(node: ast.AST) -> bool:
        name = getattr(node, "id", getattr(node, "attr", None))
        return (isinstance(getattr(node, "ctx", None), ast.Load)
                and name in ("EXP_BOUND_REL_TOL", "exp_norm_bound"))

    readers = {f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
               for name in _holders(path.read_text(), reads_the_bound)}
    assert readers == {"cli.run_check"}
    assert [f.name for f in dataclasses.fields(analysis.ObserverFlow)] == [
        "modes", "cos", "sin", "g", "h", "screen"]


VALUE_FIELDS = ("n_elements", "scheme", "omega0", "c_p", "seed")


def _config_values(node: ast.AST):
    """The config fields node reads outside any call: a bare name, config.<field>
    or raw["<field>"], through arithmetic and containers."""
    if isinstance(node, ast.Call):
        return
    if isinstance(node, ast.Name) and node.id in VALUE_FIELDS:
        yield node.id
    elif (isinstance(node, ast.Attribute) and node.attr in VALUE_FIELDS
          and isinstance(node.value, ast.Name) and node.value.id == "config"):
        yield node.attr
    elif (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
          and node.slice.value in VALUE_FIELDS):
        yield node.slice.value
    for child in ast.iter_child_nodes(node):
        yield from _config_values(child)


def test_one_home_for_each_input_rule():
    """The config parser checks the JSON's shape and the library checks the
    values: cli.py imports no scheme name and compares no value of
    n_elements, scheme, omega0, c_p or seed; ParameterScheme,
    make_mu_schedule and build_chain hold those rules."""
    tree = ast.parse((Path(co.__file__).parent / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not {name for name in imported if name.startswith("SCHEME")}
    compared = {(field, ast.unparse(node)) for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                for operand in (node.left, *node.comparators)
                for field in _config_values(operand)}
    assert compared == set()


def test_layers_pass_plain_arrays():
    """simulate hands its rows to the CLI and the writers as plain arrays,
    with the times or horizons beside them, so serialize imports nothing of
    chainobs but its lazily loaded formatter, float17, and simulate defines
    no TimeAverage wrapper."""
    package = Path(co.__file__).parent
    tree = ast.parse((package / "serialize.py").read_text())
    imported = {("." * node.level + (node.module or "")) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert {name for name in imported if name.startswith((".", "chainobs"))} == {".float17"}
    classes = {node.name for node in ast.walk(ast.parse((package / "simulate.py").read_text()))
               if isinstance(node, ast.ClassDef)}
    assert "TimeAverage" not in classes
