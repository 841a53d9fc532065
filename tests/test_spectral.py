import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import twinwalk
from twinwalk import (
    TransferKind,
    build_graph,
    check_lpst,
    eigendecompose,
    is_integral_spectrum,
    k4n_remove_matching,
    laplacian,
    matrix_exp_oracle,
)
from twinwalk.errors import ConvergenceFailureError, IndexOutOfRangeError
from twinwalk.spectral import DEFAULT_CLUSTER_TOL
from conftest import assert_spectrum_invariants, cycle_graph, multiplicities, projectors
from test_graphs import complete


class TestEigendecompose:
    def test_k4(self):
        s = eigendecompose(laplacian(complete(4)))
        assert np.allclose(s.values, [0.0, 4.0], atol=1e-12)
        assert multiplicities(s) == [1, 3]
        J = np.ones((4, 4))
        E = projectors(s)
        assert np.abs(E[0] - J / 4).max() < 1e-12
        assert np.abs(E[1] - (np.eye(4) - J / 4)).max() < 1e-12

    def test_zero_matrix(self):
        s = eigendecompose(np.zeros((3, 3)))
        assert s.values.tolist() == [0.0]
        assert multiplicities(s) == [3]
        assert np.array_equal(projectors(s)[0], np.eye(3))

    def test_no_vertices(self):
        s = eigendecompose(np.zeros((0, 0)))
        assert s.n == 0 and s.values.size == 0 and s.starts.size == 0

    def test_c4(self):
        # eigenvalues 2 - 2cos(2 pi l / 4) over l = 0..3: {0, 2, 4, 2}
        s = eigendecompose(laplacian(cycle_graph(4)))
        assert np.allclose(s.values, [0.0, 2.0, 4.0], atol=1e-12)
        assert multiplicities(s) == [1, 2, 1]

    def test_invariants_on_examples(self):
        for G in (complete(4), cycle_graph(4), cycle_graph(7), complete(9)):
            L = laplacian(G)
            assert_spectrum_invariants(eigendecompose(L), L)

    def test_planted_chain_splits_at_the_gap(self, rng):
        # consecutive values 0.6 gap apart: merging by consecutive gaps made
        # one cluster of each chain, 2.4 gaps wide on the diagonal one. Its
        # last value puts ||H||_F at 1, so its gap is DEFAULT_CLUSTER_TOL
        diag = np.array([0.0, 6e-9, 1.2e-8, 1.8e-8, 2.4e-8, 1.0])
        s = eigendecompose(np.diag(diag))
        assert np.allclose(s.values, [3e-9, 1.5e-8, 2.4e-8, 1.0], rtol=0.0, atol=1e-22)
        # the steps move ||H||_F by under 1e-7 of itself from ||0.1 * ones||
        step = 0.6 * DEFAULT_CLUSTER_TOL * np.linalg.norm(np.full(8, 0.1))
        values = 0.1 + step * np.arange(8)
        Q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        for planted, H in ((diag, np.diag(diag)), (values, (Q * values) @ Q.T)):
            gap = DEFAULT_CLUSTER_TOL * np.linalg.norm(H)
            s = eigendecompose(H)
            assert len(s.values) > 1
            ends = [*s.starts[1:], s.n]
            assert all(planted[hi - 1] - planted[lo] <= gap
                       for lo, hi in zip(s.starts, ends))

    @pytest.mark.parametrize("weight", [1e-9, 1.0, 1e6])
    def test_k2_splits_at_every_weight(self, weight):
        # the gap was DEFAULT_CLUSTER_TOL * max(1, ||L||_F): at weight 1e-9 it
        # merged the eigenvalues 0 and 2e-9, and 0 -> 1 at pi/(2 * weight)
        # reported NONE at fidelity 0 where weight 1 gives LPST at pi/2
        G = build_graph(2, [(0, 1, weight)])
        s = eigendecompose(laplacian(G))
        assert np.allclose(s.values, [0.0, 2 * weight], rtol=1e-12, atol=1e-12 * weight)
        report = check_lpst(G, 0, 1, np.pi / (2 * weight))
        assert report.kind is TransferKind.LPST and report.fidelity > 1 - 1e-12

    def test_convergence_failure(self):
        L = laplacian(cycle_graph(5))
        L[0, 1] = L[1, 0] = np.nan
        with pytest.raises(ConvergenceFailureError, match="non-finite"):
            eigendecompose(L)

    def test_overflowing_norm_is_a_convergence_failure(self):
        # finite entries whose squared Frobenius norm overflows used to come
        # back as the identity basis: C4 at weight 1e160 then reported
        # fidelity 0 from 0 to 1 at t = 1e-160, where it is 0.4546
        L = 1e160 * laplacian(cycle_graph(4))
        with pytest.raises(ConvergenceFailureError, match="overflow"):
            eigendecompose(L)

    def test_spectrum_is_read_only(self):
        s = eigendecompose(laplacian(cycle_graph(4)))
        for arr in (s.values, s.vectors, s.starts):
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_basis_formulas_match_projector_sums(self):
        # degenerate spectra; the projector sums are the reference
        for G in (complete(5), cycle_graph(8), cycle_graph(7)):
            s = eigendecompose(laplacian(G))
            Es = projectors(s)
            for a, b in ((0, 0), (0, 1), (1, 3)):
                ref = [E[b, a] for E in Es]
                assert np.abs(s.coefficients(a, b) - ref).max() < 1e-12
            ref = sum(np.exp(-0.7j * mu) * E for mu, E in zip(s.values, Es))
            assert np.abs(s.unitary(0.7) - ref).max() < 1e-12

    @pytest.mark.parametrize("a, b", [(0, 4), (4, 0), (-1, 0), (0, -1)])
    def test_coefficients_reject_out_of_range(self, a, b):
        s = eigendecompose(laplacian(cycle_graph(4)))
        with pytest.raises(IndexOutOfRangeError):
            s.coefficients(a, b)

    def test_random_invariants(self, rng):
        # module contract: 50 random symmetric matrices, n <= 12
        for _ in range(50):
            n = int(rng.integers(2, 13))
            R = rng.uniform(-2.0, 2.0, size=(n, n))
            H = (R + R.T) / 2.0
            s = eigendecompose(H)
            assert_spectrum_invariants(s, H)
            Es = projectors(s)
            for t in rng.uniform(0.0, 10.0, size=10):
                spectral = np.zeros((n, n), dtype=complex)
                for mu, E in zip(s.values, Es):
                    spectral += np.exp(-1j * mu * t) * E
                assert np.abs(spectral - matrix_exp_oracle(H, t)).max() < 1e-8


@st.composite
def laplacians(draw):
    """A graph Laplacian on n <= 20 vertices with integer weights, or with
    float weights that mix unit-scale and tiny (1e-16 to 1e-6) edges, so its
    diagonal comes in no order, tiny couplings meet wide diagonal gaps and
    some start below the rotation threshold;
    up to three vertices copy another's weights, which plants twins."""
    n = draw(st.integers(1, 20))
    if draw(st.booleans()):
        weight = st.integers(0, 4).map(float)
    else:
        weight = st.one_of(st.just(0.0), st.floats(0.1, 10.0), st.floats(1e-16, 1e-6))
    rows, cols = np.triu_indices(n, 1)
    W = np.zeros((n, n))
    W[rows, cols] = draw(st.lists(weight, min_size=rows.size, max_size=rows.size))
    W += W.T
    vertex = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
        others = [q for q in range(n) if q not in (a, b)]
        W[b, others] = W[others, b] = W[a, others]
    return np.diag(W.sum(axis=1)) - W


class TestJacobi:
    def test_matching_removal_needs_few_sweeps(self, monkeypatch):
        # K24 minus the matching {2i, 2i + 1} has eigenvalues 0, 22 and 24.
        # Inner rotations (|theta| <= pi/4) took 11 sweeps on it; rotations
        # that sort each pair take 4 that rotate and 1 that finds nothing
        # left, so it converges within 6. Rotating every nonzero entry took
        # 1103 rotations (atan2 calls); skipping those at or below
        # eps ||L||_F, which only move rounding noise, takes 790
        rotations, atan2 = [], math.atan2
        monkeypatch.setattr(twinwalk.spectral, "_JACOBI_MAX_SWEEPS", 6)
        monkeypatch.setattr(twinwalk.spectral.math, "atan2",
                            lambda y, x: rotations.append(None) or atan2(y, x))
        fi = k4n_remove_matching(24, [(2 * i, 2 * i + 1) for i in range(12)])
        s = eigendecompose(laplacian(fi.graph))
        assert np.allclose(s.values, [0.0, 22.0, 24.0], rtol=0.0, atol=1e-12)
        assert 0 < len(rotations) <= 900

    @settings(max_examples=40, deadline=None)
    @given(laplacians())
    # the path 0 - 1 - 2 with weights 1 and 1e-13: a stop at off-diagonal
    # norm 1e-13 ||L||_F left a residual of 43 n eps ||L||_F
    @example(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0 + 1e-13, -1e-13],
                       [0.0, -1e-13, 1e-13]]))
    def test_residual_and_orthogonality(self, L):
        # rotations by up to pi/2 swap unsorted pairs; every draw must still
        # converge, to a basis whose residual is rounding noise: each entry
        # left unrotated is at most eps ||L||_F
        fro = float(np.linalg.norm(L))
        values, V = twinwalk.spectral._jacobi(L, fro)
        eps = np.finfo(float).eps
        assert np.linalg.norm(L @ V - V * values) <= 2.0 * L.shape[0] * eps * max(1.0, fro)
        assert np.linalg.norm(V.T @ V - np.eye(L.shape[0])) <= 1e-12 * max(1.0, fro)


def test_only_spectral_reads_the_basis():
    """Outside spectral.py a spectrum is read through n, values,
    coefficients(a, b) and unitary(t), so a spectrum with no eigenbasis can
    stand in for it; reading the basis elsewhere fails here."""
    basis = {"vectors", "starts", "projectors", "multiplicities"}
    for path in sorted(Path(twinwalk.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in basis, (
                    f"{path.name}:{node.lineno} reads .{node.attr}")


def _owners(accept) -> list[str]:
    """`module.function` (or `module.Class.method`) around every node of
    src/twinwalk that accept() takes, with `module` for module level."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if accept(child):
                owners.append(owner)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{owner}.{child.name}" if named else owner)

    for path in sorted(Path(twinwalk.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return owners


def test_only_phases_exponentiates():
    """Phases exp(-i mu t) come only from spectral._phases, which bounds
    every mu t; the one other exp is pgst_scan's table of exp(-2 pi i mu r)
    for r < 1024. A second phase computation fails here."""
    exp = _owners(lambda n: isinstance(n, ast.Call)
                  and ast.unparse(n.func).split(".")[-1] == "exp")
    assert sorted(exp) == ["spectral._phases", "walk.pgst_scan"]


def test_only_check_vertex_raises_out_of_range():
    """Every vertex is checked by graphs._check_vertex; a copy of the check
    fails here."""
    raises = _owners(lambda n: isinstance(n, ast.Raise) and n.exc is not None
                     and "IndexOutOfRangeError" in ast.unparse(n.exc))
    assert raises == ["graphs._check_vertex"]


def test_only_graphs_tests_number_types():
    """The JSON reader checks shape only; graphs._check_int owns the integer
    rule, graphs._check_real the real-number rule (weights, alpha, tol,
    t_max, epsilons), and cli.main reads its own float options. An
    isinstance test against int, float or bool anywhere else (a value rule
    back in jsonio, or a hand-rolled real check) fails here."""
    tests = _owners(lambda n: isinstance(n, ast.Call)
                    and ast.unparse(n.func) == "isinstance"
                    and {"int", "float", "bool"} & {x.id for x in ast.walk(n.args[1])
                                                    if isinstance(x, ast.Name)})
    assert sorted(tests) == ["cli.main", "graphs._check_int", "graphs._check_int",
                             "graphs._check_real"]


class TestIntegrality:
    def test_k5_integral(self):
        assert is_integral_spectrum(eigendecompose(laplacian(complete(5))))

    def test_c5_not_integral(self):
        # 2 - 2cos(2 pi / 5) = 1.381966... is not an integer
        assert not is_integral_spectrum(eigendecompose(laplacian(cycle_graph(5))))

    def test_zero_integral(self):
        assert is_integral_spectrum(eigendecompose(np.zeros((4, 4))))


class TestExpOracle:
    def test_time_zero_identity(self, rng):
        H = rng.uniform(-2, 2, size=(5, 5))
        H = (H + H.T) / 2
        assert np.array_equal(matrix_exp_oracle(H, 0.0), np.eye(5))

    def test_k4_closed_form(self):
        # U(t) = J/n + exp(-i n t)(I - J/n) for the complete graph
        n, t = 4, np.pi / 2
        J = np.ones((n, n))
        expected = J / n + np.exp(-1j * n * t) * (np.eye(n) - J / n)
        got = matrix_exp_oracle(laplacian(complete(n)), t)
        assert np.abs(got - expected).max() < 1e-10

    def test_diagonal(self):
        got = matrix_exp_oracle(np.diag([1.0, 2.0]), np.pi)
        assert np.abs(got - np.diag([-1.0 + 0j, 1.0 + 0j])).max() < 1e-12

    def test_unitary(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            R = rng.uniform(-3, 3, size=(n, n))
            H = (R + R.T) / 2
            for t in rng.uniform(0, 10, size=4):
                U = matrix_exp_oracle(H, t)
                assert np.abs(U @ U.conj().T - np.eye(n)).max() < 1e-10
