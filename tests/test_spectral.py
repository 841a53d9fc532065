import numpy as np
import pytest

from twinwalk import (
    eigendecompose,
    is_integral_spectrum,
    laplacian,
    matrix_exp_oracle,
)
from twinwalk.errors import ConvergenceFailureError
from conftest import assert_spectrum_invariants, cycle_graph
from test_graphs import complete


class TestEigendecompose:
    def test_k4(self):
        s = eigendecompose(laplacian(complete(4)))
        assert np.allclose(s.values, [0.0, 4.0], atol=1e-12)
        assert s.multiplicities == [1, 3]
        J = np.ones((4, 4))
        assert np.abs(s.projectors[0] - J / 4).max() < 1e-12
        assert np.abs(s.projectors[1] - (np.eye(4) - J / 4)).max() < 1e-12

    def test_zero_matrix(self):
        s = eigendecompose(np.zeros((3, 3)))
        assert s.values.tolist() == [0.0]
        assert s.multiplicities == [3]
        assert np.array_equal(s.projectors[0], np.eye(3))

    def test_c4(self):
        # eigenvalues 2 - 2cos(2 pi l / 4) over l = 0..3: {0, 2, 4, 2}
        s = eigendecompose(laplacian(cycle_graph(4)))
        assert np.allclose(s.values, [0.0, 2.0, 4.0], atol=1e-12)
        assert s.multiplicities == [1, 2, 1]

    def test_invariants_on_examples(self):
        for G in (complete(4), cycle_graph(4), cycle_graph(7), complete(9)):
            L = laplacian(G)
            assert_spectrum_invariants(eigendecompose(L), L)

    def test_cluster_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            eigendecompose(np.eye(2), cluster_tol=0.0)

    def test_convergence_failure(self):
        L = laplacian(cycle_graph(5))
        L[0, 1] = L[1, 0] = np.nan
        with pytest.raises(ConvergenceFailureError, match="non-finite"):
            eigendecompose(L)

    def test_spectrum_is_read_only(self):
        s = eigendecompose(laplacian(cycle_graph(4)))
        for arr in (s.values, s.vectors, s.starts, *s.projectors):
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_basis_formulas_match_projector_sums(self):
        # degenerate spectra; the projector sums are the reference
        for G in (complete(5), cycle_graph(8), cycle_graph(7)):
            s = eigendecompose(laplacian(G))
            for a, b in ((0, 0), (0, 1), (1, 3)):
                ref = [E[b, a] for E in s.projectors]
                assert np.abs(s.coefficients(a, b) - ref).max() < 1e-12
            ref = sum(np.exp(-0.7j * mu) * E for mu, E in zip(s.values, s.projectors))
            assert np.abs(s.unitary(0.7) - ref).max() < 1e-12

    def test_random_invariants(self, rng):
        # module contract: 50 random symmetric matrices, n <= 12
        for _ in range(50):
            n = int(rng.integers(2, 13))
            R = rng.uniform(-2.0, 2.0, size=(n, n))
            H = (R + R.T) / 2.0
            s = eigendecompose(H)
            assert_spectrum_invariants(s, H)
            for t in rng.uniform(0.0, 10.0, size=10):
                spectral = np.zeros((n, n), dtype=complex)
                for mu, E in zip(s.values, s.projectors):
                    spectral += np.exp(-1j * mu * t) * E
                assert np.abs(spectral - matrix_exp_oracle(H, t)).max() < 1e-8


class TestIntegrality:
    def test_k5_integral(self):
        assert is_integral_spectrum(eigendecompose(laplacian(complete(5))))

    def test_c5_not_integral(self):
        # 2 - 2cos(2 pi / 5) = 1.381966... is not an integer
        assert not is_integral_spectrum(eigendecompose(laplacian(cycle_graph(5))))

    def test_zero_integral(self):
        assert is_integral_spectrum(eigendecompose(np.zeros((4, 4))))

    def test_tol_must_be_positive(self):
        s = eigendecompose(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            is_integral_spectrum(s, int_tol=-1.0)


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
