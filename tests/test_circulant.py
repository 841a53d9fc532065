from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twinwalk.circulant as circulant
from twinwalk import (
    CirculantSpec,
    almost_periodic_applicable,
    build_circulant,
    eigendecompose,
    gcd_class,
    is_gcd_set,
    is_twin_pair,
    laplacian,
    laplacian_eigenvalues,
    mod_four_condition,
    twin_condition,
)
from twinwalk.errors import InputError
from conftest import cycle_graph, random_symmetric_set


class TestSpecAndBuild:
    def test_cycle(self):
        G = build_circulant(CirculantSpec(4, frozenset({1, 3})))
        assert G == cycle_graph(4)

    def test_odd_set_z8(self):
        G = build_circulant(CirculantSpec(8, frozenset({1, 3, 5, 7})))
        for u in range(8):
            for v in range(8):
                if u != v:
                    assert G.matrix[u, v] == (1.0 if (u - v) % 2 == 1 else 0.0)

    def test_full_set_is_complete(self):
        G = build_circulant(CirculantSpec(5, frozenset({1, 2, 3, 4})))
        assert np.array_equal(G.matrix, np.ones((5, 5)) - np.eye(5))

    def test_rejects_zero(self):
        with pytest.raises(InputError, match="contains 0"):
            CirculantSpec(6, frozenset({0, 1, 5}))

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError, match="not closed under negation"):
            CirculantSpec(8, frozenset({1, 3}))

    def test_normalizes_residues(self):
        spec = CirculantSpec(8, frozenset({9, 15}))
        assert spec.S == frozenset({1, 7})

    def test_numpy_integers_reduce_past_int64(self):
        # a numpy residue, or a numpy modulus, raised a builtin OverflowError
        # when reduced against a Python integer past the int64 range
        big = 10**30
        assert CirculantSpec(big, [np.int64(3), big - 3]) == CirculantSpec(big, [3, big - 3])
        assert CirculantSpec(np.int64(10), [big + 3, 7]).S == frozenset({3, 7})


class TestGcdMachinery:
    @pytest.mark.parametrize(
        "n,d,members",
        [
            (8, 1, {1, 3, 5, 7}),
            (8, 2, {2, 6}),
            (8, 4, {4}),
            (12, 3, {3, 9}),
        ],
    )
    def test_gcd_class(self, n, d, members):
        assert gcd_class(n, d) == frozenset(members)

    @pytest.mark.parametrize("n,d", [(8, 3), (8, 8), (8, 0), (8, 16)])
    def test_not_proper_divisor(self, n, d):
        with pytest.raises(InputError, match="is not a proper divisor of"):
            gcd_class(n, d)

    def test_is_gcd_set(self):
        assert is_gcd_set(8, {1, 3, 5, 7})
        assert not is_gcd_set(16, {1, 7, 9, 15})
        assert is_gcd_set(8, {4})
        assert is_gcd_set(8, set())

    @pytest.mark.parametrize("n", [10**6, 2**20])
    def test_is_gcd_set_stops_at_first_missing_member(self, monkeypatch, n):
        calls = 0

        def counted(x, m):
            nonlocal calls
            calls += 1
            return gcd(x, m)

        monkeypatch.setattr(circulant, "gcd", counted)
        assert not is_gcd_set(n, {1, n - 1})
        assert calls <= 10

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.sets(st.integers(-200, 200), max_size=6))
    def test_is_gcd_set_matches_class_subsets(self, n, S):
        def outcome(f):
            try:
                return f()
            except InputError as exc:
                return type(exc), str(exc)

        # Built as is_gcd_set builds it: the order of the gcds decides whether a
        # residue = 0 mod n raises before a missing class member returns False.
        T = frozenset(s for s in S)
        subsets = lambda: all(gcd_class(n, d) <= T for d in {gcd(s, n) for s in T})
        assert outcome(lambda: is_gcd_set(n, S)) == outcome(subsets)


class TestAnalyticEigenvalues:
    def test_c4(self):
        lam = laplacian_eigenvalues(CirculantSpec(4, frozenset({1, 3})))
        assert np.allclose(lam, [0.0, 2.0, 4.0, 2.0], atol=1e-12)

    def test_z8_odd(self):
        lam = laplacian_eigenvalues(CirculantSpec(8, frozenset({1, 3, 5, 7})))
        expected = np.full(8, 4.0)
        expected[0] = 0.0
        expected[4] = 8.0
        assert np.allclose(lam, expected, atol=1e-12)

    def test_theta_zero_is_degree(self, rng):
        for n in (4, 8, 16):
            for _ in range(5):
                S = random_symmetric_set(rng, n)
                spec = CirculantSpec(n, S)
                # theta_0 = |S|, so the constant vector spans eigenvalue 0
                assert abs(laplacian_eigenvalues(spec)[0]) < 1e-12

    def test_cosine_symmetry(self, rng):
        for n in (5, 8, 12):
            S = random_symmetric_set(rng, n)
            lam = laplacian_eigenvalues(CirculantSpec(n, S))
            for l in range(1, n):
                assert abs(lam[l] - lam[n - l]) < 1e-12

    def test_matches_jacobi_multiset(self, rng):
        for n in (4, 8, 16):
            for _ in range(20):
                S = random_symmetric_set(rng, n)
                spec = CirculantSpec(n, S)
                s = eigendecompose(laplacian(build_circulant(spec)))
                jacobi = np.repeat(s.values, np.diff(s.starts, append=s.n))
                analytic = np.sort(laplacian_eigenvalues(spec))
                assert np.abs(jacobi - analytic).max() < 1e-9

    def test_laplacian_shift(self):
        spec = CirculantSpec(8, frozenset({1, 3, 5, 7}))
        lap = laplacian_eigenvalues(spec)
        assert np.allclose(np.sort(lap), [0, 4, 4, 4, 4, 4, 4, 8], atol=1e-12)

    def test_empty_set_is_all_zero(self):
        lap = laplacian_eigenvalues(CirculantSpec(5, frozenset()))
        assert lap.dtype == float and np.array_equal(lap, np.zeros(5))


class TestPredicates:
    def test_twin_condition(self):
        assert twin_condition(CirculantSpec(8, frozenset({1, 3, 5, 7})))
        assert twin_condition(CirculantSpec(16, frozenset({1, 7, 9, 15})))
        assert not twin_condition(CirculantSpec(8, frozenset({1, 7})))

    def test_twin_condition_odd_modulus(self):
        with pytest.raises(InputError, match="modulus 5 is odd"):
            twin_condition(CirculantSpec(5, frozenset({1, 4})))

    def test_mod_four(self):
        assert mod_four_condition(CirculantSpec(8, frozenset({1, 3, 5, 7})))
        assert mod_four_condition(CirculantSpec(16, frozenset({1, 7, 9, 15})))
        assert not mod_four_condition(CirculantSpec(8, frozenset({2, 6})))

    def test_almost_periodic_applicable(self):
        assert almost_periodic_applicable(CirculantSpec(8, frozenset({1, 3, 5, 7})))
        assert almost_periodic_applicable(CirculantSpec(16, frozenset({1, 7, 9, 15})))
        assert not almost_periodic_applicable(
            CirculantSpec(12, frozenset({1, 11, 5, 7}))
        )

    def test_twin_condition_gives_twin_vertices(self, rng):
        for n in (4, 8, 16):
            found = 0
            for _ in range(20):
                S = random_symmetric_set(rng, n)
                spec = CirculantSpec(n, S)
                if not twin_condition(spec):
                    continue
                found += 1
                G = build_circulant(spec)
                for x in range(n // 2):
                    assert is_twin_pair(G, x, x + n // 2)
                    # so the circulant twin-edge family never meets an edge
                    assert G.matrix[x, x + n // 2] == 0.0
            assert found > 0


def all_symmetric_sets(n):
    """Every 0-free connection set with S = -S mod n, the empty set included."""
    classes = []
    for s in range(1, n // 2 + 1):
        pair = frozenset({s, (n - s) % n})
        if pair not in classes:
            classes.append(pair)
    sets = [frozenset()]
    for cls in classes:
        sets += [S | cls for S in sets]
    return sets


class TestIntegralityCharacterization:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_gcd_set_iff_integral_spectrum(self, n):
        for S in all_symmetric_sets(n):
            lam = laplacian_eigenvalues(CirculantSpec(n, S))
            integral = bool(np.all(np.abs(lam - np.round(lam)) <= 1e-6))
            assert integral == is_gcd_set(n, S), f"n={n}, S={set(S)}"
