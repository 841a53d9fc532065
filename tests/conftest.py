"""Shared builders and invariant helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from twinwalk import Spectrum, WeightedGraph, build_graph


def cycle_graph(n: int) -> WeightedGraph:
    return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def path_graph(n: int) -> WeightedGraph:
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def naive_twin_pairs(G: WeightedGraph) -> list[tuple[int, int]]:
    """Brute-force twin enumeration straight from the weight matrix."""
    pairs = []
    for a in range(G.n):
        for b in range(a + 1, G.n):
            profiles_equal = True
            for q in range(G.n):
                if q in (a, b):
                    continue
                if G.matrix[a, q] != G.matrix[b, q]:
                    profiles_equal = False
                    break
            if profiles_equal:
                pairs.append((a, b))
    return pairs


def multiplicities(s: Spectrum) -> list[int]:
    return np.diff(s.starts, append=s.n).tolist()


def projectors(s: Spectrum) -> list[np.ndarray]:
    """E_j = B_j B_j^T for the eigenvector block B_j of each cluster: the
    reference the spectrum's coefficients and unitary are tested against."""
    return [B @ B.T for B in np.split(s.vectors, s.starts[1:], axis=1)]


def assert_spectrum_invariants(s: Spectrum, L: np.ndarray) -> None:
    """The four structural invariants of a spectral decomposition."""
    identity = np.eye(s.n)
    total = np.zeros((s.n, s.n))
    recon = np.zeros((s.n, s.n))
    Es = projectors(s)
    for j, (mu, E) in enumerate(zip(s.values, Es)):
        assert np.abs(E @ E - E).max() < 1e-9, "projector not idempotent"
        for E2 in Es[j + 1:]:
            assert np.abs(E @ E2).max() < 1e-9, "projectors not orthogonal"
        total += E
        recon += mu * E
    assert np.abs(total - identity).max() < 1e-9, "projectors incomplete"
    radius = max(1.0, float(np.abs(s.values).max()))
    assert np.abs(recon - L).max() < 1e-8 * radius, "reconstruction failed"
    assert sum(multiplicities(s)) == s.n
    assert all(m >= 1 for m in multiplicities(s))
    assert np.all(np.diff(s.values) > 0)


def random_symmetric_set(rng: np.random.Generator, n: int) -> frozenset[int]:
    """Random 0-free connection set closed under negation mod n."""
    S: set[int] = set()
    for s in range(1, n // 2 + 1):
        if rng.random() < 0.5:
            S.add(s)
            S.add((n - s) % n)
    S.discard(0)
    return frozenset(S)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
