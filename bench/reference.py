"""Independent reference for the benchmark's verdict checks.

Laplacians are built here straight from the generated inputs, and walk
amplitudes come from `np.linalg.eigh`, so no check depends on
twinwalk.spectral or on the package's own graph constructions.
"""

from __future__ import annotations

import hashlib
from math import gcd

import numpy as np


def laplacian(n: int, weights: dict[tuple[int, int], float]) -> np.ndarray:
    A = np.zeros((n, n))
    for (u, v), w in weights.items():
        A[u, v] = A[v, u] = w
    return np.diag(A.sum(axis=1)) - A


def complete_with(n: int, pairs, weight: float) -> np.ndarray:
    """K_n with the edge of each listed pair set to `weight` (0 removes it)."""
    weights = {(u, v): 1.0 for u in range(n) for v in range(u + 1, n)}
    for a, b in pairs:
        weights[(min(a, b), max(a, b))] = weight
    return laplacian(n, {k: w for k, w in weights.items() if w != 0.0})


def circulant_with(n: int, S, pairs) -> np.ndarray:
    """Cay(Z_n, S) with a unit edge added between each listed pair."""
    weights = {}
    for u in range(n):
        for s in S:
            v = (u + s) % n
            weights[(min(u, v), max(u, v))] = 1.0
    for a, b in pairs:
        key = (min(a, b), max(a, b))
        weights[key] = weights.get(key, 0.0) + 1.0
    return laplacian(n, weights)


def gcd_set(n: int, divisors) -> tuple[int, ...]:
    """The union of the gcd classes of Z_n for the given proper divisors."""
    return tuple(x for x in range(1, n) if gcd(x, n) in divisors)


def twin_pairs(L: np.ndarray) -> list[list[int]]:
    """Pairs a < b whose adjacency rows agree outside {a, b}."""
    n = L.shape[0]
    A = -(L - np.diag(np.diag(L)))
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            keep = np.ones(n, dtype=bool)
            keep[[a, b]] = False
            if np.array_equal(A[a, keep], A[b, keep]):
                out.append([a, b])
    return out


def key(L: np.ndarray) -> str:
    """Identity of a graph, for the deck's repeat descriptor."""
    return hashlib.blake2b(np.ascontiguousarray(L).tobytes(), digest_size=16).hexdigest()


class Walk:
    """exp(-i t L) from the eigenbasis of a symmetric Laplacian."""

    def __init__(self, L: np.ndarray) -> None:
        self.L = L
        self.values, self.vectors = np.linalg.eigh(L)

    def fidelity(self, a: int, b: int, t: float) -> float:
        coeff = self.vectors[b] * self.vectors[a]
        return float(abs(coeff @ np.exp(-1j * self.values * t)))

    def distinct_values(self, cluster_tol: float = 1e-8) -> int:
        """Number of eigenvalue clusters, merged by consecutive gaps."""
        gap = cluster_tol * max(1.0, float(np.linalg.norm(self.L)))
        return 1 + int(np.count_nonzero(np.diff(self.values) > gap))


def random_laplacian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense Laplacian with weights drawn uniformly from [0.2, 2)."""
    W = np.triu(rng.uniform(0.2, 2.0, size=(n, n)), 1)
    W = W + W.T
    return np.diag(W.sum(axis=1)) - W
