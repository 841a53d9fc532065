"""Seeded random-graph battery for the core algebraic identities.

Used by the command-line `verify-identities` report and by the test suite.
Each check returns the worst deviation observed, so a run summarizes how
tightly the implementation satisfies its exact identities, among them the
closed-form perturbed propagator against the series exponential.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .graphs import (
    WeightedGraph,
    _check_int,
    _shown,
    laplacian,
    list_twin_pairs,
    perturb_edge,
    rank_one_matrix,
)
from .spectral import Spectrum, eigendecompose, matrix_exp_oracle
from .walk import perturbed_propagator, propagator


def random_twin_graph(rng: np.random.Generator) -> tuple[WeightedGraph, tuple[int, int]]:
    """Random positive-weight graph on 4 to 12 vertices with a planted twin pair.

    Vertices a < b are made twins by copying a's weights onto b for every
    shared neighbor; the (a, b) edge itself is present half the time.
    """
    n = int(rng.integers(4, 13))
    A = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                A[u, v] = A[v, u] = rng.uniform(0.2, 2.0)
    a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
    A[b] = A[a]
    A[:, b] = A[:, a]
    A[a, b] = A[b, a] = rng.uniform(0.2, 2.0) if rng.random() < 0.5 else 0.0
    return WeightedGraph(A), (a, b)


def _factorization_gap(s: Spectrum, L: np.ndarray, M: np.ndarray,
                       alpha: float, times: list[float] | np.ndarray) -> float:
    """max over times of the entrywise gap between perturbed_propagator on
    the spectrum s of L and the series exponential of H = L + alpha M."""
    H = L + alpha * M
    return max((float(np.abs(perturbed_propagator(s, t, M, alpha)
                              - matrix_exp_oracle(H, t)).max())
                for t in map(float, times)), default=0.0)


def run_identity_checks(
    G: WeightedGraph | None,
    seed: int,
    trials: int,
) -> dict[str, float]:
    """Max deviation per identity over `trials` seeded draws.

    With G given, the graph is solved once and reused each trial (its first
    twin pair, when one exists, drives the twin-dependent identities);
    otherwise every trial draws a fresh random graph with a planted twin
    pair.
    """
    if (trials := _check_int(trials, "trials")) < 1:
        raise InputError("trials must be at least 1")
    if (seed := _check_int(seed, "seed")) < 0:
        raise InputError(f"seed {_shown(seed)}: expected non-negative integer")
    rng = np.random.default_rng(seed)
    devs = dict.fromkeys(
        ("perturbation_laplacian", "twin_commutation", "rank_one_power_law",
         "factorization_vs_oracle", "propagator_unitarity", "spectral_vs_oracle"),
        0.0)

    def bump(key: str, value: float) -> None:
        devs[key] = max(devs[key], float(value))

    def solved(graph: WeightedGraph, pair: tuple[int, int] | None):
        L = laplacian(graph)
        return graph, pair, L, eigendecompose(L)

    given = None if G is None else solved(G, next(iter(list_twin_pairs(G)), None))
    for _ in range(trials):
        graph, pair, L, s = given or solved(*random_twin_graph(rng))
        alpha = float(rng.uniform(-2.0, 2.0))
        ts = rng.uniform(0.0, 10.0, size=3)

        for t in ts:
            U = propagator(s, float(t))
            bump("propagator_unitarity", np.abs(U @ U.conj().T - np.eye(graph.n)).max())
            bump("spectral_vs_oracle", np.abs(U - matrix_exp_oracle(L, float(t))).max())

        if pair is not None:
            a, b = pair
            M = rank_one_matrix(graph.n, a, b)
            bump("twin_commutation", np.abs(L @ M - M @ L).max())
            power = M.copy()
            for k in range(2, 7):
                power = power @ M
                bump("rank_one_power_law", np.abs(power - 2.0 ** (k - 1) * M).max())
            perturbed = perturb_edge(graph, a, b, alpha)
            bump("perturbation_laplacian",
                 np.abs(laplacian(perturbed) - (L + alpha * M)).max())
            bump("factorization_vs_oracle", _factorization_gap(s, L, M, alpha, ts))
    return devs
