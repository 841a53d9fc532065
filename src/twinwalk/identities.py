"""Seeded random-graph battery for the core algebraic identities.

Used by the command-line `verify-identities` report and by the test suite.
Each check returns the worst deviation observed, so a run summarizes how
tightly the implementation satisfies its exact identities, among them the
closed-form perturbed propagator against the series exponential.
"""

from __future__ import annotations

import numpy as np

from .graphs import (
    WeightedGraph,
    _check_int,
    laplacian,
    list_twin_pairs,
    perturb_edge,
    rank_one_matrix,
)
from .spectral import eigendecompose, matrix_exp_oracle
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


def run_identity_checks(
    G: WeightedGraph | None,
    seed: int,
    trials: int,
) -> dict[str, float | None]:
    """Max deviation per identity over `trials` seeded draws.

    With G given, the graph is solved once and reused each trial (its first
    twin pair, when one exists, drives the twin-dependent identities, which
    are None when it has none: never evaluated, not exact); otherwise every
    trial draws a fresh random graph with a planted twin pair.
    """
    trials = _check_int(trials, "trials", 1)
    seed = _check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    twin = ("perturbation_laplacian", "twin_commutation", "rank_one_power_law",
            "factorization_vs_oracle")
    devs = dict.fromkeys((*twin, "propagator_unitarity", "spectral_vs_oracle"), 0.0)

    def bump(key: str, value: float) -> None:
        devs[key] = max(devs[key], float(value))

    def solved(graph: WeightedGraph, pair: tuple[int, int] | None):
        L = laplacian(graph)
        return graph, pair, L, eigendecompose(L)

    given = None if G is None else solved(G, next(iter(list_twin_pairs(G)), None))
    if given is not None and given[1] is None:
        devs.update(dict.fromkeys(twin, None))
    for _ in range(trials):
        graph, pair, L, s = given or solved(*random_twin_graph(rng))
        alpha = float(rng.uniform(-2.0, 2.0))
        ts = rng.uniform(0.0, 10.0, size=3)

        if pair is not None:
            a, b = pair
            M = rank_one_matrix(graph.n, a, b)
            H = L + alpha * M
            bump("twin_commutation", np.abs(L @ M - M @ L).max())
            power = M.copy()
            for k in range(2, 7):
                power = power @ M
                bump("rank_one_power_law", np.abs(power - 2.0 ** (k - 1) * M).max())
            perturbed = perturb_edge(graph, a, b, alpha)
            bump("perturbation_laplacian", np.abs(laplacian(perturbed) - H).max())

        for t in map(float, ts):
            U = propagator(s, t)
            bump("propagator_unitarity", np.abs(U @ U.conj().T - np.eye(graph.n)).max())
            bump("spectral_vs_oracle", np.abs(U - matrix_exp_oracle(L, t)).max())
            if pair is not None:
                bump("factorization_vs_oracle",
                     np.abs(perturbed_propagator(s, t, a, b, alpha)
                            - matrix_exp_oracle(H, t)).max())
    return devs
