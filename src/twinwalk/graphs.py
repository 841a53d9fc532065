"""Weighted graphs, twin-vertex detection, and the rank-one edge perturbation.

A graph is stored as a vertex count plus a single triangle of nonzero edge
weights keyed by (u, v) with u < v, so the adjacency and Laplacian matrices
built from it are symmetric by construction. Library functions never mutate
a graph; perturbations return new graphs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EqualVerticesError,
    IndexOutOfRangeError,
    NonPositiveWeightError,
    SelfLoopError,
)

EdgeKey = tuple[int, int]


def _key(u: int, v: int) -> EdgeKey:
    return (u, v) if u < v else (v, u)


def _check_vertex(n: int, v: int) -> None:
    if not 0 <= v < n:
        raise IndexOutOfRangeError(f"vertex {v} out of range [0, {n})")


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1.

    `weights` maps (u, v) with u < v to a nonzero real weight; absent pairs
    have weight 0. Zero-weight entries are never stored, so adjacency in the
    combinatorial sense is `weight(u, v) != 0`. The graph keeps a read-only
    view of its own copy of the mapping it is given.
    """

    n: int
    weights: Mapping[EdgeKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))

    def weight(self, u: int, v: int) -> float:
        _check_vertex(self.n, u)
        _check_vertex(self.n, v)
        if u == v:
            return 0.0
        return self.weights.get(_key(u, v), 0.0)

    @property
    def has_negative_weight(self) -> bool:
        return any(w < 0 for w in self.weights.values())


@dataclass(frozen=True)
class EdgePerturbation:
    """Increment the (a, b) edge weight by alpha."""

    a: int
    b: int
    alpha: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise EqualVerticesError("perturbation endpoints must differ")
        if not np.isfinite(self.alpha):
            raise ValueError("perturbation alpha must be finite")


def build_graph(n: int, edge_list: list[tuple[int, int, float]]) -> WeightedGraph:
    """Build a graph from (u, v, w) triples with finite positive weights.

    Raises IndexOutOfRangeError, SelfLoopError, DuplicateEdgeError or
    NonPositiveWeightError on invalid input; the last also when the weights
    are so large that the squared Frobenius norm of the Laplacian overflows.
    """
    if n < 1:
        raise IndexOutOfRangeError(f"vertex count must be positive, got {n}")
    weights: dict[EdgeKey, float] = {}
    for u, v, w in edge_list:
        _check_vertex(n, u)
        _check_vertex(n, v)
        if u == v:
            raise SelfLoopError(f"self loop at vertex {u}")
        if not 0 < w < np.inf:
            raise NonPositiveWeightError(
                f"edge ({u},{v}) has weight {w}; weights must be finite and positive"
            )
        k = _key(u, v)
        if k in weights:
            raise DuplicateEdgeError(f"edge {k} listed twice")
        weights[k] = float(w)
    G = WeightedGraph(n, weights)
    with np.errstate(over="ignore"):
        L = laplacian(G)
        if not np.isfinite((L * L).sum()):
            raise NonPositiveWeightError("weights overflow the Laplacian's norm")
    return G


def adjacency(G: WeightedGraph) -> np.ndarray:
    """Symmetric weight matrix with zero diagonal."""
    A = np.zeros((G.n, G.n))
    for (u, v), w in G.weights.items():
        A[u, v] = w
        A[v, u] = w
    return A


def laplacian(G: WeightedGraph) -> np.ndarray:
    """Degree matrix minus adjacency matrix; rows sum to zero."""
    A = adjacency(G)
    return np.diag(A.sum(axis=1)) - A


def is_twin_pair(G: WeightedGraph, a: int, b: int) -> bool:
    """True iff a and b carry equal weights to every vertex outside {a, b}.

    Rows a and b of the adjacency matrix then differ only in columns a and b,
    and there exactly when the pair is joined by an edge.
    """
    _check_vertex(G.n, a)
    _check_vertex(G.n, b)
    if a == b:
        raise EqualVerticesError("twin test needs two distinct vertices")
    A = adjacency(G)
    return bool(np.count_nonzero(A[a] != A[b]) == 2 * (A[a, b] != 0))


def list_twin_pairs(G: WeightedGraph) -> list[tuple[int, int]]:
    """All twin pairs (a, b) with a < b, in lexicographic order."""
    A = adjacency(G)
    pairs = []
    for a in range(G.n):
        diffs = np.count_nonzero(A[a] != A[a + 1:], axis=1)
        for b in np.flatnonzero(diffs == 2 * (A[a, a + 1:] != 0)) + a + 1:
            pairs.append((a, int(b)))
    return pairs


def rank_one_matrix(n: int, a: int, b: int) -> np.ndarray:
    """The rank-one matrix with +1 at (a,a),(b,b) and -1 at (a,b),(b,a).

    Adding alpha times this matrix to a Laplacian increases the (a, b)
    edge weight by alpha. Its square equals twice itself.
    """
    _check_vertex(n, a)
    _check_vertex(n, b)
    if a == b:
        raise EqualVerticesError("rank-one matrix needs two distinct vertices")
    M = np.zeros((n, n))
    M[a, a] = M[b, b] = 1.0
    M[a, b] = M[b, a] = -1.0
    return M


def perturb_edge(G: WeightedGraph, p: EdgePerturbation) -> WeightedGraph:
    """Return a copy of G with weight(a, b) increased by alpha.

    A resulting weight of exactly zero removes the edge. Negative results
    are kept (and flagged via `has_negative_weight`), not rejected.
    """
    _check_vertex(G.n, p.a)
    _check_vertex(G.n, p.b)
    k = _key(p.a, p.b)
    weights = dict(G.weights)
    new_w = weights.get(k, 0.0) + p.alpha
    if new_w == 0.0:
        weights.pop(k, None)
    else:
        weights[k] = new_w
    return WeightedGraph(G.n, weights)
