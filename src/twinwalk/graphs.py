"""Weighted graphs, twin-vertex detection, and the rank-one edge perturbation.

A graph is stored as a vertex count plus a single triangle of nonzero edge
weights keyed by (u, v) with u < v, so the adjacency and Laplacian matrices
built from it are symmetric by construction. Library functions never mutate
a graph; perturbations return new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    combinatorial sense is `weight(u, v) != 0`.
    """

    n: int
    weights: dict[EdgeKey, float] = field(default_factory=dict)

    def weight(self, u: int, v: int) -> float:
        _check_vertex(self.n, u)
        _check_vertex(self.n, v)
        if u == v:
            return 0.0
        return self.weights.get(_key(u, v), 0.0)

    def neighbors(self, u: int) -> dict[int, float]:
        """Map from neighbor index to edge weight."""
        _check_vertex(self.n, u)
        out: dict[int, float] = {}
        for (a, b), w in self.weights.items():
            if a == u:
                out[b] = w
            elif b == u:
                out[a] = w
        return out

    @property
    def has_negative_weight(self) -> bool:
        return any(w < 0 for w in self.weights.values())


@dataclass(frozen=True)
class TwinPair:
    """A verified twin pair a < b with its shared neighbor weights."""

    a: int
    b: int
    adjacent: bool
    shared_weight_profile: dict[int, float]


@dataclass(frozen=True)
class EdgePerturbation:
    """Increment the (a, b) edge weight by alpha."""

    a: int
    b: int
    alpha: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise EqualVerticesError("perturbation endpoints must differ")


def build_graph(n: int, edge_list: list[tuple[int, int, float]]) -> WeightedGraph:
    """Build a graph from (u, v, w) triples with finite positive weights.

    Raises IndexOutOfRangeError, SelfLoopError, DuplicateEdgeError or
    NonPositiveWeightError on invalid input.
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
    return WeightedGraph(n, weights)


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
    """True iff a and b carry equal weights to every vertex outside {a, b}."""
    _check_vertex(G.n, a)
    _check_vertex(G.n, b)
    if a == b:
        raise EqualVerticesError("twin test needs two distinct vertices")
    return all(
        G.weight(a, q) == G.weight(b, q) for q in range(G.n) if q != a and q != b
    )


def list_twin_pairs(G: WeightedGraph) -> list[TwinPair]:
    """All twin pairs (a, b) with a < b, in lexicographic order."""
    pairs = []
    for a in range(G.n):
        for b in range(a + 1, G.n):
            if is_twin_pair(G, a, b):
                profile = {
                    q: w for q, w in G.neighbors(a).items() if q != b
                }
                pairs.append(TwinPair(a, b, G.weight(a, b) != 0, profile))
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
