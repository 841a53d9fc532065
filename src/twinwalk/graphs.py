"""Weighted graphs, twin-vertex detection, and the rank-one edge perturbation.

A graph is its weight matrix: a read-only, square, symmetric, finite float
array with a zero diagonal, so the adjacency and Laplacian matrices are
symmetric by construction and every twin test reads rows of that one array.
Library functions never mutate a graph; perturbations return new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRangeError, InputError


def _check_vertex(n: int, v: int) -> None:
    if not 0 <= v < n:
        raise IndexOutOfRangeError(f"vertex {v} out of range [0, {n})")


def _zero_weights(n: int) -> np.ndarray:
    """n x n zeros; InputError unless n >= 1 and numpy can allocate them."""
    if n < 1:
        raise InputError(f"vertex count must be positive, got {n}")
    try:
        return np.zeros((n, n))
    except (MemoryError, ValueError) as exc:
        raise InputError(f"vertex count {n} is too large") from exc


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1, held as its weight
    matrix: a read-only copy of the array it is given, which must be square,
    non-empty, finite and symmetric with a zero diagonal, and keep the
    Laplacian's squared Frobenius norm finite (InputError otherwise).
    `matrix[u, v]` is the weight of edge (u, v), 0 when the edge is absent.
    Graphs are equal when their matrices are, and are not hashable.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        A = np.array(self.matrix, dtype=float)
        if (A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0
                or not np.isfinite(A).all() or not np.array_equal(A, A.T)
                or np.diagonal(A).any()):
            raise InputError(
                f"weight matrix of shape {A.shape} is not square, non-empty, "
                "finite and symmetric with a zero diagonal")
        A.flags.writeable = False
        object.__setattr__(self, "matrix", A)
        with np.errstate(over="ignore"):
            L = laplacian(self)
            if not np.isfinite((L * L).sum()):
                raise InputError("weights overflow the Laplacian's norm")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __reduce__(self):
        # Rebuild through the constructor, which makes the copy read-only.
        return (WeightedGraph, (self.matrix,))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_graph(n: int, edge_list: list[tuple[int, int, float]]) -> WeightedGraph:
    """Build a graph from (u, v, w) triples with finite positive weights.

    Raises IndexOutOfRangeError for a vertex outside [0, n) and InputError
    for any other invalid input.
    """
    A = _zero_weights(n)
    for u, v, w in edge_list:
        _check_vertex(n, u)
        _check_vertex(n, v)
        if u == v:
            raise InputError(f"self loop at vertex {u}")
        if not 0 < w < np.inf:
            raise InputError(
                f"edge ({u},{v}) has weight {w}; weights must be finite and positive"
            )
        if A[u, v]:
            raise InputError(f"edge {(min(u, v), max(u, v))} listed twice")
        A[u, v] = A[v, u] = w
    return WeightedGraph(A)


def laplacian(G: WeightedGraph) -> np.ndarray:
    """Degree matrix minus adjacency matrix; rows sum to zero."""
    A = G.matrix
    return np.diag(A.sum(axis=1)) - A


def is_twin_pair(G: WeightedGraph, a: int, b: int) -> bool:
    """True iff a and b carry equal weights to every vertex outside {a, b}.

    Rows a and b of the adjacency matrix then differ only in columns a and b,
    and there exactly when the pair is joined by an edge.
    """
    _check_vertex(G.n, a)
    _check_vertex(G.n, b)
    if a == b:
        raise InputError("twin test needs two distinct vertices")
    A = G.matrix
    return bool(np.count_nonzero(A[a] != A[b]) == 2 * (A[a, b] != 0))


def list_twin_pairs(G: WeightedGraph) -> list[tuple[int, int]]:
    """All twin pairs (a, b) with a < b, in lexicographic order."""
    A = G.matrix
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
        raise InputError("rank-one matrix needs two distinct vertices")
    M = np.zeros((n, n))
    M[a, a] = M[b, b] = 1.0
    M[a, b] = M[b, a] = -1.0
    return M


def perturb_edge(G: WeightedGraph, a: int, b: int, alpha: float) -> WeightedGraph:
    """Return a copy of G with the weight of edge (a, b) increased by alpha.

    A resulting weight of exactly zero removes the edge. Negative results
    are kept, not rejected.
    """
    if a == b:
        raise InputError("perturbation endpoints must differ")
    if not np.isfinite(alpha):
        raise InputError("perturbation alpha must be finite")
    _check_vertex(G.n, a)
    _check_vertex(G.n, b)
    A = G.matrix.copy()
    A[[a, b], [b, a]] += alpha
    return WeightedGraph(A)
