"""Weighted graphs, twin-vertex detection, and the rank-one edge perturbation.

A graph is its weight matrix: a read-only, square, symmetric, finite float
array with a zero diagonal, so the adjacency and Laplacian matrices are
symmetric by construction and every twin test reads rows of that one array.
Library functions never mutate a graph; perturbations return new graphs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRangeError, InputError


def _check_int(value, what: str) -> int:
    """int(value) for a Python or numpy integer (not a bool); else InputError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_real(value, lo: float, hi: float, message) -> float:
    """float(value) for a real number (not a bool), bare or in a 0-d array, that a
    float can hold, strictly between lo and hi; else InputError(message), or
    message() if it is a function."""
    value = value[()] if isinstance(value, np.ndarray) else value  # a 0-d array: its scalar
    try:  # float first: it spares most calls the slower numbers.Real check
        if (isinstance(value, (float, numbers.Real)) and type(value) is not bool
                and lo < (x := float(value)) < hi):
            return x
    except OverflowError:  # float(10**400) overflows
        pass
    raise InputError(message() if callable(message) else message)


def _shown(value, form=str) -> str:
    """form(value), or the bit count of an integer too long to print."""
    try:
        return form(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"<{value.bit_length()}-bit integer>"


def _check_vertex(n: int, *vertices: int) -> tuple[int, ...]:
    """The vertices as ints, each read by _check_int and then tested in [0, n)."""
    read = []
    for v in vertices:
        if not 0 <= (v := _check_int(v, "vertex")) < n:
            raise IndexOutOfRangeError(f"vertex {_shown(v)} out of range [0, {n})")
        read.append(v)
    return tuple(read)


def _check_distinct(a, b, message: str) -> None:
    if np.array_equal(a, b):  # not ==, whose truth an array vertex leaves ambiguous
        raise InputError(message)


def _as_array(value) -> np.ndarray:
    """np.array(value), a new array; ragged rows, which numpy gives no shape,
    become a 0-d object array, so a real dtype test (kind in "iuf") refuses
    them with bool, complex, str and object."""
    try:
        return np.array(value)
    except ValueError:
        return np.array(None)


def _zero_weights(n: int) -> np.ndarray:
    """n x n zeros; InputError unless n is an integer >= 1 and numpy can
    allocate them."""
    if (n := _check_int(n, "vertex count")) < 1:
        raise InputError(f"vertex count must be positive, got {_shown(n)}")
    try:
        return np.zeros((n, n))
    except (MemoryError, ValueError) as exc:
        raise InputError(f"vertex count {_shown(n)} is too large") from exc


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1, held as its weight
    matrix: a read-only float copy of the array it is given, which must be
    square, non-empty, finite, real and symmetric with a zero diagonal, and
    keep the Laplacian's squared Frobenius norm finite (InputError otherwise).
    `matrix[u, v]` is the weight of edge (u, v), 0 when the edge is absent.
    Graphs are equal when their matrices are, and are not hashable.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        A = _as_array(self.matrix)
        if (A.dtype.kind not in "iuf"  # bool, complex, str and object are not real
                or A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0
                or not np.isfinite(A).all() or not np.array_equal(A, A.T)
                or np.diagonal(A).any()):
            raise InputError(
                f"weight matrix of shape {A.shape} is not square, non-empty, "
                "finite, real and symmetric with a zero diagonal")
        A = A.astype(float, copy=False)
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
    """Build a graph from (u, v, w) triples, each w a finite positive number.

    Raises IndexOutOfRangeError for a vertex outside [0, n) and InputError
    for any other invalid input.
    """
    A = _zero_weights(n)
    try:
        edges = [(u, v, w) for u, v, w in edge_list]
    except (TypeError, ValueError) as exc:  # not iterable, or not three entries
        raise InputError(f"edges must be (u, v, w) triples: {exc}") from exc
    for u, v, w in edges:
        u, v = _check_vertex(n, u, v)
        if u == v:
            raise InputError(f"self loop at vertex {u}")
        weight = _check_real(w, 0.0, np.inf, lambda: f"edge ({u},{v}) has weight "
                             f"{_shown(w, repr)}; weights must be finite and "
                             "positive numbers")
        if A[u, v]:
            raise InputError(f"edge {(min(u, v), max(u, v))} listed twice")
        A[u, v] = A[v, u] = weight
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
    a, b = _check_vertex(G.n, a, b)
    _check_distinct(a, b, "twin test needs two distinct vertices")
    return bool(_twins(G.matrix, a, slice(b, b + 1))[0])


def _twins(A: np.ndarray, a: int, others: slice) -> np.ndarray:
    """Whether each row A[others] is a twin of row a, as is_twin_pair defines it."""
    return np.count_nonzero(A[a] != A[others], axis=1) == 2 * (A[a, others] != 0)


def list_twin_pairs(G: WeightedGraph) -> list[tuple[int, int]]:
    """All twin pairs (a, b) with a < b, in lexicographic order."""
    return [(a, int(b)) for a in range(G.n)
            for b in np.flatnonzero(_twins(G.matrix, a, slice(a + 1, None))) + a + 1]


def rank_one_matrix(n: int, a: int, b: int) -> np.ndarray:
    """The Laplacian of the unit edge (a, b): +1 at (a,a),(b,b), -1 at (a,b),(b,a).

    Adding alpha times this matrix to a Laplacian increases the (a, b)
    edge weight by alpha. Its square equals twice itself.
    """
    _check_distinct(a, b, "rank-one matrix needs two distinct vertices")
    return laplacian(build_graph(n, [(a, b, 1.0)]))


def perturb_edge(G: WeightedGraph, a: int, b: int, alpha: float) -> WeightedGraph:
    """Return a copy of G with the weight of edge (a, b) increased by alpha.

    A resulting weight of exactly zero removes the edge. Negative results
    are kept, not rejected.
    """
    _check_distinct(a, b, "perturbation endpoints must differ")
    alpha = _check_real(alpha, -np.inf, np.inf, "perturbation alpha must be finite")
    a, b = _check_vertex(G.n, a, b)
    A = G.matrix.copy()
    A[[a, b], [b, a]] += alpha
    return WeightedGraph(A)
