"""Symmetric eigendecomposition with clustered eigenvalues, integrality tests,
and a series-based matrix exponential used as an independent oracle.

The eigensolver is a cyclic Jacobi sweep: robust at the small dimensions this
library targets (n <= 64) and guaranteed to produce orthogonal eigenvectors
on symmetric input. A read-only Spectrum keeps the sorted eigenbasis and
merges eigenvalues closer than a clustering tolerance into one distinct value;
projectors, transfer coefficients and propagators are derived from the basis
here, so degenerate eigenspaces only enter through sums over their clusters.
Every propagator entry U(t)[b, a] a verdict reads is a sum over the transfer
coefficients of (a, b), which also check that both vertices are in range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceFailureError, IndexOutOfRangeError, InputError

DEFAULT_CLUSTER_TOL = 1e-8
DEFAULT_INT_TOL = 1e-6

_JACOBI_OFFDIAG_FACTOR = 1e-13
_JACOBI_MAX_SWEEPS = 100
_JACOBI_TAU_LIMIT = 1e150

_ORACLE_TAYLOR_DEGREE = 18
_ORACLE_TARGET_NORM = 0.5


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues (ascending) over an orthonormal eigenbasis whose
    columns starts[j]:starts[j + 1] span the eigenspace of values[j]."""

    values: np.ndarray   # shape (k,), ascending cluster means
    vectors: np.ndarray  # n x n, eigenvector columns sorted by eigenvalue
    starts: np.ndarray   # shape (k,), first column of each cluster

    def __post_init__(self) -> None:
        for arr in (self.values, self.vectors, self.starts):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def multiplicities(self) -> list[int]:
        return np.diff(self.starts, append=self.n).tolist()

    @cached_property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """E_j = B_j B_j^T for the eigenvector block B_j of each cluster."""
        out = tuple(B @ B.T for B in np.split(self.vectors, self.starts[1:], axis=1))
        for E in out:
            E.flags.writeable = False
        return out

    def coefficients(self, a: int, b: int) -> np.ndarray:
        """E_j[b, a] for every cluster j, the weights of U(t)[b, a]."""
        for v in (a, b):
            if not 0 <= v < self.n:
                raise IndexOutOfRangeError(f"vertex {v} out of range [0, {self.n})")
        return np.add.reduceat(self.vectors[a] * self.vectors[b], self.starts)

    def unitary(self, t: float) -> np.ndarray:
        """exp(-i t L) = V diag(exp(-i mu t)) V^T."""
        if not np.isfinite(t):
            raise InputError("t must be finite")
        phases = np.repeat(np.exp(-1j * self.values * t), self.multiplicities)
        return (self.vectors * phases) @ self.vectors.T


def _offdiag_norm(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.sqrt((off * off).sum()))


def _jacobi(L: np.ndarray, fro: float) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi rotations on L with Frobenius norm fro. Returns
    (eigenvalues, eigenvector columns)."""
    A = np.array(L, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    threshold = _JACOBI_OFFDIAG_FACTOR * fro
    if _offdiag_norm(A) <= threshold:
        return np.diag(A).copy(), V
    for _ in range(_JACOBI_MAX_SWEEPS):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                # Stable rotation angle (Golub & Van Loan).
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if abs(tau) > _JACOBI_TAU_LIMIT:
                    t = 0.5 / tau  # the limit of both forms below; tau^2 overflows
                elif tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = 0.0
                A[q, p] = 0.0
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
        if _offdiag_norm(A) <= threshold:
            return np.diag(A).copy(), V
    raise ConvergenceFailureError(
        f"off-diagonal norm {_offdiag_norm(A):.3e} above {threshold:.3e} "
        f"after {_JACOBI_MAX_SWEEPS} sweeps"
    )


def eigendecompose(L: np.ndarray) -> Spectrum:
    """Decompose a symmetric matrix into clusters of its eigenbasis.

    Sorted eigenvalues with consecutive gaps within DEFAULT_CLUSTER_TOL *
    max(1, ||L||_F) form one cluster, whose distinct value is their mean.
    Raises ConvergenceFailureError when L has a non-finite entry or its
    squared Frobenius norm overflows.
    """
    L = np.asarray(L, dtype=float)
    with np.errstate(over="ignore"):
        fro = float(np.sqrt((L * L).sum()))
    if not np.isfinite(fro):
        raise ConvergenceFailureError(
            "matrix has non-finite entries or its norm overflows")
    raw, V = _jacobi(L, fro)
    order = np.argsort(raw)
    raw = raw[order]
    gap = DEFAULT_CLUSTER_TOL * max(1.0, fro)
    starts = np.flatnonzero(np.diff(raw, prepend=-np.inf) > gap)
    means = np.add.reduceat(raw, starts) / np.diff(starts, append=raw.size)
    return Spectrum(means, V[:, order], starts)


def is_integral_spectrum(s: Spectrum) -> bool:
    """True iff every distinct eigenvalue is within DEFAULT_INT_TOL of an
    integer."""
    return bool(np.all(np.abs(s.values - np.round(s.values)) <= DEFAULT_INT_TOL))


def matrix_exp_oracle(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) by scaling-and-squaring on the truncated power series.

    Independent of the spectral route: no eigendecomposition is involved.
    The exponent is scaled so its Frobenius norm is at most 0.5, a degree-18
    Taylor polynomial is summed, and the result is squared back up.
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    X = -1j * t * H.astype(complex)
    norm = float(np.sqrt((np.abs(X) ** 2).sum()))
    s = 0
    if norm > _ORACLE_TARGET_NORM:
        s = int(np.ceil(np.log2(norm / _ORACLE_TARGET_NORM)))
        X = X / (2.0**s)
    U = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, _ORACLE_TAYLOR_DEGREE + 1):
        term = term @ X / k
        U = U + term
    for _ in range(s):
        U = U @ U
    return U
