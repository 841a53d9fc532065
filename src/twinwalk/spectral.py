"""Symmetric eigendecomposition with clustered eigenvalues, integrality tests,
and a series-based matrix exponential used as an independent oracle.

The eigensolver is threshold cyclic Jacobi: robust at the small dimensions
this library targets (n <= 64) and guaranteed to produce orthogonal
eigenvectors on symmetric input. It rotates every entry above eps ||L||_F,
below which a rotation would only move rounding noise, and stops after the
first sweep that rotates nothing. Each rotation turns two rows of one array
[A | V^T] in place, with the same floating-point operations as a statement
that builds the new rows, so the spectra are the same bit for bit. A
read-only Spectrum keeps the sorted eigenbasis and merges eigenvalues closer
than a clustering tolerance into one distinct value; transfer coefficients
and propagators are derived from the basis here, so degenerate eigenspaces
only enter through sums over their clusters. Every propagator entry
U(t)[b, a] a verdict reads is a sum over the transfer coefficients of
(a, b), which also check that both vertices are in range. One time t is
read by graphs._check_real (message _TIME_RULE), an array of times by
_phases, which bounds every phase mu t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, InputError
from .graphs import _as_array, _check_real, _check_vertex

DEFAULT_CLUSTER_TOL = 1e-8
DEFAULT_INT_TOL = 1e-6

_JACOBI_MAX_SWEEPS = 100

_PHASE_LIMIT = np.pi / np.finfo(float).eps  # one rounding of a larger mu t can exceed pi
_TIME_RULE = ("t must be finite, and every phase mu t at most "
              f"pi/eps = {_PHASE_LIMIT:.3g} in magnitude")

_ORACLE_TAYLOR_DEGREE = 18
_ORACLE_TARGET_NORM = 0.5


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues (ascending) over an orthonormal eigenbasis whose
    columns starts[j]:starts[j + 1] span the eigenspace of values[j].

    Outside this module a spectrum is read only through `n`, `values`,
    `coefficients(a, b)` and `unitary(t)`; any other source of a spectrum
    (a twin update, an analytic circulant spectrum) must provide those four.
    """

    values: np.ndarray   # shape (k,), ascending cluster means
    vectors: np.ndarray  # n x n, eigenvector columns sorted by eigenvalue
    starts: np.ndarray   # shape (k,), first column of each cluster

    def __post_init__(self) -> None:
        for arr in (self.values, self.vectors, self.starts):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def coefficients(self, a: int, b: int) -> np.ndarray:
        """E_j[b, a] for every cluster j, the weights of U(t)[b, a]."""
        a, b = _check_vertex(self.n, a, b)
        return np.add.reduceat(self.vectors[a] * self.vectors[b], self.starts)

    def unitary(self, t: float) -> np.ndarray:
        """exp(-i t L) = V diag(exp(-i mu t)) V^T."""
        t = _check_real(t, -np.inf, np.inf, _TIME_RULE)
        phases = np.repeat(_phases(self.values, t), np.diff(self.starts, append=self.n))
        return (self.vectors * phases) @ self.vectors.T


def _phases(values: np.ndarray, times) -> np.ndarray:
    """exp(-i mu t) for every time t (rows) and eigenvalue mu (columns); InputError
    unless the times have a real dtype (int, uint, float; not ragged) and every
    |mu t| <= pi/eps: the one rule for an array of times."""
    if (times := _as_array(times)).dtype.kind in "iuf":  # not bool, complex, str, object
        with np.errstate(over="ignore", invalid="ignore"):
            angles = np.multiply.outer(times, values)
        if (np.abs(angles) <= _PHASE_LIMIT).all():
            return np.exp(-1j * angles)
    raise InputError(_TIME_RULE)


def _real_matrix(M) -> np.ndarray:
    """M as a float array; InputError unless it is real (int or float, as a
    weight matrix must be)."""
    M = _as_array(M)
    if M.dtype.kind not in "iuf":  # bool, complex, str, object and ragged rows
        raise InputError(f"matrix of dtype {M.dtype} is not real")
    return M.astype(float, copy=False)


def _jacobi(L: np.ndarray, fro: float) -> tuple[np.ndarray, np.ndarray]:
    """Threshold cyclic Jacobi on L with Frobenius norm fro, turning rows of [A | V^T]:
    (eigenvalues, V viewing that array) after the first sweep that rotates nothing.
    A sweep rotates each entry with |a_pq| > eps fro (strict: a zero L rotates none);
    a smaller one only moves rounding noise, tilting a vector by <= eps fro / gap."""
    n = L.shape[0]
    B = np.hstack((L, np.eye(n)))  # [A | V^T]: one rotation turns a row of both
    A = B[:, :n]
    rows, heads, cols = list(B), list(A), list(A.T)  # B[p], A[p] and A[:, p], as views
    cBp, sBq = np.empty(2 * n), np.empty(2 * n)  # c Bp and s Bq while rows p, q turn
    skip = np.finfo(float).eps * fro
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            Bp = rows[p]
            for q in range(p + 1, n):
                apq = Bp.item(q)
                if abs(apq) <= skip:
                    continue
                rotated = True
                Bq = rows[q]
                app, aqq = Bp.item(p), Bq.item(q)
                # atan2, not the inner rotation (|theta| <= pi/4), sorts the pair:
                # a_qq - a_pp becomes hypot(a_qq - a_pp, 2 a_pq) >= 0, so repeated
                # eigenvalues gather early; and no ratio of entries overflows it.
                theta = 0.5 * math.atan2(2.0 * apq, aqq - app)
                c, s = math.cos(theta), math.sin(theta)
                np.multiply(Bp, c, out=cBp)
                np.multiply(Bq, s, out=sBq)
                np.multiply(Bp, s, out=Bp)
                np.multiply(Bq, c, out=Bq)
                np.add(Bp, Bq, out=Bq)  # s Bp + c Bq
                np.subtract(cBp, sBq, out=Bp)  # c Bp - s Bq
                cols[p][:] = heads[p]  # mirrored: A stays exactly symmetric
                cols[q][:] = heads[q]
                d = s * s * (aqq - app) - 2.0 * c * s * apq  # 2 x 2 closed form
                Bp[p], Bq[q], Bp[q], Bq[p] = app + d, aqq - d, 0.0, 0.0
        if not rotated:
            return np.diag(A).copy(), B[:, n:].T
    raise ConvergenceFailureError(f"Jacobi did not converge after {_JACOBI_MAX_SWEEPS} sweeps")


def eigendecompose(L: np.ndarray) -> Spectrum:
    """Decompose a symmetric matrix into clusters of its eigenbasis.

    A cluster holds the sorted eigenvalues at most DEFAULT_CLUSTER_TOL *
    ||L||_F above its first, so a chain of close values cannot widen it and
    scaling L scales the gap with it; its distinct value is their mean.
    No graph Laplacian fails these, but a raw matrix L raises InputError
    unless it is real (int or float, as a weight matrix must be), then
    ConvergenceFailureError on a non-finite entry or a squared Frobenius
    norm that overflows, then InputError unless it is square and symmetric
    to within the gap.
    """
    L = _real_matrix(L)
    with np.errstate(over="ignore"):
        fro = float(np.sqrt((L * L).sum()))
    if not np.isfinite(fro):
        raise ConvergenceFailureError(
            "matrix has non-finite entries or its norm overflows")
    gap = DEFAULT_CLUSTER_TOL * fro
    if L.ndim != 2 or L.shape[0] != L.shape[1] or (np.abs(L - L.T) > gap).any():
        raise InputError(f"matrix of shape {L.shape} is not square and symmetric")
    raw, V = _jacobi(L, fro)
    order = np.argsort(raw)
    raw = raw[order]
    first = []
    for i, mu in enumerate(raw):
        if not first or mu - raw[first[-1]] > gap:
            first.append(i)
    starts = np.array(first, dtype=np.intp)
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
    InputError unless t is a real number, H a real square matrix and t H has
    a finite norm.
    """
    t = _check_real(t, -np.inf, np.inf, "t must be finite")
    H = _real_matrix(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InputError(f"matrix of shape {H.shape} is not square")
    n = H.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        X = -1j * t * H.astype(complex)
        norm = float(np.sqrt((np.abs(X) ** 2).sum()))
    if not np.isfinite(norm):
        raise InputError("t H must have a finite norm")
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
