"""Propagator evaluation, transfer fidelities, and state-transfer searches.

Propagators are evaluated from the spectral decomposition, U(t) = sum_j
exp(-i mu_j t) E_j. For a twin pair (a, b) the propagator of the edge
perturbed graph factors in closed form,

    U'(t) = U(t) [I + (exp(-2 i alpha t) - 1) / 2 * M],

where M is the rank-one matrix of the pair; this module evaluates that
factorization and checks it against the series exponential of the perturbed
Laplacian. Searches cover a uniform time grid with golden-section refinement
(perfect transfer) and the arithmetic progression (4q+1) pi/2 (pretty good
transfer / almost periodicity).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    EqualVerticesError,
    IndexOutOfRangeError,
    TwinViolationError,
)
from .graphs import (
    TwinPair,
    WeightedGraph,
    is_twin_pair,
    laplacian,
    rank_one_matrix,
)
from .spectral import Spectrum, eigendecompose, matrix_exp_oracle

DEFAULT_LPST_TOL = 1e-9
DEFAULT_SCAN_GRID = 20_000
DEFAULT_QMAX = 1_000_000
DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3)

_GOLDEN_WINDOW = 1e-10
_GOLDEN_MAX_ITER = 200
_PHASE_FLOOR = 1e-15
_RECORD_STEP = 1e-6


class TransferKind(enum.Enum):
    LPST = "LPST"
    PERIODIC = "PERIODIC"
    PGST = "PGST"
    NONE = "NONE"


@dataclass(frozen=True)
class Propagator:
    """A unitary walk matrix tagged with its evaluation time."""

    time: float
    matrix: np.ndarray


@dataclass(frozen=True)
class TransferReport:
    kind: TransferKind
    source: int
    target: int
    time: float
    fidelity: float
    phase: complex
    tolerance: float


@dataclass(frozen=True)
class EpsilonHit:
    """First scan time whose fidelity reached 1 - epsilon."""

    epsilon: float
    q: int
    time: float
    fidelity: float


@dataclass(frozen=True)
class PGSTWitness:
    """Record-improvement times of a (4q+1) pi/2 scan with the epsilon ladder.

    `fidelities[i]` is the running-best fidelity first attained at `times[i]`;
    both lists are strictly increasing.
    """

    times: list[float]
    fidelities: list[float]
    epsilon_ladder: list[EpsilonHit]

    def achieved(self, epsilon: float) -> EpsilonHit | None:
        for hit in self.epsilon_ladder:
            if hit.epsilon == epsilon:
                return hit
        return None


def propagator(s: Spectrum, t: float) -> Propagator:
    """U(t) = sum_j exp(-i mu_j t) E_j."""
    return Propagator(t, s.unitary(t))


def transfer_amplitudes(
    s: Spectrum, a: int, b: int, times: np.ndarray
) -> np.ndarray:
    """Entry (b, a) of the propagator at each time, as one vectorized sweep."""
    return np.exp(-1j * np.outer(times, s.values)) @ s.coefficients(a, b)


def phase_alignment(s: Spectrum, t: float) -> float:
    """max_j |exp(-i mu_j t) - 1|; small values certify almost periodicity."""
    return float(np.abs(np.exp(-1j * s.values * t) - 1.0).max())


def _pair_from_rank_one(M: np.ndarray) -> tuple[int, int]:
    idx = np.flatnonzero(np.diag(M) == 1.0)
    if idx.size != 2:
        raise ValueError("matrix is not a rank-one twin-pair perturbation")
    return int(idx[0]), int(idx[1])


def perturbed_propagator(
    base: Propagator,
    M: np.ndarray,
    alpha: float,
    validate_graph: WeightedGraph | None = None,
) -> Propagator:
    """Closed-form propagator of the edge perturbed graph at base.time.

    Valid only when the endpoints of M are twins in the graph the base
    propagator came from; pass that graph as validate_graph to have the twin
    condition checked (TwinViolationError otherwise).
    """
    if validate_graph is not None:
        a, b = _pair_from_rank_one(M)
        if not is_twin_pair(validate_graph, a, b):
            raise TwinViolationError(
                f"({a},{b}) is not a twin pair; factorization invalid"
            )
    t = base.time
    bracket = np.eye(base.matrix.shape[0], dtype=complex)
    bracket += 0.5 * (np.exp(-2j * alpha * t) - 1.0) * M
    return Propagator(t, base.matrix @ bracket)


def fidelity(U: Propagator, a: int, b: int) -> tuple[float, complex]:
    """(|U[b, a]|, unit phase); phase defaults to 1 below the noise floor."""
    n = U.matrix.shape[0]
    for v in (a, b):
        if not 0 <= v < n:
            raise IndexOutOfRangeError(f"vertex {v} out of range [0, {n})")
    entry = complex(U.matrix[b, a])
    mag = abs(entry)
    if mag < _PHASE_FLOOR:
        return mag, 1.0 + 0.0j
    return mag, entry / mag


def _spectrum_of(G: WeightedGraph) -> Spectrum:
    return eigendecompose(laplacian(G))


def _verdict(s: Spectrum, a: int, b: int, t: float, tol: float) -> TransferReport:
    """LPST (a != b) or PERIODIC (a == b) at fidelity >= 1 - tol, else NONE."""
    mag, phase = fidelity(propagator(s, t), a, b)
    hit = TransferKind.LPST if a != b else TransferKind.PERIODIC
    kind = hit if mag >= 1.0 - tol else TransferKind.NONE
    return TransferReport(kind, a, b, t, mag, phase, tol)


def check_lpst(
    G: WeightedGraph, a: int, b: int, t: float, tol: float = DEFAULT_LPST_TOL
) -> TransferReport:
    """Evaluate the walk at time t and report whether it transfers a -> b."""
    if a == b:
        raise EqualVerticesError("state transfer needs two distinct vertices")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _verdict(_spectrum_of(G), a, b, t, tol)


def check_periodic(
    G: WeightedGraph, p: int, t: float, tol: float = DEFAULT_LPST_TOL
) -> TransferReport:
    """Report whether the walk returns to vertex p at time t."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _verdict(_spectrum_of(G), p, p, t, tol)


def mixed_pair_entry_symmetry(
    G: WeightedGraph, tw: TwinPair, q: int, times: list[float]
) -> float:
    """max over times of |U[a, q] - U[b, q]| for the twin pair (a, b).

    The entries agree exactly for twins, so a small return value certifies
    that no transfer between a twin and an outside vertex can exceed
    1/sqrt(2) in fidelity.
    """
    if not 0 <= q < G.n:
        raise IndexOutOfRangeError(f"vertex {q} out of range [0, {G.n})")
    if q in (tw.a, tw.b):
        raise EqualVerticesError("q must lie outside the twin pair")
    s = _spectrum_of(G)
    top = transfer_amplitudes(s, q, tw.a, np.asarray(times, dtype=float))
    bot = transfer_amplitudes(s, q, tw.b, np.asarray(times, dtype=float))
    return float(np.abs(top - bot).max())


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAX_ITER):
        if hi - lo < _GOLDEN_WINDOW:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


def pst_time_scan(
    G: WeightedGraph,
    a: int,
    b: int,
    t_max: float,
    grid: int = DEFAULT_SCAN_GRID,
    tol: float = DEFAULT_LPST_TOL,
) -> TransferReport:
    """Best transfer a -> b over (0, t_max]: grid sweep, then golden-section
    refinement of the best grid point until the bracket is below 1e-10."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    s = _spectrum_of(G)
    times = np.linspace(0.0, t_max, grid + 1)[1:]
    mags = np.abs(transfer_amplitudes(s, a, b, times))
    k = int(np.argmax(mags))
    step = t_max / grid
    lo = max(times[k] - step, 0.0)
    hi = min(times[k] + step, t_max)

    def mag_at(t: float) -> float:
        return float(abs(transfer_amplitudes(s, a, b, np.array([t]))[0]))

    t_best, f_best = _golden_max(mag_at, lo, hi)
    if mags[k] > f_best:
        t_best, f_best = float(times[k]), float(mags[k])
    return _verdict(s, a, b, t_best, tol)


def pgst_scan(
    G: WeightedGraph,
    a: int,
    b: int,
    q_max: int = DEFAULT_QMAX,
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS,
    chunk: int = 65_536,
) -> PGSTWitness:
    """Scan times (4q+1) pi/2 for q = 0..q_max for transfer a -> b.

    For each epsilon the exact first time with fidelity >= 1 - epsilon is
    recorded. Running-best improvements are recorded when they grow by more
    than 1e-6 (finer gains are indistinguishable from the eigenvalue noise
    accumulated at large times). The scan stops once the smallest epsilon is
    achieved. With a == b this measures return fidelity, i.e. almost
    periodicity at the vertex.
    """
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    eps = list(epsilons)
    if any(not 0.0 < e < 1.0 for e in eps) or any(
        x <= y for x, y in zip(eps, eps[1:])
    ):
        raise ValueError("epsilons must be strictly decreasing within (0, 1)")
    s = _spectrum_of(G)
    times: list[float] = []
    fids: list[float] = []
    ladder: list[EpsilonHit] = []
    pending = list(eps)
    best = 0.0
    q0 = 0
    while q0 <= q_max:
        q1 = min(q0 + chunk, q_max + 1)
        qs = np.arange(q0, q1)
        ts = (4.0 * qs + 1.0) * (np.pi / 2.0)
        mags = np.abs(transfer_amplitudes(s, a, b, ts))

        limit = mags.size
        done = False
        while pending:
            crossed = np.flatnonzero(mags[:limit] >= 1.0 - pending[0])
            if crossed.size == 0:
                break
            i = int(crossed[0])
            ladder.append(
                EpsilonHit(pending.pop(0), int(qs[i]), float(ts[i]), float(mags[i]))
            )
            if not pending:
                limit = i + 1
                done = True

        pos = 0
        while pos < limit:
            ahead = np.flatnonzero(mags[pos:limit] > best + _RECORD_STEP)
            if ahead.size == 0:
                break
            pos += int(ahead[0])
            best = float(mags[pos])
            times.append(float(ts[pos]))
            fids.append(best)
            pos += 1
        if done:
            break
        q0 = q1
    return PGSTWitness(times, fids, ladder)


def verify_factorization(
    G: WeightedGraph, tw: TwinPair, alpha: float, times: list[float]
) -> float:
    """max over times of the entrywise gap between the closed-form perturbed
    propagator and the series exponential of the perturbed Laplacian."""
    if not is_twin_pair(G, tw.a, tw.b):
        raise TwinViolationError(f"({tw.a},{tw.b}) is not a twin pair of G")
    L = laplacian(G)
    M = rank_one_matrix(G.n, tw.a, tw.b)
    s = eigendecompose(L)
    worst = 0.0
    for t in times:
        closed = perturbed_propagator(propagator(s, t), M, alpha)
        direct = matrix_exp_oracle(L + alpha * M, t)
        worst = max(worst, float(np.abs(closed.matrix - direct).max()))
    return worst
