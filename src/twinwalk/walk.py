"""Transfer amplitudes, state-transfer checks and searches, and the closed-form
propagator of a twin-edge perturbation.

Every verdict reads one entry, U(t)[b, a] = sum_j exp(-i mu_j t) E_j[b, a],
through transfer_amplitudes, which sums the spectrum's transfer coefficients
of (a, b) at a vector of times. Whole propagators are formed only where a
matrix is the point: for a twin pair (a, b) the propagator of the edge
perturbed graph factors in closed form,

    U'(t) = U(t) [I + (exp(-2 i alpha t) - 1) / 2 * M],

where M is the rank-one matrix of the pair; this module evaluates that
factorization (identities checks it against the series exponential).
Searches cover a uniform time grid refined by bisection on the sign of
d|U(t)[b, a]|^2/dt (perfect transfer) and the arithmetic progression
(4q+1) pi/2 (pretty good transfer / almost periodicity). The progression is
swept by the exact factorization

    exp(-i mu (4(q0 + r) + 1) pi/2)
        = exp(-i mu (4 q0 + 1) pi/2) exp(-2 pi i mu r),

so a table of exp(-2 pi i mu_j r) for r < 1024, built once per scan, turns
each block of 1024 times into one exponential per cluster and a row of a
small matrix product; a scan holds 8 such blocks at a time, whatever q_max.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import (WeightedGraph, _check_distinct, _check_int, _check_real,
                     _check_vertex, laplacian)
from .spectral import Spectrum, _one_time, _phases, _real_matrix, eigendecompose

DEFAULT_LPST_TOL = 1e-9
DEFAULT_QMAX = 1_000_000
DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3)

_SCAN_GRID = 20_000
_BISECT_STEPS = 64
_PHASE_FLOOR = 1e-15
_RECORD_STEP = 1e-6
_PHASE_TABLE_ROWS = 1024
_PGST_STEP = 8 * _PHASE_TABLE_ROWS  # q values per pgst_scan step


class TransferKind(enum.Enum):
    LPST = "LPST"
    PERIODIC = "PERIODIC"
    PGST = "PGST"
    NONE = "NONE"


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
    """First scan time whose fidelity reached 1 - epsilon, with the unit
    phase of U(time)[b, a]."""

    epsilon: float
    q: int
    time: float
    fidelity: float
    phase: complex


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


def propagator(s: Spectrum, t: float) -> np.ndarray:
    """U(t) = sum_j exp(-i mu_j t) E_j."""
    return s.unitary(t)


def transfer_amplitudes(
    s: Spectrum, a: int, b: int, times: np.ndarray
) -> np.ndarray:
    """Entry (b, a) of the propagator at each time, as one vectorized sweep."""
    return _phases(s.values, times) @ s.coefficients(a, b)


def perturbed_propagator(
    s: Spectrum, t: float, M: np.ndarray, alpha: float
) -> np.ndarray:
    """Closed-form propagator at time t of the graph whose spectrum is s with
    alpha added to the edge of M's pair.

    Valid only when the endpoints of M are twins in the graph s came from;
    InputError unless M is a real n x n matrix and alpha a real number.
    """
    M = _real_matrix(M)
    if M.shape != (s.n, s.n):
        raise InputError(f"M of shape {M.shape} is not {s.n} x {s.n}")
    alpha = _check_real(alpha, -np.inf, np.inf, "alpha must be finite")
    U = propagator(s, t)
    return U @ (np.eye(s.n) + 0.5 * (_phases(2.0 * alpha, t) - 1.0) * M)


def _polar(entry: complex) -> tuple[float, complex]:
    """(|entry|, unit phase); the phase defaults to 1 below the noise floor."""
    entry = complex(entry)
    mag = abs(entry)
    if mag < _PHASE_FLOOR:
        return mag, 1.0 + 0.0j
    return mag, entry / mag


def _spectrum_of(G: WeightedGraph) -> Spectrum:
    return eigendecompose(laplacian(G))


def _solve(G: WeightedGraph, a: int, b: int, tol: float = DEFAULT_LPST_TOL) -> Spectrum:
    """_spectrum_of(G) once tol is in (0, 1) and a, b are vertices of G."""
    _check_real(tol, 0.0, 1.0, "tol must lie in (0, 1)")  # at 1 every fidelity passes
    _check_vertex(G.n, a, b)
    return _spectrum_of(G)


def _verdict(s: Spectrum, a: int, b: int, t: float, tol: float) -> TransferReport:
    """LPST (a != b) or PERIODIC (a == b) at fidelity >= 1 - tol, else NONE."""
    mag, phase = _polar(transfer_amplitudes(s, a, b, np.array([_one_time(t)]))[0])
    hit = TransferKind.LPST if a != b else TransferKind.PERIODIC
    kind = hit if mag >= 1.0 - tol else TransferKind.NONE
    return TransferReport(kind, a, b, t, mag, phase, tol)


def check_lpst(
    G: WeightedGraph, a: int, b: int, t: float, tol: float = DEFAULT_LPST_TOL
) -> TransferReport:
    """Evaluate the walk at time t and report whether it transfers a -> b."""
    _check_distinct(a, b, "state transfer needs two distinct vertices")
    return _verdict(_solve(G, a, b, tol), a, b, t, tol)


def check_periodic(
    G: WeightedGraph, p: int, t: float, tol: float = DEFAULT_LPST_TOL
) -> TransferReport:
    """Report whether the walk returns to vertex p at time t."""
    return _verdict(_solve(G, p, p, tol), p, p, t, tol)


def pst_time_scan(
    G: WeightedGraph,
    a: int,
    b: int,
    t_max: float,
    tol: float = DEFAULT_LPST_TOL,
) -> TransferReport:
    """Best transfer a -> b over (0, t_max]: grid sweep, then bisection of
    the best grid point's bracket on the sign of d|f|^2/dt, where f(t) =
    U(t)[b, a] = sum_j c_j exp(-i mu_j t) and

        d|f|^2/dt = 2 Im(conj(f) sum_j mu_j c_j exp(-i mu_j t)).

    Near a perfect transfer |f| rounds to 1 over a window about 1e-8 wide,
    but the sign of its slope stays resolved there, so the reported time is
    stable to rounding. The grid point is kept unless the refined time is
    strictly better. Source and target must differ, as |U(t)[p, p]| -> 1 as
    t -> 0; check_periodic and pgst_scan(G, p, p) test returns to p."""
    _check_distinct(a, b, "state transfer needs two distinct vertices")
    t_max = _check_real(t_max, 0.0, np.inf, "t_max must be positive and finite")
    s = _solve(G, a, b, tol)
    times = np.linspace(0.0, t_max, _SCAN_GRID + 1)[1:]
    # Not swept through a phase table as in pgst_scan: on a flat top, where
    # |f| rounds to 1, the table's different rounding of mu_j t moves the
    # grid argmax and with it the bracket that the bisection refines.
    mags = np.abs(transfer_amplitudes(s, a, b, times))
    k = int(np.argmax(mags))
    step = t_max / _SCAN_GRID
    lo = max(times[k] - step, 0.0)
    hi = min(times[k] + step, t_max)
    c = s.coefficients(a, b)
    mu_c = s.values * c
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        phases = _phases(s.values, mid)
        if (np.conj(phases @ c) * (phases @ mu_c)).imag > 0:
            lo = mid
        else:
            hi = mid
    refined = _verdict(s, a, b, float(0.5 * (lo + hi)), tol)
    if refined.fidelity > mags[k]:
        return refined
    return _verdict(s, a, b, float(times[k]), tol)


def pgst_scan(
    G: WeightedGraph,
    a: int,
    b: int,
    q_max: int = DEFAULT_QMAX,
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS,
) -> PGSTWitness:
    """Scan times (4q+1) pi/2 for q = 0..q_max for transfer a -> b.

    For each epsilon the exact first time with fidelity >= 1 - epsilon is
    recorded. Running-best improvements are recorded when they grow by more
    than 1e-6 (finer gains are indistinguishable from the eigenvalue noise
    accumulated at large times). The scan stops once the smallest epsilon is
    achieved. With a == b this measures return fidelity, i.e. almost
    periodicity at the vertex.

    Each step of 8192 q values gets its amplitudes as (P @ table.T),
    where table[r, j] = exp(-2 pi i mu_j r) for r < 1024 (fewer rows when
    q_max + 1 is smaller) and P[i, j] = c_j exp(-i mu_j t) at every
    1024th time t of the step, c being the transfer coefficients of (a, b):
    one exponential per cluster and 1024 times. This form and
    transfer_amplitudes each round mu_j t by about eps |mu_j| t, so their
    fidelities agree to that order. Every time of a step is evaluated, so
    InputError as soon as a step holds a time whose phase exceeds pi/eps.
    Memory is about 8192 x 40 B for the step's times, amplitudes and
    magnitudes plus 1024 k x 16 B for the table, whatever q_max is.
    """
    if _check_int(q_max, "q_max") < 1:
        raise InputError("q_max must be at least 1")
    try:
        pending, hi = list(epsilons), 1.0
    except TypeError as exc:  # not iterable
        raise InputError(f"epsilons must be an iterable of numbers: {exc}") from exc
    for e in pending:  # each in (0, the one before); the ladder keeps the values given
        hi = _check_real(e, 0.0, hi, "epsilons must be strictly decreasing within (0, 1)")
    s = _solve(G, a, b)
    c = s.coefficients(a, b)
    rows = min(_PHASE_TABLE_ROWS, q_max + 1)
    table = np.exp(-2j * np.pi * np.outer(np.arange(rows), s.values))
    times: list[float] = []
    fids: list[float] = []
    ladder: list[EpsilonHit] = []
    best = 0.0
    for q0 in range(0, q_max + 1, _PGST_STEP):
        ts = (4.0 * np.arange(q0, min(q0 + _PGST_STEP, q_max + 1)) + 1.0) * (np.pi / 2.0)
        _phases(s.values, ts[-1])  # the table adds 2 pi mu r to every 1024th time
        amps = ((_phases(s.values, ts[::rows]) * c) @ table.T).ravel()[: ts.size]
        mags = np.abs(amps)
        while pending and (crossed := np.flatnonzero(mags >= 1.0 - pending[0])).size:
            i = int(crossed[0])
            ladder.append(EpsilonHit(pending.pop(0), q0 + i, float(ts[i]),
                                     float(mags[i]), _polar(amps[i])[1]))
            if not pending:  # no record after the last hit
                mags = mags[: i + 1]
        pos = 0
        while (ahead := np.flatnonzero(mags[pos:] > best + _RECORD_STEP)).size:
            pos += int(ahead[0])
            best = float(mags[pos])
            times.append(float(ts[pos]))
            fids.append(best)
            pos += 1
        if ladder and not pending:  # with no epsilons the scan runs to q_max
            break
    return PGSTWitness(times, fids, ladder)

