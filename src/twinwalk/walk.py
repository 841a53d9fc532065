"""Transfer amplitudes, state-transfer checks and searches, and the closed-form
propagator of a twin-edge perturbation.

Every verdict reads one entry, U(t)[b, a] = sum_j exp(-i mu_j t) E_j[b, a],
through transfer_amplitudes, which sums the spectrum's transfer coefficients
of (a, b) at a vector of times; check_lpst reads it for any pair, so it
checks periodicity too, as a == b. Whole propagators are formed only where a
matrix is the point: for a twin pair (a, b) the propagator of the edge
perturbed graph factors in closed form,

    U'(t) = U(t) [I + (exp(-2 i alpha t) - 1) / 2 * M],

where M is the rank-one matrix of the pair; this module evaluates that
factorization (identities checks it against the series exponential).
Searches cover a uniform time grid with a step at most 1/(mu_max - mu_min),
whose high local maxima are refined in time order by bisection on the sign of
d|U(t)[b, a]|^2/dt (perfect transfer), and the arithmetic progression
(4q+1) pi/2 (pretty good transfer / almost periodicity); _sweep sweeps both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import (WeightedGraph, _check_distinct, _check_int, _check_real,
                     _check_vertex, laplacian, rank_one_matrix)
from .spectral import _TIME_RULE, Spectrum, _phases, eigendecompose

DEFAULT_LPST_TOL = 1e-9
DEFAULT_QMAX = 1_000_000
DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3)

_SCAN_GRID = 20_000  # least samples per pst scan
_SCAN_CAP = 10**7  # most samples per pst scan
_PHASE_FLOOR = 1e-15
_RECORD_STEP = 1e-6
_PHASE_TABLE_ROWS = 1024
_SWEEP_BLOCK = 8 * _PHASE_TABLE_ROWS  # times per block of _sweep


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


def _sweep(s: Spectrum, c: np.ndarray, count: int, h: float, offset: float):
    """Blocks (i0, times, f, |f|) of f(t) = sum_j c_j exp(-i mu_j t) at the times
    t = (i + offset) h for i0 <= i < min(i0 + _SWEEP_BLOCK, count).

    A run of 1024 times t0 + r h is (c_j exp(-i mu_j t0)) @ table.T, where
    table[r, j] = exp(-i mu_j r h) is built once by _phases: one exponential per
    cluster per 1024 times and a row of a small matrix product, in memory
    independent of count; InputError once a block holds a phase past pi/eps."""
    table = _phases(s.values, h * np.arange(min(_PHASE_TABLE_ROWS, count)))
    for i0 in range(0, count, _SWEEP_BLOCK):
        times = (np.arange(i0, min(i0 + _SWEEP_BLOCK, count)) + offset) * h
        _phases(s.values, times[-1])  # the table adds mu r h to every 1024th time
        amps = ((_phases(s.values, times[:: len(table)]) * c) @ table.T).ravel()[: times.size]
        yield i0, times, amps, np.abs(amps)


def _sweep_error(s: Spectrum, c: np.ndarray, t: float) -> float:
    """Bounds |f - g|, so also ||f| - |g||, for _sweep's f and transfer_amplitudes's g
    at times up to t: with u = 2**-53 they round each phase mu_j t apart by at most
    3 u |mu_j| t (a pst scan's t_max for count h included), and exponentials,
    products and k-term sums by (5 + 1.5 k) u, times sum_j |c_j|; doubled here."""
    return (8 + 3 * c.size + 4 * np.abs(s.values).max() * t) * 2.0**-52 * np.abs(c).sum()


def perturbed_propagator(
    s: Spectrum, t: float, a: int, b: int, alpha: float
) -> np.ndarray:
    """Closed-form propagator at time t of the graph whose spectrum is s with
    alpha added to the edge (a, b), through M = rank_one_matrix(s.n, a, b).

    Valid only when a and b are twins in the graph s came from; InputError
    unless they are two distinct vertices of it and alpha a real number.
    """
    M = rank_one_matrix(s.n, a, b)
    alpha = _check_real(alpha, -np.inf, np.inf, "perturbation alpha must be finite")
    t = _check_real(t, -np.inf, np.inf, _TIME_RULE)
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


def _solve(G: WeightedGraph, a: int, b: int, tol: float = DEFAULT_LPST_TOL) -> tuple:
    """(_spectrum_of(G), a, b, tol), with a, b read as vertices of G (ints) and
    tol as a float in (0, 1)."""
    tol = _check_real(tol, 0.0, 1.0, "tol must lie in (0, 1)")  # at 1 every fidelity passes
    a, b = _check_vertex(G.n, a, b)
    return _spectrum_of(G), a, b, tol


def _verdict(s: Spectrum, a: int, b: int, t: float, tol: float) -> TransferReport:
    """LPST (a != b) or PERIODIC (a == b) at fidelity >= 1 - tol, else NONE,
    at a time t its caller has read as a float."""
    mag, phase = _polar(transfer_amplitudes(s, a, b, np.array([t]))[0])
    hit = TransferKind.LPST if a != b else TransferKind.PERIODIC
    kind = hit if mag >= 1.0 - tol else TransferKind.NONE
    return TransferReport(kind, a, b, t, mag, phase, tol)


def check_lpst(
    G: WeightedGraph, a: int, b: int, t: float, tol: float = DEFAULT_LPST_TOL
) -> TransferReport:
    """Evaluate the walk at time t and report whether it transfers a -> b:
    LPST (a != b) or PERIODIC (a == b), else NONE; t is read before the solve."""
    t = _check_real(t, -np.inf, np.inf, _TIME_RULE)
    s, a, b, tol = _solve(G, a, b, tol)
    return _verdict(s, a, b, t, tol)


def check_periodic(
    G: WeightedGraph, p: int, t: float, tol: float = DEFAULT_LPST_TOL
) -> TransferReport:
    """Report whether the walk returns to vertex p at time t."""
    return check_lpst(G, p, p, t, tol)


def pst_time_scan(
    G: WeightedGraph,
    a: int,
    b: int,
    t_max: float,
    tol: float = DEFAULT_LPST_TOL,
) -> TransferReport:
    """First transfer a -> b over (0, t_max] at fidelity >= 1 - tol, else the
    best one found.

    f(t) = U(t)[b, a] = sum_j c_j exp(-i mu_j t) with sum_j |c_j| <= 1, so
    near a perfect transfer t*, |f(t* + d)| >= 1 - d^2 B^2 / 8, where
    B = mu_max - mu_min. The scan samples max(20000, ceil(t_max B)) evenly
    spaced times, a step h <= 1/B, so a sample within h/2 of each perfect
    transfer reaches 1 - h^2 B^2 / 32; InputError past 10**7 samples. In
    time order, each grid local maximum at that level or above is refined
    by bisection of its bracket, down to adjacent floats, on the sign of

        d|f|^2/dt = 2 Im(conj(f) sum_j mu_j c_j exp(-i mu_j t)),

    and the scan stops at the first that passes tol; else it reports the
    best of them, or the refined grid maximum when none reaches that level.
    A grid point is kept unless its refined time is strictly better. Near a
    perfect transfer |f| rounds to 1 over a window about 1e-8 wide, but the
    sign of its slope stays resolved there, so the reported time is stable
    to rounding. Source and target must differ, as |U(t)[p, p]| -> 1 as
    t -> 0; check_lpst(G, p, p, t) and pgst_scan(G, p, p) test returns to p.

    _sweep reads the grid; transfer_amplitudes reads again each sample within
    2 _sweep_error of the level or of its block's best, or above, so the grid
    maxima and every bracket are those of a sample-by-sample sweep."""
    _check_distinct(a, b, "state transfer needs two distinct vertices")
    t_max = _check_real(t_max, _SCAN_GRID * 5e-324, np.inf,  # else every sample is at t = 0
                        "t_max must be positive and finite, and not too small to sample")
    s, a, b, tol = _solve(G, a, b, tol)
    _phases(s.values, t_max)  # the phase rule bounds t_max B below 2 pi/eps
    spread = float(s.values[-1] - s.values[0])
    if t_max * spread > _SCAN_CAP:
        raise InputError(f"a pst scan to t_max = {t_max:.6g} needs {t_max * spread:.3g} "
                         f"samples, past the cap of {_SCAN_CAP} samples")
    count = max(_SCAN_GRID, int(np.ceil(t_max * spread)))
    step = t_max / count
    level = 1.0 - (step * spread) ** 2 / 32.0
    c = s.coefficients(a, b)
    mu_c = s.values * c

    def refined(t: float, mag: float) -> TransferReport:
        """The verdict where the slope changes sign in [t - step, t + step], or
        at the grid point t of magnitude mag unless that is strictly better."""
        if mag < _PHASE_FLOOR:  # no transfer to refine: the slope's sign is noise
            return _verdict(s, a, b, t, tol)
        lo, hi = max(t - step, 0.0), min(t + step, t_max)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            phases = _phases(s.values, mid)
            if (np.conj(phases @ c) * (phases @ mu_c)).imag > 0:
                lo = mid
            else:
                hi = mid
        report = _verdict(s, a, b, mid, tol)
        return report if report.fidelity > mag else _verdict(s, a, b, t, tol)

    found, best, best_time = None, -1.0, t_max
    tail = np.zeros((2, 1))  # time 0 and |f(0)| = 0, the left neighbour of the first sample
    for i0, times, _, mags in _sweep(s, c, count, step, 1):
        times[count - 1 - i0:] = t_max  # the last sample, within _sweep_error of count * step
        near = np.flatnonzero(mags >= min(level, mags.max()) - 2.0 * _sweep_error(s, c, t_max))
        # a second row: numpy sends a one-row product to BLAS's dot, which rounds otherwise
        mags[near] = np.abs(transfer_amplitudes(s, a, b, times[np.r_[near, near[0]]]))[:-1]
        if mags[k := int(np.argmax(mags))] > best:
            best, best_time = float(mags[k]), float(times[k])
        ts, ms = np.concatenate((tail, [times, mags]), axis=1)
        ms = np.append(ms, -np.inf) if ts[-1] == t_max else ms  # t_max has no right neighbour
        top = np.flatnonzero((ms[1:-1] > ms[:-2]) & (ms[1:-1] >= ms[2:])
                             & (ms[1:-1] >= level)) + 1
        for t, mag in zip(ts[top].tolist(), ms[top].tolist()):
            report = refined(t, mag)
            if report.kind is not TransferKind.NONE:
                return report
            if found is None or report.fidelity > found.fidelity:
                found = report
        tail = np.stack((ts[-2:], ms[-2:]))  # the last sample is judged with the next block
    return found if found is not None else refined(best_time, best)


def pgst_scan(
    G: WeightedGraph,
    a: int,
    b: int,
    q_max: int = DEFAULT_QMAX,
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS,
) -> PGSTWitness:
    """Scan times (4q+1) pi/2 for q = 0..q_max for transfer a -> b.

    For each epsilon (read as a float) the exact first time with fidelity
    >= 1 - epsilon is recorded. Running-best improvements are recorded when
    they grow by more than 1e-6 (finer gains are indistinguishable from the
    eigenvalue noise accumulated at large times). The scan stops once the
    smallest epsilon is achieved. With a == b this measures return
    fidelity, i.e. almost periodicity at the vertex.

    _sweep evaluates the times (q + 1/4) 2 pi, the floats (4q+1) pi/2, a whole
    block at a time, so InputError once a block holds a phase past pi/eps.
    """
    q_max = _check_int(q_max, "q_max", 1)
    try:
        pending, hi = list(epsilons), 1.0
    except TypeError as exc:  # not iterable
        raise InputError(f"epsilons must be an iterable of numbers: {exc}") from exc
    for i, e in enumerate(pending):  # each in (0, the one before)
        pending[i] = hi = _check_real(
            e, 0.0, hi, "epsilons must be strictly decreasing within (0, 1)")
    s, a, b, _ = _solve(G, a, b)
    times: list[float] = []
    fids: list[float] = []
    ladder: list[EpsilonHit] = []
    best = 0.0
    for q0, ts, amps, mags in _sweep(s, s.coefficients(a, b), q_max + 1, 2.0 * np.pi, 0.25):
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

