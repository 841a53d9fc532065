"""Graph families with provable state-transfer witnesses.

Each generator returns a FamilyInstance bundling the perturbed graph with
the witnesses its construction guarantees. A witness is two vertices and a
time, and its kind follows from them: PGST when time is None, PERIODIC
when a == b, LPST otherwise. Witnesses are data, not assumptions:
verify_family recomputes every one of them through the walk engine, so a
family instance never certifies anything the numerics cannot reproduce.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circulant import (
    CirculantSpec,
    almost_periodic_applicable,
    build_circulant,
    is_gcd_set,
)
from .errors import InputError, WitnessFailedError
from .graphs import (
    WeightedGraph,
    _check_int,
    _check_real,
    _check_vertex,
    _shown,
    _zero_weights,
    is_twin_pair,
    perturb_edge,
)
from .spectral import is_integral_spectrum
from .walk import (
    DEFAULT_EPSILONS,
    DEFAULT_LPST_TOL,
    DEFAULT_QMAX,
    TransferKind,
    TransferReport,
    _spectrum_of,
    check_lpst,
    pgst_scan,
)

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ExpectedWitness:
    """One guaranteed transfer fact, its kind implied by its fields: PGST
    when time is None (a scan over (4q+1) pi/2 finds the time), else
    PERIODIC at a when a == b, else LPST from a to b at time."""

    a: int
    b: int
    time: float | None


@dataclass(frozen=True)
class FamilyInstance:
    graph: WeightedGraph
    expected_witnesses: tuple[ExpectedWitness, ...]
    provenance: str


def complete_graph(n: int) -> WeightedGraph:
    A = _zero_weights(n) + 1.0
    np.fill_diagonal(A, 0.0)
    return WeightedGraph(A)


def _check_disjoint(pairs) -> list[tuple[int, int]]:
    """The pairs, which may be any iterable, as a list of tuples; InputError
    unless each is two integer vertices and no two share a vertex."""
    try:
        pairs = [(a, b) for a, b in pairs]
    except (TypeError, ValueError) as exc:  # not iterable, or not two entries
        raise InputError(f"pairs must be (a, b) vertex pairs: {exc}") from exc
    pairs = [(_check_int(a, "vertex"), _check_int(b, "vertex")) for a, b in pairs]
    seen: set[int] = set()
    for a, b in pairs:
        if {a, b} & seen or a == b:
            raise InputError(f"pair ({_shown(a)},{_shown(b)}) reuses a vertex")
        seen.update((a, b))
    return pairs


def _pair_witnesses(n: int, pairs: list[tuple[int, int]], t: float) -> tuple:
    """LPST on every pair and PERIODIC at every vertex no pair touches."""
    touched = {v for p in pairs for v in p}
    return tuple([ExpectedWitness(a, b, t) for a, b in pairs]
                 + [ExpectedWitness(p, p, t) for p in range(n) if p not in touched])


def _perturb_twins(G: WeightedGraph, pairs: list[tuple[int, int]], alpha) -> WeightedGraph:
    """The paper's operation on each pair in turn: add alpha(w) to the edge
    of weight w between the twins a and b of the graph so far. Raises
    InputError at the first pair that is not a twin pair there."""
    for a, b in pairs:
        if not is_twin_pair(G, a, b):
            raise InputError(f"({a},{b}) is not a twin pair")
        G = perturb_edge(G, a, b, alpha(G.matrix[a, b]))
    return G


def k4n_remove_matching(
    size: int, matching: list[tuple[int, int]]
) -> FamilyInstance:
    """Complete graph on `size` vertices with a matching removed.

    When 4 divides size, every removed pair transfers perfectly at pi/2 and
    every untouched vertex is periodic there. Other sizes are allowed for
    negative testing: a UserWarning is emitted and no witnesses are claimed.
    """
    matching = _check_disjoint(matching)
    G = _perturb_twins(complete_graph(size), matching, lambda w: -1.0)
    if size % 4 != 0:
        warnings.warn(f"size {size} is not a multiple of 4; no transfer witnesses")
        return FamilyInstance(G, (), "complete-minus-matching")
    witnesses = _pair_witnesses(size, matching, HALF_PI)
    return FamilyInstance(G, witnesses, "complete-minus-matching")


def _quarter_alpha(current_weight: float) -> float:
    alpha = 0.25 - current_weight
    # The construction needs exp(-4 i pi alpha) = -1, i.e. 4 alpha odd.
    if 4.0 * alpha % 2 != 1:
        raise InputError(
            f"quarter-weight increment {alpha} does not satisfy the "
            "odd-multiple phase condition"
        )
    return alpha


def quarter_weight_family(
    base: WeightedGraph, pairs: list[tuple[int, int]]
) -> FamilyInstance:
    """Successively reset disjoint twin-pair weights of an integral graph
    to 1/4. The result transfers perfectly on every pair at 2 pi and stays
    periodic there at every vertex no pair touches.

    Integrality is required of the base only; the intermediate graphs are
    generally not integral, but each stays periodic at 2 pi on the vertices
    later pairs touch, which is all the construction needs. Raises
    InputError when a pair is not twins in the graph it perturbs.
    """
    pairs = _check_disjoint(pairs)
    if not is_integral_spectrum(_spectrum_of(base)):
        raise InputError("base graph is not Laplacian integral")
    G = _perturb_twins(base, pairs, _quarter_alpha)
    witnesses = _pair_witnesses(base.n, pairs, TWO_PI)
    return FamilyInstance(G, witnesses, "quarter-weight-edge")


def circulant_twin_edge_family(
    spec: CirculantSpec, pairs: list[tuple[int, int]]
) -> FamilyInstance:
    """Add unit edges between antipodal twin pairs (x, x + n/2) of a
    power-of-two circulant meeting the mod-4 class condition.

    With a gcd-set connection set the result transfers perfectly at pi/2 on
    every added pair; otherwise each pair gets a pretty-good witness along
    times (4q+1) pi/2. Raises InputError unless each pair is antipodal twins.
    """
    G = build_circulant(spec)  # rejects an n too large to hold first
    if not almost_periodic_applicable(spec):
        raise InputError(
            "almost-periodicity criterion failed: modulus must be a power "
            "of two with all gcd-class intersections divisible by 4"
        )
    half = spec.n // 2
    pairs = _check_disjoint(pairs)
    for a, b in pairs:
        if (b - a) % spec.n != half:  # -n/2 = n/2 mod n, so either order
            raise InputError(
                f"pair ({_shown(a)},{_shown(b)}) is not antipodal (offset n/2)"
            )
    # S_n(n/2) = {n/2}, so the mod-4 condition keeps n/2 out of S: no pair is an edge yet.
    G = _perturb_twins(G, pairs, lambda w: 1.0)
    t = HALF_PI if is_gcd_set(spec.n, spec.S) else None
    witnesses = tuple(ExpectedWitness(a, b, t) for a, b in pairs)
    return FamilyInstance(G, witnesses, "circulant-twin-edge")


def verify_family(
    fi: FamilyInstance, tol: float = DEFAULT_LPST_TOL, q_max: int = DEFAULT_QMAX
) -> list[TransferReport]:
    """Recompute every expected witness through the walk engine.

    PGST when time is None: the witness scans q <= q_max for every
    DEFAULT_EPSILONS threshold and passes once the smallest is reached.
    Otherwise check_lpst must pass it at time with fidelity >= 1 - tol:
    PERIODIC when a == b, LPST otherwise. tol must lie in (0, 1) and
    q_max be at least 1, whatever the witnesses, and every witness's
    vertices be vertices of the graph; all are read before any solve.
    Raises WitnessFailedError at the first witness the numerics do not
    confirm; otherwise one report per witness, with int vertices and float tol.
    """
    tol = _check_real(tol, 0.0, 1.0, "tol must lie in (0, 1)")
    q_max = _check_int(q_max, "q_max", 1)
    witnesses = [(*_check_vertex(fi.graph.n, w.a, w.b), w.time) for w in fi.expected_witnesses]
    eps = DEFAULT_EPSILONS[-1]
    reports = []
    for a, b, time in witnesses:
        if time is None:
            hit = pgst_scan(fi.graph, a, b, q_max).achieved(eps)
            if hit is None:
                raise WitnessFailedError(
                    f"no time in (4q+1) pi/2 with q <= {q_max} reached "
                    f"fidelity {1.0 - eps} for pair ({a},{b})"
                )
            report = TransferReport(TransferKind.PGST, a, b, hit.time, hit.fidelity,
                                    hit.phase, eps)
        else:
            report = check_lpst(fi.graph, a, b, time, tol)
        if report.kind is TransferKind.NONE:
            raise WitnessFailedError(
                f"witness {'PERIODIC' if a == b else 'LPST'} ({a},{b}) "
                f"at t={time} failed with fidelity {report.fidelity}"
            )
        reports.append(report)
    return reports
