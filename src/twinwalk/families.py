"""Graph families with provable state-transfer witnesses.

Each generator returns a FamilyInstance bundling the perturbed graph with
the witnesses its construction guarantees. Witnesses are data, not
assumptions: verify_family recomputes every one of them through the walk
engine, so a family instance never certifies anything the numerics cannot
reproduce.
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
    twin_condition,
)
from .errors import InputError, WitnessFailedError
from .graphs import (
    WeightedGraph,
    _zero_weights,
    is_twin_pair,
    laplacian,
    perturb_edge,
)
from .spectral import eigendecompose, is_integral_spectrum
from .walk import (
    DEFAULT_EPSILONS,
    DEFAULT_LPST_TOL,
    DEFAULT_QMAX,
    TransferKind,
    TransferReport,
    check_lpst,
    check_periodic,
    pgst_scan,
)

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ExpectedWitness:
    """One guaranteed transfer fact: kind LPST/PGST between a and b, or
    PERIODIC at a (= b). PGST witnesses carry no fixed time; the scan over
    (4q+1) pi/2 finds one."""

    kind: TransferKind
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
    unless they are vertex-disjoint."""
    pairs = [tuple(p) for p in pairs]
    seen: set[int] = set()
    for a, b in pairs:
        if a in seen or b in seen or a == b:
            raise InputError(f"pair ({a},{b}) reuses a vertex")
        seen.update((a, b))
    return pairs


def _pair_witnesses(n: int, pairs: list[tuple[int, int]], t: float) -> tuple:
    """LPST on every pair and PERIODIC at every vertex no pair touches."""
    touched = {v for p in pairs for v in p}
    lpst = [ExpectedWitness(TransferKind.LPST, a, b, t) for a, b in pairs]
    periodic = [ExpectedWitness(TransferKind.PERIODIC, p, p, t)
                for p in range(n) if p not in touched]
    return tuple(lpst + periodic)


def k4n_remove_matching(
    size: int, matching: list[tuple[int, int]]
) -> FamilyInstance:
    """Complete graph on `size` vertices with a matching removed.

    When 4 divides size, every removed pair transfers perfectly at pi/2 and
    every untouched vertex is periodic there. Other sizes are allowed for
    negative testing: a UserWarning is emitted and no witnesses are claimed.
    """
    matching = _check_disjoint(matching)
    G = complete_graph(size)
    for a, b in matching:
        G = perturb_edge(G, a, b, -1.0)
    if size % 4 != 0:
        warnings.warn(f"size {size} is not a multiple of 4; no transfer witnesses")
        return FamilyInstance(G, (), "complete-minus-matching")
    witnesses = _pair_witnesses(size, matching, HALF_PI)
    return FamilyInstance(G, witnesses, "complete-minus-matching")


def _quarter_alpha(current_weight: float) -> float:
    alpha = 0.25 - current_weight
    # The construction needs exp(-4 i pi alpha) = -1, i.e. 4 alpha odd.
    four_alpha = 4.0 * alpha
    if four_alpha != round(four_alpha) or int(round(four_alpha)) % 2 == 0:
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
    if not is_integral_spectrum(eigendecompose(laplacian(base))):
        raise InputError("base graph is not Laplacian integral")
    G = base
    for a, b in pairs:
        if not is_twin_pair(G, a, b):
            raise InputError(f"({a},{b}) is not a twin pair")
        G = perturb_edge(G, a, b, _quarter_alpha(G.matrix[a, b]))
    witnesses = _pair_witnesses(base.n, pairs, TWO_PI)
    return FamilyInstance(G, witnesses, "quarter-weight-edge")


def circulant_twin_edge_family(
    spec: CirculantSpec, pairs: list[tuple[int, int]]
) -> FamilyInstance:
    """Add unit edges between antipodal twin pairs (x, x + n/2) of a
    power-of-two circulant meeting the mod-4 class condition.

    With a gcd-set connection set the result transfers perfectly at pi/2 on
    every added pair; otherwise each pair gets a pretty-good witness along
    times (4q+1) pi/2.
    """
    G = build_circulant(spec)  # rejects an n too large to hold first
    if not almost_periodic_applicable(spec):
        raise InputError(
            "almost-periodicity criterion failed: modulus must be a power "
            "of two with all gcd-class intersections divisible by 4"
        )
    if not twin_condition(spec):
        raise InputError(
            "twin condition failed: connection set is not fixed by s -> n/2 - s"
        )
    half = spec.n // 2
    pairs = _check_disjoint(pairs)
    for a, b in pairs:
        if (b - a) % spec.n != half:  # -n/2 = n/2 mod n, so either order
            raise InputError(
                f"pair ({a},{b}) is not antipodal (offset n/2)"
            )
    # S = n/2 - S and 0 not in S keep n/2 out of S: no pair is an edge yet.
    for a, b in pairs:
        G = perturb_edge(G, a, b, 1.0)
    if is_gcd_set(spec.n, spec.S):
        witnesses = tuple(
            ExpectedWitness(TransferKind.LPST, a, b, HALF_PI) for a, b in pairs
        )
    else:
        witnesses = tuple(
            ExpectedWitness(TransferKind.PGST, a, b, None) for a, b in pairs
        )
    return FamilyInstance(G, witnesses, "circulant-twin-edge")


def verify_family(
    fi: FamilyInstance, tol: float = DEFAULT_LPST_TOL, q_max: int = DEFAULT_QMAX
) -> list[TransferReport]:
    """Recompute every expected witness through the walk engine.

    LPST and PERIODIC witnesses pass at fidelity >= 1 - tol, with tol in
    (0, 1); PGST witnesses scan q <= q_max for every DEFAULT_EPSILONS
    threshold and pass once the smallest is reached. Raises
    WitnessFailedError at the first witness the numerics do not confirm;
    otherwise returns one report per witness.
    """
    if not 0 < tol < 1:
        raise InputError("tol must lie in (0, 1)")
    eps = DEFAULT_EPSILONS[-1]
    reports = []
    for w in fi.expected_witnesses:
        if w.kind is TransferKind.LPST:
            report = check_lpst(fi.graph, w.a, w.b, w.time, tol)
        elif w.kind is TransferKind.PERIODIC:
            report = check_periodic(fi.graph, w.a, w.time, tol)
        elif w.kind is TransferKind.PGST:
            hit = pgst_scan(fi.graph, w.a, w.b, q_max).achieved(eps)
            if hit is None:
                raise WitnessFailedError(
                    f"no time in (4q+1) pi/2 with q <= {q_max} reached "
                    f"fidelity {1.0 - eps} for pair ({w.a},{w.b})"
                )
            report = TransferReport(
                TransferKind.PGST, w.a, w.b, hit.time, hit.fidelity, hit.phase, eps
            )
        else:
            raise WitnessFailedError(f"unexpected witness kind {w.kind}")
        if report.kind is TransferKind.NONE:
            raise WitnessFailedError(
                f"witness {w.kind.value} ({w.a},{w.b}) at t={w.time} failed "
                f"with fidelity {report.fidelity}"
            )
        reports.append(report)
    return reports
