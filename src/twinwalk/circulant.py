"""Circulant graphs over Z_n: construction, gcd-class machinery, analytic
spectra, and the number-theoretic predicates behind the transfer families.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import InputError
from .graphs import WeightedGraph, _zero_weights


@dataclass(frozen=True)
class CirculantSpec:
    """Modulus n with a symmetric, 0-free connection set S of residues."""

    n: int
    S: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InputError(f"modulus must be at least 2, got {self.n}")
        reduced = frozenset(s % self.n for s in self.S)
        object.__setattr__(self, "S", reduced)
        if 0 in reduced:
            raise InputError("connection set contains 0")
        if frozenset((-s) % self.n for s in reduced) != reduced:
            raise InputError("connection set not closed under negation")


def gcd_class(n: int, d: int) -> frozenset[int]:
    """S_n(d): the residues x in Z_n with gcd(x, n) = d, a proper divisor."""
    if d < 1 or d >= n or n % d != 0:
        raise InputError(f"{d} is not a proper divisor of {n}")
    return frozenset(x for x in range(n) if gcd(x, n) == d)


def is_gcd_set(n: int, S: set[int] | frozenset[int]) -> bool:
    """True iff S is a union of complete gcd classes of Z_n."""
    S = frozenset(S)
    divisors = {gcd(s, n) for s in S}
    union: set[int] = set()
    for d in divisors:
        union |= gcd_class(n, d)
    return union == S


def build_circulant(spec: CirculantSpec) -> WeightedGraph:
    """Weight-1 graph with u ~ v iff (u - v) mod n lies in S."""
    A = _zero_weights(spec.n)
    u = np.arange(spec.n)
    for s in spec.S:
        A[u, (u + s) % spec.n] = 1.0
    return WeightedGraph(A)


def laplacian_eigenvalues(spec: CirculantSpec) -> np.ndarray:
    """|S| - sum_{s in S} cos(2 pi l s / n), l in Z_n: the graph is |S|-regular."""
    l = np.arange(spec.n)
    theta = np.zeros(spec.n)
    for s in spec.S:
        theta += np.cos(2.0 * np.pi * l * s / spec.n)
    return len(spec.S) - theta


def twin_condition(spec: CirculantSpec) -> bool:
    """True iff S = n/2 - S, i.e. every pair (x, x + n/2) is a twin pair."""
    if spec.n % 2 != 0:
        raise InputError(f"modulus {spec.n} is odd")
    half = spec.n // 2
    return frozenset((half - s) % spec.n for s in spec.S) == spec.S


def mod_four_condition(spec: CirculantSpec) -> bool:
    """True iff |S intersect S_n(d)| is divisible by 4 for every proper d | n."""
    return all(len(spec.S & gcd_class(spec.n, d)) % 4 == 0
               for d in range(1, spec.n) if spec.n % d == 0)


def almost_periodic_applicable(spec: CirculantSpec) -> bool:
    """Power-of-two modulus and mod-4 class counts: the walk is almost
    periodic along times (4q+1) pi/2."""
    n = spec.n
    is_pow2 = n >= 2 and (n & (n - 1)) == 0
    return is_pow2 and mod_four_condition(spec)
