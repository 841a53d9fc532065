"""Circulant graphs over Z_n: construction, gcd-class machinery, analytic
spectra, and the number-theoretic predicates behind the transfer families.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import InputError
from .graphs import WeightedGraph, _check_int, _shown, _zero_weights


@dataclass(frozen=True)
class CirculantSpec:
    """Integer modulus n >= 2 with a symmetric, 0-free connection set S of
    integer residues, given as any iterable and kept as a frozenset mod n."""

    n: int
    S: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "S", _residues(self.n, self.S))
        if 0 in self.S:
            raise InputError("connection set contains 0")
        if frozenset((-s) % self.n for s in self.S) != self.S:
            raise InputError("connection set not closed under negation")


def _residues(n: int, S) -> frozenset[int]:
    """The integers S as a frozenset of residues mod n >= 2; else InputError."""
    if _check_int(n, "modulus") < 2:
        raise InputError(f"modulus must be at least 2, got {_shown(n)}")
    try:
        residues = iter(S)
    except TypeError as exc:  # not iterable
        raise InputError(f"connection set must be iterable: {exc}") from exc
    n = int(n)  # Python integers: numpy ones cannot reduce past int64
    return frozenset(int(_check_int(s, "residue")) % n for s in residues)


def _gcd_class_members(n: int, d: int):
    """A generator over S_n(d); InputError at call time unless d is a proper divisor."""
    _check_int(n, "modulus")
    if not 1 <= _check_int(d, "divisor") < n or n % d:
        raise InputError(f"{_shown(d)} is not a proper divisor of {_shown(n)}")
    return (x for x in range(d, n, d) if gcd(x, n) == d)


def gcd_class(n: int, d: int) -> frozenset[int]:
    """S_n(d): the residues x in Z_n with gcd(x, n) = d, a proper divisor."""
    return frozenset(_gcd_class_members(n, d))


def is_gcd_set(n: int, S: set[int] | frozenset[int]) -> bool:
    """True iff the residues S of Z_n, read mod n as CirculantSpec reads
    them, are a union of complete gcd classes: every class that S meets lies
    inside S. Stops at the first member of a met class that S lacks."""
    S = _residues(n, S)
    return all(x in S for d in {gcd(s, n) for s in S} for x in _gcd_class_members(n, d))


def build_circulant(spec: CirculantSpec) -> WeightedGraph:
    """Weight-1 graph with u ~ v iff (u - v) mod n lies in S."""
    A = _zero_weights(spec.n)
    u = np.arange(spec.n)
    for s in spec.S:
        A[u, (u + s) % spec.n] = 1.0
    return WeightedGraph(A)


def laplacian_eigenvalues(spec: CirculantSpec) -> np.ndarray:
    """|S| - sum_{s in S} cos(2 pi l s / n), l in Z_n: the graph is |S|-regular.
    InputError when numpy cannot hold n values."""
    try:  # np.arange(2**63) is empty, so np.zeros is what refuses that n
        l, theta = np.arange(spec.n), np.zeros(spec.n)
    except (MemoryError, ValueError) as exc:
        raise InputError(f"modulus {_shown(spec.n)} is too large") from exc
    for s in spec.S:
        theta += np.cos(2.0 * np.pi * l * s / spec.n)
    return len(spec.S) - theta


def twin_condition(spec: CirculantSpec) -> bool:
    """True iff S = n/2 - S, i.e. every pair (x, x + n/2) is a twin pair."""
    if spec.n % 2 != 0:
        raise InputError(f"modulus {_shown(spec.n)} is odd")
    half = spec.n // 2
    return frozenset((half - s) % spec.n for s in spec.S) == spec.S


def mod_four_condition(spec: CirculantSpec) -> bool:
    """True iff |S intersect S_n(d)| is divisible by 4 for every proper d | n:
    every count of gcd(s, n) over S is."""
    return all(c % 4 == 0 for c in Counter(gcd(s, spec.n) for s in spec.S).values())


def almost_periodic_applicable(spec: CirculantSpec) -> bool:
    """Power-of-two modulus and mod-4 class counts: the walk is almost
    periodic along times (4q+1) pi/2."""
    n = spec.n
    is_pow2 = n >= 2 and (n & (n - 1)) == 0
    return is_pow2 and mod_four_condition(spec)
