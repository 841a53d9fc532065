"""Metamorphic relations: a transformed graph must give the transformed
verdict, whatever the verdict is.

- Relabelling the vertices by a permutation keeps every amplitude, so
  check_lpst (a != b and a == b) and pst_time_scan report the same kind and
  fidelity on the relabelled pair.
- Scaling every weight by c > 0 scales the Laplacian, so the walk on cG at
  time t / c is the walk on G at time t.

Graphs are random twin graphs, whose verdicts are mostly NONE, and K_{4m}
minus a matching at pi/2, where pairs transfer and other vertices return.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from twinwalk import (TransferKind, WeightedGraph, check_lpst, k4n_remove_matching,
                      pst_time_scan)
from twinwalk.identities import random_twin_graph

EPS = 1e-12


@st.composite
def cases(draw):
    """(G, a, b, t): a random twin graph at a drawn time, or K_{4m} minus a
    matching at pi/2 with a drawn pair, either vertex of which may repeat."""
    if draw(st.booleans()):
        G, pair = random_twin_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        t = draw(st.floats(0.05, 20.0))
    else:
        m = draw(st.integers(1, 3))
        order = draw(st.permutations(range(4 * m)))
        matching = list(zip(order[0:2 * m:2], order[1:2 * m:2]))
        G, pair, t = k4n_remove_matching(4 * m, matching).graph, matching[0], math.pi / 2
    a = draw(st.sampled_from(pair))
    b = draw(st.sampled_from([a, *pair, draw(st.integers(0, G.n - 1))]))
    return G, a, b, t


def relabel(G: WeightedGraph, perm: list[int]) -> WeightedGraph:
    """The graph with vertex u renamed perm[u]."""
    inv = np.argsort(perm)
    return WeightedGraph(G.matrix[np.ix_(inv, inv)])


def assert_same_verdict(got, want) -> None:
    assert got.kind is want.kind
    assert abs(got.fidelity - want.fidelity) <= EPS


@settings(max_examples=40, deadline=None)
@given(cases(), st.data())
def test_relabelling_keeps_the_check(case, data):
    G, a, b, t = case
    perm = data.draw(st.permutations(range(G.n)))
    got = check_lpst(relabel(G, perm), perm[a], perm[b], t)
    assert (got.source, got.target, got.time) == (perm[a], perm[b], t)
    assert_same_verdict(got, check_lpst(G, a, b, t))


@settings(max_examples=15, deadline=None)
@given(cases(), st.data())
def test_relabelling_keeps_the_scan(case, data):
    G, a, b, _ = case
    if a == b:  # the scan asks for two vertices
        b = (a + 1) % G.n
    perm = data.draw(st.permutations(range(G.n)))
    got = pst_time_scan(relabel(G, perm), perm[a], perm[b], 2 * math.pi)
    assert_same_verdict(got, pst_time_scan(G, a, b, 2 * math.pi))


@settings(max_examples=40, deadline=None)
@given(cases(), st.sampled_from([0.125, 0.3, 2.0, 7.0, 1e3]))
def test_scaling_the_weights_scales_time(case, c):
    G, a, b, t = case
    got = check_lpst(WeightedGraph(c * G.matrix), a, b, t / c)
    assert got.time == t / c
    assert_same_verdict(got, check_lpst(G, a, b, t))


def test_the_cases_reach_every_check_kind():
    """K_{4m} minus a matching gives LPST on a pair and PERIODIC elsewhere."""
    G = k4n_remove_matching(4, [(0, 1)]).graph
    kinds = {check_lpst(G, a, b, math.pi / 2).kind for a, b in [(0, 1), (2, 2), (0, 2)]}
    assert kinds == {TransferKind.LPST, TransferKind.PERIODIC, TransferKind.NONE}
