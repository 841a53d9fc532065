"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import warnings
from contextlib import contextmanager

import numpy as np

from twinwalk import (
    CirculantSpec,
    TransferKind,
    almost_periodic_applicable,
    build_circulant,
    check_lpst,
    circulant_twin_edge_family,
    complete_graph,
    eigendecompose,
    is_gcd_set,
    k4n_remove_matching,
    laplacian,
    laplacian_eigenvalues,
    list_twin_pairs,
    matrix_exp_oracle,
    mod_four_condition,
    perturb_edge,
    perturbed_propagator,
    pgst_scan,
    propagator,
    quarter_weight_family,
    rank_one_matrix,
    transfer_amplitudes,
    twin_condition,
    verify_family,
)
from twinwalk.identities import random_twin_graph
from conftest import assert_spectrum_invariants, cycle_graph, path_graph
from test_circulant import all_symmetric_sets

PI = np.pi


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_factorization_identity():
    with criterion("1 factorization identity, closed form vs series exponential"):
        rng = np.random.default_rng(20240601)
        worst = 0.0
        for _ in range(30):
            G, (a, b) = random_twin_graph(rng, n_max=12)
            L = laplacian(G)
            M = rank_one_matrix(G.n, a, b)
            s = eigendecompose(L)
            alpha = float(rng.uniform(-2.0, 2.0))
            for t in rng.uniform(0.0, 10.0, size=10):
                closed = perturbed_propagator(s, float(t), M, alpha)
                direct = matrix_exp_oracle(L + alpha * M, float(t))
                worst = max(worst, float(np.abs(closed - direct).max()))
        assert worst < 1e-8, f"worst deviation {worst}"


def test_criterion_2_commutation():
    with criterion("2 twin commutation plus non-twin negative control"):
        test_graphs = [
            cycle_graph(4),
            complete_graph(5),
            complete_graph(8),
            path_graph(3),
            build_circulant(CirculantSpec(8, frozenset({1, 3, 5, 7}))),
            build_circulant(CirculantSpec(16, frozenset({1, 7, 9, 15}))),
            perturb_edge(complete_graph(8), 0, 4, -1.0),
            perturb_edge(cycle_graph(4), 0, 2, 2.0),
        ]
        rng = np.random.default_rng(7)
        for _ in range(10):
            G, _ = random_twin_graph(rng, n_max=10)
            test_graphs.append(G)
        checked = 0
        for G in test_graphs:
            L = laplacian(G)
            for a, b in list_twin_pairs(G):
                M = rank_one_matrix(G.n, a, b)
                assert np.abs(L @ M - M @ L).max() < 1e-12
                checked += 1
        assert checked > 30
        # negative control: adjacent ends of P_4 are not twins
        L = laplacian(path_graph(4))
        M = rank_one_matrix(4, 0, 1)
        assert np.abs(L @ M - M @ L).max() > 0.5


def test_criterion_3_matching_removal():
    with criterion("3 complete-graph matchings transfer at pi/2 (sizes 4, 8, 12)"):
        matchings = {
            4: [
                [(0, 1), (2, 3)],
                [(0, 2), (1, 3)],
                [(0, 3), (1, 2)],
            ],
            8: [
                [(0, 4), (1, 5), (2, 6), (3, 7)],
                [(0, 1), (2, 3), (4, 5), (6, 7)],
            ],
            12: [
                [(i, i + 6) for i in range(6)],
            ],
        }
        for size, cases in matchings.items():
            for matching in cases:
                # prefixes exercise the untouched-vertex periodicity clause
                for k in range(1, len(matching) + 1):
                    fi = k4n_remove_matching(size, matching[:k])
                    reports = verify_family(fi, tol=1e-9)
                    assert all(r.fidelity >= 1.0 - 1e-9 for r in reports)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "size 6 is not a multiple of 4")
            fi = k4n_remove_matching(6, [(0, 1)])
        r = check_lpst(fi.graph, 0, 1, PI / 2, tol=1e-3)
        assert r.fidelity < 0.999


def test_criterion_4_quarter_weight():
    with criterion("4 quarter-weight edges transfer at 2 pi (K_3 and K_5)"):
        k3 = quarter_weight_family(complete_graph(3), [(0, 2)])
        assert k3.graph.matrix[0, 2] == 0.25
        for r in verify_family(k3, tol=1e-9):
            assert r.fidelity >= 1.0 - 1e-9
        k5 = quarter_weight_family(complete_graph(5), [(0, 2), (1, 3)])
        assert k5.graph.matrix[0, 2] == 0.25 and k5.graph.matrix[1, 3] == 0.25
        reports = verify_family(k5, tol=1e-9)
        kinds = {(r.kind, r.source, r.target) for r in reports}
        assert (TransferKind.LPST, 0, 2) in kinds
        assert (TransferKind.LPST, 1, 3) in kinds
        assert (TransferKind.PERIODIC, 4, 4) in kinds
        assert all(r.fidelity >= 1.0 - 1e-9 for r in reports)


def test_criterion_5_cycle_with_heavy_chord():
    with criterion("5 C_4 plus weight-2 chord keeps transfer at pi/2"):
        G = perturb_edge(cycle_graph(4), 0, 2, 2.0)
        r = check_lpst(G, 0, 2, PI / 2, tol=1e-9)
        assert r.kind is TransferKind.LPST
        assert r.fidelity >= 1.0 - 1e-9


def test_criterion_6_complete_graph_bound():
    with criterion("6 complete-graph fidelity bound 2/n (n = 4..10)"):
        ts = np.linspace(0.0, 2 * PI, 10_000)
        for n in range(4, 11):
            s = eigendecompose(laplacian(complete_graph(n)))
            for a in range(n):
                for b in range(a + 1, n):
                    mags = np.abs(transfer_amplitudes(s, a, b, ts))
                    assert mags.max() <= 2.0 / n + 1e-9, f"n={n}, pair ({a},{b})"


def test_criterion_7_mixed_pair_obstruction():
    with criterion("7 mixed-pair entry symmetry on K_8 minus one edge"):
        G = perturb_edge(complete_graph(8), 0, 4, -1.0)
        s = eigendecompose(laplacian(G))
        ts = np.linspace(0.0, 10.0, 100)
        for q in (1, 2, 3, 5, 6, 7):
            top = transfer_amplitudes(s, q, 0, ts)
            bot = transfer_amplitudes(s, q, 4, ts)
            assert np.abs(top - bot).max() < 1e-9
            mags = np.abs(transfer_amplitudes(s, 0, q, ts))
            assert mags.max() <= 1.0 / np.sqrt(2.0) + 1e-6


def test_criterion_8_successive_circulant_edges():
    with criterion("8 successive twin edges on Cay(Z_8, odd set) transfer at pi/2"):
        pairs = [(0, 4), (1, 5), (2, 6), (3, 7)]
        G = build_circulant(CirculantSpec(8, frozenset({1, 3, 5, 7})))
        for i, (a, b) in enumerate(pairs):
            G = perturb_edge(G, a, b, 1.0)
            for x, y in pairs[: i + 1]:
                r = check_lpst(G, x, y, PI / 2, tol=1e-9)
                assert r.kind is TransferKind.LPST, f"pair ({x},{y}) after step {i}"
        # the full configuration matches the family generator
        fi = circulant_twin_edge_family(
            CirculantSpec(8, frozenset({1, 3, 5, 7})), pairs
        )
        assert fi.graph == G


def test_criterion_9_pgst_scan():
    with criterion("9 pretty-good transfer on Cay(Z_16,{1,7,9,15}) plus edge (0,8)"):
        spec = CirculantSpec(16, frozenset({1, 7, 9, 15}))
        assert almost_periodic_applicable(spec)
        assert twin_condition(spec)
        assert mod_four_condition(spec)
        G = perturb_edge(build_circulant(spec), 0, 8, 1.0)
        witness = pgst_scan(G, 0, 8, q_max=10**6, epsilons=(1e-1, 1e-2, 1e-3))
        hit = witness.achieved(1e-3)
        assert hit is not None
        assert hit.fidelity >= 1.0 - 1e-3
        # witness times lie in (4Z+1) pi/2 and best fidelity never decreases
        for h in witness.epsilon_ladder:
            assert h.time == (4 * h.q + 1) * (PI / 2)
        assert all(
            x < y for x, y in zip(witness.fidelities, witness.fidelities[1:])
        )
        assert all(x < y for x, y in zip(witness.times, witness.times[1:]))


def test_criterion_10_gcd_set_characterization():
    with criterion("10 integral circulant spectrum iff gcd-set (n = 3..10)"):
        for n in range(3, 11):
            for S in all_symmetric_sets(n):
                lam = laplacian_eigenvalues(CirculantSpec(n, S))
                integral = bool(np.all(np.abs(lam - np.round(lam)) <= 1e-6))
                assert integral == is_gcd_set(n, S), f"n={n}, S={set(S)}"


def test_criterion_11_spectral_module():
    with criterion("11 spectral invariants and oracle agreement (100 matrices)"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            R = rng.uniform(-2.0, 2.0, size=(n, n))
            H = (R + R.T) / 2.0
            s = eigendecompose(H)
            assert_spectrum_invariants(s, H)
            for t in rng.uniform(0.0, 10.0, size=3):
                U = propagator(s, float(t))
                assert np.abs(U - matrix_exp_oracle(H, float(t))).max() < 1e-8
