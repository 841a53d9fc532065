import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinwalk import (
    TransferKind,
    almost_periodic_applicable,
    build_circulant,
    build_graph,
    CirculantSpec,
    check_lpst,
    check_periodic,
    circulant_twin_edge_family,
    eigendecompose,
    k4n_remove_matching,
    laplacian,
    list_twin_pairs,
    matrix_exp_oracle,
    perturb_edge,
    perturbed_propagator,
    pgst_scan,
    propagator,
    pst_time_scan,
    rank_one_matrix,
    transfer_amplitudes,
    twin_condition,
    verify_family,
    WeightedGraph,
)
from twinwalk import walk
from twinwalk.errors import IndexOutOfRangeError, InputError
from twinwalk.identities import _factorization_gap, random_twin_graph, run_identity_checks
from conftest import cycle_graph, path_graph
from test_graphs import complete

PI = np.pi
NAN = float("nan")


def spectrum_of(G):
    return eigendecompose(laplacian(G))


def k4_minus_edge():
    return perturb_edge(complete(4), 0, 1, -1.0)


def admissible_circulants(n):
    """Connection sets of Z_n that circulant_twin_edge_family accepts."""
    orbits = sorted({frozenset({s, n - s}) for s in range(1, n)}, key=min)
    specs = []
    for r in range(1, len(orbits) + 1):
        for combo in itertools.combinations(orbits, r):
            spec = CirculantSpec(n, frozenset().union(*combo))
            if almost_periodic_applicable(spec) and twin_condition(spec):
                specs.append(spec)
    return specs


ADMISSIBLE_CIRCULANTS = admissible_circulants(8) + admissible_circulants(16)


class TestPropagator:
    def test_time_zero_identity(self):
        U = propagator(spectrum_of(cycle_graph(5)), 0.0)
        assert np.abs(U - np.eye(5)).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_complete_graph_closed_form(self, n, rng):
        s = spectrum_of(complete(n))
        J = np.ones((n, n))
        for t in rng.uniform(0, 8, size=5):
            expected = J / n + np.exp(-1j * n * t) * (np.eye(n) - J / n)
            assert np.abs(propagator(s, t) - expected).max() < 1e-10

    def test_integral_graph_periodic_at_two_pi(self):
        for G in (complete(4), cycle_graph(4), complete(7)):
            U = propagator(spectrum_of(G), 2 * PI)
            assert np.abs(U - np.eye(G.n)).max() < 1e-9

    def test_unitarity(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            R = rng.uniform(-2, 2, size=(n, n))
            s = eigendecompose((R + R.T) / 2)
            t = float(rng.uniform(0, 10))
            U = propagator(s, t)
            assert np.abs(U @ U.conj().T - np.eye(n)).max() < 1e-9

    def test_group_law(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            R = rng.uniform(-2, 2, size=(n, n))
            s = eigendecompose((R + R.T) / 2)
            t1, t2 = rng.uniform(0, 5, size=2)
            lhs = propagator(s, t1 + t2)
            rhs = propagator(s, t1) @ propagator(s, t2)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_transfer_amplitudes_match_matrix(self, rng):
        G = k4_minus_edge()
        s = spectrum_of(G)
        ts = rng.uniform(0, 10, size=7)
        amps = transfer_amplitudes(s, 0, 1, ts)
        for t, amp in zip(ts, amps):
            assert abs(propagator(s, t)[1, 0] - amp) < 1e-12


class TestPerturbedPropagator:
    def test_alpha_t_multiple_of_pi_equals_base(self):
        # alpha * t in pi Z makes the bracket the identity
        G = cycle_graph(4)
        s = spectrum_of(G)
        M = rank_one_matrix(4, 0, 2)
        for alpha, t in [(2.0, PI / 2), (4.0, PI / 2), (2.0, PI), (-2.0, PI / 2)]:
            base = propagator(s, t)
            pert = perturbed_propagator(s, t, M, alpha)
            assert np.abs(pert - base).max() < 1e-12

    def test_alpha_zero_equals_base(self):
        s = spectrum_of(complete(5))
        base = propagator(s, 1.3)
        pert = perturbed_propagator(s, 1.3, rank_one_matrix(5, 0, 1), 0.0)
        assert np.array_equal(pert, base)

    def test_k4_against_oracle(self):
        G = complete(4)
        L = laplacian(G)
        M = rank_one_matrix(4, 0, 1)
        closed = perturbed_propagator(spectrum_of(G), PI / 2, M, -1.0)
        direct = matrix_exp_oracle(L - M, PI / 2)
        assert np.abs(closed - direct).max() < 1e-9

    @pytest.mark.parametrize("alpha", [NAN, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        s = spectrum_of(cycle_graph(4))
        with pytest.raises(ValueError):
            perturbed_propagator(s, 1.0, rank_one_matrix(4, 0, 2), alpha)

    def test_untouched_columns_preserved(self):
        # columns outside the perturbed pair never move
        G = complete(8)
        s = spectrum_of(G)
        M = rank_one_matrix(8, 0, 4)
        for t in (0.3, 1.1, PI / 2, 4.0):
            base = propagator(s, t)
            pert = perturbed_propagator(s, t, M, -1.0)
            for q in range(8):
                if q in (0, 4):
                    continue
                assert np.abs(pert[:, q] - base[:, q]).max() < 1e-12


class TestFidelity:
    def test_identity_time_zero(self):
        r = check_periodic(cycle_graph(4), 2, 0.0)
        assert abs(r.fidelity - 1.0) < 1e-12
        assert abs(r.phase - 1.0) < 1e-12

    def test_complete_graph_bound(self, rng):
        for n in range(4, 11):
            s = spectrum_of(complete(n))
            ts = rng.uniform(0, 2 * PI, size=2000)
            mags = np.abs(transfer_amplitudes(s, 0, 1, ts))
            assert mags.max() <= 2.0 / n + 1e-9

    def test_k4_minus_edge_perfect(self):
        r = check_lpst(k4_minus_edge(), 0, 1, PI / 2)
        assert r.fidelity >= 1.0 - 1e-9
        assert abs(abs(r.phase) - 1.0) < 1e-12

    def test_index_errors(self):
        G = cycle_graph(4)
        for a, b in ((0, 4), (-1, 2), (4, 0)):
            with pytest.raises(IndexOutOfRangeError):
                check_lpst(G, a, b, 0.0)
        with pytest.raises(IndexOutOfRangeError):
            check_periodic(G, -1, 0.0)

    def test_phase_floor(self):
        # two isolated vertices: the amplitude is exactly 0
        r = check_lpst(build_graph(2, []), 0, 1, 1.0)
        assert r.fidelity == 0.0
        assert r.phase == 1.0 + 0.0j
        # P_2 at t = pi: the off-diagonal entry vanishes up to rounding
        assert check_lpst(path_graph(2), 0, 1, PI).fidelity < 1e-12


class TestChecks:
    def test_c4_antipodal_lpst(self):
        r = check_lpst(cycle_graph(4), 0, 2, PI / 2)
        assert r.kind is TransferKind.LPST
        assert r.fidelity >= 1.0 - 1e-9

    def test_c4_with_heavy_chord_keeps_lpst(self):
        G = perturb_edge(cycle_graph(4), 0, 2, 2.0)
        r = check_lpst(G, 0, 2, PI / 2)
        assert r.kind is TransferKind.LPST

    def test_k5_never_transfers(self):
        r = check_lpst(complete(5), 0, 1, PI)
        assert r.kind is TransferKind.NONE
        assert r.fidelity <= 2.0 / 5 + 1e-9

    @pytest.mark.parametrize("t", [NAN, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError):
            check_lpst(cycle_graph(4), 0, 2, t)
        with pytest.raises(ValueError):
            check_periodic(cycle_graph(4), 0, t)

    def test_check_lpst_errors(self):
        with pytest.raises(InputError, match="two distinct vertices"):
            check_lpst(cycle_graph(4), 1, 1, PI)
        with pytest.raises(ValueError):
            check_lpst(cycle_graph(4), 0, 1, PI, tol=0.0)

    def test_periodic_integral_at_two_pi(self):
        for G in (complete(4), cycle_graph(4), complete(9)):
            for p in range(G.n):
                assert check_periodic(G, p, 2 * PI).kind is TransferKind.PERIODIC

    def test_periodic_k8_at_half_pi(self):
        for p in (0, 3, 7):
            assert check_periodic(complete(8), p, PI / 2).kind is TransferKind.PERIODIC

    def test_c5_not_periodic_at_half_pi(self):
        r = check_periodic(cycle_graph(5), 0, PI / 2)
        assert r.kind is TransferKind.NONE
        # frozen from the series exponential: |U[0,0]| = 0.3216559830…
        assert abs(r.fidelity - 0.32165598302411) < 1e-9


class TestMixedPairSymmetry:
    """For twins a, b and any q outside the pair, U(t)[a, q] = U(t)[b, q]."""

    @staticmethod
    def gap(G, a, b, q, times):
        s = spectrum_of(G)
        ts = np.asarray(times, dtype=float)
        top = transfer_amplitudes(s, q, a, ts)
        return float(np.abs(top - transfer_amplitudes(s, q, b, ts)).max())

    def test_k4_minus_edge(self):
        G = k4_minus_edge()
        dev = self.gap(G, 0, 1, 2, [0.3, 1.1, PI / 2])
        assert dev < 1e-9

    def test_identity_time_zero(self):
        # the propagator at t = 0 is the identity, up to reconstruction noise
        G = cycle_graph(4)
        a, b = list_twin_pairs(G)[0]
        assert self.gap(G, a, b, 1, [0.0]) < 1e-14

    def test_c4_weighted_chord(self):
        G = perturb_edge(cycle_graph(4), 0, 2, 2.0)
        assert self.gap(G, 0, 2, 1, [0.5, 2.0, PI / 2]) < 1e-9

    @pytest.mark.parametrize("q", [-1, 4])
    def test_q_out_of_range_rejected(self, q):
        G = cycle_graph(4)
        with pytest.raises(IndexOutOfRangeError):
            transfer_amplitudes(spectrum_of(G), q, list_twin_pairs(G)[0][0], [1.0])

    def test_mixed_fidelity_below_inv_sqrt2(self, rng):
        G = perturb_edge(complete(8), 0, 4, -1.0)
        s = spectrum_of(G)
        ts = rng.uniform(0, 10, size=100)
        for q in (1, 2, 3, 5, 6, 7):
            mags = np.abs(transfer_amplitudes(s, 0, q, ts))
            assert mags.max() <= 1.0 / np.sqrt(2.0) + 1e-6


class TestPstTimeScan:
    def test_k4_minus_edge_finds_half_pi(self):
        # pi/2 is a grid point of (0, 2 pi] but falls between those of
        # (0, 3], where the best grid point alone misses fidelity 1 - 1e-9
        for G, a, b in ((k4_minus_edge(), 0, 1), (cycle_graph(4), 0, 2)):
            for t_max in (2 * PI, 3.0):
                r = pst_time_scan(G, a, b, t_max)
                assert r.kind is TransferKind.LPST
                assert abs(r.time - PI / 2) < 1e-12
                assert type(r.time) is float
                assert r.fidelity >= 1.0 - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_k4m_minus_matching_finds_half_pi(self, data):
        m = data.draw(st.integers(1, 3))
        order = data.draw(st.permutations(range(4 * m)))
        k = data.draw(st.integers(1, 2 * m))
        matching = list(zip(order[0:2 * k:2], order[1:2 * k:2]))
        a, b = data.draw(st.sampled_from(matching))
        r = pst_time_scan(k4n_remove_matching(4 * m, matching).graph, a, b, PI)
        assert r.kind is TransferKind.LPST
        assert abs(r.time - PI / 2) < 1e-12

    def test_zero_amplitude_keeps_a_grid_time(self):
        G = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        r = pst_time_scan(G, 0, 2, PI)
        assert r.kind is TransferKind.NONE
        assert r.time == pytest.approx(PI / 20_000)

    def test_zero_amplitude_skips_the_bisection(self, monkeypatch):
        # Every grid amplitude is zero, so the slope's sign is noise, and a
        # bisection would halve the first bracket toward 0 through the
        # subnormals (about 1060 _phases calls at one time each); the scan
        # makes one such call for t_max and one per block of its samples.
        G = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        phases, seen = walk._phases, []

        def spy(values, times):
            seen.append(times)
            return phases(values, times)

        monkeypatch.setattr(walk, "_phases", spy)
        r = pst_time_scan(G, 0, 2, 4 * PI)
        blocks = -(-20_000 // walk._SWEEP_BLOCK)
        assert sum(np.ndim(t) == 0 for t in seen) <= 1 + blocks
        assert (r.kind, r.time, r.fidelity, r.phase) == (
            TransferKind.NONE, 4 * PI / 20_000, 0.0, 1.0)

    def test_last_sample_is_t_max(self):
        # |U(t)[1, 0]| = |sin t| on K2 rises over (0, 1.3], so the best sample
        # is the last one, t_max itself, though 20000 * (1.3 / 20000) != 1.3.
        r = pst_time_scan(build_graph(2, [(0, 1, 1.0)]), 0, 1, 1.3)
        assert (r.kind, r.time) == (TransferKind.NONE, 1.3)

    def test_quarter_weight_k3_finds_two_pi(self):
        G = complete(3)
        G = perturb_edge(G, 0, 2, -0.75)
        r = pst_time_scan(G, 0, 2, 4 * PI)
        assert r.kind is TransferKind.LPST
        assert r.fidelity >= 1.0 - 1e-9
        # 2 pi sits exactly on the default grid and the earlier perfect time
        # 2 pi / 3 does not, yet the scan reports the first transfer.
        assert abs(r.time - 2 * PI / 3) < 1e-6
        # both times transfer perfectly
        assert check_lpst(G, 0, 2, 2 * PI / 3).kind is TransferKind.LPST
        assert check_lpst(G, 0, 2, 2 * PI).kind is TransferKind.LPST

    def test_heavy_k16_finds_the_first_transfer(self):
        # 20 000 fixed samples of (0, 4 pi] step past every peak, of width
        # about 1/B, and read NONE at fidelity 0.924 and t = 12.094
        G = k4n_remove_matching(16, [(0, 1), (2, 3), (4, 5), (6, 7)]).graph
        r = pst_time_scan(WeightedGraph(1000.0 * G.matrix), 0, 1, 4 * PI)
        assert r.kind is TransferKind.LPST
        assert r.time == pytest.approx(PI / 2000, rel=1e-12)

    def test_k2_finds_the_first_transfer_at_any_weight(self):
        for w in (1.0, 1e3, 1e5):
            r = pst_time_scan(build_graph(2, [(0, 1, w)]), 0, 1, 4 * PI)
            assert r.kind is TransferKind.LPST
            assert r.time == pytest.approx(PI / (2 * w), rel=1e-12)

    def test_sample_cap(self):
        G = build_graph(2, [(0, 1, 1e12)])  # 4 pi B = 2.5e13 samples at step 1/B
        with pytest.raises(InputError, match="cap of 10000000 samples"):
            pst_time_scan(G, 0, 1, 4 * PI)

    @pytest.mark.parametrize("block", [1, 2, 7, 76])
    def test_block_edges_move_no_peak(self, monkeypatch, block):
        # Near-perfect transfers: each local maximum at or above the sampling
        # level is refined and none passes tol, whatever the block size. The
        # grid is the least that covers the horizon, 76 samples (6 pi B), and
        # from 76 on one block holds the whole sweep.
        G = build_graph(4, [(0, 1, 1.01), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        verdict, seen = walk._verdict, []

        def spy(s, a, b, t, tol):
            seen.append(t)
            return verdict(s, a, b, t, tol)

        monkeypatch.setattr(walk, "_SCAN_GRID", 1)
        monkeypatch.setattr(walk, "_SWEEP_BLOCK", block)
        monkeypatch.setattr(walk, "_verdict", spy)
        r = pst_time_scan(G, 0, 2, 6 * PI)
        assert (r.kind, r.time) == (TransferKind.NONE, seen[0])
        assert r.fidelity == pytest.approx(0.99996, abs=1e-5)
        assert np.allclose(seen, PI / 2 * np.arange(1, 12, 2), rtol=0.01)

    def test_k5_bounded_everywhere(self):
        r = pst_time_scan(complete(5), 0, 1, 2 * PI)
        assert r.kind is TransferKind.NONE
        assert r.fidelity <= 0.4 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            pst_time_scan(cycle_graph(4), 0, 2, -1.0)

    def test_equal_vertices_rejected(self):
        # C4 returns to 0 only at pi; a scan over (0, 1] used to report a
        # return at t ~ 1e-24, where the walk has not left the vertex
        with pytest.raises(InputError, match="two distinct vertices"):
            pst_time_scan(cycle_graph(4), 0, 0, 1.0)

    @pytest.mark.parametrize("a, b", [(0, 4), (-1, 2), (4, 0)])
    def test_out_of_range_rejected(self, a, b):
        with pytest.raises(IndexOutOfRangeError):
            pst_time_scan(cycle_graph(4), a, b, PI)
        with pytest.raises(IndexOutOfRangeError):
            pgst_scan(cycle_graph(4), a, b, q_max=10)


class TestSweep:
    @staticmethod
    def dense(seed, n):
        """Complete graph on n vertices with weights uniform in [0.1, 2)."""
        W = np.triu(np.random.default_rng(seed).uniform(0.1, 2.0, (n, n)), 1)
        return WeightedGraph(W + W.T)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_error_bound(self, data):
        # One block of times up to the pst scan's sample cap, at steps up to
        # 1/B; the amplitudes' gap bounds their magnitudes' gap.
        seed = data.draw(st.integers(0, 2**32 - 1))
        if data.draw(st.booleans()):
            G, (a, b) = random_twin_graph(np.random.default_rng(seed))
        else:
            G, a, b = self.dense(seed, data.draw(st.integers(2, 64))), 0, 1
        s = spectrum_of(G)
        c = s.coefficients(a, b)
        spread = s.values[-1] - s.values[0]
        h = data.draw(st.floats(0.5, 1.0)) / spread if spread > 0 else 1.0
        offset = data.draw(st.integers(0, walk._SCAN_CAP - walk._SWEEP_BLOCK))
        for _, times, amps, _ in walk._sweep(s, c, walk._SWEEP_BLOCK, h, offset):
            gap = np.abs(amps - transfer_amplitudes(s, a, b, times)).max()
            assert gap <= walk._sweep_error(s, c, times[-1])

    @staticmethod
    def direct_scan(G, a, b, t_max):
        """pst_time_scan with every sample evaluated by transfer_amplitudes."""
        def sweep(s, c, count, h, offset):
            for i0 in range(0, count, walk._SWEEP_BLOCK):
                times = (np.arange(i0, min(i0 + walk._SWEEP_BLOCK, count)) + offset) * h
                amps = transfer_amplitudes(s, a, b, times)
                yield i0, times, amps, np.abs(amps)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walk, "_sweep", sweep)
            return pst_time_scan(G, a, b, t_max)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_scans_report_as_a_direct_sweep(self, data):
        if data.draw(st.booleans()):
            seed = data.draw(st.integers(0, 2**32 - 1))
            G, (a, b) = random_twin_graph(np.random.default_rng(seed))
        else:
            m = data.draw(st.integers(1, 3))
            order = data.draw(st.permutations(range(4 * m)))
            k = data.draw(st.integers(1, 2 * m))
            matching = list(zip(order[0:2 * k:2], order[1:2 * k:2]))
            G = k4n_remove_matching(4 * m, matching).graph
            a, b = data.draw(st.sampled_from(matching + [(order[0], order[-1])]))
        t_max = data.draw(st.sampled_from([4 * PI, 40.0, 300.0]))
        assert repr(pst_time_scan(G, a, b, t_max)) == repr(self.direct_scan(G, a, b, t_max))

    @pytest.mark.parametrize("G, a, b", [
        # a pair outside the matching: |f| peaks at exactly 0.5 again and again,
        # and the table's rounding would break those ties otherwise
        pytest.param(k4n_remove_matching(4, [(1, 2)]).graph, 2, 0, id="k4-outside-matching"),
        pytest.param(build_graph(2, [(0, 1, 1e3)]), 0, 1, id="k2-1e3"),
        pytest.param(build_graph(2, [(0, 1, 1e5)]), 0, 1, id="k2-1e5"),
        pytest.param(WeightedGraph(1000.0 * k4n_remove_matching(
            16, [(0, 1), (2, 3), (4, 5), (6, 7)]).graph.matrix), 0, 1, id="k16-heavy"),
        *[pytest.param(circulant_twin_edge_family(spec, [(0, 8)]).graph, 0, 8,
                       id="z16-" + "-".join(map(str, sorted(spec.S))))
          for spec in ADMISSIBLE_CIRCULANTS if spec.n == 16],
    ])
    def test_families_report_as_a_direct_sweep(self, G, a, b):
        assert repr(pst_time_scan(G, a, b, 4 * PI)) == repr(self.direct_scan(G, a, b, 4 * PI))

    def test_few_samples_are_evaluated_again(self, monkeypatch):
        # A dense K16 near the sample cap: the mask of exact samples holds a
        # sample or two per block, not the block.
        G = self.dense(16, 16)
        s = spectrum_of(G)
        count = int(0.99 * walk._SCAN_CAP)
        amplitudes, passed = walk.transfer_amplitudes, []

        def spy(s, a, b, times):
            passed.append(np.size(times))
            return amplitudes(s, a, b, times)

        monkeypatch.setattr(walk, "transfer_amplitudes", spy)
        pst_time_scan(G, 0, 1, count / (s.values[-1] - s.values[0]))
        assert sum(passed) <= 4 * -(-count // walk._SWEEP_BLOCK)


class TestPgstScan:
    def fig4_graph(self, pairs=((0, 4),)):
        G = build_circulant(CirculantSpec(8, frozenset({1, 3, 5, 7})))
        for a, b in pairs:
            G = perturb_edge(G, a, b, 1.0)
        return G

    def test_integral_case_hits_immediately(self):
        w = pgst_scan(self.fig4_graph(), 0, 4, q_max=10)
        assert [h.q for h in w.epsilon_ladder] == [0, 0, 0]
        assert w.epsilon_ladder[0].time == pytest.approx(PI / 2, abs=1e-12)
        assert all(h.fidelity >= 1.0 - 1e-9 for h in w.epsilon_ladder)

    def test_almost_periodicity_at_vertex(self):
        # a == b on the unperturbed conforming circulant
        G = build_circulant(CirculantSpec(8, frozenset({1, 3, 5, 7})))
        w = pgst_scan(G, 0, 0, q_max=50)
        assert w.achieved(1e-3) is not None
        assert w.fidelities[-1] >= 1.0 - 1e-3

    def test_phase_alignment_certifies_witness(self):
        G = build_circulant(CirculantSpec(8, frozenset({1, 3, 5, 7})))
        s = spectrum_of(G)
        w = pgst_scan(G, 0, 0, q_max=50)
        hit = w.achieved(1e-3)
        # every phase exp(-i mu_j t) is within 1e-6 of 1: almost periodicity
        assert np.abs(np.exp(-1j * s.values * hit.time) - 1.0).max() < 1e-6

    def test_irrational_case_z16(self):
        G = build_circulant(CirculantSpec(16, frozenset({1, 7, 9, 15})))
        G = perturb_edge(G, 0, 8, 1.0)
        w = pgst_scan(G, 0, 8, q_max=100)
        hit = w.achieved(1e-3)
        assert hit is not None and hit.q == 10
        assert hit.fidelity >= 1.0 - 1e-3
        assert all(x < y for x, y in zip(w.fidelities, w.fidelities[1:]))
        assert all(x < y for x, y in zip(w.times, w.times[1:]))

    def test_hit_phase_is_the_entry_phase(self):
        G = build_circulant(CirculantSpec(16, frozenset({1, 7, 9, 15})))
        G = perturb_edge(G, 0, 8, 1.0)
        w = pgst_scan(G, 0, 8, q_max=100)
        assert len(w.epsilon_ladder) == 3
        for hit in w.epsilon_ladder:
            r = check_lpst(G, 0, 8, hit.time)
            assert abs(hit.phase - r.phase) < 1e-12
            assert abs(abs(hit.phase) - 1.0) < 1e-12

    def test_early_stop_keeps_its_verdict_below_the_phase_limit(self):
        # At an odd weight C4 transfers 0 -> 2 at q = 0, so the scan stops
        # in its first step, before any time whose phase exceeds pi/eps
        # (pgst_table_phase in test_errors is the scan that does not stop).
        odd = build_graph(4, [(u, (u + 1) % 4, 1e10 + 1) for u in range(4)])
        w = pgst_scan(odd, 0, 2, q_max=10**6)
        assert [h.q for h in w.epsilon_ladder] == [0, 0, 0]

    def test_scan_times_lie_in_progression(self):
        w = pgst_scan(self.fig4_graph(), 0, 4, q_max=5)
        for hit in w.epsilon_ladder:
            assert hit.time == pytest.approx((4 * hit.q + 1) * PI / 2, rel=1e-15)

    def test_validation(self):
        G = self.fig4_graph()
        with pytest.raises(ValueError):
            pgst_scan(G, 0, 4, q_max=0)
        with pytest.raises(ValueError):
            pgst_scan(G, 0, 4, epsilons=(0.1, 0.2))
        with pytest.raises(ValueError):
            pgst_scan(G, 0, 4, epsilons=(1.5, 0.1))

    @pytest.mark.parametrize("S, qs", [
        ((1, 15, 17, 31), [3, 476, 24635]),
        ((1, 2, 14, 15, 17, 18, 30, 31), [16, 3274, 43490]),
    ])
    def test_ladder_on_z32_at_a_million(self, S, qs):
        fi = circulant_twin_edge_family(CirculantSpec(32, frozenset(S)), [(0, 16)])
        w = pgst_scan(fi.graph, 0, 16, q_max=10**6)
        assert [h.q for h in w.epsilon_ladder] == qs
        assert [h.time for h in w.epsilon_ladder] == [
            (4 * q + 1) * (PI / 2) for q in qs]

    def test_scan_without_epsilons_runs_to_q_max(self, monkeypatch):
        # No epsilon is pending, so no step ends the scan: it reaches the last
        # time of the third 8192-q step. A threshold the walk never reaches
        # leaves the same records.
        fi = circulant_twin_edge_family(CirculantSpec(16, frozenset({1, 7, 9, 15})),
                                        [(0, 8)])
        q_max = 20_000
        phases, seen = walk._phases, []

        def spy(values, times):
            seen.append(np.max(times))
            return phases(values, times)

        monkeypatch.setattr(walk, "_phases", spy)
        bare = pgst_scan(fi.graph, 0, 8, q_max, epsilons=())
        assert max(seen) == (4 * q_max + 1) * (PI / 2)
        strict = pgst_scan(fi.graph, 0, 8, q_max, epsilons=(1e-12,))
        assert bare.epsilon_ladder == [] and strict.epsilon_ladder == []
        assert (bare.times, bare.fidelities) == (strict.times, strict.fidelities)

    def test_full_scan_memory_does_not_grow_with_q_max(self, monkeypatch):
        # A NONE scan sweeps all 10^6 + 1 times, about 0.7 MiB at 8192 q per
        # step; a 65 536-q step would peak at 3.3 MiB. The solve runs untraced.
        spec = CirculantSpec(64, frozenset({3, 29, 35, 61}))
        G = circulant_twin_edge_family(spec, [(0, 32)]).graph
        s = spectrum_of(G)
        monkeypatch.setattr(walk, "_spectrum_of", lambda _: s)
        tracemalloc.start()
        try:
            w = pgst_scan(G, 0, 32, q_max=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.achieved(1e-3) is None
        assert peak < 2**20

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_chunking_moves_no_hit(self, data):
        # Block edges fall inside and across the runs of 1024 phase table rows.
        if data.draw(st.booleans()):
            seed = data.draw(st.integers(0, 2**32 - 1))
            G, (a, b) = random_twin_graph(np.random.default_rng(seed))
        else:
            spec = data.draw(st.sampled_from(ADMISSIBLE_CIRCULANTS))
            a = data.draw(st.integers(0, spec.n // 2 - 1))
            b = a + spec.n // 2
            G = circulant_twin_edge_family(spec, [(a, b)]).graph
        q_max = data.draw(st.integers(1, 3000))
        s = spectrum_of(G)
        # Both forms round mu_j t, each by at most eps |mu_j| t.
        rounding = 2.0 * np.finfo(float).eps * np.abs(s.values).max()
        ladders = []
        for block in (1, 7, 1000, 1024, 1025, 8192):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(walk, "_SWEEP_BLOCK", block)
                w = pgst_scan(G, a, b, q_max)
            ladders.append([(h.epsilon, h.q, h.time) for h in w.epsilon_ladder])
            for h in w.epsilon_ladder:
                direct = abs(transfer_amplitudes(s, a, b, np.array([h.time]))[0])
                assert abs(h.fidelity - direct) <= 1e-12 + rounding * h.time
        assert all(ladder == ladders[0] for ladder in ladders)


class TestFactorization:
    @staticmethod
    def gap(G, a, b, alpha, times):
        """The identity battery's closed-form vs series-exponential gap."""
        L = laplacian(G)
        return _factorization_gap(eigendecompose(L), L, rank_one_matrix(G.n, a, b),
                                  alpha, times)

    def test_k4_removed_edge(self):
        G = complete(4)
        a, b = list_twin_pairs(G)[0]
        dev = self.gap(G, a, b, -1.0, [0.1, 1.0, PI / 2, 3.0])
        assert dev < 1e-8

    def test_alpha_zero(self):
        G = cycle_graph(4)
        a, b = list_twin_pairs(G)[0]
        assert self.gap(G, a, b, 0.0, [0.7, 2.0]) < 1e-10

    def test_c4_heavy_chord(self):
        G = cycle_graph(4)
        a, b = list_twin_pairs(G)[0]
        assert self.gap(G, a, b, 2.0, [PI / 2]) < 1e-8

    def test_identity_battery_runs_the_same_check(self):
        G = perturb_edge(complete(6), 0, 3, -1.0)
        a, b = list_twin_pairs(G)[0]
        rng = np.random.default_rng(11)  # the battery's first draws, given G
        alpha = float(rng.uniform(-2.0, 2.0))
        ts = rng.uniform(0.0, 10.0, size=3)
        devs = run_identity_checks(G, seed=11, trials=1)
        assert devs["factorization_vs_oracle"] == self.gap(G, a, b, alpha, list(ts))

    def test_random_twin_graph_draws_four_to_twelve_vertices(self):
        assert list(inspect.signature(random_twin_graph).parameters) == ["rng"]
        rng = np.random.default_rng(5)
        drawn = [random_twin_graph(rng) for _ in range(200)]
        assert {G.n for G, _ in drawn} == set(range(4, 13))
        assert all(pair in list_twin_pairs(G) for G, pair in drawn)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0),
           st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3))
    def test_factorization_matches_oracle_on_random_twins(self, seed, alpha, ts):
        G, (a, b) = random_twin_graph(np.random.default_rng(seed))
        assert self.gap(G, a, b, alpha, ts) < 1e-8

    @pytest.mark.parametrize(
        "alpha, times", [(np.inf, [1.0]), (NAN, [1.0]), (1.0, [NAN]), (1.0, [0.5, np.inf])]
    )
    def test_non_finite_alpha_or_time_rejected(self, alpha, times):
        G = cycle_graph(4)
        M = rank_one_matrix(G.n, *list_twin_pairs(G)[0])
        with pytest.raises(ValueError):
            for t in times:
                perturbed_propagator(spectrum_of(G), t, M, alpha)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_lpst(cycle_graph(4), 0, 2, PI / 2, tol=NAN),
        lambda: check_periodic(cycle_graph(4), 0, 2 * PI, tol=NAN),
        lambda: pst_time_scan(cycle_graph(4), 0, 2, PI, tol=NAN),
        lambda: verify_family(k4n_remove_matching(4, [(0, 1)]), tol=NAN),
        lambda: pst_time_scan(cycle_graph(4), 0, 2, NAN),
        lambda: pst_time_scan(cycle_graph(4), 0, 2, np.inf),
        # a tol of 1 or more would pass every pair (C4 0 -> 1 at t = 0.1)
        lambda: check_lpst(cycle_graph(4), 0, 1, 0.1, tol=1.0),
        lambda: check_lpst(cycle_graph(4), 0, 1, 0.1, tol=1.5),
        lambda: check_lpst(cycle_graph(4), 0, 1, 0.1, tol=np.inf),
        lambda: pst_time_scan(cycle_graph(4), 0, 1, 0.1, tol=1.0),
        lambda: pst_time_scan(cycle_graph(4), 0, 1, 0.1, tol=1.5),
        lambda: pst_time_scan(cycle_graph(4), 0, 1, 0.1, tol=np.inf),
        lambda: verify_family(k4n_remove_matching(4, [(0, 1)]), tol=1.0),
        lambda: verify_family(k4n_remove_matching(4, [(0, 1)]), tol=1.5),
        lambda: verify_family(k4n_remove_matching(4, [(0, 1)]), tol=np.inf),
    ],
    ids=["lpst_tol", "periodic_tol", "scan_tol", "family_tol", "t_max_nan",
         "t_max_inf", "lpst_tol_1", "lpst_tol_1.5", "lpst_tol_inf", "scan_tol_1",
         "scan_tol_1.5", "scan_tol_inf", "family_tol_1", "family_tol_1.5",
         "family_tol_inf"],
)
def test_positivity_guards_reject_nan_and_inf(call):
    with pytest.raises(ValueError):
        call()


class TestPerturbationTransferEffects:
    def test_periodic_vertex_becomes_transfer(self):
        # base periodic at p in the pair + odd half-phase => perfect transfer
        cases = [
            (complete(8), 0, 4, -1.0, PI / 2),      # 2 alpha tau = -pi
            (complete(4), 0, 1, -1.0, PI / 2),
            (cycle_graph(4), 0, 2, 0.25, 2 * PI),   # 2 alpha tau = pi
        ]
        for G, a, b, alpha, tau in cases:
            assert check_periodic(G, a, tau).kind is TransferKind.PERIODIC
            pert = perturb_edge(G, a, b, alpha)
            r = check_lpst(pert, a, b, tau)
            assert r.kind is TransferKind.LPST
            assert r.fidelity >= 1.0 - 1e-9

    def test_periodicity_survives_elsewhere(self):
        G = complete(8)
        pert = perturb_edge(G, 0, 4, -1.0)
        for p in (1, 2, 3, 5, 6, 7):
            r = check_periodic(pert, p, PI / 2)
            assert r.kind is TransferKind.PERIODIC
            assert r.fidelity >= 1.0 - 1e-9

    def test_lpst_survives_pi_multiple_perturbation(self):
        # C_4 transfers 0 -> 2 at pi/2; the chord has alpha tau = pi
        G = cycle_graph(4)
        pert = perturb_edge(G, 0, 2, 2.0)
        base_U = propagator(spectrum_of(G), PI / 2)
        pert_U = propagator(spectrum_of(pert), PI / 2)
        assert np.abs(base_U - pert_U).max() < 1e-10

    def test_lpst_survives_outside_perturbation(self):
        # K_8 minus (0,4) transfers 0 -> 4; removing (1,5) afterwards keeps it
        G = perturb_edge(complete(8), 0, 4, -1.0)
        G2 = perturb_edge(G, 1, 5, -1.0)
        r = check_lpst(G2, 0, 4, PI / 2)
        assert r.kind is TransferKind.LPST
