import numpy as np
import pytest

from twinwalk import (
    CirculantSpec,
    TransferKind,
    check_lpst,
    check_periodic,
    circulant_twin_edge_family,
    complete_graph,
    k4n_remove_matching,
    laplacian,
    perturb_edge,
    quarter_weight_family,
    verify_family,
)
from twinwalk.errors import IndexOutOfRangeError, InputError, WitnessFailedError
from twinwalk.families import ExpectedWitness, FamilyInstance, _quarter_alpha
from twinwalk.jsonio import family_from_obj
from conftest import cycle_graph, path_graph

PI = np.pi


class TestCompleteGraph:
    def test_triangle(self):
        G = complete_graph(3)
        assert np.array_equal(G.matrix, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_k8_edge_count(self):
        assert np.count_nonzero(np.triu(complete_graph(8).matrix)) == 28

    def test_k4_laplacian(self):
        L = laplacian(complete_graph(4))
        assert np.array_equal(L, 4 * np.eye(4) - np.ones((4, 4)))

    def test_rejects_empty(self):
        with pytest.raises(InputError, match="vertex count must be positive, got 0"):
            complete_graph(0)


def test_small_jacobi_rotations_stay_finite():
    """A family-dense document whose solve meets an off-diagonal entry far
    below its diagonal gap: every rotation angle stays finite and raises no
    RuntimeWarning (an error under this suite's settings)."""
    fi = family_from_obj({
        "family": "circulant_twin", "n": 32,
        "S": [2, 4, 6, 10, 12, 14, 18, 20, 22, 26, 28, 30],
        "pairs": [[2, 18], [7, 23], [8, 24], [14, 30]],
    })
    reports = verify_family(fi)
    assert [r.kind for r in reports] == [TransferKind.LPST] * 4
    assert all(r.time == PI / 2 and r.fidelity > 1 - 1e-9 for r in reports)


class TestMatchingRemoval:
    def test_single_edge_k8(self):
        fi = k4n_remove_matching(8, [(0, 4)])
        assert ExpectedWitness(0, 4, PI / 2) in fi.expected_witnesses
        periodic = [w for w in fi.expected_witnesses if w.a == w.b]
        assert sorted(w.a for w in periodic) == [1, 2, 3, 5, 6, 7]
        assert all(r.kind is not TransferKind.NONE for r in verify_family(fi))

    def test_full_matching_k8(self):
        fi = k4n_remove_matching(8, [(0, 4), (1, 5), (2, 6), (3, 7)])
        assert len(fi.expected_witnesses) == 4
        reports = verify_family(fi)
        assert all(r.kind is TransferKind.LPST for r in reports)
        assert all(r.fidelity >= 1.0 - 1e-9 for r in reports)

    def test_k4_single_edge(self):
        fi = k4n_remove_matching(4, [(0, 1)])
        reports = verify_family(fi)
        assert {r.kind for r in reports} == {TransferKind.LPST, TransferKind.PERIODIC}

    def test_k6_warns_and_claims_nothing(self):
        with pytest.warns(UserWarning, match="not a multiple of 4"):
            fi = k4n_remove_matching(6, [(0, 1)])
        assert fi.expected_witnesses == ()
        assert verify_family(fi) == []
        r = check_lpst(fi.graph, 0, 1, PI / 2, tol=1e-3)
        assert r.kind is TransferKind.NONE
        assert r.fidelity < 0.999

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(InputError, match="reuses a vertex"):
            k4n_remove_matching(8, [(0, 4), (4, 1)])

    def test_successive_removals_preserve_witnesses(self):
        # after each removal every earlier pair still transfers and every
        # untouched vertex stays periodic at pi/2
        matching = [(0, 4), (1, 5), (2, 6), (3, 7)]
        G = complete_graph(8)
        for i, (a, b) in enumerate(matching):
            G = perturb_edge(G, a, b, -1.0)
            done = matching[: i + 1]
            for x, y in done:
                assert check_lpst(G, x, y, PI / 2).fidelity >= 1.0 - 1e-9
            touched = {v for p in done for v in p}
            for p in range(8):
                if p not in touched:
                    assert check_periodic(G, p, PI / 2).fidelity >= 1.0 - 1e-9


class TestQuarterWeight:
    def test_k3(self):
        fi = quarter_weight_family(complete_graph(3), [(0, 2)])
        assert fi.graph.matrix[0, 2] == 0.25
        reports = verify_family(fi)
        assert [r.kind for r in reports] == [TransferKind.LPST, TransferKind.PERIODIC]
        assert all(r.fidelity >= 1.0 - 1e-9 for r in reports)
        assert reports[0].time == pytest.approx(2 * PI)

    def test_k5_two_pairs_successively(self):
        fi = quarter_weight_family(complete_graph(5), [(0, 2), (1, 3)])
        assert fi.graph.matrix[0, 2] == 0.25
        assert fi.graph.matrix[1, 3] == 0.25
        reports = verify_family(fi)
        kinds = [(r.kind, r.source, r.target) for r in reports]
        assert (TransferKind.LPST, 0, 2) in kinds
        assert (TransferKind.LPST, 1, 3) in kinds
        assert (TransferKind.PERIODIC, 4, 4) in kinds

    def test_c4_nonadjacent_pair(self):
        # C_4 is Laplacian integral; (0,2) is a non-adjacent twin pair
        fi = quarter_weight_family(cycle_graph(4), [(0, 2)])
        assert fi.graph.matrix[0, 2] == 0.25
        assert all(r.fidelity >= 1.0 - 1e-9 for r in verify_family(fi))

    @pytest.mark.parametrize("pair", [(0, 4), (0, -1), (-1, 2)])
    def test_out_of_range_pair_rejected(self, pair):
        # the twin test range-checks the pair before its weight is read
        with pytest.raises(IndexOutOfRangeError):
            quarter_weight_family(cycle_graph(4), [pair])

    def test_non_integral_rejected(self):
        with pytest.raises(InputError, match="not Laplacian integral"):
            quarter_weight_family(cycle_graph(5), [(0, 2)])

    def test_non_twins_rejected(self):
        # P_3 is integral (eigenvalues 0, 1, 3) but (0,1) are not twins
        with pytest.raises(InputError, match=r"\(0,1\) is not a twin pair"):
            quarter_weight_family(path_graph(3), [(0, 1)])

    def test_quarter_alpha_values(self):
        assert _quarter_alpha(0.0) == 0.25
        assert _quarter_alpha(1.0) == -0.75
        assert _quarter_alpha(0.5) == -0.25
        with pytest.raises(InputError, match="odd-multiple phase condition"):
            _quarter_alpha(0.3)

    def test_phase_condition_is_odd_half_turn(self):
        # 2 * alpha * 2 pi must be an odd multiple of pi
        for alpha in (0.25, -0.75):
            assert (2 * alpha * 2 * PI / PI) % 2 == pytest.approx(1.0)


class TestCirculantTwinEdges:
    def test_z8_single_pair(self):
        fi = circulant_twin_edge_family(
            CirculantSpec(8, frozenset({1, 3, 5, 7})), [(0, 4)]
        )
        assert fi.expected_witnesses == (
            ExpectedWitness(0, 4, PI / 2),
        )
        reports = verify_family(fi)
        assert reports[0].fidelity >= 1.0 - 1e-9

    def test_z8_all_pairs(self):
        fi = circulant_twin_edge_family(
            CirculantSpec(8, frozenset({1, 3, 5, 7})),
            [(0, 4), (1, 5), (2, 6), (3, 7)],
        )
        reports = verify_family(fi)
        assert len(reports) == 4
        assert all(r.kind is TransferKind.LPST for r in reports)

    def test_z16_gives_pgst_witness(self):
        fi = circulant_twin_edge_family(
            CirculantSpec(16, frozenset({1, 7, 9, 15})), [(0, 8)]
        )
        assert fi.expected_witnesses[0].time is None
        reports = verify_family(fi, q_max=100)
        assert reports[0].kind is TransferKind.PGST
        assert reports[0].fidelity >= 1.0 - 1e-3
        # the phase is that of U(t)[8, 0] at the reported time
        direct = check_lpst(fi.graph, 0, 8, reports[0].time)
        assert abs(reports[0].phase - direct.phase) < 1e-12

    def test_non_power_of_two_rejected(self):
        with pytest.raises(InputError, match="almost-periodicity criterion failed"):
            circulant_twin_edge_family(
                CirculantSpec(12, frozenset({1, 5, 7, 11})), [(0, 6)]
            )

    def test_mod_four_violation_rejected(self):
        with pytest.raises(InputError, match="almost-periodicity criterion failed"):
            circulant_twin_edge_family(CirculantSpec(8, frozenset({1, 7})), [(0, 4)])

    def test_twin_condition_violation_rejected(self):
        # mod-4 count holds but 8 - S != S
        with pytest.raises(InputError, match="twin condition failed"):
            circulant_twin_edge_family(
                CirculantSpec(16, frozenset({1, 15, 3, 13})), [(0, 8)]
            )

    def test_non_antipodal_pair_rejected(self):
        with pytest.raises(InputError, match="is not antipodal"):
            circulant_twin_edge_family(
                CirculantSpec(8, frozenset({1, 3, 5, 7})), [(0, 3)]
            )

    def test_vertex_reuse_rejected(self):
        with pytest.raises(InputError, match="reuses a vertex"):
            circulant_twin_edge_family(
                CirculantSpec(8, frozenset({1, 3, 5, 7})), [(0, 4), (4, 0)]
            )

    def test_fig4_interplay(self):
        # adding (1,5) after (0,4) keeps the (0,4) witness alive
        fi1 = circulant_twin_edge_family(
            CirculantSpec(8, frozenset({1, 3, 5, 7})), [(0, 4)]
        )
        G2 = perturb_edge(fi1.graph, 1, 5, 1.0)
        assert check_lpst(G2, 0, 4, PI / 2).kind is TransferKind.LPST
        assert check_lpst(G2, 1, 5, PI / 2).kind is TransferKind.LPST


@pytest.mark.parametrize("build, pairs", [
    (lambda p: k4n_remove_matching(8, p), [(0, 4), (1, 5)]),
    (lambda p: quarter_weight_family(complete_graph(5), p), [(0, 2), (1, 3)]),
    # either order of an antipodal pair
    (lambda p: circulant_twin_edge_family(CirculantSpec(8, frozenset({1, 3, 5, 7})), p),
     [(4, 0), (1, 5)]),
], ids=["k4n", "quarter_weight", "circulant_twin"])
def test_pairs_may_be_any_iterable(build, pairs):
    # each builder reads its pairs twice: to check them and to add the edges
    from_lists = build([list(p) for p in pairs])
    from_generator = build(p for p in pairs)
    assert from_generator.graph == from_lists.graph
    assert from_generator.expected_witnesses == from_lists.expected_witnesses
    assert len(from_lists.expected_witnesses) >= len(pairs)


def implied_kind(w):
    if w.time is None:
        return TransferKind.PGST
    return TransferKind.PERIODIC if w.a == w.b else TransferKind.LPST


@pytest.mark.parametrize("fi", [
    k4n_remove_matching(8, [(0, 4), (1, 5)]),
    quarter_weight_family(complete_graph(5), [(0, 2), (1, 3)]),
    circulant_twin_edge_family(CirculantSpec(8, frozenset({1, 3, 5, 7})), [(0, 4)]),
    circulant_twin_edge_family(CirculantSpec(16, frozenset({1, 7, 9, 15})), [(0, 8)]),
    # LPST from 0 to 2, not a PERIODIC report at 0
    FamilyInstance(cycle_graph(4), (ExpectedWitness(0, 2, PI / 2),), "hand-built"),
], ids=["k4n", "quarter_weight", "circulant_twin_lpst", "circulant_twin_pgst", "c4_0_2"])
def test_reports_follow_their_witnesses(fi):
    # a witness's kind is read from its fields: time None is PGST, a == b
    # PERIODIC, anything else LPST
    reports = verify_family(fi, q_max=100)
    assert len(reports) == len(fi.expected_witnesses)
    for w, r in zip(fi.expected_witnesses, reports):
        assert (r.source, r.target) == (w.a, w.b)
        assert r.kind is implied_kind(w)


class TestVerifyFamily:
    def test_empty_witness_list(self):
        fi = FamilyInstance(cycle_graph(4), (), "empty")
        assert verify_family(fi) == []

    def test_failing_witness_raises(self):
        bogus = FamilyInstance(
            cycle_graph(5),
            (ExpectedWitness(0, 1, PI / 2),),
            "bogus",
        )
        with pytest.raises(WitnessFailedError, match=r"witness LPST \(0,1\) at t="):
            verify_family(bogus)

    def test_tolerance_validation(self):
        fi = FamilyInstance(cycle_graph(4), (), "empty")
        with pytest.raises(InputError, match="tol must lie in"):
            verify_family(fi, tol=-1.0)
