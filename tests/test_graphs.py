import copy
import pickle

import numpy as np
import pytest

from twinwalk import (
    CirculantSpec,
    WeightedGraph,
    build_circulant,
    build_graph,
    complete_graph,
    is_twin_pair,
    laplacian,
    list_twin_pairs,
    perturb_edge,
    rank_one_matrix,
)
from twinwalk.errors import IndexOutOfRangeError, InputError, TwinWalkError
from twinwalk.graphs import _check_distinct
from twinwalk.identities import random_twin_graph
from conftest import cycle_graph, naive_twin_pairs, path_graph


def complete(n):
    return build_graph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])


class TestBuildGraph:
    def test_cycle_four(self):
        G = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        assert G.n == 4
        assert np.array_equal(G.matrix, [[0, 1, 0, 1], [1, 0, 1, 0],
                                         [0, 1, 0, 1], [1, 0, 1, 0]])

    def test_single_vertex(self):
        G = build_graph(1, [])
        assert G.n == 1 and np.array_equal(G.matrix, [[0.0]])

    def test_complete_five(self):
        G = complete(5)
        assert np.array_equal(G.matrix, np.ones((5, 5)) - np.eye(5))

    def test_symmetric_lookup(self):
        G = build_graph(3, [(2, 0, 0.5)])
        assert G.matrix[0, 2] == 0.5
        assert G.matrix[2, 0] == 0.5
        assert G.matrix[0, 1] == 0.0

    # The ids name the kind of fault each message reports.
    @pytest.mark.parametrize(
        "edges,err,match",
        [
            pytest.param([(0, 4, 1.0)], IndexOutOfRangeError, "out of range",
                         id="edges0-IndexOutOfRangeError"),
            pytest.param([(-1, 0, 1.0)], IndexOutOfRangeError, "out of range",
                         id="edges1-IndexOutOfRangeError"),
            pytest.param([(1, 1, 1.0)], InputError, "self loop",
                         id="edges2-SelfLoopError"),
            pytest.param([(0, 1, 1.0), (1, 0, 2.0)], InputError, "listed twice",
                         id="edges3-DuplicateEdgeError"),
            *(pytest.param([(0, 1, w)], InputError, "must be finite and positive",
                           id=f"edges{i}-NonPositiveWeightError")
              for i, w in enumerate([0.0, -2.0, float("nan"), float("inf"),
                                     float("-inf")], start=4)),
            # finite weights whose Laplacian norm overflows
            pytest.param([(0, 1, 1e308), (1, 2, 1e308)], InputError,
                         "overflow the Laplacian", id="edges9-NonPositiveWeightError"),
        ],
    )
    def test_rejects_bad_edges(self, edges, err, match):
        with pytest.raises(err, match=match):
            build_graph(4, edges)


class TestWeightMatrix:
    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((2, 3)),                        # not square
            np.zeros(3),                             # not a matrix
            np.zeros((0, 0)),                        # no vertices
            [[0.0, 1.0], [2.0, 0.0]],                # asymmetric
            [[0.0, 1.0], [0.0, 0.0]],                # one-sided edge
            [[0.0, np.nan], [np.nan, 0.0]],          # non-finite
            [[0.0, np.inf], [np.inf, 0.0]],
            [[1.0, 1.0], [1.0, 0.0]],                # self-loop on the diagonal
            np.array([[0, 2j], [2j, 0]]),            # complex: not real
            [[0, 1 + 1j], [1 - 1j, 0]],
            [["0", "1"], ["1", "0"]],                # strings are not numbers
        ],
    )
    def test_constructor_rejects(self, matrix):
        with pytest.raises(InputError, match="not square, non-empty, finite") as info:
            WeightedGraph(matrix)
        assert isinstance(info.value, TwinWalkError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: perturb_edge(complete_graph(4), 0, 1, 1e160),
            lambda: WeightedGraph(1e160 * cycle_graph(4).matrix),
            # the degree sum overflows
            lambda: build_graph(3, [(0, 1, 1e308), (1, 2, 1e308)]),
            # only the squared norm overflows
            lambda: build_graph(4, [(u, (u + 1) % 4, 1e160) for u in range(4)]),
        ],
        ids=["perturb_edge", "constructor", "build_graph_degree", "build_graph_norm"],
    )
    def test_overflowing_laplacian_norm_rejected(self, make):
        # every graph keeps the squared norm its eigensolve needs finite; a
        # graph that did not made its first check_lpst a numerical failure
        with pytest.raises(InputError, match="weights overflow the Laplacian's norm"):
            make()

    def graphs(self):
        one_sided = np.zeros((3, 3))
        one_sided[2, 1] = one_sided[1, 2] = 1.0
        rng = np.random.default_rng(5)
        return [
            WeightedGraph(one_sided),
            build_graph(4, [(2, 1, 0.5), (3, 0, 2.0)]),
            perturb_edge(cycle_graph(5), 3, 1, -0.75),
            build_circulant(CirculantSpec(8, frozenset({1, 3, 5, 7}))),
            *(random_twin_graph(rng)[0] for _ in range(5)),
        ]

    def test_weight_is_symmetric_and_matches_laplacian(self):
        for G in self.graphs():
            off = ~np.eye(G.n, dtype=bool)
            assert np.array_equal(G.matrix, G.matrix.T)
            assert np.array_equal(G.matrix[off], -laplacian(G)[off])

    def test_matrix_is_a_read_only_copy(self):
        source = np.ones((3, 3)) - np.eye(3)
        G = WeightedGraph(source)
        source[0, 1] = source[1, 0] = 7.0
        assert G.matrix[0, 1] == 1.0
        with pytest.raises(ValueError):
            G.matrix[0, 1] = 2.0

    @pytest.mark.parametrize("roundtrip", [
        lambda G: pickle.loads(pickle.dumps(G)), copy.deepcopy, copy.copy,
    ])
    def test_roundtrip_keeps_weights_and_read_only_flag(self, roundtrip):
        G = perturb_edge(cycle_graph(5), 0, 2, 0.25)
        H = roundtrip(G)
        assert H == G
        assert not H.matrix.flags.writeable
        with pytest.raises(ValueError):
            H.matrix[0, 2] = 1.0

    def test_equality_and_hashing(self):
        assert cycle_graph(4) == cycle_graph(4)
        assert cycle_graph(4) != path_graph(4)
        assert cycle_graph(4) != cycle_graph(4).matrix.tolist()
        with pytest.raises(TypeError):
            hash(cycle_graph(4))


class TestMatrices:
    def test_laplacian_k2(self):
        L = laplacian(complete(2))
        assert np.array_equal(L, [[1, -1], [-1, 1]])

    def test_laplacian_k4_is_nI_minus_J(self):
        L = laplacian(complete(4))
        assert np.array_equal(L, 4 * np.eye(4) - np.ones((4, 4)))

    def test_laplacian_c4_rows(self):
        G = cycle_graph(4)
        L = laplacian(G)
        # direct summation oracle: diagonal equals the row weight sum
        for u in range(4):
            assert L[u, u] == sum(G.matrix[u, q] for q in range(4))
            for v in range(4):
                if u != v:
                    assert L[u, v] == -G.matrix[u, v]
        assert np.array_equal(L.sum(axis=1), np.zeros(4))

    def test_adjacency_k2(self):
        assert np.array_equal(complete(2).matrix, [[0, 1], [1, 0]])

    def test_adjacency_zero_for_empty(self):
        assert np.array_equal(WeightedGraph(np.zeros((3, 3))).matrix, np.zeros((3, 3)))

    def test_adjacency_odd_circulant(self):
        # Cay(Z_8, {1,3,5,7}): u ~ v exactly when u - v is odd
        edges = [
            (u, v, 1.0)
            for u in range(8)
            for v in range(u + 1, 8)
            if (u - v) % 2 == 1
        ]
        A = build_graph(8, edges).matrix
        for u in range(8):
            for v in range(8):
                assert A[u, v] == (1.0 if (u - v) % 2 == 1 else 0.0)
        assert np.array_equal(A.sum(axis=1), np.full(8, 4.0))


class TestTwins:
    def test_complete_all_pairs(self):
        G = complete(6)
        assert all(
            is_twin_pair(G, a, b) for a in range(6) for b in range(6) if a != b
        )

    def test_odd_circulant_antipodal(self):
        edges = [
            (u, v, 1.0)
            for u in range(8)
            for v in range(u + 1, 8)
            if (u - v) % 2 == 1
        ]
        G = build_graph(8, edges)
        assert is_twin_pair(G, 0, 4)

    def test_path_three(self):
        G = path_graph(3)
        assert is_twin_pair(G, 0, 2)
        assert not is_twin_pair(G, 0, 1)

    def test_errors(self):
        G = path_graph(3)
        with pytest.raises(InputError, match="two distinct vertices"):
            is_twin_pair(G, 1, 1)
        with pytest.raises(IndexOutOfRangeError):
            is_twin_pair(G, 0, 3)

    def test_symmetry_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            edges = [
                (u, v, float(rng.uniform(0.5, 2)))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            G = build_graph(n, edges)
            for a in range(n):
                for b in range(n):
                    if a != b:
                        assert is_twin_pair(G, a, b) == is_twin_pair(G, b, a)

    def test_list_k3(self):
        assert list_twin_pairs(complete(3)) == [
            (0, 1), (0, 2), (1, 2),
        ]

    def test_list_c4(self):
        assert list_twin_pairs(cycle_graph(4)) == [(0, 2), (1, 3)]

    def test_list_c5_empty(self):
        assert list_twin_pairs(cycle_graph(5)) == []

    def test_list_matches_bruteforce(self, rng):
        graphs = [cycle_graph(4), cycle_graph(6), path_graph(5), complete(5)]
        for _ in range(10):
            n = int(rng.integers(4, 10))
            edges = [
                (u, v, float(rng.choice([0.5, 1.0, 2.0])))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            graphs.append(build_graph(n, edges))
        for G in graphs:
            assert list_twin_pairs(G) == naive_twin_pairs(G)

    def test_pair_test_agrees_with_list(self):
        rng = np.random.default_rng(11)
        graphs = [random_twin_graph(rng)[0] for _ in range(200)]
        graphs.append(perturb_edge(complete_graph(6), 0, 1, -3.0))  # weight -2
        graphs.append(complete_graph(8))
        for a in range(0, 8, 2):  # K8 minus a perfect matching
            graphs[-1] = perturb_edge(graphs[-1], a, a + 1, -1.0)
        for G in graphs:
            listed = set(list_twin_pairs(G))
            for a in range(G.n):
                for b in range(G.n):
                    if a != b:
                        assert is_twin_pair(G, a, b) == ((min(a, b), max(a, b)) in listed)


class TestRankOne:
    def test_two_vertices(self):
        assert np.array_equal(rank_one_matrix(2, 0, 1), [[1, -1], [-1, 1]])

    def test_embedding(self):
        M = rank_one_matrix(4, 0, 2)
        nz = {(i, j) for i in range(4) for j in range(4) if M[i, j] != 0}
        assert nz == {(0, 0), (2, 2), (0, 2), (2, 0)}

    def test_square_is_double(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
            M = rank_one_matrix(n, a, b)
            assert np.abs(M @ M - 2 * M).max() < 1e-12

    def test_power_law(self):
        M = rank_one_matrix(5, 1, 3)
        power = M.copy()
        for k in range(2, 7):
            power = power @ M
            assert np.abs(power - 2.0 ** (k - 1) * M).max() < 1e-12

    def test_errors(self):
        with pytest.raises(InputError, match="two distinct vertices"):
            rank_one_matrix(3, 1, 1)
        with pytest.raises(IndexOutOfRangeError):
            rank_one_matrix(3, 0, 3)


@pytest.mark.parametrize("a, b", [
    (1, 1), (1, 2), (True, 1), (False, True), (1.0, 1), (1.5, 1),
    (float("nan"), float("nan")), ("a", "a"), ("a", "b"), ([0, 1], [0, 1]),
    ([0, 1], [0, 2]), (None, None), (None, 0),
    pytest.param(10**5000, 10**5000, id="long-int"),
])
def test_check_distinct_agrees_with_equality_off_arrays(a, b):
    """On a non-array vertex the array-safe test refuses exactly what == does."""
    if a == b:
        with pytest.raises(InputError, match="must differ"):
            _check_distinct(a, b, "must differ")
    else:
        _check_distinct(a, b, "must differ")


class TestPerturbEdge:
    def test_c4_chord(self):
        G = perturb_edge(cycle_graph(4), 0, 2, 2.0)
        assert G.matrix[0, 2] == G.matrix[2, 0] == 2.0
        assert G.matrix[0, 1] == 1.0

    def test_k4_remove_edge(self):
        G = perturb_edge(complete(4), 0, 1, -1.0)
        assert G.matrix[0, 1] == G.matrix[1, 0] == 0.0
        assert not (G.matrix < 0).any()

    def test_alpha_zero_identity(self):
        G = cycle_graph(5)
        assert perturb_edge(G, 1, 3, 0.0) == G

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InputError, match="perturbation alpha must be finite"):
            perturb_edge(cycle_graph(4), 0, 1, alpha)

    def test_argument_checks_precede_range_checks(self):
        with pytest.raises(InputError, match="perturbation endpoints must differ"):
            perturb_edge(cycle_graph(4), 9, 9, 1.0)
        with pytest.raises(InputError, match="perturbation alpha must be finite"):
            perturb_edge(cycle_graph(4), 0, 9, float("nan"))
        with pytest.raises(IndexOutOfRangeError):
            perturb_edge(cycle_graph(4), 0, 9, 1.0)

    def test_negative_weight_flagged(self):
        G = perturb_edge(cycle_graph(4), 0, 1, -1.5)
        assert G.matrix[0, 1] == -0.5
        assert (G.matrix < 0).any()

    def test_laplacian_identity_exact(self):
        cases = [
            (cycle_graph(4), 0, 2, 2.0),
            (complete(4), 0, 1, -1.0),
            (complete(3), 0, 2, -0.75),
            (cycle_graph(4), 0, 2, 0.25),
            (complete(8), 2, 6, -1.0),
        ]
        for G, a, b, alpha in cases:
            got = laplacian(perturb_edge(G, a, b, alpha))
            want = laplacian(G) + alpha * rank_one_matrix(G.n, a, b)
            assert np.array_equal(got, want)


class TestTwinAlgebra:
    def graphs(self):
        return [
            cycle_graph(4),
            cycle_graph(6),
            complete(5),
            path_graph(3),
            perturb_edge(complete(4), 0, 1, -1.0),
        ]

    def test_commutation_on_twins(self):
        for G in self.graphs():
            L = laplacian(G)
            for a, b in list_twin_pairs(G):
                M = rank_one_matrix(G.n, a, b)
                assert np.abs(L @ M - M @ L).max() < 1e-12

    def test_swap_permutation_fixes_laplacian(self):
        for G in self.graphs():
            L = laplacian(G)
            for a, b in list_twin_pairs(G):
                perm = list(range(G.n))
                perm[a], perm[b] = b, a
                P = np.eye(G.n)[perm]
                assert np.array_equal(P @ L @ P, L)
