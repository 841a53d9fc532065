import numpy as np
import pytest

from twinwalk import (
    EdgePerturbation,
    WeightedGraph,
    adjacency,
    build_graph,
    is_twin_pair,
    laplacian,
    list_twin_pairs,
    perturb_edge,
    rank_one_matrix,
)
from twinwalk.errors import (
    DuplicateEdgeError,
    EqualVerticesError,
    IndexOutOfRangeError,
    NonPositiveWeightError,
    SelfLoopError,
)
from conftest import cycle_graph, naive_twin_pairs, path_graph


def complete(n):
    return build_graph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])


class TestBuildGraph:
    def test_cycle_four(self):
        G = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        assert G.n == 4
        assert G.weights == {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0}

    def test_single_vertex(self):
        G = build_graph(1, [])
        assert G.n == 1 and G.weights == {}

    def test_complete_five(self):
        G = complete(5)
        assert len(G.weights) == 10
        assert all(w == 1.0 for w in G.weights.values())

    def test_symmetric_lookup(self):
        G = build_graph(3, [(2, 0, 0.5)])
        assert G.weight(0, 2) == 0.5
        assert G.weight(2, 0) == 0.5
        assert G.weight(0, 1) == 0.0

    @pytest.mark.parametrize(
        "edges,err",
        [
            ([(0, 4, 1.0)], IndexOutOfRangeError),
            ([(-1, 0, 1.0)], IndexOutOfRangeError),
            ([(1, 1, 1.0)], SelfLoopError),
            ([(0, 1, 1.0), (1, 0, 2.0)], DuplicateEdgeError),
            ([(0, 1, 0.0)], NonPositiveWeightError),
            ([(0, 1, -2.0)], NonPositiveWeightError),
            ([(0, 1, float("nan"))], NonPositiveWeightError),
            ([(0, 1, float("inf"))], NonPositiveWeightError),
            ([(0, 1, float("-inf"))], NonPositiveWeightError),
            # finite weights whose Laplacian norm overflows
            ([(0, 1, 1e308), (1, 2, 1e308)], NonPositiveWeightError),
        ],
    )
    def test_rejects_bad_edges(self, edges, err):
        with pytest.raises(err):
            build_graph(4, edges)

    def test_weights_are_read_only(self):
        source = {(0, 1): 1.0}
        G = WeightedGraph(2, source)
        with pytest.raises(TypeError):
            G.weights[(0, 1)] = 2.0
        source[(0, 1)] = 5.0
        assert G.weight(0, 1) == 1.0


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
            assert L[u, u] == sum(G.weight(u, q) for q in range(4))
            for v in range(4):
                if u != v:
                    assert L[u, v] == -G.weight(u, v)
        assert np.array_equal(L.sum(axis=1), np.zeros(4))

    def test_adjacency_k2(self):
        assert np.array_equal(adjacency(complete(2)), [[0, 1], [1, 0]])

    def test_adjacency_zero_for_empty(self):
        assert np.array_equal(adjacency(WeightedGraph(3)), np.zeros((3, 3)))

    def test_adjacency_odd_circulant(self):
        # Cay(Z_8, {1,3,5,7}): u ~ v exactly when u - v is odd
        edges = [
            (u, v, 1.0)
            for u in range(8)
            for v in range(u + 1, 8)
            if (u - v) % 2 == 1
        ]
        A = adjacency(build_graph(8, edges))
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
        with pytest.raises(EqualVerticesError):
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
            G = build_graph(n, edges) if edges else WeightedGraph(n)
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
            graphs.append(build_graph(n, edges) if edges else WeightedGraph(n))
        for G in graphs:
            assert list_twin_pairs(G) == naive_twin_pairs(G)


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
        with pytest.raises(EqualVerticesError):
            rank_one_matrix(3, 1, 1)
        with pytest.raises(IndexOutOfRangeError):
            rank_one_matrix(3, 0, 3)


class TestPerturbEdge:
    def test_c4_chord(self):
        G = perturb_edge(cycle_graph(4), EdgePerturbation(0, 2, 2.0))
        assert G.weight(0, 2) == 2.0
        assert G.weight(0, 1) == 1.0

    def test_k4_remove_edge(self):
        G = perturb_edge(complete(4), EdgePerturbation(0, 1, -1.0))
        assert G.weight(0, 1) == 0.0
        assert (0, 1) not in G.weights
        assert not G.has_negative_weight

    def test_alpha_zero_identity(self):
        G = cycle_graph(5)
        assert perturb_edge(G, EdgePerturbation(1, 3, 0.0)).weights == G.weights

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            EdgePerturbation(0, 1, alpha)

    def test_negative_weight_flagged(self):
        G = perturb_edge(cycle_graph(4), EdgePerturbation(0, 1, -1.5))
        assert G.weight(0, 1) == -0.5
        assert G.has_negative_weight

    def test_laplacian_identity_exact(self):
        cases = [
            (cycle_graph(4), 0, 2, 2.0),
            (complete(4), 0, 1, -1.0),
            (complete(3), 0, 2, -0.75),
            (cycle_graph(4), 0, 2, 0.25),
            (complete(8), 2, 6, -1.0),
        ]
        for G, a, b, alpha in cases:
            got = laplacian(perturb_edge(G, EdgePerturbation(a, b, alpha)))
            want = laplacian(G) + alpha * rank_one_matrix(G.n, a, b)
            assert np.array_equal(got, want)


class TestTwinAlgebra:
    def graphs(self):
        return [
            cycle_graph(4),
            cycle_graph(6),
            complete(5),
            path_graph(3),
            perturb_edge(complete(4), EdgePerturbation(0, 1, -1.0)),
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
