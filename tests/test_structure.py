import numpy as np
import pytest

from graphdistill.data import Graph
from graphdistill.errors import ContractError, FormatError
from graphdistill.structure import (
    DENSE_LAPE_MAX_NODES,
    build_struct_caches,
    default_num_walks,
    ga_mlp_aggregate,
    laplacian_pe,
    load_struct_caches,
    louvain_cluster,
    modularity,
    sample_walks,
    save_struct_caches,
    sparse_laplacian,
)
from graphdistill.synth import preferential_attachment_edges, two_class_structural

from conftest import build_graph
from oracles import (
    best_partition_bruteforce,
    dense_ga_aggregate,
    dense_normalized_laplacian,
    random_er_graph,
)

# Zachary's karate club, 34 nodes / 78 edges.
KARATE_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 10),
    (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31), (1, 2),
    (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30), (2, 3),
    (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32), (3, 7),
    (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16), (6, 16),
    (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33),
    (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
    (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32), (23, 33),
    (24, 25), (24, 27), (24, 31), (25, 31), (26, 29), (26, 33), (27, 33),
    (28, 31), (28, 33), (29, 32), (29, 33), (30, 32), (30, 33), (31, 32),
    (31, 33), (32, 33),
]


def same_partition(a, b):
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestLouvain:
    def test_two_triangles_match_exhaustive_optimum(self, two_triangles):
        best, best_q = best_partition_bruteforce(two_triangles)
        result = louvain_cluster(two_triangles, seed=0)
        assert result.num_clusters == 2
        assert same_partition(result.cluster_of.tolist(), best)
        assert result.modularity == pytest.approx(best_q, abs=1e-12)
        assert result.modularity == pytest.approx(0.5, abs=1e-12)

    def test_single_node(self, isolated_node):
        result = louvain_cluster(isolated_node, seed=0)
        assert result.num_clusters == 1
        assert result.modularity == 0.0

    def test_karate_club_quality(self):
        g = build_graph(34, KARATE_EDGES)
        assert g.num_edges == 78
        result = louvain_cluster(g, seed=0)
        assert result.modularity >= 0.40  # known optimum is about 0.42

    def test_deterministic(self):
        g = build_graph(34, KARATE_EDGES)
        a = louvain_cluster(g, seed=11)
        b = louvain_cluster(g, seed=11)
        np.testing.assert_array_equal(a.cluster_of, b.cluster_of)

    def test_beats_singletons(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            g = random_er_graph(rng, int(rng.integers(5, 25)), p=0.25)
            res = louvain_cluster(g, seed=trial)
            singles = modularity(g, np.arange(g.num_nodes))
            assert res.modularity >= singles - 1e-12

    def test_isolated_nodes_are_singletons(self):
        g = build_graph(5, [(0, 1), (1, 2)])  # nodes 3, 4 isolated
        res = louvain_cluster(g, seed=0)
        for iso in (3, 4):
            assert (res.cluster_of == res.cluster_of[iso]).sum() == 1

    def test_level_modularity_nondecreasing(self):
        g = build_graph(34, KARATE_EDGES)
        res = louvain_cluster(g, seed=3)
        levels = res.level_modularity
        assert len(levels) >= 1
        assert all(b >= a - 1e-12 for a, b in zip(levels, levels[1:]))
        assert res.modularity == pytest.approx(levels[-1], abs=1e-12)

    def test_top_level_fixed_point(self):
        # Merging any final cluster into any other must not improve modularity.
        g = build_graph(34, KARATE_EDGES)
        res = louvain_cluster(g, seed=0)
        base = res.modularity
        for c in range(res.num_clusters):
            for d in range(res.num_clusters):
                if c == d:
                    continue
                merged = res.cluster_of.copy()
                merged[merged == c] = d
                assert modularity(g, merged) <= base + 1e-12

    def test_contiguous_indices(self):
        g = build_graph(34, KARATE_EDGES)
        res = louvain_cluster(g, seed=1)
        assert sorted(set(res.cluster_of.tolist())) == list(range(res.num_clusters))


class TestLaplacianPE:
    def test_path3_first_nontrivial(self, path3):
        pe = laplacian_pe(path3, 1)
        expected = np.array([1.0 / np.sqrt(2), 0.0, -1.0 / np.sqrt(2)])
        np.testing.assert_allclose(pe[:, 0], expected, atol=1e-10)
        lap = dense_normalized_laplacian(path3)
        np.testing.assert_allclose(lap @ pe[:, 0], 1.0 * pe[:, 0], atol=1e-10)

    def test_k2_padding(self, k2):
        pe = laplacian_pe(k2, 3)
        assert pe.shape == (2, 3)
        assert np.abs(pe[:, 0]).sum() > 0
        np.testing.assert_array_equal(pe[:, 1:], np.zeros((2, 2)))

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(7)
        for trial in range(8):
            g = random_er_graph(rng, int(rng.integers(4, 30)), p=0.3)
            k = min(4, g.num_nodes - 1)
            if k < 1:
                continue
            pe = laplacian_pe(g, k)
            gram = pe[:, :k].T @ pe[:, :k]
            np.testing.assert_allclose(gram, np.eye(k), atol=1e-8)

    def test_eigen_residual_order_and_range(self):
        rng = np.random.default_rng(8)
        for trial in range(8):
            g = random_er_graph(rng, int(rng.integers(5, 40)), p=0.2)
            k = min(6, g.num_nodes - 1)
            pe = laplacian_pe(g, k)
            lap = dense_normalized_laplacian(g)
            lams = []
            for c in range(k):
                u = pe[:, c]
                lam = float(u @ lap @ u)
                residual = np.linalg.norm(lap @ u - lam * u)
                assert residual < 1e-6
                assert -1e-9 <= lam <= 2.0 + 1e-9
                lams.append(lam)
            assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))

    def test_sparse_laplacian_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            g = random_er_graph(rng, int(rng.integers(2, 30)), p=0.15)  # some isolated
            np.testing.assert_array_equal(sparse_laplacian(g).toarray(),
                                          dense_normalized_laplacian(g))

    def test_sign_convention_deterministic(self, path3):
        pe = laplacian_pe(path3, 2)
        for c in range(2):
            col = pe[:, c]
            mag = np.abs(col)
            if mag.max() > 0:
                pivot = np.flatnonzero(mag >= mag.max() * (1 - 1e-12))[0]
                assert col[pivot] > 0

    def test_single_node_all_zero(self, isolated_node):
        np.testing.assert_array_equal(laplacian_pe(isolated_node, 3), np.zeros((1, 3)))

    def test_k_pe_must_be_positive(self, k2):
        with pytest.raises(ContractError):
            laplacian_pe(k2, 0)


def sparse_components(sizes, seed):
    """Disjoint union of connected preferential-attachment graphs."""
    rng = np.random.default_rng(seed)
    edges, off = [], 0
    for n in sizes:
        edges += [(u + off, v + off)
                  for u, v in preferential_attachment_edges(n, rng, extra_edges=n // 5)]
        off += n
    return Graph.from_edges(off, edges, np.ones((off, 1)), 0)


def lape_invariant_errors(graph, pe):
    """Orthonormality and eigen-residual errors, and the Rayleigh quotients."""
    lap = dense_normalized_laplacian(graph)
    lv = lap @ pe
    lam = (pe * lv).sum(axis=0)
    gram = np.abs(pe.T @ pe - np.eye(pe.shape[1])).max()
    residual = np.linalg.norm(lv - pe * lam, axis=0).max()
    return gram, residual, lam


class TestSparseLaplacianPE:
    """Graphs above DENSE_LAPE_MAX_NODES take the shift-invert path.

    A degenerate eigenspace has no unique basis, so columns are checked as
    eigenvectors and as subspaces, never entry by entry.
    """

    K = 8

    @pytest.fixture(scope="class")
    def big(self):
        g = sparse_components([320], seed=30)
        assert g.num_nodes > DENSE_LAPE_MAX_NODES
        return g

    def test_invariants(self, big):
        pe = laplacian_pe(big, self.K)
        gram, residual, lam = lape_invariant_errors(big, pe)
        assert gram < 1e-8
        assert residual < 1e-8
        assert -1e-9 <= lam.min() and lam.max() <= 2.0 + 1e-9
        assert np.all(np.diff(lam) >= -1e-9)

    def test_projector_matches_dense_across_eigengap(self, big):
        vals, vecs = np.linalg.eigh(dense_normalized_laplacian(big))
        # Widest gap after one of the first K non-trivial eigenvalues.
        gaps = vals[2:self.K + 2] - vals[1:self.K + 1]
        k = int(np.argmax(gaps)) + 1
        assert gaps[k - 1] > 1e-4
        pe = laplacian_pe(big, self.K)[:, :k]
        dense = vecs[:, 1:1 + k]
        np.testing.assert_allclose(pe @ pe.T, dense @ dense.T, rtol=0, atol=1e-10)

    def test_repeats_byte_identical(self, big):
        assert laplacian_pe(big, self.K).tobytes() == laplacian_pe(big, self.K).tobytes()

    @pytest.mark.parametrize("sizes", [[12, 9, 15], [130, 110, 90]])
    def test_disconnected_drops_one_zero_eigenvalue(self, sizes):
        # c components give c zero eigenvalues and only the lowest is dropped,
        # on the dense path (small graph) and the sparse one (large graph).
        g = sparse_components(sizes, seed=31)
        c = len(sizes)
        pe = laplacian_pe(g, self.K)
        gram, residual, lam = lape_invariant_errors(g, pe)
        assert gram < 1e-8 and residual < 1e-8
        np.testing.assert_allclose(lam[:c - 1], 0.0, atol=1e-10)
        assert lam[c - 1] > 1e-4
        exact = np.linalg.eigvalsh(dense_normalized_laplacian(g))[1:1 + self.K]
        np.testing.assert_allclose(lam, exact, rtol=0, atol=1e-10)


class TestWalks:
    def test_p2_forced_alternation(self, k2):
        pool = sample_walks(k2, 50, 3, seed=0)
        for walk in pool.walks:
            start = walk[0]
            expected = [start, 1 - start, start, 1 - start]
            np.testing.assert_array_equal(walk, expected)

    def test_isolated_singleton(self, isolated_node):
        pool = sample_walks(isolated_node, 5, 4, seed=0)
        assert all(w.size == 1 for w in pool.walks)

    def test_triangle_uniform_transitions(self, triangle):
        pool = sample_walks(triangle, 1000, 8, seed=1)
        counts = {u: {} for u in range(3)}
        for walk in pool.walks:
            for a, b in zip(walk[:-1], walk[1:]):
                counts[int(a)][int(b)] = counts[int(a)].get(int(b), 0) + 1
        for u in range(3):
            total = sum(counts[u].values())
            for v, c in counts[u].items():
                assert abs(c / total - 0.5) < 0.05

    def test_every_step_is_an_edge(self):
        rng = np.random.default_rng(9)
        for trial in range(6):
            g = random_er_graph(rng, int(rng.integers(3, 25)), p=0.3)
            pool = sample_walks(g, 40, 8, seed=trial)
            for walk in pool.walks:
                for a, b in zip(walk[:-1], walk[1:]):
                    assert b in g.neighbors(int(a))

    def test_empty_pool(self, triangle):
        assert sample_walks(triangle, 0, 8, seed=0).walks == []

    def test_deterministic(self, triangle):
        a = sample_walks(triangle, 10, 8, seed=3)
        b = sample_walks(triangle, 10, 8, seed=3)
        for wa, wb in zip(a.walks, b.walks):
            np.testing.assert_array_equal(wa, wb)

    def test_default_pool_size_clamped(self):
        assert default_num_walks(4) == 4
        assert default_num_walks(100) == 25
        assert default_num_walks(10000) == 64


class TestAggregation:
    def test_path3_by_hand(self, path3):
        out = ga_mlp_aggregate(path3, path3.features)
        np.testing.assert_allclose(out, [[1.0], [4.0], [1.0]])

    def test_isolated_row_zero(self):
        g = build_graph(3, [(0, 1)], np.array([[1.0], [2.0], [5.0]]))
        out = ga_mlp_aggregate(g, g.features)
        np.testing.assert_array_equal(out[2], [0.0])

    def test_linearity_zero(self, path3):
        out = ga_mlp_aggregate(path3, np.zeros((3, 4)))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            g = random_er_graph(rng, int(rng.integers(2, 51)), p=0.25)
            x = rng.normal(size=(g.num_nodes, 5))
            np.testing.assert_allclose(
                ga_mlp_aggregate(g, x), dense_ga_aggregate(g, x), atol=1e-10
            )


class TestStructCachePersistence:
    def test_round_trip(self, tmp_path):
        ds = two_class_structural(num_graphs=6, seed=0, min_nodes=5, max_nodes=14)
        caches = build_struct_caches(ds, seed=42, k_pe=4, walk_length=5)
        path = tmp_path / "cache.npz"
        save_struct_caches(path, caches, ds.name, seed=42)
        back, meta = load_struct_caches(path)
        assert meta["seed"] == 42
        assert meta["format"] == "structcache/1"
        assert len(back) == len(caches)
        for a, b in zip(caches, back):
            np.testing.assert_array_equal(a.clusters.cluster_of, b.clusters.cluster_of)
            assert a.clusters.modularity == b.clusters.modularity
            np.testing.assert_array_equal(a.lape, b.lape)
            np.testing.assert_array_equal(a.agg_features, b.agg_features)
            assert len(a.walk_pool.walks) == len(b.walk_pool.walks)
            for wa, wb in zip(a.walk_pool.walks, b.walk_pool.walks):
                np.testing.assert_array_equal(wa, wb)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "cache.npz"
        np.savez(path, meta=np.str_('{"format": "other/9", "num_graphs": 0}'))
        with pytest.raises(FormatError):
            load_struct_caches(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="not found"):
            load_struct_caches(tmp_path / "nope.npz")

    def test_preprocessing_deterministic_per_graph(self):
        ds = two_class_structural(num_graphs=4, seed=1, min_nodes=6, max_nodes=10)
        a = build_struct_caches(ds, seed=5)
        b = build_struct_caches(ds, seed=5)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.clusters.cluster_of, cb.clusters.cluster_of)
            for wa, wb in zip(ca.walk_pool.walks, cb.walk_pool.walks):
                np.testing.assert_array_equal(wa, wb)
