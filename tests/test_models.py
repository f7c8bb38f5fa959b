import numpy as np
import pytest

from graphdistill import autodiff as ad
from graphdistill.data import Graph
from graphdistill.errors import ConfigError, ShapeError
from graphdistill.models import (
    INFER,
    GcnConfig,
    GinConfig,
    StudentConfig,
    gcn_forward,
    gin_forward,
    init_gin_params,
    init_linear_params,
    make_batch,
    params_to_arrays,
    readout,
    student_forward,
    student_infer,
    student_input,
)

from conftest import build_graph, build_struct_cache
from oracles import (
    assert_grads_close,
    autodiff_grads,
    dense_batch_adjacency,
    dense_gcn_operator,
    finite_difference_grads,
    random_er_graph,
    reference_union,
)


class TestConfigRanges:
    @pytest.mark.parametrize("cls", [GinConfig, GcnConfig, StudentConfig])
    @pytest.mark.parametrize("field,value", [
        ("num_layers", 0), ("num_layers", -1), ("hidden", 0), ("dropout", 1.0),
        ("dropout", -0.1), ("dropout", float("nan")),
    ])
    def test_out_of_range_rejected(self, cls, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            cls(**{field: value})

    @pytest.mark.parametrize("cls", [GinConfig, GcnConfig, StudentConfig])
    def test_edge_values_accepted(self, cls):
        config = cls(num_layers=1, hidden=1, dropout=0.999)
        assert (config.num_layers, config.hidden, config.dropout) == (1, 1, 0.999)


def identity_gin_params(dim):
    params = {}
    for layer in range(1):
        params[f"layer{layer}.w1"] = ad.parameter(np.eye(dim))
        params[f"layer{layer}.b1"] = ad.parameter(np.zeros(dim))
        params[f"layer{layer}.w2"] = ad.parameter(np.eye(dim))
        params[f"layer{layer}.b2"] = ad.parameter(np.zeros(dim))
    params["head.w"] = ad.parameter(np.eye(dim))
    params["head.b"] = ad.parameter(np.zeros(dim))
    return params


def permute_graph(graph, perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    edges = [(int(inv[u]), int(inv[v])) for u, v in graph.edge_pairs()]
    return Graph.from_edges(graph.num_nodes, edges, graph.features[perm], graph.label)


class TestGinForward:
    def test_isolated_node_identity_passthrough(self):
        g = build_graph(1, [], np.array([[2.0]]))
        cfg = GinConfig(num_layers=1, hidden=1)
        out = gin_forward(make_batch([g]), cfg, identity_gin_params(1))
        assert float(out.node_embeddings.values[0, 0]) == pytest.approx(2.0)

    def test_k2_sum_aggregation(self):
        g = build_graph(2, [(0, 1)], np.array([[1.0], [2.0]]))
        cfg = GinConfig(num_layers=1, hidden=1)
        out = gin_forward(make_batch([g]), cfg, identity_gin_params(1))
        # node 0 pre-update input: own 1 + neighbor 2 = 3 (identity update keeps it)
        assert float(out.node_embeddings.values[0, 0]) == pytest.approx(3.0)
        assert float(out.node_embeddings.values[1, 0]) == pytest.approx(3.0)

    @pytest.mark.parametrize("readout_mode", ["sum", "attention"])
    def test_permutation_invariance(self, readout_mode):
        rng = np.random.default_rng(0)
        for trial in range(5):
            g = random_er_graph(rng, 20, p=0.2, feature_dim=4)
            cfg = GinConfig(num_layers=2, hidden=8, readout=readout_mode)
            params = init_gin_params(rng, 4, cfg, 3)
            base = gin_forward(make_batch([g]), cfg, params).logits.values
            perm = rng.permutation(20)
            permuted = permute_graph(g, perm)
            again = gin_forward(make_batch([permuted]), cfg, params).logits.values
            np.testing.assert_allclose(again, base, atol=1e-9)

    def test_node_embeddings_permute_with_nodes(self):
        rng = np.random.default_rng(1)
        g = random_er_graph(rng, 12, p=0.3, feature_dim=3)
        cfg = GinConfig(num_layers=2, hidden=6)
        params = init_gin_params(rng, 3, cfg, 2)
        base = gin_forward(make_batch([g]), cfg, params).node_embeddings.values
        perm = rng.permutation(12)
        permuted = permute_graph(g, perm)
        again = gin_forward(make_batch([permuted]), cfg, params).node_embeddings.values
        np.testing.assert_allclose(again, base[perm], atol=1e-9)


class TestGcnForward:
    def test_single_node_self_loop_normalization(self):
        g = build_graph(1, [], np.array([[1.0]]))
        cfg = GcnConfig(num_layers=1, hidden=1)
        params = {"layer0.w": ad.parameter(np.eye(1)), "layer0.b": ad.parameter(np.zeros(1)),
                  "head.w": ad.parameter(np.eye(1)), "head.b": ad.parameter(np.zeros(1))}
        out = gcn_forward(make_batch([g]), cfg, params)
        assert float(out.node_embeddings.values[0, 0]) == pytest.approx(1.0)

    def test_k2_equal_features_symmetric(self):
        g = build_graph(2, [(0, 1)], np.array([[1.0, 2.0], [1.0, 2.0]]))
        rng = np.random.default_rng(2)
        cfg = GcnConfig(num_layers=2, hidden=5)
        params = init_linear_params(rng, 2, cfg, 2)
        out = gcn_forward(make_batch([g]), cfg, params)
        np.testing.assert_allclose(out.node_embeddings.values[0],
                                   out.node_embeddings.values[1], atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        g = random_er_graph(rng, 18, p=0.25, feature_dim=3)
        cfg = GcnConfig(num_layers=3, hidden=8)
        params = init_linear_params(rng, 3, cfg, 2)
        base = gcn_forward(make_batch([g]), cfg, params).logits.values
        perm = rng.permutation(18)
        again = gcn_forward(make_batch([permute_graph(g, perm)]), cfg, params).logits.values
        np.testing.assert_allclose(again, base, atol=1e-9)


class TestStudentForward:
    def _cache(self, g, seed=0):
        return build_struct_cache(g, 0, seed)

    def test_mlp_ignores_edges(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(6, 3))
        g1 = build_graph(6, [(0, 1), (2, 3)], feats)
        g2 = build_graph(6, [(0, 1), (2, 3), (4, 5), (0, 5)], feats)
        cfg = StudentConfig(kind="mlp", num_layers=3, hidden=8)
        params = init_linear_params(rng, 3, cfg, 2)
        out1 = student_forward(make_batch([g1]), cfg, params)
        out2 = student_forward(make_batch([g2]), cfg, params)
        np.testing.assert_array_equal(out1.logits.values, out2.logits.values)

    def test_ga_mlp_input_rows_on_path3(self, path3):
        cache = self._cache(path3)
        cfg = StudentConfig(kind="ga-mlp", use_lape=False)
        rows = student_input(path3, cache, cfg)
        np.testing.assert_allclose(rows, [[1.0, 1.0], [2.0, 4.0], [3.0, 1.0]])

    def test_lape_padding_keeps_forward_defined(self, k2):
        cache = build_struct_cache(k2, 0, seed=0, k_pe=5)  # k_pe > n-1
        cfg = StudentConfig(kind="ga-mlp", use_lape=True, num_layers=2, hidden=4)
        rng = np.random.default_rng(5)
        rows = student_input(k2, cache, cfg)
        assert rows.shape == (2, 12)  # (1 feat + 5 pe) doubled by aggregation
        params = init_linear_params(rng, rows.shape[1], cfg, 2)
        out = student_forward(make_batch([k2], [rows], [cache.clusters.cluster_of]), cfg, params)
        assert np.all(np.isfinite(out.logits.values))

    def test_missing_cache_is_config_error(self, k2):
        with pytest.raises(ConfigError, match="cache"):
            student_input(k2, None, StudentConfig(kind="ga-mlp"))

    def test_eval_passes_identical(self, path3):
        cache = self._cache(path3)
        cfg = StudentConfig(kind="ga-mlp", use_lape=True, dropout=0.5)
        rng = np.random.default_rng(6)
        rows = student_input(path3, cache, cfg)
        params = init_linear_params(rng, rows.shape[1], cfg, 2)
        batch = make_batch([path3], [rows])
        # no train rng given -> dropout disabled -> deterministic
        a = student_forward(batch, cfg, params).logits.values
        b = student_forward(batch, cfg, params).logits.values
        np.testing.assert_array_equal(a, b)

    def test_dropout_changes_training_forward(self, path3):
        cache = self._cache(path3)
        cfg = StudentConfig(kind="mlp", dropout=0.5)
        rng = np.random.default_rng(7)
        params = init_linear_params(rng, 1, cfg, 2)
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(2)
        batch = make_batch([path3])
        a = student_forward(batch, cfg, params, train_rng=rng1).logits.values
        b = student_forward(batch, cfg, params, train_rng=rng2).logits.values
        assert not np.array_equal(a, b)


class TestReadout:
    def test_sum_of_two_onehot_rows(self):
        H = ad.constant([[1.0, 0.0], [0.0, 1.0]])
        out = readout(H, np.zeros(2, dtype=int), 1, "sum", {})
        np.testing.assert_array_equal(out.values, [[1.0, 1.0]])

    def test_attention_zero_gate_is_half_sum(self):
        H = ad.constant([[2.0, 4.0], [6.0, 8.0]])
        params = {"pool.w": ad.parameter(np.zeros((2, 1))),
                  "pool.b": ad.parameter(np.zeros(1))}
        out = readout(H, np.zeros(2, dtype=int), 1, "attention", params)
        np.testing.assert_allclose(out.values, [[4.0, 6.0]], atol=1e-12)

    def test_single_node_cluster_is_gated_row(self):
        rng = np.random.default_rng(8)
        H = ad.constant(rng.normal(size=(3, 4)))
        params = {"pool.w": ad.parameter(rng.normal(size=(4, 1))),
                  "pool.b": ad.parameter(rng.normal(size=1))}
        out = readout(H, np.array([0, 1, 2]), 3, "attention", params)
        gate = 1 / (1 + np.exp(-(H.values @ params["pool.w"].values
                                 + params["pool.b"].values)))
        np.testing.assert_allclose(out.values, gate * H.values, atol=1e-12)

    def test_cluster_sums_add_to_graph_embedding(self):
        rng = np.random.default_rng(9)
        g = random_er_graph(rng, 15, p=0.3, feature_dim=3)
        cache = build_struct_cache(g, 0, seed=0)
        cfg = GinConfig(num_layers=2, hidden=6, readout="sum")
        params = init_gin_params(rng, 3, cfg, 2)
        batch = make_batch([g], cluster_ofs=[cache.clusters.cluster_of])
        out = gin_forward(batch, cfg, params)
        np.testing.assert_allclose(
            out.cluster_embeddings.values.sum(axis=0),
            out.graph_embedding.values[0],
            atol=1e-10,
        )


def assert_outputs_byte_equal(fast, slow):
    """The inference adapter returns the forward's values, bit for bit."""
    for field in ("node_embeddings", "graph_embedding", "cluster_embeddings", "logits"):
        got, want = getattr(fast, field), getattr(slow, field).values
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field


def clustered_batch(graphs, seed, rows=None):
    clusters = [build_struct_cache(g, i, seed).clusters.cluster_of
                for i, g in enumerate(graphs)]
    return make_batch(graphs, rows, clusters)


class TestInferenceTwins:
    def test_gin_infer_matches_forward(self):
        rng = np.random.default_rng(10)
        graphs = [random_er_graph(rng, n, p=0.3, feature_dim=3) for n in (14, 1, 9)]
        batch = clustered_batch(graphs, 10)
        for eps, readout_mode in [(0.0, "sum"), (0.0, "attention"), (0.3, "sum"),
                                  (0.3, "attention")]:
            cfg = GinConfig(num_layers=3, hidden=8, eps=eps, readout=readout_mode)
            params = init_gin_params(rng, 3, cfg, 2)
            slow = gin_forward(batch, cfg, params)
            fast = INFER["gin"](batch, cfg, params_to_arrays(params))
            assert_outputs_byte_equal(fast, slow)

    def test_gcn_infer_matches_forward(self):
        rng = np.random.default_rng(11)
        graphs = [random_er_graph(rng, n, p=0.3, feature_dim=3) for n in (14, 5)]
        batch = clustered_batch(graphs, 11)
        for readout_mode in ("sum", "attention"):
            cfg = GcnConfig(num_layers=2, hidden=8, readout=readout_mode)
            params = init_linear_params(rng, 3, cfg, 2)
            slow = gcn_forward(batch, cfg, params)
            fast = INFER["gcn"](batch, cfg, params_to_arrays(params))
            assert_outputs_byte_equal(fast, slow)

    def test_student_infer_matches_forward(self):
        rng = np.random.default_rng(12)
        graphs = [random_er_graph(rng, n, p=0.3, feature_dim=3) for n in (10, 7)]
        caches = [build_struct_cache(g, i, seed=1) for i, g in enumerate(graphs)]
        clusters = [c.clusters.cluster_of for c in caches]
        for kind in ("mlp", "ga-mlp"):
            for readout_mode in ("sum", "attention"):
                cfg = StudentConfig(kind=kind, use_lape=True, num_layers=3, hidden=8,
                                    readout=readout_mode)
                rows = [student_input(g, c, cfg) for g, c in zip(graphs, caches)]
                params = init_linear_params(rng, rows[0].shape[1], cfg, 2)
                batch = make_batch(graphs, rows, clusters)
                slow = student_forward(batch, cfg, params)
                fast = student_infer(batch, cfg, params_to_arrays(params))
                assert_outputs_byte_equal(fast, slow)

    def test_no_clusters_gives_none(self):
        rng = np.random.default_rng(13)
        g = random_er_graph(rng, 6, p=0.3, feature_dim=3)
        cfg = GinConfig(num_layers=1, hidden=4)
        out = INFER["gin"](make_batch([g]), cfg,
                           params_to_arrays(init_gin_params(rng, 3, cfg, 2)))
        assert out.cluster_embeddings is None


class TestModelGradients:
    def test_gin_gradcheck_on_small_graph(self):
        rng = np.random.default_rng(13)
        g = random_er_graph(rng, 8, p=0.4, feature_dim=3)
        cfg = GinConfig(num_layers=2, hidden=4)
        params = init_gin_params(rng, 3, cfg, 2)

        def loss():
            out = gin_forward(make_batch([g]), cfg, params)
            return ad.frobenius_sq(out.logits)

        assert_grads_close(autodiff_grads(loss, params),
                           finite_difference_grads(loss, params), rel_tol=1e-4)

    def test_gcn_gradcheck_on_small_graph(self):
        rng = np.random.default_rng(14)
        g = random_er_graph(rng, 8, p=0.4, feature_dim=3)
        cfg = GcnConfig(num_layers=2, hidden=4, readout="attention")
        params = init_linear_params(rng, 3, cfg, 2)

        def loss():
            out = gcn_forward(make_batch([g]), cfg, params)
            return ad.frobenius_sq(out.logits)

        assert_grads_close(autodiff_grads(loss, params),
                           finite_difference_grads(loss, params), rel_tol=1e-4)

    def test_student_gradcheck(self):
        rng = np.random.default_rng(15)
        g = random_er_graph(rng, 9, p=0.3, feature_dim=3)
        cache = build_struct_cache(g, 0, seed=2)
        cfg = StudentConfig(kind="ga-mlp", use_lape=True, num_layers=3, hidden=4)
        rows = student_input(g, cache, cfg)
        params = init_linear_params(rng, rows.shape[1], cfg, 2)
        batch = make_batch([g], [rows], [cache.clusters.cluster_of])

        def loss():
            out = student_forward(batch, cfg, params)
            return ad.frobenius_sq(out.logits)

        assert_grads_close(autodiff_grads(loss, params),
                           finite_difference_grads(loss, params), rel_tol=1e-4)


def propagation_batches():
    """Multi-graph batches with isolated nodes, one batch with no edges and a
    single graph."""
    rng = np.random.default_rng(20)
    er = [random_er_graph(rng, int(rng.integers(2, 16)), p=0.2, feature_dim=3)
          for _ in range(5)]
    lone = build_graph(4, [(0, 1)], rng.normal(size=(4, 3)))  # nodes 2, 3 isolated
    single = build_graph(1, [], rng.normal(size=(1, 3)))
    edgeless = [build_graph(n, [], rng.normal(size=(n, 3))) for n in (3, 1, 2)]
    return [er + [lone, single], [single, lone, er[0]], edgeless, [er[1]]]


def dense_readout(H, graphs, params_np, mode):
    member = np.zeros((len(graphs), H.shape[0]))
    off = 0
    for i, g in enumerate(graphs):
        member[i, off:off + g.num_nodes] = 1.0
        off += g.num_nodes
    if mode == "attention":
        gate = 1.0 / (1.0 + np.exp(-(H @ params_np["pool.w"] + params_np["pool.b"])))
        H = gate * H
    return member @ H


def dense_gin_logits(graphs, cfg, p):
    a = dense_batch_adjacency(graphs)
    h = np.concatenate([g.features for g in graphs])
    for layer in range(cfg.num_layers):
        pre = (1.0 + cfg.eps) * h + a @ h
        z = np.maximum(pre @ p[f"layer{layer}.w1"] + p[f"layer{layer}.b1"], 0.0)
        h = np.maximum(z @ p[f"layer{layer}.w2"] + p[f"layer{layer}.b2"], 0.0)
    return h, dense_readout(h, graphs, p, cfg.readout) @ p["head.w"] + p["head.b"]


def dense_gcn_logits(graphs, cfg, p):
    op = dense_gcn_operator(dense_batch_adjacency(graphs))
    h = np.concatenate([g.features for g in graphs])
    for layer in range(cfg.num_layers):
        h = np.maximum((op @ h) @ p[f"layer{layer}.w"] + p[f"layer{layer}.b"], 0.0)
    return h, dense_readout(h, graphs, p, cfg.readout) @ p["head.w"] + p["head.b"]


class TestPropagationOracle:
    @pytest.mark.parametrize("graphs", propagation_batches())
    def test_operators_match_dense(self, graphs):
        batch = make_batch(graphs)
        for name, want in reference_union(graphs).items():
            assert np.array_equal(getattr(batch, name), want), name
        a = dense_batch_adjacency(graphs)
        eye = np.eye(batch.num_nodes)
        np.testing.assert_array_equal(batch.adjacency @ eye, a)
        np.testing.assert_allclose(batch.gcn_operator @ eye, dense_gcn_operator(a),
                                   rtol=0, atol=1e-15)
        assert batch.adjacency is batch.adjacency  # built once per batch

    @pytest.mark.parametrize("graphs", propagation_batches())
    @pytest.mark.parametrize("eps,readout_mode", [(0.0, "sum"), (0.3, "attention")])
    def test_gin_matches_dense(self, graphs, eps, readout_mode):
        rng = np.random.default_rng(21)
        cfg = GinConfig(num_layers=3, hidden=6, eps=eps, readout=readout_mode)
        params = init_gin_params(rng, 3, cfg, 2)
        p = params_to_arrays(params)
        h_ref, logits_ref = dense_gin_logits(graphs, cfg, p)
        batch = make_batch(graphs)
        for out in (gin_forward(batch, cfg, params), INFER["gin"](batch, cfg, p)):
            h = getattr(out.node_embeddings, "values", out.node_embeddings)
            logits = getattr(out.logits, "values", out.logits)
            np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(logits, logits_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("graphs", propagation_batches())
    @pytest.mark.parametrize("readout_mode", ["sum", "attention"])
    def test_gcn_matches_dense(self, graphs, readout_mode):
        rng = np.random.default_rng(22)
        cfg = GcnConfig(num_layers=3, hidden=6, readout=readout_mode)
        params = init_linear_params(rng, 3, cfg, 2)
        p = params_to_arrays(params)
        h_ref, logits_ref = dense_gcn_logits(graphs, cfg, p)
        batch = make_batch(graphs)
        for out in (gcn_forward(batch, cfg, params), INFER["gcn"](batch, cfg, p)):
            h = getattr(out.node_embeddings, "values", out.node_embeddings)
            logits = getattr(out.logits, "values", out.logits)
            np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(logits, logits_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["adjacency", "gcn_operator"])
    def test_propagate_gradcheck(self, kind):
        rng = np.random.default_rng(23)
        batch = make_batch(propagation_batches()[0])
        op = getattr(batch, kind)
        h = ad.parameter(rng.normal(size=(batch.num_nodes, 3)))
        w = ad.constant(rng.normal(size=(3, 2)))

        def loss():
            return ad.frobenius_sq(ad.matmul(ad.propagate(ad.relu(h), op), w))

        params = {"h": h}
        assert_grads_close(autodiff_grads(loss, params),
                           finite_difference_grads(loss, params), rel_tol=1e-4)

    def test_propagate_rejects_wrong_size(self):
        batch = make_batch(propagation_batches()[0])
        with pytest.raises(ShapeError):
            ad.propagate(ad.constant(np.ones((batch.num_nodes + 1, 2))), batch.adjacency)
