import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdistill.dynamic import (
    WARMUP_STEPS,
    IncrementalState,
    LatencyReport,
    _induced_subgraph,
    StudentModel,
    TeacherModel,
    full_student_logits,
    incremental_insert,
    incremental_remove,
    init_incremental_state,
    make_trace,
    perturb_and_score,
    shannon_entropy_bits,
)
from graphdistill.errors import ConfigError, ContractError, IntegrityError
from graphdistill.models import (
    GinConfig,
    StudentConfig,
    init_params,
    student_input,
)
from graphdistill.data import Graph

from conftest import build_struct_cache
from oracles import random_connected_graph, random_er_graph, reference_incremental_state


def make_student(graph, cache, rng, kind="ga-mlp", use_lape=True, hidden=8):
    cfg = StudentConfig(kind=kind, num_layers=3, hidden=hidden, use_lape=use_lape)
    rows = student_input(graph, cache, cfg)
    params = init_params(rng, rows.shape[1], cfg, 2)
    return StudentModel(cfg, {k: p.values for k, p in params.items()})


def make_teacher(graph, rng, hidden=8, layers=3):
    cfg = GinConfig(num_layers=layers, hidden=hidden)
    params = init_params(rng, graph.features.shape[1], cfg, 2)
    return TeacherModel(cfg, {k: p.values for k, p in params.items()})


class TestIncrementalState:
    def _setup(self, seed=0, n=25, kind="ga-mlp", use_lape=True):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(n, rng)
        cache = build_struct_cache(g, 0, seed=seed)
        student = make_student(g, cache, rng, kind=kind, use_lape=use_lape)
        return rng, g, cache, student

    def test_insertion_matches_full_recompute_every_step(self):
        rng, g, cache, student = self._setup(seed=1)
        removed = rng.choice(g.num_nodes, size=6, replace=False)
        state = init_incremental_state(g, cache, student.config, student.params, removed)
        np.testing.assert_allclose(state.logits(), full_student_logits(state), atol=1e-6)
        for node in removed:
            nbrs = [v for v in g.neighbors(int(node)) if state.present[v]]
            logits = incremental_insert(state, int(node), nbrs)
            np.testing.assert_allclose(logits, full_student_logits(state), atol=1e-6)

    def test_mlp_student_also_supported(self):
        rng, g, cache, student = self._setup(seed=2, kind="mlp", use_lape=True)
        removed = rng.choice(g.num_nodes, size=4, replace=False)
        state = init_incremental_state(g, cache, student.config, student.params, removed)
        for node in removed:
            nbrs = [v for v in g.neighbors(int(node)) if state.present[v]]
            logits = incremental_insert(state, int(node), nbrs)
            np.testing.assert_allclose(logits, full_student_logits(state), atol=1e-6)

    def test_isolated_insertion_changes_only_own_contribution(self):
        rng, g, cache, student = self._setup(seed=3)
        removed = np.array([0])
        state = init_incremental_state(g, cache, student.config, student.params, removed)
        pooled_before = state.pooled.copy()
        emb_before = state.emb.copy()
        incremental_insert(state, 0, [])  # reinsert with no edges
        delta = state.pooled - pooled_before
        np.testing.assert_allclose(delta, state.emb[0], atol=1e-12)
        alive = np.flatnonzero(state.present)
        others = alive[alive != 0]
        np.testing.assert_array_equal(state.emb[others], emb_before[others])

    def test_insert_remove_inverse(self):
        rng, g, cache, student = self._setup(seed=4)
        removed = rng.choice(g.num_nodes, size=5, replace=False)
        state = init_incremental_state(g, cache, student.config, student.params, removed)
        node = int(removed[0])
        pooled0 = state.pooled.copy()
        agg0 = state.agg.copy()
        deg0 = state.deg.copy()
        nbrs = [v for v in g.neighbors(node) if state.present[v]]
        incremental_insert(state, node, nbrs)
        incremental_remove(state, node)
        np.testing.assert_allclose(state.pooled, pooled0, atol=1e-9)
        np.testing.assert_allclose(state.agg, agg0, atol=1e-9)
        np.testing.assert_array_equal(state.deg, deg0)
        assert not state.present[node]

    def test_double_insert_rejected(self):
        rng, g, cache, student = self._setup(seed=5)
        state = init_incremental_state(g, cache, student.config, student.params,
                                       np.array([1]))
        incremental_insert(state, 1, [v for v in g.neighbors(1) if state.present[v]])
        with pytest.raises(ContractError, match="already present"):
            incremental_insert(state, 1, [])

    def test_absent_endpoint_rejected(self):
        rng, g, cache, student = self._setup(seed=6)
        state = init_incremental_state(g, cache, student.config, student.params,
                                       np.array([0, 1]))
        with pytest.raises(ContractError, match="not present"):
            incremental_insert(state, 0, [1])

    def test_attention_readout_rejected(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(12, rng)
        cache = build_struct_cache(g, 0, seed=7)
        cfg = StudentConfig(kind="ga-mlp", readout="attention", hidden=8)
        rows = student_input(g, cache, cfg)
        params = init_params(rng, rows.shape[1], cfg, 2)
        with pytest.raises(ContractError, match="sum readout"):
            init_incremental_state(g, cache, cfg, {k: p.values for k, p in params.items()},
                                   np.array([0]))


class TestInitialStateOracle:
    """The array-built initial state equals the per-node reference loop."""

    def _check(self, g, cache, student, removed):
        cfg = student.config
        state = init_incremental_state(g, cache, cfg, student.params, removed)
        base = np.concatenate([g.features, cache.lape], axis=1) if cfg.use_lape else g.features
        adj, deg, agg = reference_incremental_state(g, base, removed, cfg.kind == "ga-mlp")
        assert state.adj == [sorted(nbrs) for nbrs in adj]
        np.testing.assert_array_equal(state.deg, deg)
        np.testing.assert_allclose(state.agg, agg, rtol=0, atol=1e-12)
        return state

    @pytest.mark.parametrize("kind,use_lape", [("ga-mlp", True), ("ga-mlp", False),
                                               ("mlp", True)])
    def test_random_graphs(self, kind, use_lape):
        rng = np.random.default_rng(31)
        for _ in range(4):
            g = random_connected_graph(int(rng.integers(5, 40)), rng)
            cache = build_struct_cache(g, 0, seed=1, k_pe=4)
            student = make_student(g, cache, rng, kind=kind, use_lape=use_lape)
            size = int(rng.integers(0, g.num_nodes + 1))
            self._check(g, cache, student, rng.choice(g.num_nodes, size=size, replace=False))

    def test_isolated_nodes(self):
        rng = np.random.default_rng(32)
        g = random_er_graph(rng, 30, p=0.05, feature_dim=4)
        assert np.any(g.degrees == 0)
        cache = build_struct_cache(g, 0, seed=2, k_pe=4)
        student = make_student(g, cache, rng)
        self._check(g, cache, student, rng.choice(30, size=6, replace=False))

    def test_node_with_every_neighbor_removed(self):
        rng = np.random.default_rng(33)
        g = random_connected_graph(25, rng)
        cache = build_struct_cache(g, 0, seed=3, k_pe=4)
        student = make_student(g, cache, rng)
        hub = int(np.argmax(g.degrees))
        state = self._check(g, cache, student, g.neighbors(hub))
        assert state.present[hub] and state.deg[hub] == 0.0 and not state.adj[hub]
        np.testing.assert_array_equal(state.agg[hub], 0.0)


class TestBadNodeLists:
    """Ids outside the graph, repeated neighbours and self loops raise
    ``ContractError`` and leave the state as it was."""

    def _state(self):
        rng = np.random.default_rng(16)
        g = random_connected_graph(20, rng)
        cache = build_struct_cache(g, 0, seed=16, k_pe=4)
        student = make_student(g, cache, rng)
        state = init_incremental_state(g, cache, student.config, student.params,
                                       np.array([0, 1, 2]))
        return g, cache, student, state

    def _assert_rejected(self, call, match):
        g, cache, student, state = self._state()
        before = copy.deepcopy(state)
        with pytest.raises(ContractError, match=match):
            call(g, cache, student, state)
        assert state.adj == before.adj
        for name in ("present", "deg", "agg", "emb", "pooled"):
            np.testing.assert_array_equal(getattr(state, name), getattr(before, name))

    @pytest.mark.parametrize("call", [
        lambda g, c, s, st: incremental_insert(st, 20, []),
        lambda g, c, s, st: incremental_insert(st, -1, []),
        lambda g, c, s, st: incremental_insert(st, 0, [20]),
        lambda g, c, s, st: incremental_insert(st, 0, [-1]),
        lambda g, c, s, st: incremental_remove(st, 20),
        lambda g, c, s, st: incremental_remove(st, -1),
        lambda g, c, s, st: init_incremental_state(g, c, s.config, s.params, np.array([20])),
        lambda g, c, s, st: init_incremental_state(g, c, s.config, s.params, np.array([-1])),
    ])
    def test_node_outside_graph(self, call):
        self._assert_rejected(call, r"outside \[0, 20\)")

    @pytest.mark.parametrize("call", [
        lambda g, c, s, st: incremental_insert(st, 0, [3, 3]),
        lambda g, c, s, st: incremental_insert(st, 0, [5, 3, 5]),
    ])
    def test_repeated_neighbor(self, call):
        self._assert_rejected(call, "repeat")

    @pytest.mark.parametrize("nbrs", [[0], [3, 0]])
    def test_neighbor_is_the_node(self, nbrs):
        self._assert_rejected(lambda g, c, s, st: incremental_insert(st, 0, nbrs),
                              "node 0 lists itself as a neighbor")

    @pytest.mark.parametrize("indices,match", [
        ([1, 1, 0, 0, 2, 1], "distinct neighbors"),  # edge 0-1 stored twice
        ([0, 1, 0, 1, 2, 1], "self loop"),
    ])
    def test_graph_rows_not_simple(self, indices, match):
        # The sorted neighbour lists rely on ``Graph`` refusing such rows, so
        # no state can be built from one.
        with pytest.raises(IntegrityError, match=match):
            Graph(3, np.array([0, 2, 5, 6]), np.array(indices), np.eye(3), 0)


class TestCacheOfAnotherGraph:
    """A struct cache whose rows are another graph's nodes is an ``IntegrityError``
    naming both counts, from the student input and from the incremental state."""

    @pytest.mark.parametrize("kind,use_lape", [("mlp", True), ("ga-mlp", False),
                                               ("ga-mlp", True)])
    @pytest.mark.parametrize("build", [
        lambda g, c, cfg, params: student_input(g, c, cfg),
        lambda g, c, cfg, params: init_incremental_state(g, c, cfg, params, np.array([0])),
    ], ids=["student_input", "init_incremental_state"])
    def test_rows_must_match_nodes(self, build, kind, use_lape):
        rng = np.random.default_rng(21)
        g, other = random_connected_graph(12, rng), random_connected_graph(15, rng)
        student = make_student(g, build_struct_cache(g, 0, seed=21, k_pe=4), rng, kind=kind,
                               use_lape=use_lape)
        with pytest.raises(IntegrityError, match="has 15 rows, the graph has 12 nodes"):
            build(g, build_struct_cache(other, 0, seed=21, k_pe=4), student.config,
                  student.params)


class TestIncrementalEqualsFull:
    @pytest.mark.parametrize("kind,use_lape", [("ga-mlp", True), ("mlp", False)])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_long_random_update_sequence(self, kind, use_lape, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(int(rng.integers(20, 60)), rng)
        cache = build_struct_cache(g, 0, seed=0, k_pe=4)
        student = make_student(g, cache, rng, kind=kind, use_lape=use_lape)
        removed = rng.choice(g.num_nodes, size=g.num_nodes // 3, replace=False)
        state = init_incremental_state(g, cache, student.config, student.params, removed)
        for op in range(2000):
            absent = np.flatnonzero(~state.present)
            alive = np.flatnonzero(state.present)
            if absent.size and (rng.random() < 0.5 or alive.size < 2):
                # neighbours drawn from all present nodes, so new edges appear
                size = int(rng.integers(0, min(5, alive.size) + 1))
                nbrs = rng.choice(alive, size=size, replace=False) if size else []
                logits = incremental_insert(state, int(rng.choice(absent)), nbrs)
            else:
                logits = incremental_remove(state, int(rng.choice(alive)))
            # ``_induced_subgraph`` builds its row pointers from ``deg``
            assert all(state.deg[u] == len(state.adj[u])
                       for u in np.flatnonzero(state.present).tolist())
            if op % 250 == 249:
                full = full_student_logits(state)
                assert np.abs(logits - full).max() <= 1e-9 * max(1.0, np.abs(full).max())


class TestSortedNeighbourLists:
    """Every update keeps each ``adj[u]`` a strictly increasing list, the
    lists symmetric, and equal to neighbour sets kept by plain set updates."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["ga-mlp", "mlp"]))
    def test_long_random_update_sequence(self, seed, kind):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(int(rng.integers(2, 40)), rng)
        cache = build_struct_cache(g, 0, seed=0, k_pe=2)
        student = make_student(g, cache, rng, kind=kind, use_lape=False, hidden=4)
        removed = rng.choice(g.num_nodes, size=int(rng.integers(0, g.num_nodes)), replace=False)
        state = init_incremental_state(g, cache, student.config, student.params, removed)
        oracle, _, _ = reference_incremental_state(g, g.features, removed, False)
        for _ in range(600):
            absent = np.flatnonzero(~state.present)
            alive = np.flatnonzero(state.present)
            if absent.size and (rng.random() < 0.5 or alive.size < 2):
                # neighbours drawn from all present nodes, so new edges appear
                node = int(rng.choice(absent))
                size = int(rng.integers(0, min(6, alive.size) + 1))
                nbrs = [int(v) for v in rng.choice(alive, size=size, replace=False)]
                incremental_insert(state, node, nbrs)
                oracle[node] = set(nbrs)
                for v in nbrs:
                    oracle[v].add(node)
            else:
                node = int(rng.choice(alive))
                incremental_remove(state, node)
                for v in oracle[node]:
                    oracle[v].discard(node)
                oracle[node] = set()
            for u, nbrs in enumerate(state.adj):
                assert type(nbrs) is list
                assert all(a < b for a, b in zip(nbrs, nbrs[1:])), (u, nbrs)
                assert set(nbrs) == oracle[u], u
                assert all(u in state.adj[v] for v in nbrs), u
                assert state.deg[u] == len(nbrs)
                assert nbrs == [] or state.present[u]


class TestInducedSubgraph:
    def test_matches_from_edges_over_random_updates(self):
        rng = np.random.default_rng(15)
        for trial in range(5):
            g = random_connected_graph(int(rng.integers(8, 40)), rng)
            cache = build_struct_cache(g, 0, seed=trial)
            student = make_student(g, cache, rng)
            removed = rng.choice(g.num_nodes, size=g.num_nodes // 4, replace=False)
            state = init_incremental_state(g, cache, student.config, student.params, removed)
            for _ in range(30):
                absent = np.flatnonzero(~state.present)
                alive = np.flatnonzero(state.present)
                if absent.size and (rng.random() < 0.5 or alive.size < 2):
                    # neighbours drawn from all present nodes, not only the
                    # original graph's, so new edges appear
                    size = int(rng.integers(0, min(4, alive.size) + 1))
                    nbrs = rng.choice(alive, size=size, replace=False) if size else []
                    incremental_insert(state, int(rng.choice(absent)), nbrs)
                else:
                    incremental_remove(state, int(rng.choice(alive)))
                sub, alive = _induced_subgraph(state)
                remap = {int(u): i for i, u in enumerate(alive)}
                edges = [(remap[u], remap[v]) for u in remap for v in state.adj[u]]
                want = Graph.from_edges(alive.size, edges, g.features[alive], g.label)
                for name in ("indptr", "indices", "features"):
                    got, ref = getattr(sub, name), getattr(want, name)
                    assert got.dtype == ref.dtype and np.array_equal(got, ref), name
                assert sub.num_nodes == want.num_nodes and sub.label == want.label


class TestTraces:
    def test_too_many_removals_rejected(self):
        rng = np.random.default_rng(8)
        g = random_connected_graph(8, rng)
        with pytest.raises(ConfigError, match="leaves no graph"):
            make_trace(g, 0, num_remove=8, max_fraction=1.0)

    def test_fraction_cap(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(50, rng)
        with pytest.raises(ConfigError, match="cap"):
            make_trace(g, 0, num_remove=10, max_fraction=0.05)
        trace = make_trace(g, 0, num_remove=10, repetitions=3, max_fraction=0.5)
        assert trace.removals.shape == (3, 10) and trace.removals.dtype == np.int64
        assert all(np.unique(row).size == 10 for row in trace.removals)

    @pytest.mark.parametrize("num_remove", [0, -2])
    def test_removal_count_below_1_rejected(self, num_remove):
        g = random_connected_graph(40, np.random.default_rng(11))
        with pytest.raises(ConfigError, match=f"num_remove must be >= 1, got {num_remove}"):
            make_trace(g, 0, num_remove=num_remove, max_fraction=0.5)

    @pytest.mark.parametrize("max_fraction", [float("nan"), float("inf"), 0.0, -0.5, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, max_fraction):
        g = random_connected_graph(40, np.random.default_rng(12))
        with pytest.raises(ConfigError, match=r"max_fraction must be in \(0, 1\]"):
            make_trace(g, 0, num_remove=1, max_fraction=max_fraction)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        g = random_connected_graph(40, rng)
        a = make_trace(g, 3, num_remove=5, seed=4, max_fraction=0.5)
        b = make_trace(g, 3, num_remove=5, seed=4, max_fraction=0.5)
        np.testing.assert_array_equal(a.removals, b.removals)

    def test_repetition_rows_do_not_depend_on_count(self):
        g = random_connected_graph(40, np.random.default_rng(13))
        one = make_trace(g, 2, num_remove=4, repetitions=1, seed=6, max_fraction=0.5)
        four = make_trace(g, 2, num_remove=4, repetitions=4, seed=6, max_fraction=0.5)
        np.testing.assert_array_equal(four.removals[:1], one.removals)
        assert len({tuple(row) for row in four.removals}) == 4

    def test_repetitions_below_1_rejected(self):
        g = random_connected_graph(40, np.random.default_rng(14))
        with pytest.raises(ConfigError, match="repetitions must be >= 1, got 0"):
            make_trace(g, 0, num_remove=2, repetitions=0, max_fraction=0.5)


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert shannon_entropy_bits(np.array([0.5, 0.5])) == pytest.approx(1.0)

    def test_point_mass_zero(self):
        assert shannon_entropy_bits(np.array([1.0, 0.0])) == 0.0


class TestPerturbAndScore:
    def _bundle(self, seed=11, n=30):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(n, rng)
        cache = build_struct_cache(g, 0, seed=seed)
        student = make_student(g, cache, rng)
        teacher = make_teacher(g, rng)
        return g, cache, student, teacher

    def test_full_restoration_has_zero_error(self):
        g, cache, student, teacher = self._bundle()
        trace = make_trace(g, 0, num_remove=5, repetitions=3, seed=0, max_fraction=0.5)
        metrics = perturb_and_score(g, cache, student, teacher, trace)
        assert metrics.student_error[-1] == 0.0
        assert metrics.teacher_error[-1] == 0.0

    def test_metric_ranges(self):
        g, cache, student, teacher = self._bundle(seed=12)
        trace = make_trace(g, 0, num_remove=4, repetitions=2, seed=1, max_fraction=0.5)
        metrics = perturb_and_score(g, cache, student, teacher, trace)
        for arr in (metrics.student_error, metrics.teacher_error):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
        for arr in (metrics.student_entropy, metrics.teacher_entropy):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)  # binary: log2(2) = 1

    def test_shapes(self):
        g, cache, student, teacher = self._bundle(seed=13)
        trace = make_trace(g, 0, num_remove=3, repetitions=2, seed=2, max_fraction=0.5)
        metrics = perturb_and_score(g, cache, student, teacher, trace)
        assert metrics.student_error.shape == (4,)

    def test_timing_leaves_scores_unchanged(self):
        g, cache, student, teacher = self._bundle(seed=15, n=40)
        trace = make_trace(g, 0, num_remove=WARMUP_STEPS + 2, repetitions=3, seed=4,
                           max_fraction=0.5)
        report = LatencyReport()
        timed = perturb_and_score(g, cache, student, teacher, trace, report)
        plain = perturb_and_score(g, cache, student, teacher, trace)
        for name in ("student_error", "student_entropy", "teacher_error", "teacher_entropy"):
            assert np.array_equal(getattr(timed, name), getattr(plain, name)), name
        assert {stats["steps"] for stats in report.summary().values()} == {2}


class TestTiming:
    def test_report_structure_and_subset_relation(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(120, rng)
        cache = build_struct_cache(g, 0, seed=14)
        student = make_student(g, cache, rng, hidden=16)
        teacher = make_teacher(g, rng, hidden=16, layers=3)
        trace = make_trace(g, 0, num_remove=WARMUP_STEPS + 6, repetitions=1, seed=3,
                           max_fraction=0.5)
        report = LatencyReport()
        perturb_and_score(g, cache, student, teacher, trace, report)
        summary = report.summary()
        assert set(summary) == {"incremental_student", "full_student", "full_teacher"}
        for stats in summary.values():
            assert stats["steps"] == 6
            assert stats["mean_ms"] > 0.0

    def test_summary_tails_match_percentile(self):
        report = LatencyReport()
        steps = [0.4, 0.1, 2.5, 0.3, 0.2, 0.9, 0.6, 7.0, 0.5, 0.8, 0.7]
        for i, ms in enumerate(steps):
            report.add("full_student", ms / 1e3)
            report.add("incremental_student", i / 1e3)
        ms = report.samples["full_student"]
        stats = report.summary()["full_student"]
        assert stats["p95_ms"] == float(np.percentile(ms, 95))
        assert stats["p99_ms"] == float(np.percentile(ms, 99))
        assert stats["p95_ms"] == pytest.approx(4.75) and stats["p99_ms"] == pytest.approx(6.55)
        assert stats["median_ms"] == pytest.approx(0.6) and stats["steps"] == 11
        inc = report.summary()["incremental_student"]
        assert inc["p95_ms"] == pytest.approx(9.5) and inc["p99_ms"] == pytest.approx(9.9)
