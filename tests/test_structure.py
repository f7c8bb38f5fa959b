import copy
import hashlib
import json
import re
import tempfile
import zipfile
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from graphdistill.data import Dataset, Graph
from graphdistill.errors import ContractError, FormatError, IntegrityError
from graphdistill import structure
from graphdistill.structure import (
    DENSE_LAPE_MAX_NODES,
    LOCKSTEP_COST_NODES,
    ClusterAssignment,
    StructCache,
    WalkPool,
    build_struct_caches,
    check_struct_caches,
    default_num_walks,
    dense_laplacian,
    ga_mlp_aggregate,
    laplacian_pe,
    load_struct_caches,
    louvain_cluster,
    sample_walks,
    save_struct_caches,
    sparse_laplacian,
)
from graphdistill.synth import preferential_attachment_edges, two_class_structural

from conftest import build_graph, build_struct_cache, declare_member_shape
from oracles import (
    best_partition_bruteforce,
    dense_ga_aggregate,
    dense_normalized_laplacian,
    random_er_graph,
    reference_louvain_one,
    reference_modularity,
    reference_sample_walks,
    unpadded,
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


class TestModularityOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_networkx(self, data):
        n = data.draw(st.integers(2, 25))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        # a few edges on up to 25 nodes leaves some nodes isolated
        edges = data.draw(st.lists(pairs, min_size=1, max_size=2 * n))
        g = build_graph(n, edges)
        assume(g.num_edges > 0)
        k = data.draw(st.integers(1, n))
        cluster_of = np.asarray(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                                   max_size=n)), dtype=np.int64)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edge_pairs().tolist())
        communities = [set(np.flatnonzero(cluster_of == c).tolist())
                       for c in np.unique(cluster_of)]
        assert reference_modularity(g, cluster_of) == pytest.approx(
            nx.community.modularity(nxg, communities), abs=1e-12)

    def test_isolated_nodes_match_networkx(self):
        g = build_graph(7, [(0, 1), (1, 2), (3, 4)])  # nodes 5, 6 isolated
        cluster_of = np.array([0, 0, 1, 1, 1, 2, 0])
        nxg = nx.Graph()
        nxg.add_nodes_from(range(7))
        nxg.add_edges_from(g.edge_pairs().tolist())
        want = nx.community.modularity(nxg, [{0, 1, 6}, {2, 3, 4}, {5}])
        assert reference_modularity(g, cluster_of) == pytest.approx(want, abs=1e-12)

    def test_last_level_is_the_partition_modularity(self):
        # Over a mixed dataset (edgeless and one-node graphs among them), in
        # either kernel, every graph with an edge reports its last level's
        # modularity, and that is its final partition's, scored alone.
        rng = np.random.default_rng(5)
        graphs = ([shaped_graph(kind, int(rng.integers(2, 14)), rng)
                   for kind in GRAPH_KINDS for _ in range(3)]
                  + two_class_structural(num_graphs=12, seed=5).graphs)
        for cost in (0, 10**6):  # every graph with an edge in lockstep, then none
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(structure, "LOCKSTEP_COST_NODES", cost)
                got = louvain_cluster(graphs, list(range(len(graphs))))
            for g, res in zip(graphs, got):
                assert type(res.modularity) is float
                if g.indices.size == 0:
                    assert res.modularity == 0.0 and res.level_modularity == []
                    continue
                assert res.modularity == res.level_modularity[-1]
                assert abs(res.modularity - reference_modularity(g, res.cluster_of)) <= 1e-15


class TestLouvain:
    def test_two_triangles_match_exhaustive_optimum(self, two_triangles):
        best, best_q = best_partition_bruteforce(two_triangles)
        result = louvain_cluster([two_triangles], [0])[0]
        assert result.num_clusters == 2
        assert same_partition(result.cluster_of.tolist(), best)
        assert result.modularity == pytest.approx(best_q, abs=1e-12)
        assert result.modularity == pytest.approx(0.5, abs=1e-12)

    def test_single_node(self, isolated_node):
        result = louvain_cluster([isolated_node], [0])[0]
        assert result.num_clusters == 1
        assert result.modularity == 0.0

    def test_karate_club_quality(self):
        g = build_graph(34, KARATE_EDGES)
        assert g.num_edges == 78
        result = louvain_cluster([g], [0])[0]
        assert result.modularity >= 0.40  # known optimum is about 0.42

    def test_deterministic(self):
        g = build_graph(34, KARATE_EDGES)
        a = louvain_cluster([g], [11])[0]
        b = louvain_cluster([g], [11])[0]
        np.testing.assert_array_equal(a.cluster_of, b.cluster_of)

    def test_beats_singletons(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            g = random_er_graph(rng, int(rng.integers(5, 25)), p=0.25)
            res = louvain_cluster([g], [trial])[0]
            singles = reference_modularity(g, np.arange(g.num_nodes))
            assert res.modularity >= singles - 1e-12

    def test_isolated_nodes_are_singletons(self):
        g = build_graph(5, [(0, 1), (1, 2)])  # nodes 3, 4 isolated
        res = louvain_cluster([g], [0])[0]
        for iso in (3, 4):
            assert (res.cluster_of == res.cluster_of[iso]).sum() == 1

    def test_modularity_close_to_networkx_louvain(self):
        """Oracle: networkx's Louvain on 20 seeded graphs, small structural and larger
        hub-heavy ones. Both are heuristics, so ours may find the better partition;
        the bound is on how much worse it may be."""
        diffs = []
        for seed in range(20):
            if seed % 2 == 0:
                g = two_class_structural(num_graphs=1, seed=seed).graphs[0]
            else:
                n = 60 + 10 * seed
                edges = preferential_attachment_edges(n, np.random.default_rng(seed),
                                                      extra_edges=n // 5)
                g = build_graph(n, edges)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.num_nodes))
            nxg.add_edges_from(g.edge_pairs().tolist())
            want = nx.community.modularity(nxg, nx.community.louvain_communities(nxg, seed=seed))
            diffs.append(louvain_cluster([g], [seed])[0].modularity - want)
        assert min(diffs) >= -0.03, diffs
        assert abs(np.mean(diffs)) <= 0.01, diffs

    def test_level_modularity_nondecreasing(self):
        g = build_graph(34, KARATE_EDGES)
        res = louvain_cluster([g], [3])[0]
        levels = res.level_modularity
        assert len(levels) >= 1
        assert all(b >= a - 1e-12 for a, b in zip(levels, levels[1:]))
        assert res.modularity == pytest.approx(levels[-1], abs=1e-12)

    def test_top_level_fixed_point(self):
        # Merging any final cluster into any other must not improve modularity.
        g = build_graph(34, KARATE_EDGES)
        res = louvain_cluster([g], [0])[0]
        base = res.modularity
        for c in range(res.num_clusters):
            for d in range(res.num_clusters):
                if c == d:
                    continue
                merged = res.cluster_of.copy()
                merged[merged == c] = d
                assert reference_modularity(g, merged) <= base + 1e-12

    def test_contiguous_indices(self):
        g = build_graph(34, KARATE_EDGES)
        res = louvain_cluster([g], [1])[0]
        assert sorted(set(res.cluster_of.tolist())) == list(range(res.num_clusters))


# Small graph shapes for the lockstep tests; most tie heavily between moves.
GRAPH_KINDS = ("random", "edgeless", "one-node", "complete", "star", "cycle", "circulant",
               "grid", "clique-isolated", "m2-bound")
# Stored edge entries of an "m2-bound" graph: dense enough that float gains
# w - k*tot/m2 would need a rounding argument to break ties like exact ones.
M2_BOUND = 2000


def shaped_graph(kind, n, rng):
    """A graph of ``kind``; ``n`` nodes except for "one-node" and "m2-bound",
    whose edges fill exactly ``M2_BOUND`` stored entries."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "one-node":
        return build_graph(1, [])
    if kind == "m2-bound":
        if rng.random() < 0.5:  # K45 and one node joined to 10 of it
            return build_graph(46, [(u, v) for u in range(45) for v in range(u + 1, 45)]
                               + [(45, v) for v in range(10)])
        all_pairs = [(u, v) for u in range(60) for v in range(u + 1, 60)]
        picked = rng.choice(len(all_pairs), size=M2_BOUND // 2, replace=False)
        return build_graph(60, [all_pairs[i] for i in picked])
    if kind == "random":
        p_edge = rng.uniform(0.1, 0.8)
        return build_graph(n, [e for e in pairs if rng.random() < p_edge])
    edges = {
        "edgeless": [],
        "complete": pairs,
        "star": [(0, v) for v in range(1, n)],
        "cycle": [(v, (v + 1) % n) for v in range(n)],
        "circulant": [(v, (v + d) % n) for v in range(n) for d in (1, 3)],
        "grid": [(v, v + 1) for v in range(n - 1) if (v + 1) % 3] + [(v, v + 3) for v in
                                                                      range(n - 3)],
        "clique-isolated": [(u, v) for u, v in pairs if v < (n + 1) // 2],
    }[kind]
    return build_graph(n, edges)


@st.composite
def small_datasets(draw):
    graphs = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(GRAPH_KINDS))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        graphs.append(shaped_graph(kind, draw(st.integers(2, 14)), rng))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(graphs),
                          max_size=len(graphs)))
    return graphs, seeds


def assert_same_clustering(got, want):
    assert got.cluster_of.dtype == want.cluster_of.dtype == np.int64
    assert got.cluster_of.tobytes() == want.cluster_of.tobytes()
    assert type(got.num_clusters) is int and got.num_clusters == want.num_clusters
    assert type(got.modularity) is float and got.modularity == want.modularity
    assert all(type(x) is float for x in got.level_modularity)
    assert got.level_modularity == want.level_modularity


def spy_lockstep(mp):
    """Record the graphs of every ``_louvain`` batch run with ``_lockstep_moves``."""
    batches, louvain = [], structure._louvain

    def spy(gs, ss, moves):
        if moves is structure._lockstep_moves:
            batches.append(list(gs))
        return louvain(gs, ss, moves)

    mp.setattr(structure, "_louvain", spy)
    return batches


class TestLouvainLockstep:
    """Both move kernels must give every graph what the per-graph reference
    gives it, bit for bit, whatever else is in the batch."""

    @settings(max_examples=50, deadline=None)
    @given(dataset=small_datasets())
    def test_lockstep_equals_per_graph(self, dataset):
        graphs, seeds = dataset
        with_edges = [g for g in graphs if g.indices.size > 0]
        want = [reference_louvain_one(g, seed) for g, seed in zip(graphs, seeds)]
        # Each forced schedule: every graph with an edge in lockstep, then none.
        for cost, lockstep in ((0, True), (10**6, False)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(structure, "LOCKSTEP_COST_NODES", cost)
                batches = spy_lockstep(mp)
                got = louvain_cluster(graphs, seeds)
            assert batches == ([with_edges] if with_edges and lockstep else [])
            assert len(got) == len(graphs)
            for res, ref in zip(got, want):
                assert_same_clustering(res, ref)

    @pytest.mark.parametrize("n,edges,seed", [
        (7, [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5),
             (2, 6), (3, 4), (3, 5), (4, 5), (5, 6)], 476),
        (8, [(0, 1), (0, 3), (0, 7), (1, 2), (1, 3), (1, 6), (2, 3), (3, 4), (5, 7), (6, 7)],
         324),
    ], ids=["candidates-tie", "candidate-ties-own"])
    def test_exact_ties_resolve_like_the_scan(self, n, edges, seed):
        # Gains here tie exactly, though as floats w - k*tot/m2 they would
        # not (like 0.7 as 1 - 0.3 and as 2 - 1.3): among candidates (first)
        # and between a candidate and staying in ``ci`` (second). Both
        # kernels must break them as the reference scan does.
        g = build_graph(n, edges)
        for moves in (structure._lockstep_moves, structure._sequential_moves):
            assert_same_clustering(structure._louvain([g], [seed], moves)[0],
                                   reference_louvain_one(g, seed))

    @pytest.mark.parametrize("cycles,extra,batched", [
        (30, [], 0),           # 300 nodes do not pay for 36 steps per node of cap 10
        (40, [], 40),          # 400 nodes do
        (40, [300], 40),       # a 300-node cycle would cost more steps than it saves
        (40, [12] * 2, 40),    # two slightly larger graphs would not pay for their steps
        (40, [12] * 7, 47),    # seven do
        (40, ["K47", "edgeless"], 40),  # past the cap, and without edges
    ])
    def test_lockstep_batch_selection(self, cycles, extra, batched):
        assert LOCKSTEP_COST_NODES == 36  # the counts above assume it
        others = {"K47": shaped_graph("complete", 47, None),
                  "edgeless": shaped_graph("edgeless", 5, None)}
        graphs = [shaped_graph("cycle", 10, None)] * cycles + [
            others[x] if isinstance(x, str) else shaped_graph("cycle", x, None) for x in extra]
        with pytest.MonkeyPatch.context() as mp:
            batches = spy_lockstep(mp)
            louvain_cluster(graphs, list(range(len(graphs))))
        assert [len(b) for b in batches] == ([batched] if batched else [])

    def test_graph_in_dataset_equals_graph_alone(self):
        rng = np.random.default_rng(12)
        graphs = (two_class_structural(num_graphs=75, seed=12).graphs
                  + [shaped_graph(kind, 11, rng) for kind in GRAPH_KINDS]
                  + [build_graph(240, preferential_attachment_edges(240, rng, 48)),
                     shaped_graph("complete", 47, rng)])
        seeds = [structure._derived_seed(12, i, 0) for i in range(len(graphs))]
        subset = rng.permutation(len(graphs))[:70]
        with pytest.MonkeyPatch.context() as mp:
            batches = spy_lockstep(mp)
            whole = louvain_cluster(graphs, seeds)
            part = louvain_cluster([graphs[i] for i in subset], [seeds[i] for i in subset])
        # both schedules run in both calls, and the batches differ
        assert 0 < len(batches[0]) < len(graphs) and 0 < len(batches[1]) < len(subset)
        assert len(batches[0]) != len(batches[1])
        for j, i in enumerate(subset):
            assert_same_clustering(part[j], whole[i])
        for g, seed, res in zip(graphs, seeds, whole):
            assert_same_clustering(res, louvain_cluster([g], [seed])[0])
            assert_same_clustering(res, reference_louvain_one(g, seed))

    @pytest.mark.parametrize("graph", [
        shaped_graph("complete", 47, None),  # 2,162 stored entries
        shaped_graph("complete", 70, None),  # 4,830
        build_graph(300, preferential_attachment_edges(300, np.random.default_rng(3), 900)),  # 2,358
    ], ids=["K47", "K70", "pa300"])
    def test_dense_graphs_equal_in_both_kernels(self, graph):
        # Graphs of more than 2,000 stored entries run in lockstep once the
        # size cap admits them, and match the sequential kernel byte for byte.
        assert graph.indices.size > M2_BOUND
        got = {}
        for cost in (0, 10**6):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(structure, "LOCKSTEP_COST_NODES", cost)
                batches = spy_lockstep(mp)
                got[cost] = louvain_cluster([graph], [17])[0]
            assert batches == ([[graph]] if cost == 0 else [])
        assert_same_clustering(got[0], got[10**6])
        assert_same_clustering(got[0], reference_louvain_one(graph, 17))

    def test_seed_count_must_match(self, triangle):
        with pytest.raises(ContractError, match="2 graphs and 1 seeds"):
            louvain_cluster([triangle, triangle], [0])

    def test_graph_without_nodes_rejected(self, triangle):
        empty = Graph(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                      np.zeros((0, 1)), 0)
        with pytest.raises(ContractError, match="graph 1 has none"):
            louvain_cluster([triangle, empty], [0, 1])


def golden_graphs():
    """Seeded graphs whose Louvain partitions and walk pools are pinned below."""
    rng = np.random.default_rng(7)
    edges = preferential_attachment_edges(2000, rng, extra_edges=400)
    yield "pa2000", Graph.from_edges(2000, edges, np.ones((2000, 1)), 0)
    for i, g in enumerate(two_class_structural(num_graphs=3, seed=11).graphs):
        yield f"structural{i}", g
    # A 5-cycle, a 4-path, a K4 and two isolated nodes.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 8),
             (9, 10), (9, 11), (9, 12), (10, 11), (10, 12), (11, 12)]
    yield "disconnected", Graph.from_edges(15, edges, np.ones((15, 1)), 0)


def sha256_of(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Louvain (seed 5) and walk pools (seed 9; 12 walks of length 6, or 64 of
# length 8 on the 2000-node graph), recorded before Louvain and the walks
# moved from numpy scalars to Python lists. Any change to the visiting
# order, the tie-break or the float arithmetic shows here.
GOLDEN = {
    "pa2000": dict(
        num_clusters=39, modularity=0.8103529312008391,
        levels=[0.5159544384288229, 0.7019589758898082, 0.7812088578661283,
                0.8094554820935012, 0.8103529312008391],
        cluster_sha256="9304afc28f5b09dbc6990cd7b7718b1628d8435fc181f7efdfd62040280a8a8e",
        walks_sha256="806fbbdc42da112c09aae205a12938df15461e2a4cf4a11ff9b396ffdce49b4c",
    ),
    "structural0": dict(
        num_clusters=6, modularity=0.4263941398865784,
        levels=[0.3604678638941399, 0.4263941398865784],
        cluster_of=[0, 1, 2, 0, 2, 0, 0, 2, 1, 2, 2, 2, 0, 1, 1, 0, 0, 2, 1, 0, 3, 3, 3, 1,
                    4, 4, 4, 5, 5, 5, 3, 1, 1, 5, 3, 4, 5, 5, 5, 1, 3],
        walks=[[17, 9, 32, 10, 2, 10, 21], [31, 14, 32, 39, 40, 39, 40],
               [29, 40, 20, 1, 29, 20, 34], [19, 16, 3, 16, 3, 0, 13],
               [11, 10, 32, 10, 21, 35, 21], [40, 33, 40, 22, 30, 22, 40],
               [11, 10, 11, 10, 21, 35, 28], [8, 32, 8, 32, 33, 40, 39],
               [29, 27, 36, 27, 38, 39, 0], [24, 25, 24, 33, 34, 21, 10],
               [32, 39, 13, 9, 2, 9, 2], [16, 19, 6, 0, 13, 1, 7]],
    ),
    "structural1": dict(
        num_clusters=4, modularity=0.41396150531456477,
        levels=[0.25251364550416544, 0.41396150531456477],
        cluster_of=[0, 1, 2, 3, 0, 3, 2, 3, 3, 1, 0, 1, 3, 0, 2, 3, 0, 0, 3, 1, 3, 2, 1, 0,
                    1, 1, 0, 0, 0, 3, 2, 2, 2, 0],
        walks=[[14, 31, 30, 24, 1, 22, 11], [26, 17, 26, 23, 26, 23, 26],
               [31, 30, 31, 30, 18, 3, 33], [14, 31, 21, 32, 6, 29, 6],
               [5, 15, 17, 12, 29, 12, 29], [32, 6, 32, 30, 32, 6, 26],
               [25, 16, 0, 22, 11, 25, 16], [7, 25, 7, 25, 16, 25, 16],
               [24, 28, 24, 1, 24, 30, 18], [20, 12, 20, 21, 31, 21, 20],
               [26, 23, 26, 6, 26, 6, 26], [4, 10, 33, 0, 16, 25, 7]],
    ),
    "structural2": dict(
        num_clusters=5, modularity=0.3730308758664146,
        levels=[0.3520268851081706, 0.3730308758664146],
        cluster_of=[0, 1, 2, 2, 0, 0, 2, 0, 2, 0, 1, 0, 0, 2, 0, 3, 3, 2, 3, 4, 3, 4, 3, 4,
                    1, 4, 3, 4, 4, 3, 0],
        walks=[[13, 11, 19, 15, 12, 14, 11], [24, 23, 28, 26, 29, 26, 29],
               [22, 29, 9, 5, 11, 13, 9], [15, 28, 15, 22, 12, 4, 20],
               [9, 29, 16, 29, 26, 28, 26], [21, 28, 19, 20, 19, 28, 19],
               [14, 11, 19, 28, 19, 28, 15], [27, 25, 30, 25, 27, 23, 27],
               [2, 23, 29, 9, 12, 9, 13], [18, 20, 17, 8, 17, 25, 17],
               [14, 4, 12, 0, 7, 9, 5], [4, 20, 15, 12, 9, 5, 10]],
    ),
    "disconnected": dict(
        num_clusters=5, modularity=0.6428571428571428,
        levels=[0.5127551020408163, 0.6428571428571428],
        cluster_of=[0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 4],
        walks=[[6, 7, 8, 7, 6, 5, 6], [9, 12, 11, 10, 12, 11, 12], [13],
               [12, 11, 12, 9, 10, 12, 10], [11, 10, 12, 9, 12, 9, 10],
               [12, 9, 12, 10, 12, 11, 9], [14], [10, 12, 9, 11, 12, 11, 9],
               [7, 8, 7, 8, 7, 8, 7], [3, 4, 0, 4, 3, 4, 3], [10, 11, 10, 9, 12, 11, 9],
               [8, 7, 6, 7, 8, 7, 8]],
    ),
}


@pytest.fixture(scope="module")
def golden_set():
    return dict(golden_graphs())


class TestGoldenPreprocess:
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_louvain_and_walks_pinned(self, golden_set, name):
        graph, want = golden_set[name], GOLDEN[name]
        res = louvain_cluster([graph], [5])[0]
        assert res.cluster_of.dtype == np.int64
        assert res.num_clusters == want["num_clusters"]
        assert res.modularity == want["modularity"]
        assert res.level_modularity == want["levels"]
        assert all(type(x) is float for x in res.level_modularity)
        big = graph.num_nodes > 100
        pool = sample_walks(graph, 64 if big else 12, 8 if big else 6, seed=9)
        assert pool.walks.dtype == np.int64
        walks = unpadded(pool.walks)
        if big:
            assert sha256_of(res.cluster_of) == want["cluster_sha256"]
            sizes = np.array([w.size for w in walks])
            assert sha256_of(sizes, *walks) == want["walks_sha256"]
        else:
            assert res.cluster_of.tolist() == want["cluster_of"]
            assert [w.tolist() for w in walks] == want["walks"]


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
            np.testing.assert_array_equal(sparse_laplacian(g).to_scipy().toarray(),
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


@st.composite
def walk_graphs(draw):
    """Graphs of 1 to 12 nodes with few edges, so isolated nodes and leaves are common."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return build_graph(n, edges)


class TestBoundedDraw:
    """``structure._bounded`` must draw what ``Generator.integers`` draws,
    also for ranges where numpy rejects a quarter to a half of the words."""

    @pytest.mark.parametrize("r", [1, 2, 3, 45, 3 * 2**30, 2**31 + 1, 2**32 - 1])
    @pytest.mark.parametrize("seed", [0, 9, 2**63 + 5])
    def test_matches_generator_integers(self, r, seed):
        rng = np.random.default_rng(seed)
        want = [int(rng.integers(r)) for _ in range(300)]
        bitgen = np.random.PCG64(seed)
        halves = structure._halves(bitgen, 5)  # runs out early, so it is refilled
        got, pos = [], 0
        for _ in range(300):
            x, pos = structure._bounded(r, halves, pos, bitgen)
            got.append(x)
        assert got == want
        if r in (3 * 2**30, 2**31 + 1):  # rejected about 1/4 and 1/2 of the time
            assert pos > 330

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_ranges_from_an_empty_list(self, seed):
        # Ranges interleave as in a walk, and every half comes from a refill.
        ranges = np.random.default_rng(100 + seed).choice(
            [1, 1, 2, 5, 38, 3 * 2**30, 2**31 + 1, 2**32 - 1], size=400).tolist()
        rng = np.random.default_rng(seed)
        bitgen, halves, pos = np.random.PCG64(seed), [], 0
        for r in ranges:
            x, pos = structure._bounded(r, halves, pos, bitgen)
            assert x == int(rng.integers(r))


class TestSizesNumpyCannotHold:
    """Pool and encoding sizes beyond numpy's index range (10**20) or the 47-bit
    address space (2**50) are ``ContractError``s; both fail before any memory is
    touched."""

    @pytest.mark.parametrize("num_walks,walk_length", [(1, 10**20), (0, 10**20), (2**50, 8),
                                                       (2**50, 2**50)])
    def test_walk_pool(self, path3, num_walks, walk_length):
        with pytest.raises(ContractError, match=f"a pool of {num_walks} walks of length "
                                                f"{walk_length} is too large"):
            sample_walks(path3, num_walks, walk_length, seed=0)

    @pytest.mark.parametrize("k_pe", [10**20, 2**50])
    def test_laplacian_pe(self, path3, k_pe):
        with pytest.raises(ContractError, match=f"k_pe {k_pe} is too large for 3 nodes"):
            laplacian_pe(path3, k_pe)


class TestCheckStructCaches:
    """The one fit of caches to graphs: one cache per graph, and one cluster id, one
    ``lape`` row and one ``agg_features`` row per node; the first bad graph and field
    are named."""

    @pytest.fixture
    def fitted(self):
        ds = two_class_structural(num_graphs=3, seed=0, min_nodes=5, max_nodes=8)
        return ds.graphs, build_struct_caches(ds, seed=0, k_pe=2, walk_length=2)

    def test_fitting_caches_pass(self, fitted):
        check_struct_caches(*fitted)

    @pytest.mark.parametrize("cut", [lambda c: c[:2], lambda c: c + c[:1]])
    def test_count(self, fitted, cut):
        graphs, caches = fitted
        with pytest.raises(IntegrityError, match=f"^{len(cut(caches))} struct caches for 3 "
                                                 f"graphs$"):
            check_struct_caches(graphs, cut(caches))

    @pytest.mark.parametrize("field", ["clusters.cluster_of", "lape", "agg_features"])
    def test_first_bad_graph_and_field(self, fitted, field):
        graphs, caches = fitted
        caches = list(caches)
        for i in (1, 2):  # graph 1 is named, not graph 2
            caches[i] = copy.deepcopy(caches[i])
            owner = caches[i].clusters if field == "clusters.cluster_of" else caches[i]
            name = field.split(".")[-1]
            setattr(owner, name, getattr(owner, name)[:-1])
        n = graphs[1].num_nodes
        with pytest.raises(IntegrityError, match=re.escape(
                f"graph 1: struct cache field {field!r} has {n - 1} rows, the graph has {n} "
                f"nodes")):
            check_struct_caches(graphs, caches)


class TestWalks:
    def test_p2_forced_alternation(self, k2):
        pool = sample_walks(k2, 50, 3, seed=0)
        for walk in pool.walks:
            start = walk[0]
            expected = [start, 1 - start, start, 1 - start]
            np.testing.assert_array_equal(walk, expected)

    def test_isolated_singleton(self, isolated_node):
        pool = sample_walks(isolated_node, 5, 4, seed=0)
        assert pool.walks.tolist() == [[0, -1, -1, -1, -1]] * 5

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
            assert pool.walks.shape == (40, 9)
            for walk in unpadded(pool.walks):
                # a full walk, or a singleton from a start without neighbours
                assert walk.size == 9 or (walk.size == 1 and g.degrees[walk[0]] == 0)
                for a, b in zip(walk[:-1], walk[1:]):
                    assert b in g.neighbors(int(a))

    def test_empty_pool(self, triangle):
        walks = sample_walks(triangle, 0, 8, seed=0).walks
        assert walks.shape == (0, 9) and walks.dtype == np.int64

    def test_negative_num_walks_rejected(self, triangle):
        with pytest.raises(ContractError, match="num_walks must be >= 0, got -1"):
            sample_walks(triangle, -1, 8, seed=0)

    def test_negative_seed_rejected(self, triangle):
        with pytest.raises(ContractError, match="seed must be >= 0, got -3"):
            sample_walks(triangle, 4, 8, seed=-3)

    def test_graph_without_nodes(self):
        empty = Graph(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                      np.zeros((0, 1)), 0)
        assert sample_walks(empty, 0, 3, seed=0).walks.shape == (0, 4)
        with pytest.raises(ContractError, match="needs a node to start from"):
            sample_walks(empty, 1, 3, seed=0)

    @settings(max_examples=120, deadline=None)
    @given(graph=walk_graphs(), num_walks=st.integers(0, 70), walk_length=st.integers(1, 8),
           seed=st.integers(0, 2**64 - 1))
    def test_equals_per_draw_sampler(self, graph, num_walks, walk_length, seed):
        got = sample_walks(graph, num_walks, walk_length, seed).walks
        want = reference_sample_walks(graph, num_walks, walk_length, seed)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

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


def write_small_sidecar(tmp_path, num_graphs=2):
    ds = two_class_structural(num_graphs=num_graphs, seed=0, min_nodes=5, max_nodes=8)
    path = tmp_path / "cache.npz"
    save_struct_caches(path, build_struct_caches(ds, seed=1, k_pe=2, walk_length=3),
                       ds.name, seed=1)
    return path


def rewrite_sidecar(path, mutate):
    """Load every array of a sidecar, let ``mutate`` edit the dict, save it back."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    mutate(arrays)
    np.savez_compressed(path, **arrays)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def struct_cache_lists(draw):
    """Random cache lists: none at all, 1-node graphs with all-zero LaPE,
    empty walk pools and empty level lists included. Walk rows are what the
    sampler makes: full walks, or a start node followed by -1s."""
    k_pe, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    walk_length = draw(st.integers(1, 4))
    caches = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 5))
        cluster_of = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
                              dtype=np.int64)
        lape = np.zeros((1, k_pe)) if n == 1 else draw(hnp.arrays(np.float64, (n, k_pe),
                                                                  elements=finite))
        full = st.lists(st.integers(0, n - 1), min_size=walk_length + 1,
                        max_size=walk_length + 1)
        singleton = st.integers(0, n - 1).map(lambda s: [s] + [-1] * walk_length)
        walks = np.array(draw(st.lists(full | singleton, max_size=3)),
                         dtype=np.int64).reshape(-1, walk_length + 1)
        caches.append(StructCache(
            clusters=ClusterAssignment(cluster_of, int(cluster_of.max()) + 1, draw(finite),
                                       draw(st.lists(finite, max_size=3))),
            lape=lape,
            agg_features=draw(hnp.arrays(np.float64, (n, width + k_pe), elements=finite)),
            walk_pool=WalkPool(walks, walk_length, draw(st.integers(0, 2**32 - 1))),
        ))
    return caches


class TestStructCachePersistence:
    def test_round_trip(self, tmp_path):
        ds = two_class_structural(num_graphs=6, seed=0, min_nodes=5, max_nodes=14)
        caches = build_struct_caches(ds, seed=42, k_pe=4, walk_length=5)
        path = tmp_path / "cache.npz"
        save_struct_caches(path, caches, ds.name, seed=42)
        back, meta = load_struct_caches(path)
        assert meta["seed"] == 42
        assert meta["format"] == "structcache/3"
        assert len(back) == len(caches)
        for a, b in zip(caches, back):
            np.testing.assert_array_equal(a.clusters.cluster_of, b.clusters.cluster_of)
            assert a.clusters.modularity == b.clusters.modularity
            np.testing.assert_array_equal(a.lape, b.lape)
            np.testing.assert_array_equal(a.agg_features, b.agg_features)
            assert len(a.walk_pool.walks) == len(b.walk_pool.walks)
            for wa, wb in zip(a.walk_pool.walks, b.walk_pool.walks):
                np.testing.assert_array_equal(wa, wb)

    @pytest.mark.parametrize("damage", ["inserted-bytes", "crc"])
    def test_damaged_meta_member_is_format_error(self, tmp_path, damage):
        # Bytes inserted mid-file shift every member, so the first one, meta, has no
        # local header where the central directory puts it (BadZipFile on open). A
        # space of meta's .npy header padding turned into a tab still parses, and
        # fails only the member's CRC-32 (BadZipFile on read).
        path = write_small_sidecar(tmp_path)
        data = bytearray(path.read_bytes())
        if damage == "inserted-bytes":
            data[len(data) // 2:len(data) // 2] = b"\xff\xfe"
        else:
            with zipfile.ZipFile(path) as archive:
                info = archive.getinfo("meta.npy")
            name_len, extra_len = np.frombuffer(data[info.header_offset + 26:][:4], "<u2")
            npy = info.header_offset + 30 + int(name_len) + int(extra_len)
            pad = npy + 10 + int(np.frombuffer(data[npy + 8:npy + 10], "<u2")[0]) - 2
            assert data[pad] == ord(" ")
            data[pad] = ord("\t")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=re.escape(f"{path}: not a struct cache")):
            load_struct_caches(path)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "cache.npz"
        np.savez(path, meta=np.str_('{"format": "other/9", "num_graphs": 0}'))
        with pytest.raises(FormatError):
            load_struct_caches(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="not found"):
            load_struct_caches(tmp_path / "nope.npz")

    def test_not_a_zip_rejected(self, tmp_path):
        path = tmp_path / "cache.npz"
        for raw in (b"", b"plain text, not a zip", b"PK\x03\x04cut short"):
            path.write_bytes(raw)
            with pytest.raises(FormatError, match=re.escape(str(path))):
                load_struct_caches(path)
        np.save(tmp_path / "array.npy", np.ones(3))  # an .npy, not an .npz archive
        (tmp_path / "array.npy").rename(path)
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_struct_caches(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "cache.npz"
        for arrays in ({"weights": np.ones(3)}, {"meta": np.str_("not json")},
                       {"meta": np.str_("[1, 2]")}):
            np.savez(path, **arrays)
            with pytest.raises(FormatError, match=re.escape(str(path))):
                load_struct_caches(path)

    @pytest.mark.parametrize("member,message", [
        ("modularity", "cannot read field 'modularity'"), ("lape", "cannot read field 'lape'"),
        ("meta", "not a struct cache")], ids=["modularity", "lape", "meta"])
    def test_member_declaring_a_huge_array_rejected(self, tmp_path, member, message):
        # 10**12 values: numpy fails to allocate them before reading any
        path = write_small_sidecar(tmp_path)
        declare_member_shape(path, member, (10**12,))
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            load_struct_caches(path)

    @pytest.mark.parametrize("field", ["cluster", "walks"])
    def test_missing_field_rejected(self, tmp_path, field):
        path = write_small_sidecar(tmp_path)
        rewrite_sidecar(path, lambda arrays: arrays.pop(field))
        with pytest.raises(FormatError, match=re.escape(str(path)) + f".*'{field}'"):
            load_struct_caches(path)

    def test_v1_sidecar_rejected(self, tmp_path):
        path = tmp_path / "cache.npz"
        meta = {"format": "structcache/1", "dataset": "d", "seed": 1, "num_graphs": 1,
                "walk_length": 3}
        np.savez_compressed(path, meta=np.str_(json.dumps(meta)), **{
            "g0.cluster": np.zeros(2, dtype=np.int64), "g0.walks": np.zeros(0, dtype=np.int64)})
        with pytest.raises(FormatError, match=re.escape(str(path)) + ".*structcache/1.*"
                           "re-run `graphdistill preprocess`"):
            load_struct_caches(path)

    @pytest.mark.parametrize("mutate,field", [
        (lambda a: a.update(node_off=a["node_off"][[0, 2, 1, 3]]), "node_off"),
        (lambda a: a.update(node_off=a["node_off"] + 1), "node_off"),
        (lambda a: a.update(node_off=a["node_off"][:-1]), "node_off"),
        (lambda a: a.update(cluster=a["cluster"][:-1]), "node_off"),
        (lambda a: a.update(lape=a["lape"][:-1]), "lape"),
        (lambda a: a.update(agg=np.concatenate([a["agg"], a["agg"][:1]])), "agg"),
        (lambda a: a.update(levels=a["levels"][1:]), "level_off"),
        (lambda a: a.update(level_off=a["level_off"][::-1]), "level_off"),
        (lambda a: a.update(pool_off=a["pool_off"] * 2), "pool_off"),
        (lambda a: a.update(walks=a["walks"][:-1]), "pool_off"),
        (lambda a: a.update(walks=a["walks"][:, :-1]), "walks"),
        (lambda a: a.update(walks=a["walks"].ravel()), "walks"),
        (lambda a: a["walks"].__setitem__((0, 2), -1), "walks"),
        (lambda a: a["walks"].__setitem__(0, -1), "walks"),
        (lambda a: a["walks"].__setitem__((0, 1), a["node_off"][1]), "walks"),
        (lambda a: a["cluster"].__setitem__(a["node_off"][1], -1), "cluster"),
        (lambda a: a["cluster"].__setitem__(0, a["node_off"][1]), "cluster"),
        (lambda a: a.update(modularity=a["modularity"][:2]), "modularity"),
        (lambda a: a.update(wseed=a["wseed"].astype(np.float64)), "wseed"),
        (lambda a: a.update(cluster=a["cluster"].astype(np.int32)), "cluster"),
        (lambda a: a.update(lape=a["lape"].ravel()), "lape"),
    ], ids=["node_off-not-monotone", "node_off-not-from-0", "node_off-short",
            "cluster-short", "lape-rows", "agg-rows", "levels-short", "level_off-reversed",
            "pool_off-past-end", "walks-short", "walks-width", "walks-1d",
            "walk-id-minus-1", "walk-all-padding", "walk-id-past-graph", "cluster-id-minus-1",
            "cluster-id-past-graph", "modularity-short",
            "wseed-dtype", "cluster-dtype", "lape-1d"])
    def test_inconsistent_layout_rejected(self, tmp_path, mutate, field):
        path = write_small_sidecar(tmp_path, num_graphs=3)
        rewrite_sidecar(path, mutate)
        with pytest.raises(FormatError, match=re.escape(str(path)) + f".*'{field}'"):
            load_struct_caches(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["lape", "agg", "modularity", "levels"])
    def test_non_finite_float_rejected(self, tmp_path, field, value):
        path = write_small_sidecar(tmp_path, num_graphs=3)
        rewrite_sidecar(path, lambda arrays: arrays[field].reshape(-1).__setitem__(-1, value))
        with pytest.raises(FormatError, match=re.escape(str(path)) + f".*'{field}'.*NaN"):
            load_struct_caches(path)

    def test_bad_meta_rejected(self, tmp_path):
        path = write_small_sidecar(tmp_path)
        for bad in ({"num_graphs": -1}, {"num_graphs": "2"}, {"walk_length": None}):
            def mutate(arrays, bad=bad):
                meta = json.loads(str(arrays["meta"]))
                meta.update(bad)
                arrays["meta"] = np.str_(json.dumps(meta))
            rewrite_sidecar(path, mutate)
            with pytest.raises(FormatError, match=re.escape(str(path))):
                load_struct_caches(path)
            write_small_sidecar(tmp_path)

    @pytest.mark.parametrize("walk_length", [0, -1])
    def test_walks_with_walk_length_below_1_rejected(self, tmp_path, walk_length):
        path = write_small_sidecar(tmp_path)

        def mutate(arrays):
            meta = json.loads(str(arrays["meta"]))
            meta["walk_length"] = walk_length
            arrays["meta"] = np.str_(json.dumps(meta))
            arrays["walks"] = arrays["walks"][:, :walk_length + 1]

        rewrite_sidecar(path, mutate)
        with pytest.raises(FormatError, match=re.escape(str(path)) + ".*walk_length"):
            load_struct_caches(path)

    def test_empty_sidecar_with_walk_length_0_loads(self, tmp_path):
        path = tmp_path / "cache.npz"
        save_struct_caches(path, [], "empty", seed=0)
        caches, meta = load_struct_caches(path)
        assert caches == [] and meta["walk_length"] == 0

    def test_mixed_walk_lengths_rejected_on_save(self, tmp_path):
        ds = two_class_structural(num_graphs=4, seed=0, min_nodes=5, max_nodes=8)
        caches = build_struct_caches(ds, seed=1, k_pe=2, walk_length=3)
        caches[2] = build_struct_caches(ds, seed=1, k_pe=2, walk_length=5)[2]
        caches[3] = build_struct_caches(ds, seed=1, k_pe=2, walk_length=4)[3]
        path = tmp_path / "cache.npz"
        with pytest.raises(ContractError, match="graph 2 has walk_length 5, graph 0 has 3"):
            save_struct_caches(path, caches, ds.name, seed=1)
        assert not path.exists()

    def test_loaded_arrays_are_read_only(self, tmp_path):
        caches, _ = load_struct_caches(write_small_sidecar(tmp_path))
        for c in caches:
            for arr in (c.clusters.cluster_of, c.lape, c.agg_features, *c.walk_pool.walks):
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0

    @settings(max_examples=60, deadline=None)
    @given(caches=struct_cache_lists())
    def test_round_trip_property(self, caches):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.npz"
            save_struct_caches(path, caches, "prop", seed=3)
            back, meta = load_struct_caches(path)
        assert meta["num_graphs"] == len(back) == len(caches)
        for a, b in zip(caches, back):
            for x, y in ((a.clusters.cluster_of, b.clusters.cluster_of), (a.lape, b.lape),
                         (a.agg_features, b.agg_features)):
                assert (x.dtype, x.shape) == (y.dtype, y.shape)
                assert x.tobytes() == y.tobytes()
                assert not y.flags.writeable
            assert b.clusters.num_clusters == a.clusters.num_clusters
            assert b.clusters.modularity == a.clusters.modularity
            assert type(b.clusters.modularity) is float
            assert b.clusters.level_modularity == a.clusters.level_modularity
            assert all(type(x) is float for x in b.clusters.level_modularity)
            assert (b.walk_pool.walk_length, b.walk_pool.seed) == (
                a.walk_pool.walk_length, a.walk_pool.seed)
            assert type(b.walk_pool.seed) is int
            assert len(b.walk_pool.walks) == len(a.walk_pool.walks)
            for x, y in zip(a.walk_pool.walks, b.walk_pool.walks):
                assert y.dtype == np.int64 and x.tolist() == y.tolist()
                assert not y.flags.writeable

    def test_preprocessing_deterministic_per_graph(self):
        ds = two_class_structural(num_graphs=4, seed=1, min_nodes=6, max_nodes=10)
        a = build_struct_caches(ds, seed=5)
        b = build_struct_caches(ds, seed=5)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.clusters.cluster_of, cb.clusters.cluster_of)
            for wa, wb in zip(ca.walk_pool.walks, cb.walk_pool.walks):
                np.testing.assert_array_equal(wa, wb)


def assert_caches_identical(got, want):
    """Every array bit for bit (dtype, shape and bytes), every scalar exactly."""
    def same(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    assert len(got) == len(want)
    for a, b in zip(got, want):
        same(a.clusters.cluster_of, b.clusters.cluster_of)
        assert a.clusters.num_clusters == b.clusters.num_clusters
        assert a.clusters.modularity == b.clusters.modularity
        assert list(a.clusters.level_modularity) == list(b.clusters.level_modularity)
        same(a.lape, b.lape)
        same(a.agg_features, b.agg_features)
        assert (a.walk_pool.walk_length, a.walk_pool.seed) == (
            b.walk_pool.walk_length, b.walk_pool.seed)
        same(a.walk_pool.walks, b.walk_pool.walks)


class TestBatchedPreprocess:
    """``build_struct_caches`` aggregates the whole dataset in one product;
    it must equal preprocessing each graph on its own, bit for bit."""

    @pytest.fixture(scope="class")
    def mixed(self):
        base = two_class_structural(num_graphs=12, seed=3)
        dim = base.feature_dim
        rng = np.random.default_rng(4)
        # isolated nodes 0, 4, 5 and 9 next to a triangle and a path
        isolated = Graph.from_edges(10, [(1, 2), (2, 3), (1, 3), (6, 7), (7, 8)],
                                    rng.normal(size=(10, dim)), 0)
        n = DENSE_LAPE_MAX_NODES + 37
        big = Graph.from_edges(n, preferential_attachment_edges(n, rng, extra_edges=n // 5),
                               rng.normal(size=(n, dim)), 1)
        edgeless = Graph.from_edges(3, [], rng.normal(size=(3, dim)), 1)
        graphs = base.graphs[:5] + [isolated, big, edgeless] + base.graphs[5:]
        return Dataset(graphs, 2, dim, "mixed")

    @pytest.mark.parametrize("k_pe,num_walks", [(8, None), (3, 5)])
    def test_equals_per_graph_reference(self, mixed, k_pe, num_walks):
        got = build_struct_caches(mixed, seed=21, k_pe=k_pe, walk_length=6, num_walks=num_walks)
        want = [build_struct_cache(g, i, 21, k_pe=k_pe, walk_length=6, num_walks=num_walks)
                for i, g in enumerate(mixed.graphs)]
        assert_caches_identical(got, want)

    def test_structural_dataset_equals_per_graph_reference(self):
        ds = two_class_structural(num_graphs=40, seed=11)
        want = [build_struct_cache(g, i, 5) for i, g in enumerate(ds.graphs)]
        assert_caches_identical(build_struct_caches(ds, seed=5), want)

    def test_empty_dataset(self):
        assert build_struct_caches(Dataset([], 2, 3, "empty"), seed=0) == []

    def test_dense_laplacian_equals_sparse_toarray(self, mixed):
        rng = np.random.default_rng(13)
        graphs = mixed.graphs + [build_graph(1, []), build_graph(4, [])] + [
            random_er_graph(rng, int(rng.integers(2, 40)), p=0.1) for _ in range(10)]
        for g in graphs:
            want = sparse_laplacian(g).to_scipy().toarray()
            got = dense_laplacian(g)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    def test_sign_pivot_positive_on_near_ties(self):
        # Regular graphs have eigenvectors with many entries of equal magnitude,
        # so the pivot is the lowest index among near-ties.
        for n in (6, 8, 11, 16):
            cycle = build_graph(n, [(u, (u + 1) % n) for u in range(n)])
            pe = laplacian_pe(cycle, n - 1)
            for col in pe.T:
                mag = np.abs(col)
                pivot = np.flatnonzero(mag >= mag.max() * (1 - 1e-12))[0]
                assert col[pivot] > 0


def write_light_deflate_sidecar(path, source):
    """Copy the sidecar at ``source`` as the earlier writer did: every member
    deflated at level 1 except ``lape`` and ``agg``, which are stored."""
    with zipfile.ZipFile(source) as src, zipfile.ZipFile(path, "w") as dst:
        for name in src.namelist():
            stored = name in ("lape.npy", "agg.npy")
            dst.writestr(name, src.read(name), compresslevel=1,
                         compress_type=zipfile.ZIP_STORED if stored else zipfile.ZIP_DEFLATED)


class TestSidecarWriter:
    def test_savez_compressed_sidecar_loads_equal(self, tmp_path):
        # Every member is stored, with the names and bytes np.savez_compressed
        # writes; sidecars with deflated members (np.savez_compressed, and the
        # earlier level-1 writer) read back equal.
        ds = two_class_structural(num_graphs=6, seed=2, min_nodes=5, max_nodes=14)
        caches = build_struct_caches(ds, seed=8, k_pe=3, walk_length=4)
        plain, heavy, light = tmp_path / "plain", tmp_path / "heavy.npz", tmp_path / "light.npz"
        save_struct_caches(plain, caches, ds.name, seed=8)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]  # no suffix added
        with np.load(plain) as data:
            np.savez_compressed(heavy, **{k: data[k] for k in data.files})
        write_light_deflate_sidecar(light, plain)
        with zipfile.ZipFile(plain) as ours, zipfile.ZipFile(heavy) as ref:
            assert [i.filename for i in ours.infolist()] == [i.filename for i in ref.infolist()]
            assert {i.compress_type for i in ours.infolist()} == {zipfile.ZIP_STORED}
            assert {i.compress_type for i in ref.infolist()} == {zipfile.ZIP_DEFLATED}
            for name in ref.namelist():
                assert ours.read(name) == ref.read(name)
        with zipfile.ZipFile(light) as zf:
            assert {i.filename: i.compress_type for i in zf.infolist()} == {
                name: zipfile.ZIP_STORED if name in ("lape.npy", "agg.npy")
                else zipfile.ZIP_DEFLATED for name in zf.namelist()}
        back, meta = load_struct_caches(plain)
        assert_caches_identical(back, caches)
        for other in (heavy, light):
            back_other, meta_other = load_struct_caches(other)
            assert meta_other == meta
            assert_caches_identical(back_other, back)
