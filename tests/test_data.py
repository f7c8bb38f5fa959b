import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdistill import data
from graphdistill.data import (
    Dataset,
    Graph,
    degree_onehot_features,
    load_tudataset,
    max_degree,
    save_tudataset,
    stratified_kfold,
)
from graphdistill.errors import ConfigError, FormatError, GraphDistillError, IntegrityError
from graphdistill.synth import two_class_structural

from conftest import build_graph
from oracles import random_er_graph, reference_load_tudataset


def write_tu_files(directory, name, edges, indicator, graph_labels, node_labels=None):
    (directory / f"{name}_A.txt").write_text(
        "".join(f"{u}, {v}\n" for u, v in edges)
    )
    (directory / f"{name}_graph_indicator.txt").write_text(
        "".join(f"{g}\n" for g in indicator)
    )
    (directory / f"{name}_graph_labels.txt").write_text(
        "".join(f"{y}\n" for y in graph_labels)
    )
    if node_labels is not None:
        (directory / f"{name}_node_labels.txt").write_text(
            "".join(f"{c}\n" for c in node_labels)
        )


class TestLoader:
    def test_two_graph_toy(self, tmp_path):
        # Graph 1: nodes 1,2 with one edge; graph 2: a single isolated node.
        write_tu_files(tmp_path, "toy", [(1, 2), (2, 1)], [1, 1, 2], [0, 1])
        ds = load_tudataset(tmp_path, "toy")
        assert len(ds.graphs) == 2
        assert ds.graphs[0].num_nodes == 2
        assert ds.graphs[0].num_edges == 1
        assert ds.graphs[1].num_nodes == 1
        assert ds.graphs[1].num_edges == 0
        assert ds.num_classes == 2

    def test_symmetrize_dedupe_selfloops(self, tmp_path):
        edges = [(1, 2), (1, 2), (2, 1), (3, 3), (2, 3)]
        write_tu_files(tmp_path, "toy", edges, [1, 1, 1], [5])
        g = load_tudataset(tmp_path, "toy").graphs[0]
        assert g.num_edges == 2  # (0,1) and (1,2); self-loop dropped
        pairs = {tuple(p) for p in g.edge_pairs()}
        assert pairs == {(0, 1), (1, 2)}
        for u in range(g.num_nodes):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_node_labels_onehot(self, tmp_path):
        write_tu_files(tmp_path, "toy", [(1, 2), (2, 1)], [1, 1], [0], node_labels=[7, 9])
        ds = load_tudataset(tmp_path, "toy")
        assert ds.feature_dim == 2
        np.testing.assert_array_equal(ds.graphs[0].features, [[1, 0], [0, 1]])

    def test_labels_remapped_contiguous(self, tmp_path):
        write_tu_files(tmp_path, "toy", [(1, 2), (2, 1), (3, 4), (4, 3)],
                       [1, 1, 2, 2], [-1, 6])
        ds = load_tudataset(tmp_path, "toy")
        assert sorted(g.label for g in ds.graphs) == [0, 1]
        assert ds.num_classes == 2

    def test_missing_file_named(self, tmp_path):
        write_tu_files(tmp_path, "toy", [(1, 2)], [1, 1], [0])
        (tmp_path / "toy_graph_labels.txt").unlink()
        with pytest.raises(FormatError, match="toy_graph_labels.txt"):
            load_tudataset(tmp_path, "toy")
        with pytest.raises(FormatError, match="missing_graph_indicator.txt"):
            load_tudataset(tmp_path, "missing")

    def test_dangling_node_reports_line(self, tmp_path):
        write_tu_files(tmp_path, "toy", [(1, 2), (2, 1), (1, 9)], [1, 1], [0])
        with pytest.raises(IntegrityError, match=":3"):
            load_tudataset(tmp_path, "toy")

    def test_cross_graph_edge_rejected(self, tmp_path):
        write_tu_files(tmp_path, "toy", [(1, 2)], [1, 2], [0, 1])
        with pytest.raises(IntegrityError, match="crosses"):
            load_tudataset(tmp_path, "toy")

    def test_whitespace_tolerant(self, tmp_path):
        (tmp_path / "toy_A.txt").write_text("1 2\n2,   1\n")
        (tmp_path / "toy_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "toy_graph_labels.txt").write_text("0\n")
        ds = load_tudataset(tmp_path, "toy")
        assert ds.graphs[0].num_edges == 1


    def test_extra_token_rejected_with_line(self, tmp_path):
        write_tu_files(tmp_path, "toy", [(1, 2), (2, 1)], [1, 1], [0])
        (tmp_path / "toy_A.txt").write_text("1, 2\n\n2, 1, 7\n")
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "toy_A.txt")) + ":3"):
            load_tudataset(tmp_path, "toy")
        (tmp_path / "toy_A.txt").write_text("1, 2\n")
        (tmp_path / "toy_graph_labels.txt").write_text("0 1\n")
        with pytest.raises(FormatError, match="toy_graph_labels.txt:1"):
            load_tudataset(tmp_path, "toy")

    @pytest.mark.parametrize("edges", ["1, 2,\n", ", 1, 2\n", "1 ,\n", ",\n", "1, x\n",
                                       "1, 2.0\n", "1, 99999999999999999999\n",
                                       "1, 2, 2\n1\n"],
                             ids=["trailing-comma", "leading-comma", "one-and-comma",
                                  "comma-only", "word", "float", "overflow",
                                  "three-then-one"])
    def test_malformed_edge_line_rejected(self, tmp_path, edges):
        write_tu_files(tmp_path, "toy", [], [1, 1], [0])
        (tmp_path / "toy_A.txt").write_text("2, 1\n" + edges)
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "toy_A.txt")) + ":2"):
            load_tudataset(tmp_path, "toy")

    def test_not_utf8_rejected(self, tmp_path):
        write_tu_files(tmp_path, "toy", [(1, 2)], [1, 1], [0])
        (tmp_path / "toy_graph_labels.txt").write_bytes(b"\xff\xfe0\n")
        with pytest.raises(FormatError, match="toy_graph_labels.txt"):
            load_tudataset(tmp_path, "toy")

    def test_unicode_whitespace_separates(self, tmp_path):
        (tmp_path / "toy_A.txt").write_text("1\u30002\n\u00a0 2,\u20031 \n")
        (tmp_path / "toy_graph_indicator.txt").write_text("1\r\n1\r\n")
        (tmp_path / "toy_graph_labels.txt").write_text("\u2028\n0\n")
        assert load_tudataset(tmp_path, "toy").graphs[0].num_edges == 1

    def test_whitespace_table_covers_str_split(self):
        # Every code point str.split() splits on lies inside the loader's table.
        spaces = [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert max(spaces) < data._CHAR_KIND.size - 1
        kinds = data._CHAR_KIND[spaces]
        assert set(kinds[np.array(spaces) != ord("\n")].tolist()) == {data._SPACE}


def assert_same_dataset(got, want):
    """Byte equality of every loaded array, with dtypes and shapes."""
    assert (got.name, got.num_classes, got.feature_dim, len(got.graphs)) == (
        want.name, want.num_classes, want.feature_dim, len(want.graphs))
    for a, b in zip(got.graphs, want.graphs):
        assert a.num_nodes == b.num_nodes
        assert a.label == b.label and type(a.label) is type(b.label)
        for field in ("indptr", "indices", "features"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), field
            assert x.tobytes() == y.tobytes(), field


SEPARATORS = [",", ", ", " ", "\t", " , ", ",,", ", \t ", "  "]
PADDING = ["", " ", "\t", "  "]


@st.composite
def tu_tables(draw):
    """Integer rows of the four TU files for a random dataset.

    Graph ids interleave in the indicator; edges may repeat, loop on one
    node or appear in one direction only; nodes may be isolated.
    """
    num_graphs = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=num_graphs, max_size=num_graphs))
    indicator = draw(st.permutations([g + 1 for g, k in enumerate(sizes) for _ in range(k)]))
    members = [[i + 1 for i, x in enumerate(indicator) if x == g + 1] for g in range(num_graphs)]
    edges = []
    for g, a, b, both in draw(st.lists(st.tuples(st.integers(0, num_graphs - 1),
                                                 st.integers(0, 5), st.integers(0, 5),
                                                 st.booleans()), max_size=20)):
        u, v = members[g][a % len(members[g])], members[g][b % len(members[g])]
        edges += [(u, v), (v, u)] if both else [(u, v)]
    labels = draw(st.lists(st.integers(-2, 3), min_size=num_graphs, max_size=num_graphs))
    node_labels = draw(st.none() | st.lists(st.integers(0, 3), min_size=len(indicator),
                                            max_size=len(indicator)))
    tables = {"A": [list(e) for e in draw(st.permutations(edges))],
              "graph_indicator": [[x] for x in indicator],
              "graph_labels": [[y] for y in labels]}
    if node_labels is not None:
        tables["node_labels"] = [[c] for c in node_labels]
    return tables


def render_lines(draw, rows, at=-1, kind=None):
    """Rows as text lines with drawn separators, padding and blank lines.

    Row ``at`` gets the corruption ``kind`` (see ``CORRUPTIONS``), if any.
    """
    lines = []
    for i, row in enumerate(rows):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(PADDING)))
        tokens = [str(x) for x in row]
        if i == at and kind == "bad-token":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(["x", "1.5", "--1", "0x1", "1-"]))
        elif i == at and kind == "extra-token":
            tokens.append("3")
        elif i == at and kind == "drop-token":
            tokens.pop()
        line = draw(st.sampled_from(SEPARATORS)).join(tokens)
        line = draw(st.sampled_from(PADDING)) + line + draw(st.sampled_from(PADDING))
        if i == at and kind == "leading-comma":
            line = "," + line
        elif i == at and kind == "trailing-comma":
            line += ","
        lines.append(line)
    return lines


def write_lines(directory, name, files, newline):
    for kind, lines in files.items():
        (directory / f"{name}_{kind}.txt").write_bytes(
            "".join(line + newline for line in lines).encode())


def load_both(directory, name):
    """Outcome of the package loader and of the reference: a Dataset or an error."""
    outcomes = []
    for loader in (load_tudataset, reference_load_tudataset):
        try:
            outcomes.append(loader(directory, name))
        except GraphDistillError as exc:
            outcomes.append(exc)
    return outcomes


# Corruptions of one line. Those marked True are accepted by the reference
# (it ignores extra tokens), but break the grammar the package loader checks.
CORRUPTIONS = {
    "bad-token": False, "extra-token": True, "drop-token": False, "leading-comma": False,
    "trailing-comma": False, "out-of-range": False, "cross-graph": False,
    "drop-line": False, "new-graph-id": False,
}


class TestLoaderOracle:
    @settings(max_examples=150, deadline=None)
    @given(tables=tu_tables(), newline=st.sampled_from(["\n", "\r\n"]), data_=st.data())
    def test_written_by_hand_matches_reference(self, tables, newline, data_):
        files = {kind: render_lines(data_.draw, rows) for kind, rows in tables.items()}
        with tempfile.TemporaryDirectory() as tmp:
            write_lines(Path(tmp), "fz", files, newline)
            got, want = load_both(tmp, "fz")
        assert isinstance(want, Dataset), want
        assert_same_dataset(got, want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_graphs=st.integers(1, 6),
           onehot=st.booleans())
    def test_saved_dataset_matches_reference(self, seed, num_graphs, onehot):
        rng = np.random.default_rng(seed)
        graphs = []
        for _ in range(num_graphs):
            g = random_er_graph(rng, int(rng.integers(1, 9)), p=0.3)
            feats = (np.eye(3)[rng.integers(0, 3, size=g.num_nodes)] if onehot
                     else np.ones((g.num_nodes, 1)))
            graphs.append(Graph(g.num_nodes, g.indptr, g.indices, feats, g.label))
        ds = Dataset(graphs, 2, graphs[0].features.shape[1], "saved")
        with tempfile.TemporaryDirectory() as tmp:
            save_tudataset(tmp, ds)
            got, want = load_both(tmp, "saved")
        assert_same_dataset(got, want)
        for a, b in zip(got.graphs, ds.graphs):
            np.testing.assert_array_equal(a.edge_pairs(), b.edge_pairs())

    @settings(max_examples=200, deadline=None)
    @given(tables=tu_tables(), kind=st.sampled_from(sorted(CORRUPTIONS)), data_=st.data())
    def test_corrupt_file_same_error_as_reference(self, tables, kind, data_):
        draw = data_.draw
        n = len(tables["graph_indicator"])
        target = {"drop-token": "A", "out-of-range": "A", "cross-graph": "A",
                  "new-graph-id": "graph_indicator"}.get(kind)
        target = target or draw(st.sampled_from(sorted(tables)))
        rows = tables[target]
        if kind == "out-of-range":
            rows.append([draw(st.sampled_from([0, -1, n + 1, n + 7])), 1])
        elif kind == "cross-graph":
            ids = [r[0] for r in tables["graph_indicator"]]
            other = [i + 1 for i, g in enumerate(ids) if g != ids[0]]
            if not other:
                return
            rows.append([1, draw(st.sampled_from(other))])
        elif kind == "new-graph-id":
            rows[draw(st.integers(0, n - 1))] = [max(r[0] for r in rows) + 1]
        elif kind == "drop-line" and rows:
            del rows[draw(st.integers(0, len(rows) - 1))]
        if not rows:
            return
        at = draw(st.integers(0, len(rows) - 1))
        files = {k: render_lines(draw, r, at if k == target else -1, kind)
                 for k, r in tables.items()}
        with tempfile.TemporaryDirectory() as tmp:
            write_lines(Path(tmp), "fz", files, "\n")
            got, want = load_both(tmp, "fz")
        if CORRUPTIONS[kind] or (kind == "trailing-comma" and target == "A"):
            assert isinstance(got, FormatError), got
        elif isinstance(want, Dataset):
            assert_same_dataset(got, want)
        else:
            assert type(got) is type(want), (got, want)


class TestRoundTrip:
    def test_save_and_reload_isomorphic(self, tmp_path):
        ds = two_class_structural(num_graphs=12, seed=3, min_nodes=5, max_nodes=12,
                                  name="rt")
        save_tudataset(tmp_path, ds)
        back = load_tudataset(tmp_path, "rt")
        assert len(back.graphs) == len(ds.graphs)
        assert back.num_classes == ds.num_classes
        assert back.feature_dim == ds.feature_dim
        for a, b in zip(ds.graphs, back.graphs):
            assert a.num_nodes == b.num_nodes
            assert a.label == b.label
            np.testing.assert_array_equal(a.edge_pairs(), b.edge_pairs())
            np.testing.assert_array_equal(a.features, b.features)


class TestDegreeOnehot:
    def test_onehot_positions(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2)])
        ds = Dataset([g], 1, 1, "t")
        out = degree_onehot_features(ds, 5)
        assert out.feature_dim == 6
        assert out.graphs[0].features[0, 3] == 1.0  # degree 3
        assert out.graphs[0].features[4, 0] == 1.0  # isolated node
        assert out.graphs[0].features.sum() == 5.0

    def test_clamp(self):
        g = build_graph(10, [(0, v) for v in range(1, 10)])  # hub of degree 9
        out = degree_onehot_features(Dataset([g], 1, 1, "t"), 5)
        assert out.graphs[0].features[0, 5] == 1.0

    def test_dataset_wide_max(self):
        g1 = build_graph(3, [(0, 1), (0, 2)])
        g2 = build_graph(2, [(0, 1)])
        ds = Dataset([g1, g2], 1, 1, "t")
        assert max_degree(ds) == 2
        out = degree_onehot_features(ds)
        assert out.feature_dim == 3


class TestStratifiedKFold:
    def test_balanced_two_class(self):
        graphs = [build_graph(2, [(0, 1)], label=i % 2) for i in range(10)]
        ds = Dataset(graphs, 2, 1, "t")
        folds = stratified_kfold(ds, 2, seed=0)
        all_test = np.concatenate([f.test_ids for f in folds])
        assert sorted(all_test.tolist()) == list(range(10))
        for f in folds:
            labels = ds.labels[f.test_ids]
            assert abs((labels == 0).sum() - (labels == 1).sum()) <= 1
            assert set(f.train_ids) | set(f.test_ids) == set(range(10))
            assert set(f.train_ids) & set(f.test_ids) == set()

    def test_per_class_counts_within_one(self):
        rng = np.random.default_rng(0)
        graphs = [build_graph(2, [(0, 1)], label=int(rng.integers(3))) for _ in range(47)]
        ds = Dataset(graphs, 3, 1, "t")
        k = 5
        folds = stratified_kfold(ds, k, seed=1)
        for c in range(3):
            total = int((ds.labels == c).sum())
            for f in folds:
                count = int((ds.labels[f.test_ids] == c).sum())
                assert abs(count - total / k) <= 1

    def test_deterministic(self):
        graphs = [build_graph(2, [(0, 1)], label=i % 2) for i in range(20)]
        ds = Dataset(graphs, 2, 1, "t")
        a = stratified_kfold(ds, 4, seed=7)
        b = stratified_kfold(ds, 4, seed=7)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.test_ids, fb.test_ids)
            np.testing.assert_array_equal(fa.train_ids, fb.train_ids)

    def test_small_class_rejected(self):
        graphs = [build_graph(2, [(0, 1)], label=(0 if i else 1)) for i in range(6)]
        ds = Dataset(graphs, 2, 1, "t")
        with pytest.raises(ConfigError, match="fewer than k"):
            stratified_kfold(ds, 3, seed=0)


class TestGraphInvariants:
    def test_feature_row_mismatch_rejected(self):
        with pytest.raises(IntegrityError):
            Graph.from_edges(3, [(0, 1)], np.ones((2, 1)), 0)

    def test_label_out_of_range_rejected(self):
        g = build_graph(2, [(0, 1)], label=5)
        with pytest.raises(IntegrityError):
            Dataset([g], 2, 1, "t")

    @pytest.mark.parametrize("indptr,indices,match", [
        ([0, 2, 5, 6], [1, 1, 0, 0, 2, 1], "distinct neighbors"),  # 0-1 stored twice
        ([0, 2, 4, 6], [2, 1, 0, 2, 0, 1], "distinct neighbors"),  # row 0 decreasing
        ([0, 1, 1, 3], [2, 1, 0], "distinct neighbors"),  # last row decreasing
        ([0, 2, 3, 4], [1, 2, 0, 0], None),  # sorted rows, no self loop
        ([0, 1, 3, 4], [0, 0, 2, 1], "self loop"),
        ([0, 2, 4, 4], [1, 1, 0, 1], "self loop"),
        ([1, 2, 4, 5], [1, 0, 2, 1], "indptr"),
        ([0, 2, 4, 5], [1, 0, 2, 1], "indptr"),
        ([0, 3, 2, 4], [1, 2, 0, 1], "indptr"),
        ([0, 2, 3, 4], [1, 2, 2, 1], "one direction only"),  # 1->0 and 2->0 missing
        ([0, 1, 2, 2], [1, 2], "one direction only"),  # a directed path 0->1->2
    ])
    def test_rows_must_be_strictly_increasing_without_self_loops(self, indptr, indices, match):
        args = (3, np.array(indptr), np.array(indices), np.eye(3), 0)
        if match is None:
            Graph(*args)
            return
        with pytest.raises(IntegrityError, match=match):
            Graph(*args)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(0, 5), max_size=5), min_size=6, max_size=6))
    def test_row_check_equals_per_row_loop(self, rows):
        indptr = np.cumsum([0] + [len(r) for r in rows])
        indices = np.array([v for r in rows for v in r], dtype=np.int64)
        simple = all(u not in r and all(a < b for a, b in zip(r, r[1:]))
                     and all(u in rows[v] for v in r) for u, r in enumerate(rows))
        try:
            Graph(6, indptr, indices, np.zeros((6, 1)), 0)
        except IntegrityError:
            assert not simple
        else:
            assert simple

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_symmetry_check_equals_edge_set(self, data):
        """Rows of an undirected edge set, with a few stored entries dropped:
        ``Graph`` accepts them exactly when every kept entry's reverse is kept."""
        n = data.draw(st.integers(2, 8))
        edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                  .filter(lambda e: e[0] < e[1])))
        entries = sorted(edges | {(v, u) for u, v in edges})
        dropped = data.draw(st.sets(st.sampled_from(entries), max_size=2)) if entries else set()
        kept = [e for e in entries if e not in dropped]
        indptr = np.cumsum([0] + [sum(1 for u, _ in kept if u == w) for w in range(n)])
        indices = np.array([v for _, v in kept], dtype=np.int64)
        args = (n, indptr, indices, np.zeros((n, 1)), 0)
        if any((v, u) in dropped for u, v in kept):
            with pytest.raises(IntegrityError, match="one direction only"):
                Graph(*args)
        else:
            assert Graph(*args).num_edges == len(kept) // 2

    def test_empty_and_edgeless_graphs_accepted(self):
        Graph(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, 2)), 0)
        Graph(4, np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((4, 2)), 0)
