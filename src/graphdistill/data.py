"""Graph data model, TUDataset-format ingestion, and stratified splitting.

Graphs are simple and undirected: no self-loops, no duplicate edges, both
directions of every edge stored in a compressed sparse row (CSR) adjacency.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, FormatError, IntegrityError

_SPLIT = re.compile(r"[,\s]+")


@dataclass
class Graph:
    """Immutable node/edge structure with node features and a class label.

    Attributes
    ----------
    num_nodes : int
        Number of nodes; node ids are 0..num_nodes-1.
    indptr, indices : np.ndarray
        CSR adjacency. ``indices[indptr[u]:indptr[u+1]]`` are the sorted
        neighbors of node ``u``; both directions of each edge are stored.
        An ``indptr`` that does not run monotone from 0 to ``indices.size``,
        a row that is not strictly increasing or holds ``u`` itself, or an
        edge stored in one direction only raises ``IntegrityError``.
    features : np.ndarray
        Node-feature matrix of shape [num_nodes, D], float64.
    label : int
        Class index in [0, num_classes).
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    label: int

    def __post_init__(self):
        n = self.num_nodes
        if self.indptr.shape != (n + 1,):
            raise IntegrityError(f"indptr shape {self.indptr.shape} for {n} nodes")
        if self.features.shape[0] != n:
            raise IntegrityError(
                f"feature rows {self.features.shape[0]} != num_nodes {n}"
            )
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise IntegrityError("edge endpoint outside [0, num_nodes)")
        # count_nonzero, not any(): a few us less on every graph and subgraph.
        degrees = self.degrees
        if (self.indptr[0] != 0 or self.indptr[-1] != self.indices.size
                or np.count_nonzero(degrees < 0)):
            raise IntegrityError(f"indptr does not run monotone from 0 to {self.indices.size}")
        src = np.repeat(np.arange(n), degrees)
        if np.count_nonzero(src == self.indices):
            raise IntegrityError("graph has a self loop")
        # One key per stored edge, src * n + dst: it rises strictly along
        # ``indices`` exactly when every row is strictly increasing.
        key = src * n + self.indices
        if np.count_nonzero(key[1:] <= key[:-1]):
            raise IntegrityError("graph rows must list distinct neighbors in increasing order")
        # Symmetric exactly when the reversed keys dst * n + src, sorted, are these keys.
        if np.count_nonzero(np.sort(self.indices * n + src) != key):
            raise IntegrityError("graph stores an edge in one direction only")

    @property
    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]  # np.diff, without its per-call overhead

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def edge_pairs(self) -> np.ndarray:
        """Undirected edges as an array of (u, v) with u < v, sorted."""
        # Rows run in node order and each is increasing, so the pairs come sorted.
        src = np.repeat(np.arange(self.num_nodes), self.degrees)
        mask = src < self.indices
        return np.stack([src[mask], self.indices[mask]], axis=1)

    @staticmethod
    def from_edges(num_nodes: int, edges, features: np.ndarray, label: int) -> "Graph":
        """Build a Graph from (u, v) pairs.

        ``edges`` is an (m, 2) integer array or any iterable of pairs of
        Python or numpy integers, in any order and orientation. Self-loops
        are dropped; duplicates are removed; the adjacency is symmetrized so
        (u, v) implies (v, u). A row that is not a pair, or an endpoint that
        is not an integer or lies outside [0, num_nodes), raises
        ``IntegrityError`` naming the first such pair.
        """
        pairs = _edge_array(num_nodes, edges)
        indptr, indices = _symmetric_csr(pairs[:, 0], pairs[:, 1], num_nodes)
        return Graph(
            num_nodes=num_nodes,
            indptr=indptr,
            indices=indices,
            features=np.asarray(features, dtype=np.float64),
            label=int(label),
        )


def _edge_array(num_nodes: int, edges) -> np.ndarray:
    """``edges`` as an (m, 2) int64 array of endpoints in [0, num_nodes).

    Input that numpy reads as an (m, 2) integer array is range-checked in
    one pass; anything else pair by pair. Either way the error names the
    first bad pair.
    """
    rows = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        arr = np.asarray(rows)
    except (ValueError, OverflowError):  # ragged rows, or ints beyond 64 bits
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        if len(rows) == 0:
            return np.zeros((0, 2), dtype=np.int64)
        for row in rows:
            _check_pair(num_nodes, row)
        arr = np.array([tuple(row) for row in rows], dtype=np.int64)
    bad = (arr < 0) | (arr >= num_nodes)
    if np.count_nonzero(bad):
        _check_pair(num_nodes, arr[np.argmax(bad.any(axis=1))].tolist())
    return arr.astype(np.int64, copy=False)


def _check_pair(num_nodes: int, row) -> None:
    """``IntegrityError`` unless ``row`` is a pair of integers in [0, num_nodes)."""
    pair = tuple(x.item() if isinstance(x, np.generic) else x
                 for x in (row if np.iterable(row) else (row,)))
    if len(pair) != 2:
        raise IntegrityError(f"edge {pair!r} is not a pair of endpoints")
    for x in pair:
        if isinstance(x, bool) or not isinstance(x, int):
            raise IntegrityError(f"edge {pair!r}: endpoint {x!r} is not an integer")
        if not 0 <= x < num_nodes:
            raise IntegrityError(
                f"edge {pair!r}: endpoint {x} outside [0, {num_nodes})")


def _symmetric_csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``indptr``, ``indices`` of the simple undirected graph on n nodes
    with edges src[i] -- dst[i]: self-loops dropped, duplicates and both
    orientations merged, each row sorted."""
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    loop = lo == hi
    keys = np.unique(lo[~loop] * n + hi[~loop])
    lo, hi = keys // n, keys % n
    both = np.sort(np.concatenate([keys, hi * n + lo]))
    indices = both % n
    indptr = np.concatenate([[0], np.cumsum(np.bincount(both // n, minlength=n))])
    return indptr, indices


@dataclass
class Dataset:
    """Ordered collection of graphs with shared label and feature spaces."""

    graphs: list[Graph]
    num_classes: int
    feature_dim: int
    name: str

    def __post_init__(self):
        for i, g in enumerate(self.graphs):
            if not 0 <= g.label < self.num_classes:
                raise IntegrityError(f"graph {i}: label {g.label} out of range")
            if g.features.shape[1] != self.feature_dim:
                raise IntegrityError(
                    f"graph {i}: feature dim {g.features.shape[1]} != {self.feature_dim}"
                )

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=np.int64)


@dataclass
class FoldSplit:
    """One fold of a stratified k-fold split over graph indices."""

    fold_index: int
    train_ids: np.ndarray
    test_ids: np.ndarray


# Character kinds of a TU text file, indexed by code point. The whitespace
# set is exactly what ``str.split()`` splits on (none lies above U+3000, so
# the last entry stands for every higher code point); ``\n`` ends a line.
_TOKEN, _SPACE, _COMMA, _NEWLINE = 0, 1, 2, 3
_CHAR_KIND = np.zeros(0x3002, dtype=np.int8)
_CHAR_KIND[[c for c in range(0x3001) if chr(c).isspace()]] = _SPACE
_CHAR_KIND[ord(",")] = _COMMA
_CHAR_KIND[ord("\n")] = _NEWLINE


def _commas_between_tokens(kind: np.ndarray) -> bool:
    """Whether every comma has a token before and after it on its own line."""
    events = kind[kind != _SPACE]
    comma = events == _COMMA
    comma[1:] &= ~comma[:-1]  # first comma of each run stands for the run
    events = np.concatenate([[_NEWLINE], events[comma | (events != _COMMA)], [_NEWLINE]])
    at = np.flatnonzero(events == _COMMA)
    return bool(np.all(events[at - 1] == _TOKEN) and np.all(events[at + 1] == _TOKEN))


def _bad_line(path: Path, text: str, width: int) -> FormatError:
    """The error for the first line of ``text`` that breaks the line grammar."""
    plural = "s" if width > 1 else ""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values = [int(tok) for tok in _SPLIT.split(line)]
        except ValueError:
            values = []
        if len(values) != width or not all(-(2**63) <= x < 2**63 for x in values):
            return FormatError(
                f"{path}:{lineno}: expected {width} integer{plural}, got {line!r}"
            )
    return FormatError(f"{path}: malformed integer table")


def _read_int_table(path: Path, width: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The [rows, width] int64 table of a TU text file and each row's line number.

    The file is read and tokenized in one pass; only when the grammar check
    fails is it scanned line by line, to name the first bad line.
    """
    if not path.is_file():
        raise FormatError(f"missing mandatory file for {what}: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file: {exc}") from exc
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    kind = _CHAR_KIND[np.minimum(codes, _CHAR_KIND.size - 1)]
    is_token = kind == _TOKEN
    starts = is_token.copy()
    starts[1:] &= ~is_token[:-1]
    per_line = np.bincount(np.cumsum(kind == _NEWLINE)[starts])
    row_lines = np.flatnonzero(per_line)
    if np.all(per_line[row_lines] == width) and _commas_between_tokens(kind):
        try:
            values = np.array(text.replace(",", " ").split(), dtype=np.int64)
        except (ValueError, OverflowError):
            values = None
        if values is not None and values.size == row_lines.size * width:
            return values.reshape(-1, width), row_lines + 1
    raise _bad_line(path, text, width)


def load_tudataset(directory, name: str) -> Dataset:
    """Load a dataset in TUDataset raw-file layout.

    Expects ``<name>_A.txt`` (edges, 1-indexed global node ids),
    ``<name>_graph_indicator.txt`` (graph id per node) and
    ``<name>_graph_labels.txt`` in ``directory``; ``<name>_node_labels.txt``
    is optional and, when present, is one-hot encoded into the feature
    matrix. Without node labels every node gets the constant feature [1].

    Line grammar, for every file: lines end at a newline (``\r\n`` and
    ``\r`` count as one); a line that is empty or all whitespace is skipped;
    any other line, stripped of surrounding whitespace, is exactly 2
    integers (``_A.txt``) or exactly 1 integer (the other files), separated
    by runs of commas and whitespace. An integer is what ``int()`` accepts
    and must fit in int64. A line that breaks the grammar raises
    ``FormatError`` naming ``path:line``.

    Node ids are remapped to 0-indexed per-graph ids, class labels to the
    contiguous range [0, K). Edges are deduplicated, symmetrized, and
    self-loops dropped.
    """
    directory = Path(directory)
    graph_of_node = _read_int_table(
        directory / f"{name}_graph_indicator.txt", 1, "graph indicator")[0][:, 0]
    num_nodes_total = graph_of_node.size
    if num_nodes_total == 0:
        raise FormatError(f"{name}_graph_indicator.txt is empty")

    num_graphs = int(graph_of_node.max())
    present = np.unique(graph_of_node)
    if graph_of_node.min() < 1 or present.size != num_graphs:
        raise FormatError(f"{name}_graph_indicator.txt: graph ids must cover 1..{num_graphs}")

    raw_labels = _read_int_table(
        directory / f"{name}_graph_labels.txt", 1, "graph labels")[0][:, 0]
    if raw_labels.size != num_graphs:
        raise FormatError(
            f"{name}_graph_labels.txt has {raw_labels.size} labels for {num_graphs} graphs"
        )
    classes, labels = np.unique(raw_labels, return_inverse=True)

    # Nodes renumbered graph by graph, in file order within each graph.
    order = np.argsort(graph_of_node, kind="stable")
    new_id = np.empty(num_nodes_total, dtype=np.int64)
    new_id[order] = np.arange(num_nodes_total)
    node_off = np.concatenate([[0], np.cumsum(np.bincount(graph_of_node - 1))])

    node_label_path = directory / f"{name}_node_labels.txt"
    if node_label_path.is_file():
        node_labels = _read_int_table(node_label_path, 1, "node labels")[0][:, 0]
        if node_labels.size != num_nodes_total:
            raise FormatError(
                f"{name}_node_labels.txt has {node_labels.size} rows for {num_nodes_total} nodes"
            )
        nl_classes, nl_index = np.unique(node_labels, return_inverse=True)
        feature_dim = nl_classes.size
        features = np.zeros((num_nodes_total, feature_dim))
        features[new_id, nl_index] = 1.0
    else:
        feature_dim = 1
        features = np.ones((num_nodes_total, 1))

    a_path = directory / f"{name}_A.txt"
    pairs, line_of = _read_int_table(a_path, 2, "edges")
    u, v = pairs[:, 0], pairs[:, 1]
    out_of_range = (u < 1) | (u > num_nodes_total) | (v < 1) | (v > num_nodes_total)
    gu = graph_of_node[np.clip(u, 1, num_nodes_total) - 1]
    gv = graph_of_node[np.clip(v, 1, num_nodes_total) - 1]
    bad = out_of_range | (gu != gv)
    if bad.any():
        r = int(np.argmax(bad))
        ur, vr = int(u[r]), int(v[r])
        if out_of_range[r]:
            raise IntegrityError(
                f"{a_path}:{line_of[r]}: node {max(ur, vr)} not listed in graph indicator"
            )
        raise IntegrityError(
            f"{a_path}:{line_of[r]}: edge ({ur}, {vr}) crosses graphs {gu[r]} and {gv[r]}"
        )

    # One global CSR over the renumbered ids: each graph's rows are contiguous.
    indptr, indices = _symmetric_csr(new_id[u - 1], new_id[v - 1], num_nodes_total)

    offs = node_off.tolist()
    edge_offs = indptr[node_off].tolist()
    graph_labels = labels.tolist()
    graphs = [
        Graph(
            num_nodes=offs[g + 1] - offs[g],
            indptr=indptr[offs[g]:offs[g + 1] + 1] - edge_offs[g],
            indices=indices[edge_offs[g]:edge_offs[g + 1]] - offs[g],
            features=features[offs[g]:offs[g + 1]],
            label=graph_labels[g],
        )
        for g in range(num_graphs)
    ]
    return Dataset(graphs=graphs, num_classes=classes.size, feature_dim=feature_dim, name=name)


def save_tudataset(directory, dataset: Dataset) -> None:
    """Write a dataset back out in TUDataset raw-file layout.

    Writes ``<name>_graph_indicator.txt`` (the 1-based graph id of every
    node), ``<name>_graph_labels.txt`` (one label per graph) and
    ``<name>_A.txt``: for each undirected edge u < v of each graph, in
    sorted order, the two lines ``"a, b"`` and ``"b, a"`` with a, b the
    1-based global ids of u, v. Every line ends in ``\n``. Node features
    are written as ``_node_labels.txt`` (the column of each row's 1) only
    when every row is one-hot; otherwise features are omitted (the format
    has no general feature file in the subset we support).

    A dataset with no graphs, or with a graph without nodes, raises
    ``ContractError`` before anything is written: ``load_tudataset`` could
    not read it back. Each file gets one write per graph.
    """
    if not dataset.graphs:
        raise ContractError(f"dataset {dataset.name!r} has no graphs to write")
    for gid, g in enumerate(dataset.graphs):
        if g.num_nodes == 0:
            raise ContractError(
                f"dataset {dataset.name!r}: graph {gid} has no nodes; TU files cannot hold it")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = dataset.name
    offsets = np.cumsum([0] + [g.num_nodes for g in dataset.graphs]).tolist()

    with (directory / f"{name}_graph_indicator.txt").open("w") as fh:
        for gid, g in enumerate(dataset.graphs, start=1):
            fh.write(f"{gid}\n" * g.num_nodes)
    with (directory / f"{name}_graph_labels.txt").open("w") as fh:
        for g in dataset.graphs:
            fh.write(f"{g.label}\n")
    with (directory / f"{name}_A.txt").open("w") as fh:
        for base, g in zip(offsets, dataset.graphs):
            pairs = g.edge_pairs() + (base + 1)
            lines = np.concatenate([pairs, pairs[:, ::-1]], axis=1)  # a, b, b, a
            fh.write("%d, %d\n" * (2 * len(pairs)) % tuple(lines.ravel().tolist()))

    stacked = np.concatenate([g.features for g in dataset.graphs], axis=0)
    is_onehot = np.all(np.isin(stacked, (0.0, 1.0))) and np.all(stacked.sum(axis=1) == 1.0)
    if is_onehot:
        node_labels = stacked.argmax(axis=1).tolist()
        with (directory / f"{name}_node_labels.txt").open("w") as fh:
            for lo, hi in zip(offsets[:-1], offsets[1:]):
                fh.write("%d\n" * (hi - lo) % tuple(node_labels[lo:hi]))


def max_degree(dataset: Dataset) -> int:
    """Largest node degree observed anywhere in the dataset."""
    return max(int(g.degrees.max()) if g.num_nodes else 0 for g in dataset.graphs)


def degree_onehot_features(dataset: Dataset, max_deg: int | None = None) -> Dataset:
    """Replace node features with one-hot encoded degrees.

    A node of degree d gets a 1 at index min(d, max_deg); the feature
    dimension becomes max_deg + 1. When ``max_deg`` is None the dataset-wide
    maximum degree is used, which loses no information.
    """
    if max_deg is None:
        max_deg = max_degree(dataset)
    if max_deg < 0:
        raise ConfigError(f"max_deg must be None or >= 0, got {max_deg}")
    graphs = []
    for g in dataset.graphs:
        feat = np.zeros((g.num_nodes, max_deg + 1))
        feat[np.arange(g.num_nodes), np.minimum(g.degrees, max_deg)] = 1.0
        graphs.append(Graph(g.num_nodes, g.indptr, g.indices, feat, g.label))
    return Dataset(graphs, dataset.num_classes, max_deg + 1, dataset.name)


def stratified_kfold(dataset: Dataset, k: int, seed: int) -> list[FoldSplit]:
    """Deterministic stratified k-fold split over graph indices.

    Folds are disjoint and exhaustive; per-class test counts differ by at
    most 1 across folds. Raises ConfigError when any class has fewer than k
    samples.
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    labels = dataset.labels
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(k)]
    for ci, c in enumerate(np.unique(labels)):
        members = np.flatnonzero(labels == c)
        if members.size < k:
            raise ConfigError(f"class {int(c)} has {members.size} samples, fewer than k={k}")
        members = members[rng.permutation(members.size)]
        # Start dealing at a class-dependent fold so remainders spread out.
        for j, idx in enumerate(members):
            fold_members[(ci + j) % k].append(int(idx))

    all_ids = np.arange(len(dataset.graphs))
    splits = []
    for f in range(k):
        test = np.array(sorted(fold_members[f]), dtype=np.int64)
        train = np.setdiff1d(all_ids, test)
        splits.append(FoldSplit(fold_index=f, train_ids=train, test_ids=test))
    return splits
