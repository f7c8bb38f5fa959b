"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (dense matrices, brute-force
enumeration, finite differences) and shares no code with the package paths
it checks.
"""

import re
from pathlib import Path

import numpy as np

from graphdistill import autodiff as ad
from graphdistill.data import Dataset, Graph
from graphdistill.errors import FormatError, IntegrityError
from graphdistill.models import INFER, make_batch
from graphdistill.structure import ClusterAssignment

_SPLIT = re.compile(r"[,\s]+")


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central-difference gradients of a scalar loss wrt a dict of Tensors."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.values)
        flat = p.values.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(loss_fn().values)
            flat[i] = orig - step
            lo = float(loss_fn().values)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        grads[name] = g
    return grads


def assert_grads_close(analytic, numeric, rel_tol=1e-4, abs_floor=1e-6):
    for name, num in numeric.items():
        ana = analytic[name] if analytic[name] is not None else np.zeros_like(num)
        denom = np.maximum(np.abs(num), abs_floor)
        err = np.max(np.abs(ana - num) / denom)
        assert err < rel_tol, f"gradient mismatch for {name}: rel err {err:.3g}"


def autodiff_grads(loss_fn, params):
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    ad.backward(loss)
    return {name: p.grad for name, p in params.items()}


def all_partitions(n):
    """Every partition of range(n), via restricted growth strings."""
    assignment = [0] * n

    def rec(i, max_used):
        if i == n:
            yield list(assignment)
            return
        for c in range(max_used + 2):
            assignment[i] = c
            yield from rec(i + 1, max(max_used, c))

    yield from rec(0, -1)


def dense_adjacency(graph):
    a = np.zeros((graph.num_nodes, graph.num_nodes))
    for u in range(graph.num_nodes):
        for v in graph.neighbors(u):
            a[u, v] = 1.0
    return a


def dense_batch_adjacency(graphs):
    """Block-diagonal 0/1 adjacency of a list of graphs, in batch order."""
    n = sum(g.num_nodes for g in graphs)
    a = np.zeros((n, n))
    off = 0
    for g in graphs:
        a[off:off + g.num_nodes, off:off + g.num_nodes] = dense_adjacency(g)
        off += g.num_nodes
    return a


def reference_union(graphs):
    """Per-graph reference of a batch's union: node offsets, CSR, degrees and
    the graph of every node, built node by node."""
    offsets, indptr, indices, degrees, graph_of = [0], [0], [], [], []
    for i, g in enumerate(graphs):
        for u in range(g.num_nodes):
            row = [offsets[-1] + int(v) for v in g.neighbors(u)]
            indices.extend(row)
            indptr.append(indptr[-1] + len(row))
            degrees.append(len(row))
            graph_of.append(i)
        offsets.append(offsets[-1] + g.num_nodes)
    return {"node_offsets": offsets, "indptr": indptr, "indices": indices,
            "degrees": degrees, "graph_of_node": graph_of}


def dense_gcn_operator(a):
    """D^-1/2 (A + I) D^-1/2 with D the row sums of A + I."""
    a_hat = a + np.eye(a.shape[0])
    d = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return d[:, None] * a_hat * d[None, :]


def dense_normalized_laplacian(graph):
    """I - D^-1/2 A D^-1/2; isolated nodes keep a unit diagonal."""
    a = dense_adjacency(graph)
    deg = a.sum(axis=1)
    d = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    return np.eye(graph.num_nodes) - d[:, None] * a * d[None, :]


def dense_modularity(graph, assignment):
    """Q = tr(S^T B S) / 2m with B = A - k k^T / 2m."""
    a = dense_adjacency(graph)
    k = a.sum(axis=1)
    m2 = k.sum()
    if m2 == 0:
        return 0.0
    b = a - np.outer(k, k) / m2
    num_comm = int(max(assignment)) + 1
    s = np.zeros((graph.num_nodes, num_comm))
    s[np.arange(graph.num_nodes), assignment] = 1.0
    return float(np.trace(s.T @ b @ s) / m2)


def reference_modularity(graph, cluster_of):
    """Newman modularity of one graph, computed on that graph alone."""
    m2 = float(graph.indices.size)
    if m2 == 0.0:
        return 0.0
    src = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    internal = float(np.sum(cluster_of[src] == cluster_of[graph.indices]))
    tot = np.bincount(cluster_of, weights=graph.degrees.astype(np.float64))
    return internal / m2 - float(np.sum((tot / m2) ** 2))


def _reference_local_moves(adj, strength, m2, rng):
    """One Louvain phase: greedy single-node moves until no move improves."""
    n = len(adj)
    comm = list(range(n))
    tot = strength[:]
    moved_any = False
    while True:
        moved = 0
        for i in rng.permutation(n).tolist():
            ci = comm[i]
            k_i = strength[i]
            w_to = {}
            for j, w in adj[i].items():
                cj = comm[j]
                w_to[cj] = w_to.get(cj, 0.0) + w
            tot[ci] -= k_i
            # Scaled gain of joining community c: w(i,c) - k_i * tot_c / m2.
            best_c = ci
            best_gain = w_to.get(ci, 0.0) - k_i * tot[ci] / m2
            for c in sorted(w_to):
                if c == ci:
                    continue
                gain = w_to[c] - k_i * tot[c] / m2
                if gain > best_gain + 1e-12:
                    best_gain, best_c = gain, c
            tot[best_c] += k_i
            if best_c != ci:
                comm[i] = best_c
                moved += 1
        if moved == 0:
            break
        moved_any = True
    return comm, moved_any


def _reference_relabel(comm):
    """Make community ids contiguous, ordered by first occurrence."""
    mapping = {}
    for c in comm:
        if c not in mapping:
            mapping[c] = len(mapping)
    return [mapping[c] for c in comm], len(mapping)


def _reference_aggregate(adj, self_w, strength, comm, num_comms, m2):
    """The collapsed graph (adjacency, self weights, strengths) and the modularity of ``comm``."""
    new_adj = [dict() for _ in range(num_comms)]
    new_self = [0.0] * num_comms
    tot = [0.0] * num_comms
    for i, nbrs in enumerate(adj):
        ci = comm[i]
        new_self[ci] += self_w[i]
        tot[ci] += strength[i]
        row = new_adj[ci]
        for j, w in nbrs.items():
            cj = comm[j]
            if ci == cj:
                new_self[ci] += w  # each internal pair visited twice
            else:
                row[cj] = row.get(cj, 0.0) + w
    level = float(np.sum(np.array(new_self) / m2 - (np.array(tot) / m2) ** 2))
    strength = [s + sum(d.values()) for s, d in zip(new_self, new_adj)]
    return new_adj, new_self, strength, level


def reference_louvain_one(graph, seed):
    """Louvain on one graph, one node visit at a time, on Python dicts and lists.

    The sweeps run on Python floats (IEEE doubles, like float64). A graph
    without edges is all singletons and draws nothing from its generator.
    The final partition is scored with ``reference_modularity``.
    """
    n = graph.num_nodes
    m2 = float(graph.indices.size)
    if m2 == 0.0:
        return ClusterAssignment(np.arange(n), n, 0.0, [])

    rng = np.random.default_rng(seed)
    ptr, nbrs = graph.indptr.tolist(), graph.indices.tolist()
    adj = [dict.fromkeys(nbrs[ptr[i]:ptr[i + 1]], 1.0) for i in range(n)]
    self_w = [0.0] * n
    strength = graph.degrees.astype(np.float64).tolist()
    node_to_top = list(range(n))
    levels = []

    while True:
        comm, improved = _reference_local_moves(adj, strength, m2, rng)
        if not improved:
            break
        comm, num_comms = _reference_relabel(comm)
        node_to_top = [comm[c] for c in node_to_top]
        adj, self_w, strength, level = _reference_aggregate(adj, self_w, strength, comm,
                                                            num_comms, m2)
        levels.append(level)

    top, num_clusters = _reference_relabel(node_to_top)
    cluster_of = np.array(top, dtype=np.int64)
    return ClusterAssignment(
        cluster_of=cluster_of,
        num_clusters=num_clusters,
        modularity=reference_modularity(graph, cluster_of),
        level_modularity=levels,
    )


def best_partition_bruteforce(graph):
    best_q, best = -np.inf, None
    for assignment in all_partitions(graph.num_nodes):
        q = dense_modularity(graph, assignment)
        if q > best_q:
            best_q, best = q, assignment
    return best, best_q


def dense_ga_aggregate(graph, x):
    a = dense_adjacency(graph)
    deg = a.sum(axis=1)
    dinv = np.diag(np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0))
    return a @ dinv @ x


def reference_cache_teacher(checkpoint, dataset, struct_caches):
    """Every graph's frozen teacher outputs cut into arrays of its own: lists of
    logits [C], node embeddings [n, H], graph embeddings [H] and cluster embeddings
    [k, H], sliced out of batched inference over chunks of 256 graphs."""
    logits, node_emb, graph_emb, cluster_emb = [], [], [], []
    infer = INFER[checkpoint.config.kind]
    ids = np.arange(len(dataset.graphs))
    for start in range(0, ids.size, 256):
        chunk = ids[start:start + 256]
        graphs = [dataset.graphs[i] for i in chunk]
        clusters = [struct_caches[i].clusters for i in chunk]
        batch = make_batch(graphs, clusters=clusters)
        out = infer(batch, checkpoint.config, checkpoint.params)
        for j in range(chunk.size):
            lo, hi = batch.node_offsets[j], batch.node_offsets[j + 1]
            clo, chi = batch.cluster_offsets[j], batch.cluster_offsets[j + 1]
            logits.append(out.logits[j].copy())
            node_emb.append(out.node_embeddings[lo:hi].copy())
            graph_emb.append(out.graph_embedding[j].copy())
            cluster_emb.append(out.cluster_embeddings[clo:chi].copy())
    return logits, node_emb, graph_emb, cluster_emb


def reference_incremental_state(graph, base, removed, aggregate):
    """Initial incremental state, node by node: the neighbour sets of the
    present nodes, their sizes and, when ``aggregate``, each present node's
    sum of base[v] / deg(v) over those neighbours (zero rows otherwise)."""
    n = graph.num_nodes
    present = np.ones(n, dtype=bool)
    present[np.asarray(removed, dtype=np.int64)] = False
    adj = [set(int(v) for v in graph.neighbors(u) if present[v]) if present[u] else set()
           for u in range(n)]
    deg = np.array([len(s) for s in adj], dtype=np.float64)
    agg = np.zeros_like(base)
    if aggregate:
        safe = np.maximum(deg, 1.0)
        for u in range(n):
            if present[u] and adj[u]:
                nbrs = np.fromiter(adj[u], dtype=np.int64)
                agg[u] = (base[nbrs] / safe[nbrs, None]).sum(axis=0)
    return adj, deg, agg


def kl_divergence(p, q):
    mask = p > 0
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def softmax_np(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def path_kl_oracle(h_teacher, h_student, walks):
    """Direct per-walk KL summation, averaged over the walk collection."""
    if len(walks) == 0:
        return 0.0
    total = 0.0
    for walk in walks:
        nodes = np.asarray(walk)
        if nodes.size < 2:
            continue
        anchor = int(walk[0])
        p = softmax_np(h_teacher[nodes] @ h_teacher[anchor])
        q = softmax_np(h_student[nodes] @ h_student[anchor])
        total += kl_divergence(p, q)
    return total / len(walks)


def reference_walk_log_probs(H, walk_matrix):
    """Row-wise log-softmax over walk positions of the scores <H[walk[t]], H[walk[0]]>,
    one ``gather_rows`` per position (column 0 is the anchor's own score)."""
    anchors = ad.gather_rows(H, walk_matrix[:, 0])
    ones = ad.constant(np.ones((H.shape[1], 1)))
    cols = [
        ad.matmul(ad.mul(ad.gather_rows(H, walk_matrix[:, t]), anchors), ones)
        for t in range(walk_matrix.shape[1])
    ]
    return ad.log_softmax(ad.concat(cols, dim=1), dim=1)


def reference_inter_cluster(student, teacher, cluster_offsets, num_graphs, eps=1e-8):
    """The inter-cluster term in its dense masked form, and its gradient in the
    student, in closed form on plain numpy arrays.

    Both cosine kernels cover every pair of clusters in the batch; a 0/1 mask
    keeps each graph's diagonal block. With N the unit rows of X (rows of
    norm below ``eps`` divided by ``eps``), K = N N^T and
    L = ||(K_s - K_t) * mask||^2 / num_graphs, the gradient is
    dN = (D + D^T) N_s for D = 2 (K_s - K_t) * mask / num_graphs, and
    dX = dN / d - X (X . dN) / d^3, with the second term only where the norm
    exceeds ``eps``.
    """
    def unit(x):
        norm = np.sqrt((x ** 2).sum(axis=1, keepdims=True))
        return norm, np.maximum(norm, eps), x / np.maximum(norm, eps)

    graph_of = np.repeat(np.arange(num_graphs), np.diff(cluster_offsets))
    mask = (graph_of[:, None] == graph_of[None, :]).astype(np.float64)
    norm, denom, n_s = unit(student)
    n_t = unit(teacher)[2]
    gap = (n_s @ n_s.T - n_t @ n_t.T) * mask
    d = 2.0 * gap / num_graphs
    dn = (d + d.T) @ n_s
    dot = (dn * student).sum(axis=1, keepdims=True)
    grad = dn / denom - np.where(norm > eps, student * dot / denom ** 3, 0.0)
    return float((gap ** 2).sum()) / num_graphs, grad


def reference_sample_walks(graph, num_walks, walk_length, seed):
    """The walk matrix of ``sample_walks``, one ``Generator.integers`` call per draw."""
    rng = np.random.default_rng(seed)
    ptr, nbrs = graph.indptr.tolist(), graph.indices.tolist()
    walks = []
    for _ in range(num_walks):
        cur = int(rng.integers(graph.num_nodes))
        seq = [cur]
        for _ in range(walk_length):
            lo, hi = ptr[cur], ptr[cur + 1]
            if lo == hi:
                break
            cur = nbrs[lo + int(rng.integers(hi - lo))]
            seq.append(cur)
        walks.append(seq + [-1] * (walk_length + 1 - len(seq)))
    return np.array(walks, dtype=np.int64).reshape(num_walks, walk_length + 1)


def unpadded(walks):
    """Each row of a walk matrix without its ``-1`` padding."""
    return [row[row >= 0] for row in walks]


def full_walk_matrix(walks, walk_length):
    """Stack a pool's full-length walks (a list of variable-length walks).

    Returns the stacked matrix plus a pool-index -> matrix-row map (-1 for
    walks that ended early on an isolated start).
    """
    length = walk_length + 1
    full = [w for w in walks if w.size == length]
    row_of = np.full(len(walks), -1, dtype=np.int64)
    row = 0
    for i, w in enumerate(walks):
        if w.size == length:
            row_of[i] = row
            row += 1
    matrix = np.stack(full) if full else np.zeros((0, length), dtype=np.int64)
    return matrix, row_of


def mmd_poly_sq(h_a, h_b):
    """Squared MMD with the degree-2 homogeneous polynomial kernel.

    Reduces to the squared Frobenius distance of the two Gram matrices; an
    independent oracle for the inter-cluster loss on unit-normalized rows.
    """
    a = np.atleast_2d(np.asarray(h_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(h_b, dtype=np.float64))
    if a.shape[0] != b.shape[0]:
        raise IntegrityError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    ga = a @ a.T
    gb = b @ b.T
    return float(((ga - gb) ** 2).sum())


def random_connected_graph(n, rng, extra_edge_fraction=0.5):
    """Random tree plus extra edges; uniform random one-hot node types."""
    edges = [(int(rng.integers(v)), v) for v in range(1, n)]
    for _ in range(int(extra_edge_fraction * n)):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(v)))
    types = rng.integers(0, 4, size=n)
    return Graph.from_edges(n, edges, np.eye(4)[types], int(rng.integers(2)))


def random_er_graph(rng, n, p=0.3, feature_dim=3, allow_isolated=True):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    feats = rng.normal(size=(n, feature_dim))
    g = Graph.from_edges(n, edges, feats, int(rng.integers(2)))
    if not allow_isolated and n > 1:
        for u in range(n):
            if g.degrees[u] == 0:
                v = (u + 1) % n
                edges.append((u, v))
        g = Graph.from_edges(n, edges, feats, g.label)
    return g


def _read_int_lines(path: Path, what: str) -> list[list[int]]:
    if not path.is_file():
        raise FormatError(f"missing mandatory file for {what}: {path}")
    rows = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([int(tok) for tok in _SPLIT.split(line)])
            except ValueError as exc:
                raise FormatError(f"{path}: cannot parse line {line!r}") from exc
    return rows


def reference_load_tudataset(directory, name: str):
    """Line-by-line TU loader: the reference for ``data.load_tudataset``.

    Reads one line at a time, splits it with a regex and maps node ids
    through Python dicts and per-graph loops. It ignores extra tokens on a
    line, which the package loader rejects.
    """
    directory = Path(directory)
    indicator = _read_int_lines(directory / f"{name}_graph_indicator.txt", "graph indicator")
    graph_of_node = np.array([row[0] for row in indicator], dtype=np.int64)
    num_nodes_total = graph_of_node.size
    if num_nodes_total == 0:
        raise FormatError(f"{name}_graph_indicator.txt is empty")

    num_graphs = int(graph_of_node.max())
    present = np.unique(graph_of_node)
    if graph_of_node.min() < 1 or present.size != num_graphs:
        raise FormatError(f"{name}_graph_indicator.txt: graph ids must cover 1..{num_graphs}")

    label_rows = _read_int_lines(directory / f"{name}_graph_labels.txt", "graph labels")
    raw_labels = np.array([row[0] for row in label_rows], dtype=np.int64)
    if raw_labels.size != num_graphs:
        raise FormatError(
            f"{name}_graph_labels.txt has {raw_labels.size} labels for {num_graphs} graphs"
        )
    classes = np.unique(raw_labels)
    label_map = {int(c): i for i, c in enumerate(classes)}
    labels = np.array([label_map[int(c)] for c in raw_labels], dtype=np.int64)

    # Per-graph local ids, in file order.
    local_id = np.zeros(num_nodes_total, dtype=np.int64)
    sizes = np.zeros(num_graphs, dtype=np.int64)
    for node, gid in enumerate(graph_of_node):
        local_id[node] = sizes[gid - 1]
        sizes[gid - 1] += 1

    node_label_path = directory / f"{name}_node_labels.txt"
    if node_label_path.is_file():
        nl_rows = _read_int_lines(node_label_path, "node labels")
        node_labels = np.array([row[0] for row in nl_rows], dtype=np.int64)
        if node_labels.size != num_nodes_total:
            raise FormatError(
                f"{name}_node_labels.txt has {node_labels.size} rows for {num_nodes_total} nodes"
            )
        nl_classes = np.unique(node_labels)
        nl_map = {int(c): i for i, c in enumerate(nl_classes)}
        feature_dim = nl_classes.size
        features = np.zeros((num_nodes_total, feature_dim))
        for node, c in enumerate(node_labels):
            features[node, nl_map[int(c)]] = 1.0
    else:
        feature_dim = 1
        features = np.ones((num_nodes_total, 1))

    edges_per_graph: list[list[tuple[int, int]]] = [[] for _ in range(num_graphs)]
    a_path = directory / f"{name}_A.txt"
    if not a_path.is_file():
        raise FormatError(f"missing mandatory file for edges: {a_path}")
    with a_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            toks = _SPLIT.split(line)
            try:
                u, v = int(toks[0]), int(toks[1])
            except (ValueError, IndexError) as exc:
                raise FormatError(f"{a_path}:{lineno}: cannot parse edge {line!r}") from exc
            if not (1 <= u <= num_nodes_total) or not (1 <= v <= num_nodes_total):
                raise IntegrityError(
                    f"{a_path}:{lineno}: node {max(u, v)} not listed in graph indicator"
                )
            gu, gv = graph_of_node[u - 1], graph_of_node[v - 1]
            if gu != gv:
                raise IntegrityError(
                    f"{a_path}:{lineno}: edge ({u}, {v}) crosses graphs {gu} and {gv}"
                )
            edges_per_graph[gu - 1].append((int(local_id[u - 1]), int(local_id[v - 1])))

    graphs = []
    for g in range(num_graphs):
        # Rows in file order == local id order, even if graphs interleave.
        rows = np.flatnonzero(graph_of_node == g + 1)
        feat = features[rows].reshape(int(sizes[g]), feature_dim)
        graphs.append(Graph.from_edges(int(sizes[g]), edges_per_graph[g], feat, int(labels[g])))

    return Dataset(graphs=graphs, num_classes=classes.size, feature_dim=feature_dim, name=name)


def reference_preferential_attachment_edges(n, rng, extra_edges=0):
    """One ``Generator.choice`` call per node: the reference for
    ``synth.preferential_attachment_edges``, which must make the same draws."""
    edges = []
    degree = np.zeros(n)
    for v in range(1, n):
        weights = degree[:v] + 1.0
        u = int(rng.choice(v, p=weights / weights.sum()))
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    for _ in range(extra_edges):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(v)))
    return edges


def reference_from_edges(num_nodes, edges, features, label):
    """A Python set of (min, max) tuples: the reference for ``Graph.from_edges``
    on valid input."""
    pairs = set()
    for u, v in edges:
        if u == v:
            continue
        pairs.add((min(u, v), max(u, v)))
    if pairs:
        arr = np.array(sorted(pairs), dtype=np.int64)
        both = np.concatenate([arr, arr[:, ::-1]])
    else:
        both = np.zeros((0, 2), dtype=np.int64)
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    counts = np.bincount(both[:, 0], minlength=num_nodes)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return Graph(
        num_nodes=num_nodes,
        indptr=indptr,
        indices=both[:, 1].copy(),
        features=np.asarray(features, dtype=np.float64),
        label=int(label),
    )


def _reference_edge_pairs(graph):
    src = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    mask = src < graph.indices
    pairs = np.stack([src[mask], graph.indices[mask]], axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def reference_save_tudataset(directory, dataset):
    """One write per line: the reference for the bytes ``data.save_tudataset``
    writes (for datasets it accepts)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = dataset.name
    offsets = np.cumsum([0] + [g.num_nodes for g in dataset.graphs])

    with (directory / f"{name}_graph_indicator.txt").open("w") as fh:
        for gid, g in enumerate(dataset.graphs, start=1):
            fh.write(f"{gid}\n" * g.num_nodes)
    with (directory / f"{name}_graph_labels.txt").open("w") as fh:
        for g in dataset.graphs:
            fh.write(f"{g.label}\n")
    with (directory / f"{name}_A.txt").open("w") as fh:
        for gid, g in enumerate(dataset.graphs):
            base = offsets[gid] + 1
            for u, v in _reference_edge_pairs(g):
                fh.write(f"{base + u}, {base + v}\n")
                fh.write(f"{base + v}, {base + u}\n")

    stacked = np.concatenate([g.features for g in dataset.graphs], axis=0)
    is_onehot = np.all(np.isin(stacked, (0.0, 1.0))) and np.all(stacked.sum(axis=1) == 1.0)
    if is_onehot:
        with (directory / f"{name}_node_labels.txt").open("w") as fh:
            for row in stacked:
                fh.write(f"{int(np.argmax(row))}\n")
