"""Per-graph structural preprocessing, run once before any training.

Covers community detection (Louvain), Laplacian positional encodings,
random-walk pool generation and 1-hop degree-normalized feature
aggregation, plus a persisted per-dataset cache of all four.

Neighbourhood operators are symmetric ``scipy.sparse`` CSR matrices built
by ``csr_operator`` straight from a CSR adjacency: the plain adjacency
(GA-MLP aggregation here, GIN message passing in ``models``), the
normalized Laplacian (positional encodings) and the GCN propagation matrix
(``models``). Positional encodings use dense ``eigh`` up to
``DENSE_LAPE_MAX_NODES`` nodes and shift-invert ``eigsh`` above it.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .data import Dataset, Graph
from .errors import ContractError, FormatError

STRUCT_CACHE_FORMAT = "structcache/1"

# Largest graph whose positional encoding uses dense ``eigh``. Dense and
# shift-invert times cross near 200 nodes (sparse preferential-attachment
# graphs, one BLAS thread, 2-core x86_64 VM: 4.9 vs 4.7 ms at 192 nodes,
# 9.2 vs 4.8 ms at 256), and graphs up to here keep their dense encodings.
DENSE_LAPE_MAX_NODES = 200
# Shift just below the spectrum [0, 2] of the normalized Laplacian, so that
# L - sigma*I stays nonsingular and the eigenvalues nearest it are the smallest.
_EIGSH_SIGMA = -1e-3


@dataclass
class ClusterAssignment:
    """Partition of a graph's nodes into contiguous cluster indices."""

    cluster_of: np.ndarray
    num_clusters: int
    modularity: float
    level_modularity: list[float]


@dataclass
class WalkPool:
    """Precomputed random walks; each walk is start node + up to T steps."""

    walks: list[np.ndarray]
    walk_length: int
    seed: int


@dataclass
class StructCache:
    """All derived per-graph structure used by students and losses.

    ``lape`` holds the positional-encoding columns, ``agg_features`` the
    degree-normalized neighbor aggregation of concat(X, lape); slicing its
    first feature_dim columns recovers the aggregation of X alone.
    """

    clusters: ClusterAssignment
    lape: np.ndarray
    agg_features: np.ndarray
    walk_pool: WalkPool


def modularity(graph: Graph, cluster_of: np.ndarray) -> float:
    """Newman modularity of a partition of a simple unweighted graph."""
    m2 = float(graph.indices.size)
    if m2 == 0.0:
        return 0.0
    src = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    internal = float(np.sum(cluster_of[src] == cluster_of[graph.indices]))
    deg = graph.degrees.astype(np.float64)
    tot = np.bincount(cluster_of, weights=deg)
    return internal / m2 - float(np.sum((tot / m2) ** 2))


def _local_moves(adj: list[dict[int, float]], self_w: np.ndarray, strength: np.ndarray,
                 m2: float, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """One Louvain phase: greedy single-node moves until no move improves."""
    n = len(adj)
    comm = np.arange(n)
    tot = strength.copy()
    moved_any = False
    while True:
        moved = 0
        for i in rng.permutation(n):
            ci = comm[i]
            w_to: dict[int, float] = {}
            for j, w in adj[i].items():
                cj = comm[j]
                w_to[cj] = w_to.get(cj, 0.0) + w
            tot[ci] -= strength[i]
            # Scaled gain of joining community c: w(i,c) - k_i * tot_c / m2.
            best_c = ci
            best_gain = w_to.get(ci, 0.0) - strength[i] * tot[ci] / m2
            for c in sorted(w_to):
                if c == ci:
                    continue
                gain = w_to[c] - strength[i] * tot[c] / m2
                if gain > best_gain + 1e-12:
                    best_gain, best_c = gain, c
            tot[best_c] += strength[i]
            if best_c != ci:
                comm[i] = best_c
                moved += 1
        if moved == 0:
            break
        moved_any = True
    return comm, moved_any


def _relabel(comm: np.ndarray) -> tuple[np.ndarray, int]:
    """Make community ids contiguous, ordered by first occurrence."""
    mapping: dict[int, int] = {}
    out = np.empty_like(comm)
    for i, c in enumerate(comm):
        if c not in mapping:
            mapping[c] = len(mapping)
        out[i] = mapping[c]
    return out, len(mapping)


def _aggregate(adj, self_w, comm, num_comms):
    new_adj: list[dict[int, float]] = [dict() for _ in range(num_comms)]
    new_self = np.zeros(num_comms)
    for i, nbrs in enumerate(adj):
        ci = comm[i]
        new_self[ci] += self_w[i]
        for j, w in nbrs.items():
            cj = comm[j]
            if ci == cj:
                new_self[ci] += w  # each internal pair visited twice
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
    strength = new_self + np.array([sum(d.values()) for d in new_adj])
    return new_adj, new_self, strength


def _level_modularity(adj, self_w, strength, comm, m2: float) -> float:
    num = int(comm.max()) + 1
    internal = np.zeros(num)
    tot = np.zeros(num)
    for i, nbrs in enumerate(adj):
        ci = comm[i]
        internal[ci] += self_w[i]
        tot[ci] += strength[i]
        for j, w in nbrs.items():
            if comm[j] == ci:
                internal[ci] += w
    return float(np.sum(internal / m2 - (tot / m2) ** 2))


def louvain_cluster(graph: Graph, seed: int) -> ClusterAssignment:
    """Greedy modularity-maximizing clustering (Louvain).

    Deterministic for a given seed: the node visitation order of every
    local-move sweep is drawn from one seeded generator. Nodes without
    edges always end up in singleton clusters.
    """
    if graph.num_nodes < 1:
        raise ContractError("louvain_cluster needs at least one node")
    n = graph.num_nodes
    m2 = float(graph.indices.size)
    if m2 == 0.0:
        return ClusterAssignment(np.arange(n), n, 0.0, [])

    rng = np.random.default_rng(seed)
    adj: list[dict[int, float]] = [
        {int(j): 1.0 for j in graph.neighbors(i)} for i in range(n)
    ]
    self_w = np.zeros(n)
    strength = graph.degrees.astype(np.float64)
    node_to_top = np.arange(n)
    levels: list[float] = []

    while True:
        comm, improved = _local_moves(adj, self_w, strength, m2, rng)
        if not improved:
            break
        comm, num_comms = _relabel(comm)
        levels.append(_level_modularity(adj, self_w, strength, comm, m2))
        node_to_top = comm[node_to_top]
        adj, self_w, strength = _aggregate(adj, self_w, comm, num_comms)

    cluster_of, num_clusters = _relabel(node_to_top)
    return ClusterAssignment(
        cluster_of=cluster_of,
        num_clusters=num_clusters,
        modularity=modularity(graph, cluster_of),
        level_modularity=levels,
    )


def csr_operator(graph, edge_values: np.ndarray | None = None,
                 self_values: np.ndarray | None = None) -> sp.csr_array:
    """Symmetric n x n CSR matrix on the adjacency of ``graph``.

    ``graph`` is anything with ``num_nodes``, ``indptr`` and ``indices``
    (a ``Graph`` or a ``GraphBatch``). Edge slots hold ``edge_values``
    (ones by default), which must be symmetric in their endpoints. With
    ``self_values`` every row also gets a diagonal slot, placed ahead of
    its neighbours.
    """
    n = graph.num_nodes
    if edge_values is None:
        edge_values = np.ones(graph.indices.size)
    if self_values is None:
        return sp.csr_array((edge_values, graph.indices, graph.indptr), shape=(n, n))
    indptr = graph.indptr + np.arange(n + 1)
    slots = np.arange(graph.indices.size) + np.repeat(np.arange(1, n + 1), graph.degrees)
    indices = np.empty(indptr[-1], dtype=np.int64)
    values = np.empty(indptr[-1])
    indices[indptr[:-1]] = np.arange(n)
    values[indptr[:-1]] = self_values
    indices[slots] = graph.indices
    values[slots] = edge_values
    return sp.csr_array((values, indices, indptr), shape=(n, n))


def sparse_laplacian(graph: Graph) -> sp.csr_array:
    """Symmetric normalized Laplacian; isolated nodes keep a unit diagonal."""
    deg = graph.degrees
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))
    src = np.repeat(np.arange(graph.num_nodes), deg)
    return csr_operator(graph, -(inv_sqrt[src] * inv_sqrt[graph.indices]),
                        np.ones(graph.num_nodes))


def _smallest_eigenvectors(graph: Graph, count: int) -> np.ndarray:
    """The ``count`` lowest Laplacian eigenvectors, by ascending eigenvalue.

    Graphs up to ``DENSE_LAPE_MAX_NODES`` nodes, and requests for nearly
    the whole spectrum, use dense ``eigh``. Larger graphs use shift-invert
    Lanczos from a fixed start vector, so repeated calls are byte-identical.
    """
    n = graph.num_nodes
    lap = sparse_laplacian(graph)
    if n <= DENSE_LAPE_MAX_NODES or count >= n:
        return np.linalg.eigh(lap.toarray())[1][:, :count]
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    vals, vecs = eigsh(lap.tocsc(), k=count, sigma=_EIGSH_SIGMA, which="LM", v0=v0)
    return vecs[:, np.argsort(vals, kind="stable")]


def laplacian_pe(graph: Graph, k_pe: int) -> np.ndarray:
    """Positional encoding from the k_pe smallest non-trivial Laplacian eigenvectors.

    Only the lowest eigenvector is dropped as trivial. A graph with c
    connected components of two or more nodes has c zero eigenvalues, so
    its first c - 1 columns lie in their null space, spanned by the
    degree-scaled component indicators (isolated nodes have eigenvalue 1).
    Column signs are fixed deterministically: the entry of largest absolute
    value is made positive (lowest node index wins ties). When the graph has
    fewer than k_pe non-trivial eigenvectors the remaining columns are zero.
    """
    if k_pe < 1:
        raise ContractError(f"k_pe must be >= 1, got {k_pe}")
    n = graph.num_nodes
    out = np.zeros((n, k_pe))
    if n <= 1:
        return out
    avail = min(k_pe, n - 1)
    cols = _smallest_eigenvectors(graph, avail + 1)[:, 1:]
    for c in range(avail):
        col = cols[:, c]
        magnitude = np.abs(col)
        # Near-ties in |entry| resolve to the lowest node index.
        pivot = int(np.flatnonzero(magnitude >= magnitude.max() * (1.0 - 1e-12))[0])
        if col[pivot] < 0:
            col = -col
        out[:, c] = col
    return out


def sample_walks(graph: Graph, num_walks: int, walk_length: int, seed: int) -> WalkPool:
    """Uniform random walks: random start node, then T uniform neighbor steps.

    A walk starting on an isolated node is the singleton sequence. An empty
    pool (num_walks=0) is valid and contributes nothing downstream.
    """
    if walk_length < 1:
        raise ContractError(f"walk_length must be >= 1, got {walk_length}")
    rng = np.random.default_rng(seed)
    walks = []
    for _ in range(num_walks):
        cur = int(rng.integers(graph.num_nodes))
        seq = [cur]
        for _ in range(walk_length):
            nbrs = graph.neighbors(cur)
            if nbrs.size == 0:
                break
            cur = int(nbrs[rng.integers(nbrs.size)])
            seq.append(cur)
        walks.append(np.array(seq, dtype=np.int64))
    return WalkPool(walks=walks, walk_length=walk_length, seed=seed)


def ga_mlp_aggregate(graph: Graph, features: np.ndarray) -> np.ndarray:
    """1-hop aggregation X~ = A D^-1 X: each node sums x_v / deg(v) over neighbors."""
    if features.shape[0] != graph.num_nodes:
        raise ContractError(
            f"feature rows {features.shape[0]} != num_nodes {graph.num_nodes}"
        )
    deg = graph.degrees.astype(np.float64)
    return csr_operator(graph) @ (features / np.maximum(deg, 1.0)[:, None])


def default_num_walks(num_nodes: int) -> int:
    """Pool size heuristic: a quarter of the nodes, clamped to [4, 64]."""
    return int(np.clip(num_nodes // 4, 4, 64))


def _derived_seed(seed: int, graph_index: int, stream: int) -> int:
    ss = np.random.SeedSequence([seed, graph_index, stream])
    return int(ss.generate_state(1)[0])


def build_struct_cache(graph: Graph, graph_index: int, seed: int, k_pe: int = 8,
                       walk_length: int = 8, num_walks: int | None = None) -> StructCache:
    """Preprocess one graph; RNG streams derive from (seed, graph_index)."""
    clusters = louvain_cluster(graph, _derived_seed(seed, graph_index, 0))
    lape = laplacian_pe(graph, k_pe)
    base = np.concatenate([graph.features, lape], axis=1)
    agg = ga_mlp_aggregate(graph, base)
    count = default_num_walks(graph.num_nodes) if num_walks is None else num_walks
    pool = sample_walks(graph, count, walk_length, _derived_seed(seed, graph_index, 1))
    return StructCache(clusters=clusters, lape=lape, agg_features=agg, walk_pool=pool)


def build_struct_caches(dataset: Dataset, seed: int, k_pe: int = 8,
                        walk_length: int = 8, num_walks: int | None = None) -> list[StructCache]:
    return [
        build_struct_cache(g, i, seed, k_pe, walk_length, num_walks)
        for i, g in enumerate(dataset.graphs)
    ]


def save_struct_caches(path, caches: list[StructCache], dataset_name: str, seed: int) -> None:
    """Persist per-dataset caches as one .npz sidecar with a format tag."""
    first = caches[0].walk_pool.walk_length if caches else 0
    meta = {
        "format": STRUCT_CACHE_FORMAT,
        "dataset": dataset_name,
        "seed": seed,
        "num_graphs": len(caches),
        "walk_length": first,
    }
    arrays: dict[str, np.ndarray] = {"meta": np.str_(json.dumps(meta))}
    for i, c in enumerate(caches):
        walks = c.walk_pool.walks
        sizes = [w.size for w in walks]
        arrays[f"g{i}.cluster"] = c.clusters.cluster_of
        arrays[f"g{i}.levels"] = np.array(c.clusters.level_modularity)
        arrays[f"g{i}.modularity"] = np.asarray(c.clusters.modularity)
        arrays[f"g{i}.lape"] = c.lape
        arrays[f"g{i}.agg"] = c.agg_features
        arrays[f"g{i}.walks"] = (
            np.concatenate(walks) if walks else np.zeros(0, dtype=np.int64)
        )
        arrays[f"g{i}.woff"] = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        arrays[f"g{i}.wseed"] = np.asarray(c.walk_pool.seed)
    np.savez_compressed(path, **arrays)


def load_struct_caches(path) -> tuple[list[StructCache], dict]:
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"struct cache not found: {path}")
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not an .npz struct cache: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise FormatError(f"{path}: not an .npz struct cache")
    try:
        with data:
            meta = json.loads(str(data["meta"]))
            fmt = meta.get("format") if isinstance(meta, dict) else None
            if fmt != STRUCT_CACHE_FORMAT:
                raise FormatError(f"{path}: unsupported cache format {fmt!r}")
            caches = []
            for i in range(meta["num_graphs"]):
                cluster_of = data[f"g{i}.cluster"]
                flat = data[f"g{i}.walks"]
                off = data[f"g{i}.woff"]
                walks = [flat[a:b] for a, b in zip(off[:-1], off[1:])]
                caches.append(
                    StructCache(
                        clusters=ClusterAssignment(
                            cluster_of=cluster_of,
                            num_clusters=int(cluster_of.max()) + 1 if cluster_of.size else 0,
                            modularity=float(data[f"g{i}.modularity"]),
                            level_modularity=list(data[f"g{i}.levels"]),
                        ),
                        lape=data[f"g{i}.lape"],
                        agg_features=data[f"g{i}.agg"],
                        walk_pool=WalkPool(
                            walks=walks,
                            walk_length=meta["walk_length"],
                            seed=int(data[f"g{i}.wseed"]),
                        ),
                    )
                )
    except (KeyError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: not a struct cache: {exc}") from exc
    return caches, meta
