"""Output checks that do not trust the code under test.

Each check returns a list of failure messages; an empty list means the
output passed. Oracles are independent of the package: the Laplacian is
rebuilt with scipy.sparse and modularity comes from networkx.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp

LAPE_TOL = 1e-8
MODULARITY_TOL = 1e-9
INCREMENTAL_TOL = 1e-9


def normalized_laplacian(graph) -> sp.csr_matrix:
    """I - D^-1/2 A D^-1/2 as a sparse matrix; isolated nodes keep a unit diagonal."""
    n = graph.num_nodes
    deg = np.diff(graph.indptr).astype(np.float64)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    adj = sp.csr_matrix((np.ones(graph.indices.size), graph.indices, graph.indptr), shape=(n, n))
    scale = sp.diags(inv_sqrt)
    return (sp.identity(n, format="csr") - scale @ adj @ scale).tocsr()


def lape_failures(graph, lape: np.ndarray, k_pe: int) -> list[str]:
    """Invariants of the k smallest non-trivial Laplacian eigenvectors.

    Columns must be orthonormal, satisfy L v = lambda v with lambda = v'Lv
    in [0, 2], come in non-decreasing eigenvalue order, and be zero past
    the n - 1 available columns. Raw entries are not compared, because a
    degenerate eigenspace has no unique basis.
    """
    n = graph.num_nodes
    if lape.shape != (n, k_pe):
        return [f"lape shape {lape.shape}, expected {(n, k_pe)}"]
    avail = min(k_pe, max(n - 1, 0))
    out = []
    if np.any(lape[:, avail:] != 0.0):
        out.append("lape columns past the spectrum are not zero")
    if avail == 0:
        return out
    vecs = lape[:, :avail]
    gram_err = np.abs(vecs.T @ vecs - np.eye(avail)).max()
    if gram_err > LAPE_TOL:
        out.append(f"lape columns not orthonormal (max error {gram_err:.3g})")
    lv = normalized_laplacian(graph) @ vecs
    lam = (vecs * lv).sum(axis=0)
    residual = np.linalg.norm(lv - vecs * lam, axis=0).max()
    if residual > LAPE_TOL:
        out.append(f"lape eigen-residual {residual:.3g}")
    if lam.min() < -LAPE_TOL or lam.max() > 2.0 + LAPE_TOL:
        out.append(f"lape eigenvalues outside [0, 2]: {lam.min():.3g}..{lam.max():.3g}")
    if np.any(np.diff(lam) < -LAPE_TOL):
        out.append("lape eigenvalues not in non-decreasing order")
    return out


def modularity_failures(graph, clusters) -> list[str]:
    """The reported modularity must equal networkx's for the same partition."""
    if graph.num_edges == 0:
        expected = 0.0
    else:
        g = nx.Graph()
        g.add_nodes_from(range(graph.num_nodes))
        g.add_edges_from(graph.edge_pairs().tolist())
        members = [set() for _ in range(clusters.num_clusters)]
        for node, c in enumerate(clusters.cluster_of.tolist()):
            members[c].add(node)
        expected = nx.community.modularity(g, members)
    if abs(clusters.modularity - expected) > MODULARITY_TOL:
        return [f"modularity {clusters.modularity!r} != networkx {expected!r}"]
    return []


def sidecar_failures(built, loaded) -> list[str]:
    """A struct-cache read-back must equal what was built, array for array."""
    if len(built) != len(loaded):
        return [f"sidecar holds {len(loaded)} graphs, built {len(built)}"]
    out = []
    for i, (a, b) in enumerate(zip(built, loaded)):
        same = (
            np.array_equal(a.clusters.cluster_of, b.clusters.cluster_of)
            and a.clusters.num_clusters == b.clusters.num_clusters
            and a.clusters.modularity == b.clusters.modularity
            and list(a.clusters.level_modularity) == list(b.clusters.level_modularity)
            and np.array_equal(a.lape, b.lape)
            and np.array_equal(a.agg_features, b.agg_features)
            and a.walk_pool.walk_length == b.walk_pool.walk_length
            and a.walk_pool.seed == b.walk_pool.seed
            and len(a.walk_pool.walks) == len(b.walk_pool.walks)
            and all(np.array_equal(x, y) for x, y in zip(a.walk_pool.walks, b.walk_pool.walks))
        )
        if not same:
            out.append(f"graph {i}: sidecar read-back differs from the built cache")
    return out


def checkpoint_failures(saved, loaded) -> list[str]:
    """A teacher checkpoint must load back with its config and exact parameters."""
    if loaded.config != saved.config:
        return [f"checkpoint config {loaded.config} != {saved.config}"]
    if set(loaded.params) != set(saved.params):
        return ["checkpoint parameter names differ"]
    return [f"checkpoint parameter {k} differs" for k in saved.params
            if not np.array_equal(saved.params[k], loaded.params[k])]


def incremental_failures(incremental: np.ndarray, full: np.ndarray) -> list[str]:
    """Incremental logits must match a full recompute to 1e-9 of their scale."""
    scale = max(1.0, float(np.abs(full).max()))
    drift = float(np.abs(incremental - full).max())
    if not drift <= INCREMENTAL_TOL * scale:
        return [f"incremental logits drift {drift:.3g} from full recompute (scale {scale:.3g})"]
    return []
