"""Teacher GNNs (GIN, GCN), student models (MLP, 1-hop GA-MLP) and readouts.

Training-time forwards run on the autodiff Tensor type; each model also has
a plain-numpy inference twin (``*_infer``) used for evaluation, teacher
caching and the dynamic benchmark. Teacher message passing is one product
with a symmetric CSR operator of the batch (``GraphBatch.adjacency`` for
GIN, ``GraphBatch.gcn_operator`` for GCN), built on first use, so a forward
and its twin multiply by the same matrix; the tests pin their agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .data import Graph
from .errors import ConfigError
from .structure import StructCache, csr_operator

SUM = "sum"
ATTENTION = "attention"


@dataclass
class GinConfig:
    num_layers: int = 3
    hidden: int = 64
    dropout: float = 0.0
    eps: float = 0.0  # weight on the node's own embedding, fixed (non-learnable)
    readout: str = SUM
    kind: str = field(default="gin", init=False)


@dataclass
class GcnConfig:
    num_layers: int = 3
    hidden: int = 64
    dropout: float = 0.0
    readout: str = SUM
    kind: str = field(default="gcn", init=False)


@dataclass
class StudentConfig:
    kind: str = "mlp"  # "mlp" or "ga-mlp"
    num_layers: int = 3
    hidden: int = 64
    dropout: float = 0.0
    use_lape: bool = False
    readout: str = SUM

    def __post_init__(self):
        if self.kind not in ("mlp", "ga-mlp"):
            raise ConfigError(f"unknown student kind {self.kind!r}")


@dataclass
class ForwardOutputs:
    """Node embeddings, pooled graph/cluster embeddings and class logits."""

    node_embeddings: object
    graph_embedding: object
    cluster_embeddings: object
    logits: object


@dataclass
class GraphBatch:
    """Disjoint union of graphs with segment indices for pooling.

    The propagation operators are built on first use and kept, so paths
    that never propagate (the students) never build them.
    """

    num_nodes: int
    num_graphs: int
    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    graph_of_node: np.ndarray
    labels: np.ndarray
    node_offsets: np.ndarray
    degrees: np.ndarray
    cluster_of_node: Optional[np.ndarray] = None
    cluster_offsets: Optional[np.ndarray] = None
    num_clusters: int = 0

    @cached_property
    def adjacency(self) -> sp.csr_array:
        """Symmetric 0/1 adjacency A of the whole batch (GIN)."""
        return csr_operator(self)

    @cached_property
    def gcn_operator(self) -> sp.csr_array:
        """D^-1/2 (A + I) D^-1/2 with D the degrees plus one (GCN)."""
        deg_hat = self.degrees + 1.0
        inv_sqrt = 1.0 / np.sqrt(deg_hat)
        src = np.repeat(np.arange(self.num_nodes), self.degrees)
        return csr_operator(self, inv_sqrt[src] * inv_sqrt[self.indices], 1.0 / deg_hat)


def make_batch(graphs: list[Graph], feature_rows: list[np.ndarray] | None = None,
               cluster_ofs: list[np.ndarray] | None = None) -> GraphBatch:
    """Merge graphs into one block-diagonal graph with segment bookkeeping."""
    sizes = [g.num_nodes for g in graphs]
    node_offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    degrees = np.concatenate([g.degrees for g in graphs])
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    indices = (
        np.concatenate([g.indices + off for g, off in zip(graphs, node_offsets[:-1])])
        if indptr[-1] > 0
        else np.zeros(0, dtype=np.int64)
    )
    rows = feature_rows if feature_rows is not None else [g.features for g in graphs]
    features = np.concatenate(rows, axis=0) if rows else np.zeros((0, 0))
    graph_of_node = np.repeat(np.arange(len(graphs)), sizes)
    batch = GraphBatch(
        num_nodes=int(node_offsets[-1]),
        num_graphs=len(graphs),
        indptr=indptr,
        indices=indices,
        features=features,
        graph_of_node=graph_of_node,
        labels=np.array([g.label for g in graphs], dtype=np.int64),
        node_offsets=node_offsets,
        degrees=degrees,
    )
    if cluster_ofs is not None:
        counts = [int(c.max()) + 1 if c.size else 0 for c in cluster_ofs]
        cluster_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        batch.cluster_of_node = np.concatenate(
            [c + off for c, off in zip(cluster_ofs, cluster_offsets[:-1])]
        )
        batch.cluster_offsets = cluster_offsets
        batch.num_clusters = int(cluster_offsets[-1])
    return batch


def single_batch(graph: Graph, features: np.ndarray | None = None,
                 cluster_of: np.ndarray | None = None) -> GraphBatch:
    rows = None if features is None else [features]
    clusters = None if cluster_of is None else [cluster_of]
    return make_batch([graph], rows, clusters)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _init_pool(params: dict, rng, hidden: int, readout: str) -> None:
    if readout == ATTENTION:
        params["pool.w"] = ad.parameter(_glorot(rng, hidden, 1))
        params["pool.b"] = ad.parameter(np.zeros(1))
    elif readout != SUM:
        raise ConfigError(f"unknown readout {readout!r}")


def init_gin_params(rng: np.random.Generator, in_dim: int, config: GinConfig,
                    num_classes: int) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    dim = in_dim
    for layer in range(config.num_layers):
        params[f"layer{layer}.w1"] = ad.parameter(_glorot(rng, dim, config.hidden))
        params[f"layer{layer}.b1"] = ad.parameter(np.zeros(config.hidden))
        params[f"layer{layer}.w2"] = ad.parameter(_glorot(rng, config.hidden, config.hidden))
        params[f"layer{layer}.b2"] = ad.parameter(np.zeros(config.hidden))
        dim = config.hidden
    params["head.w"] = ad.parameter(_glorot(rng, config.hidden, num_classes))
    params["head.b"] = ad.parameter(np.zeros(num_classes))
    _init_pool(params, rng, config.hidden, config.readout)
    return params


def init_gcn_params(rng: np.random.Generator, in_dim: int, config: GcnConfig,
                    num_classes: int) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    dim = in_dim
    for layer in range(config.num_layers):
        params[f"layer{layer}.w"] = ad.parameter(_glorot(rng, dim, config.hidden))
        params[f"layer{layer}.b"] = ad.parameter(np.zeros(config.hidden))
        dim = config.hidden
    params["head.w"] = ad.parameter(_glorot(rng, config.hidden, num_classes))
    params["head.b"] = ad.parameter(np.zeros(num_classes))
    _init_pool(params, rng, config.hidden, config.readout)
    return params


def init_student_params(rng: np.random.Generator, in_dim: int, config: StudentConfig,
                        num_classes: int) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    dim = in_dim
    for layer in range(config.num_layers):
        params[f"layer{layer}.w"] = ad.parameter(_glorot(rng, dim, config.hidden))
        params[f"layer{layer}.b"] = ad.parameter(np.zeros(config.hidden))
        dim = config.hidden
    params["head.w"] = ad.parameter(_glorot(rng, config.hidden, num_classes))
    params["head.b"] = ad.parameter(np.zeros(num_classes))
    _init_pool(params, rng, config.hidden, config.readout)
    return params


def readout(H: Tensor, segment_ids: np.ndarray, num_segments: int, mode: str,
            params: dict[str, Tensor]) -> Tensor:
    """Permutation-invariant pooling of node embeddings per segment.

    Attention mode gates each node by sigmoid(w.h + b) before summing; the
    gate parameters are shared between graph-level and cluster-level calls.
    """
    if mode == SUM:
        return ad.segment_sum(H, segment_ids, num_segments)
    if mode == ATTENTION:
        gate = ad.sigmoid(ad.add(ad.matmul(H, params["pool.w"]), params["pool.b"]))
        tiled = ad.matmul(gate, ad.constant(np.ones((1, H.shape[1]))))
        return ad.segment_sum(ad.mul(tiled, H), segment_ids, num_segments)
    raise ConfigError(f"unknown readout {mode!r}")


def _dropout(h: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    if p <= 0.0 or rng is None:
        return h
    mask = (rng.random(h.shape) >= p) / (1.0 - p)
    return ad.mul(h, ad.constant(mask))


def _as_batch(graph_or_batch, features=None, cluster_of=None) -> GraphBatch:
    if isinstance(graph_or_batch, GraphBatch):
        return graph_or_batch
    return single_batch(graph_or_batch, features, cluster_of)


def _finish(batch: GraphBatch, H: Tensor, config, params) -> ForwardOutputs:
    pooled = readout(H, batch.graph_of_node, batch.num_graphs, config.readout, params)
    clusters = None
    if batch.cluster_of_node is not None:
        clusters = readout(H, batch.cluster_of_node, batch.num_clusters, config.readout, params)
    logits = ad.add(ad.matmul(pooled, params["head.w"]), params["head.b"])
    return ForwardOutputs(H, pooled, clusters, logits)


def gin_forward(graph_or_batch, X=None, config: GinConfig = None, params=None,
                train_rng: np.random.Generator | None = None) -> ForwardOutputs:
    """Sum-aggregation message passing with a 2-layer MLP update per layer."""
    batch = _as_batch(graph_or_batch)
    h = X if isinstance(X, Tensor) else ad.constant(batch.features if X is None else X)
    for layer in range(config.num_layers):
        msg = ad.propagate(h, batch.adjacency)
        own = h if config.eps == 0.0 else ad.mul(h, 1.0 + config.eps)
        pre = ad.add(own, msg)
        a = ad.relu(ad.add(ad.matmul(pre, params[f"layer{layer}.w1"]), params[f"layer{layer}.b1"]))
        h = ad.relu(ad.add(ad.matmul(a, params[f"layer{layer}.w2"]), params[f"layer{layer}.b2"]))
        if layer < config.num_layers - 1:
            h = _dropout(h, config.dropout, train_rng)
    return _finish(batch, h, config, params)


def gcn_forward(graph_or_batch, X=None, config: GcnConfig = None, params=None,
                train_rng: np.random.Generator | None = None) -> ForwardOutputs:
    """Symmetric-normalized propagation with self-loops, one linear map per layer."""
    batch = _as_batch(graph_or_batch)
    h = X if isinstance(X, Tensor) else ad.constant(batch.features if X is None else X)
    for layer in range(config.num_layers):
        agg = ad.propagate(h, batch.gcn_operator)
        h = ad.relu(ad.add(ad.matmul(agg, params[f"layer{layer}.w"]), params[f"layer{layer}.b"]))
        if layer < config.num_layers - 1:
            h = _dropout(h, config.dropout, train_rng)
    return _finish(batch, h, config, params)


def student_input(graph: Graph, cache: StructCache | None, config: StudentConfig) -> np.ndarray:
    """Assemble the per-node student input: X [, lape] [, aggregated block]."""
    if (config.kind == "ga-mlp" or config.use_lape) and cache is None:
        raise ConfigError("student needs a struct cache for ga-mlp inputs or lape")
    parts = [graph.features]
    if config.use_lape:
        parts.append(cache.lape)
    if config.kind == "ga-mlp":
        if config.use_lape:
            parts.append(cache.agg_features)
        else:
            parts.append(cache.agg_features[:, : graph.features.shape[1]])
    return np.concatenate(parts, axis=1)


def student_forward(graph_or_batch, X=None, config: StudentConfig = None, params=None,
                    train_rng: np.random.Generator | None = None,
                    cache: StructCache | None = None) -> ForwardOutputs:
    """Node-wise MLP over precomputed inputs; structure enters only via inputs."""
    if isinstance(graph_or_batch, Graph) and X is None:
        X = student_input(graph_or_batch, cache, config)
        cluster_of = cache.clusters.cluster_of if cache is not None else None
        batch = single_batch(graph_or_batch, X, cluster_of)
        h = ad.constant(batch.features)
    else:
        batch = _as_batch(graph_or_batch)
        h = X if isinstance(X, Tensor) else ad.constant(batch.features if X is None else X)
    for layer in range(config.num_layers):
        h = ad.relu(ad.add(ad.matmul(h, params[f"layer{layer}.w"]), params[f"layer{layer}.b"]))
        h = _dropout(h, config.dropout, train_rng)
    return _finish(batch, h, config, params)


# ---------------------------------------------------------------------------
# Plain-numpy inference twins (evaluation / caching / latency paths).

def params_to_arrays(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {k: p.values.copy() for k, p in params.items()}


def _np_readout(H: np.ndarray, ids: np.ndarray, num: int, mode: str, params) -> np.ndarray:
    if mode == SUM:
        return ad.scatter_rows(num, ids, H)
    gate = 1.0 / (1.0 + np.exp(-(H @ params["pool.w"] + params["pool.b"])))
    return ad.scatter_rows(num, ids, gate * H)


def _np_finish(batch: GraphBatch, H: np.ndarray, config, params) -> ForwardOutputs:
    pooled = _np_readout(H, batch.graph_of_node, batch.num_graphs, config.readout, params)
    clusters = None
    if batch.cluster_of_node is not None:
        clusters = _np_readout(H, batch.cluster_of_node, batch.num_clusters, config.readout, params)
    logits = pooled @ params["head.w"] + params["head.b"]
    return ForwardOutputs(H, pooled, clusters, logits)


def gin_infer(batch: GraphBatch, config: GinConfig, params: dict[str, np.ndarray],
              X: np.ndarray | None = None) -> ForwardOutputs:
    h = batch.features if X is None else X
    for layer in range(config.num_layers):
        msg = batch.adjacency @ h
        pre = (1.0 + config.eps) * h + msg if config.eps != 0.0 else h + msg
        a = np.maximum(pre @ params[f"layer{layer}.w1"] + params[f"layer{layer}.b1"], 0.0)
        h = np.maximum(a @ params[f"layer{layer}.w2"] + params[f"layer{layer}.b2"], 0.0)
    return _np_finish(batch, h, config, params)


def gcn_infer(batch: GraphBatch, config: GcnConfig, params: dict[str, np.ndarray],
              X: np.ndarray | None = None) -> ForwardOutputs:
    h = batch.features if X is None else X
    for layer in range(config.num_layers):
        agg = batch.gcn_operator @ h
        h = np.maximum(agg @ params[f"layer{layer}.w"] + params[f"layer{layer}.b"], 0.0)
    return _np_finish(batch, h, config, params)


def student_embed_rows(rows: np.ndarray, config: StudentConfig,
                       params: dict[str, np.ndarray]) -> np.ndarray:
    """Node embeddings for raw input rows; the per-row work unit of inference."""
    h = rows
    for layer in range(config.num_layers):
        h = np.maximum(h @ params[f"layer{layer}.w"] + params[f"layer{layer}.b"], 0.0)
    return h


def student_infer(batch: GraphBatch, config: StudentConfig, params: dict[str, np.ndarray],
                  X: np.ndarray | None = None) -> ForwardOutputs:
    h = student_embed_rows(batch.features if X is None else X, config, params)
    return _np_finish(batch, h, config, params)


FORWARD = {"gin": gin_forward, "gcn": gcn_forward}
INFER = {"gin": gin_infer, "gcn": gcn_infer}
INIT = {"gin": init_gin_params, "gcn": init_gcn_params}
