"""Teacher GNNs (GIN, GCN), student models (MLP, 1-hop GA-MLP) and readouts.

Each model has one forward, on the autodiff Tensor type, taking a
``GraphBatch``. Evaluation, teacher caching and the dynamic benchmark run
that same forward on constant parameters through ``INFER`` and
``student_infer``, which take and return plain numpy arrays; constants
record no tape. ``student_embed_rows`` is the one numpy-only path: the
per-row work unit of incremental inference. Teacher message passing is one
product with a symmetric ``csr.CsrOperator`` (``GraphBatch.adjacency`` for
GIN, ``GraphBatch.gcn_operator`` for GCN; ``csr`` says why it skips scipy's
constructor and which O(1) checks it keeps). A batch builds its union CSR
and these operators on first use, so student batches never build them.

``param_shapes`` is the single parameter layout of every model: ``init_params``
draws it, and checkpoint loading (``runio``) compares saved parameters with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .csr import CsrOperator
from .data import Graph
from .errors import ConfigError
from .structure import (ClusterAssignment, StructCache, check_struct_caches, csr_operator,
                        disjoint_union)

SUM = "sum"
ATTENTION = "attention"


def _check_layers(config) -> None:
    """Shared checks of every model config: layers, width, dropout and readout."""
    if config.num_layers < 1:
        raise ConfigError(f"num_layers must be >= 1, got {config.num_layers}")
    if config.hidden < 1:
        raise ConfigError(f"hidden must be >= 1, got {config.hidden}")
    if not 0.0 <= config.dropout < 1.0:
        raise ConfigError(f"dropout must be in [0, 1), got {config.dropout}")
    if config.readout not in (SUM, ATTENTION):
        raise ConfigError(f"unknown readout {config.readout!r}")


@dataclass
class GinConfig:
    num_layers: int = 3
    hidden: int = 64
    dropout: float = 0.0
    eps: float = 0.0  # weight on the node's own embedding, fixed (non-learnable)
    readout: str = SUM
    kind: str = field(default="gin", init=False)

    def __post_init__(self):
        _check_layers(self)
        if not np.isfinite(self.eps):
            raise ConfigError(f"eps must be finite, got {self.eps}")


@dataclass
class GcnConfig:
    num_layers: int = 3
    hidden: int = 64
    dropout: float = 0.0
    readout: str = SUM
    kind: str = field(default="gcn", init=False)

    def __post_init__(self):
        _check_layers(self)


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
        _check_layers(self)


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

    The union's CSR and its propagation operators are built on first use
    and kept, so paths that never propagate (the students) never build them.
    """

    num_nodes: int
    num_graphs: int
    graphs: list[Graph]
    features: np.ndarray
    graph_of_node: np.ndarray
    labels: np.ndarray
    node_offsets: np.ndarray
    cluster_of_node: Optional[np.ndarray] = None
    cluster_offsets: Optional[np.ndarray] = None
    num_clusters: int = 0

    @cached_property
    def _union(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return disjoint_union(self.graphs)

    indptr = property(lambda self: self._union[1])
    indices = property(lambda self: self._union[2])
    degrees = property(lambda self: self.indptr[1:] - self.indptr[:-1])

    @cached_property
    def adjacency(self) -> CsrOperator:
        """Symmetric 0/1 adjacency A of the whole batch (GIN)."""
        return csr_operator(self)

    @cached_property
    def gcn_operator(self) -> CsrOperator:
        """D^-1/2 (A + I) D^-1/2 with D the degrees plus one (GCN)."""
        deg_hat = self.degrees + 1.0
        inv_sqrt = 1.0 / np.sqrt(deg_hat)
        src = np.repeat(np.arange(self.num_nodes), self.degrees)
        return csr_operator(self, inv_sqrt[src] * inv_sqrt[self.indices], 1.0 / deg_hat)


def make_batch(graphs: list[Graph], feature_rows: list[np.ndarray] | None = None,
               clusters: list[ClusterAssignment] | None = None) -> GraphBatch:
    """Stack the node rows of ``graphs`` with segment bookkeeping, leaving the union
    CSR to first use; ``feature_rows``, one array per graph, replace their features,
    and ``clusters``, one assignment per graph, number the batch's clusters."""
    sizes = [g.num_nodes for g in graphs]
    node_offsets = np.cumsum([0] + sizes)
    rows = feature_rows if feature_rows is not None else [g.features for g in graphs]
    features = np.concatenate(rows, axis=0) if rows else np.zeros((0, 0))
    batch = GraphBatch(
        num_nodes=int(node_offsets[-1]),
        num_graphs=len(graphs),
        graphs=graphs,
        features=features,
        graph_of_node=np.repeat(np.arange(len(graphs)), sizes),
        labels=np.array([g.label for g in graphs], dtype=np.int64),
        node_offsets=node_offsets,
    )
    if clusters is not None:
        cluster_offsets = np.cumsum([0] + [c.num_clusters for c in clusters])
        batch.cluster_of_node = np.concatenate(
            [c.cluster_of + off for c, off in zip(clusters, cluster_offsets[:-1])]
        )
        batch.cluster_offsets = cluster_offsets
        batch.num_clusters = int(cluster_offsets[-1])
    return batch


def param_shapes(config, in_dim: int, num_classes: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in initialisation order: per layer a GIN
    update (``w1``, ``b1``, ``w2``, ``b2``) or one linear map (``w``, ``b``), then the
    head, then the gate (``pool.w``, ``pool.b``) of attention readout."""
    shapes, dim, h = {}, in_dim, config.hidden
    parts = ("1", "2") if config.kind == "gin" else ("",)
    for layer in range(config.num_layers):
        for part in parts:
            shapes[f"layer{layer}.w{part}"], shapes[f"layer{layer}.b{part}"] = (dim, h), (h,)
            dim = h
    shapes["head.w"], shapes["head.b"] = (h, num_classes), (num_classes,)
    if config.readout == ATTENTION:
        shapes["pool.w"], shapes["pool.b"] = (h, 1), (1,)
    return shapes


def init_params(rng: np.random.Generator, in_dim: int, config,
                num_classes: int) -> dict[str, Tensor]:
    """Glorot-uniform matrices and zero biases, drawn in ``param_shapes`` order."""
    params = {}
    for name, shape in param_shapes(config, in_dim, num_classes).items():
        limit = np.sqrt(6.0 / sum(shape))
        params[name] = ad.parameter(rng.uniform(-limit, limit, size=shape) if len(shape) == 2
                                    else np.zeros(shape))
    return params


init_gin_params = init_linear_params = init_params


def readout(H: Tensor, segment_ids: np.ndarray, num_segments: int, mode: str,
            params: dict[str, Tensor]) -> Tensor:
    """Permutation-invariant pooling of node embeddings per segment.

    Any mode but ``SUM`` is attention (configs admit no other): each node is gated
    by sigmoid(w.h + b) before summing, with one gate for graph and cluster calls.
    """
    if mode == SUM:
        return ad.segment_sum(H, segment_ids, num_segments)
    gate = ad.sigmoid(ad.linear(H, params["pool.w"], params["pool.b"]))
    tiled = ad.matmul(gate, ad.constant(np.ones((1, H.shape[1]))))
    return ad.segment_sum(ad.mul(tiled, H), segment_ids, num_segments)


def _dropout(h: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    if p <= 0.0 or rng is None:
        return h
    mask = (rng.random(h.shape) >= p) / (1.0 - p)
    return ad.mul(h, ad.constant(mask))


def _finish(batch: GraphBatch, H: Tensor, config, params) -> ForwardOutputs:
    pooled = readout(H, batch.graph_of_node, batch.num_graphs, config.readout, params)
    clusters = None
    if batch.cluster_of_node is not None:
        clusters = readout(H, batch.cluster_of_node, batch.num_clusters, config.readout, params)
    logits = ad.linear(pooled, params["head.w"], params["head.b"])
    return ForwardOutputs(H, pooled, clusters, logits)


def gin_forward(batch: GraphBatch, config: GinConfig, params: dict[str, Tensor],
                train_rng: np.random.Generator | None = None) -> ForwardOutputs:
    """Sum-aggregation message passing with a 2-layer MLP update per layer."""
    h = ad.constant(batch.features)
    for layer in range(config.num_layers):
        msg = ad.propagate(h, batch.adjacency)
        own = h if config.eps == 0.0 else ad.mul(h, 1.0 + config.eps)
        pre = ad.add(own, msg)
        a = ad.relu(ad.linear(pre, params[f"layer{layer}.w1"], params[f"layer{layer}.b1"]))
        h = ad.relu(ad.linear(a, params[f"layer{layer}.w2"], params[f"layer{layer}.b2"]))
        if layer < config.num_layers - 1:
            h = _dropout(h, config.dropout, train_rng)
    return _finish(batch, h, config, params)


def gcn_forward(batch: GraphBatch, config: GcnConfig, params: dict[str, Tensor],
                train_rng: np.random.Generator | None = None) -> ForwardOutputs:
    """Symmetric-normalized propagation with self-loops, one linear map per layer."""
    h = ad.constant(batch.features)
    for layer in range(config.num_layers):
        agg = ad.propagate(h, batch.gcn_operator)
        h = ad.relu(ad.linear(agg, params[f"layer{layer}.w"], params[f"layer{layer}.b"]))
        if layer < config.num_layers - 1:
            h = _dropout(h, config.dropout, train_rng)
    return _finish(batch, h, config, params)


def check_struct_cache(graph: Graph, cache: StructCache | None, config: StudentConfig) -> None:
    """``check_struct_caches`` of one graph; a student that reads ``lape`` or the
    GA-MLP block without a cache is a ``ConfigError``."""
    if cache is not None:
        check_struct_caches([graph], [cache])
    elif config.use_lape or config.kind == "ga-mlp":
        raise ConfigError("student needs a struct cache for ga-mlp inputs or lape")


def student_input(graph: Graph, cache: StructCache | None, config: StudentConfig) -> np.ndarray:
    """Assemble the per-node student input: X [, lape] [, aggregated block]."""
    check_struct_cache(graph, cache, config)
    parts = [graph.features]
    if config.use_lape:
        parts.append(cache.lape)
    if config.kind == "ga-mlp":
        if config.use_lape:
            parts.append(cache.agg_features)
        else:
            parts.append(cache.agg_features[:, : graph.features.shape[1]])
    return np.concatenate(parts, axis=1)


def student_forward(batch: GraphBatch, config: StudentConfig, params: dict[str, Tensor],
                    train_rng: np.random.Generator | None = None) -> ForwardOutputs:
    """Node-wise MLP over precomputed inputs; structure enters only via inputs."""
    h = ad.constant(batch.features)
    for layer in range(config.num_layers):
        h = ad.relu(ad.linear(h, params[f"layer{layer}.w"], params[f"layer{layer}.b"]))
        h = _dropout(h, config.dropout, train_rng)
    return _finish(batch, h, config, params)


def params_to_arrays(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {k: p.values.copy() for k, p in params.items()}


def student_embed_rows(rows: np.ndarray, config: StudentConfig,
                       params: dict[str, np.ndarray]) -> np.ndarray:
    """Node embeddings for raw input rows; the per-row work unit of inference."""
    h = rows
    for layer in range(config.num_layers):
        h = np.maximum(h @ params[f"layer{layer}.w"] + params[f"layer{layer}.b"], 0.0)
    return h


def _inference(forward):
    """``forward`` on numpy parameters, returning ForwardOutputs of numpy arrays.

    The parameters enter as constants, so the forward records no tape. The
    adapter holds ``forward`` itself rather than reading ``FORWARD``, so
    whatever wraps a training forward there does not see evaluation calls.
    """
    def infer(batch: GraphBatch, config, params: dict[str, np.ndarray]) -> ForwardOutputs:
        out = forward(batch, config, {k: ad.constant(v) for k, v in params.items()})
        clusters = out.cluster_embeddings
        return ForwardOutputs(out.node_embeddings.values, out.graph_embedding.values,
                              None if clusters is None else clusters.values, out.logits.values)
    return infer


FORWARD = {"gin": gin_forward, "gcn": gcn_forward}
INFER = {"gin": _inference(gin_forward), "gcn": _inference(gcn_forward)}
INIT = {"gin": init_params, "gcn": init_params}
student_infer = _inference(student_forward)
