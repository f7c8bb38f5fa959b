"""Dynamic-graph benchmark: sequential node removal/insertion on test
graphs, incremental student inference against full recomputation, and
robustness/latency metrics.

The incremental path maintains, per present node, its aggregated feature
row and its embedding through the student MLP; insertion updates only the
rows whose aggregation actually changes (the inserted node, its neighbors,
and their neighbors, since degree-normalized aggregation depends on
neighbor degrees).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Graph
from .errors import ConfigError, ContractError
from .models import (
    GcnConfig,
    GinConfig,
    INFER,
    StudentConfig,
    make_batch,
    student_embed_rows,
    student_infer,
    student_input,
    SUM,
)
from .structure import StructCache, ga_mlp_aggregate


@dataclass
class PerturbationTrace:
    """Removal plan for one graph; repetition r >= 1 redraws from (seed, r)."""

    graph_id: int
    removed_nodes: np.ndarray
    repetitions: int
    seed: int


def _draw_removal(num_nodes: int, num_remove: int, graph_id: int, seed: int,
                  repetition: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, graph_id, repetition]))
    return rng.choice(num_nodes, size=num_remove, replace=False)


def make_trace(graph: Graph, graph_id: int, num_remove: int = 10, repetitions: int = 20,
               seed: int = 0, max_fraction: float = 0.05) -> PerturbationTrace:
    """Plan ``repetitions`` random removals of ``num_remove`` distinct nodes."""
    n = graph.num_nodes
    if num_remove < 1:
        raise ConfigError(f"num_remove must be >= 1, got {num_remove}")
    if n - num_remove < 1:
        raise ConfigError(f"removing {num_remove} of {n} nodes leaves no graph")
    if num_remove > max(1, int(np.floor(max_fraction * n))):
        raise ConfigError(
            f"removing {num_remove} nodes exceeds the {max_fraction:.0%} cap for {n} nodes"
        )
    return PerturbationTrace(
        graph_id=graph_id,
        removed_nodes=_draw_removal(n, num_remove, graph_id, seed, 0),
        repetitions=repetitions,
        seed=seed,
    )


@dataclass
class StudentModel:
    config: StudentConfig
    params: dict[str, np.ndarray]


@dataclass
class TeacherModel:
    config: object  # GinConfig | GcnConfig
    params: dict[str, np.ndarray]


@dataclass
class IncrementalState:
    """Live state of one perturbed graph under a sum-readout student."""

    graph: Graph
    config: StudentConfig
    params: dict[str, np.ndarray]
    base: np.ndarray            # static per-node inputs: X [+ original lape]
    present: np.ndarray
    adj: list[set]
    deg: np.ndarray
    agg: np.ndarray             # aggregated block, rows valid where present
    emb: np.ndarray             # per-node embeddings, zero where absent
    pooled: np.ndarray
    uses_agg: bool

    def logits(self) -> np.ndarray:
        return self.pooled @ self.params["head.w"] + self.params["head.b"]


def _state_rows(state: IncrementalState, nodes: np.ndarray) -> np.ndarray:
    if state.uses_agg:
        return np.concatenate([state.base[nodes], state.agg[nodes]], axis=1)
    return state.base[nodes]


def init_incremental_state(graph: Graph, cache: StructCache, config: StudentConfig,
                           params: dict[str, np.ndarray],
                           removed: np.ndarray) -> IncrementalState:
    """Build the state for the graph with ``removed`` nodes (and their edges) gone.

    Surviving nodes keep the original graph's positional encodings; only the
    aggregated block reacts to topology changes.
    """
    if config.readout != SUM:
        raise ContractError("incremental inference requires sum readout")
    n = graph.num_nodes
    present = np.ones(n, dtype=bool)
    present[np.asarray(removed, dtype=np.int64)] = False
    base = graph.features
    if config.use_lape:
        base = np.concatenate([graph.features, cache.lape], axis=1)
    adj = [set(int(v) for v in graph.neighbors(u) if present[v]) if present[u] else set()
           for u in range(n)]
    deg = np.array([len(s) for s in adj], dtype=np.float64)
    agg = np.zeros_like(base)
    if config.kind == "ga-mlp":
        safe = np.maximum(deg, 1.0)
        for u in range(n):
            if present[u] and adj[u]:
                nbrs = np.fromiter(adj[u], dtype=np.int64)
                agg[u] = (base[nbrs] / safe[nbrs, None]).sum(axis=0)
    state = IncrementalState(
        graph=graph, config=config, params=params, base=base, present=present,
        adj=adj, deg=deg, agg=agg, emb=np.zeros((n, config.hidden)),
        pooled=np.zeros(config.hidden), uses_agg=config.kind == "ga-mlp",
    )
    alive = np.flatnonzero(present)
    if alive.size:
        state.emb[alive] = student_embed_rows(_state_rows(state, alive), config, params)
        state.pooled = state.emb[alive].sum(axis=0)
    return state


def _refresh_rows(state: IncrementalState, nodes) -> None:
    rows = np.array(sorted(nodes), dtype=np.int64)
    if rows.size == 0:
        return
    new = student_embed_rows(_state_rows(state, rows), state.config, state.params)
    state.pooled = state.pooled + (new - state.emb[rows]).sum(axis=0)
    state.emb[rows] = new


def incremental_insert(state: IncrementalState, node: int, neighbors) -> np.ndarray:
    """Insert ``node`` with edges to ``neighbors`` (all present); return logits.

    Cost is proportional to the work on affected rows (the node, its new
    neighbors, and their neighbors), never the graph size.
    """
    if state.present[node]:
        raise ContractError(f"node {node} is already present")
    nbrs = sorted(int(v) for v in neighbors)
    for v in nbrs:
        if v != node and not state.present[v]:
            raise ContractError(f"edge endpoint {v} is not present")
    changed = {node}
    if state.uses_agg:
        for v in nbrs:
            d_old = state.deg[v]
            d_new = d_old + 1.0
            if d_old > 0:
                delta = 1.0 / d_new - 1.0 / d_old
                for x in state.adj[v]:
                    state.agg[x] += state.base[v] * delta
                    changed.add(x)
    for v in nbrs:
        state.adj[v].add(node)
        state.adj[node].add(v)
        state.deg[v] += 1.0
        if state.uses_agg:
            changed.add(v)
    state.deg[node] = float(len(nbrs))
    if state.uses_agg:
        if nbrs:
            arr = np.array(nbrs, dtype=np.int64)
            for v in nbrs:
                state.agg[v] += state.base[node] / state.deg[node]
            state.agg[node] = (state.base[arr] / state.deg[arr, None]).sum(axis=0)
        else:
            state.agg[node] = 0.0
    state.present[node] = True
    _refresh_rows(state, changed)
    return state.logits()


def incremental_remove(state: IncrementalState, node: int) -> np.ndarray:
    """Remove ``node`` and its incident edges; exact inverse of insertion."""
    if not state.present[node]:
        raise ContractError(f"node {node} is not present")
    nbrs = sorted(state.adj[node])
    changed = set()
    if state.uses_agg and nbrs:
        for v in nbrs:
            state.agg[v] -= state.base[node] / state.deg[node]
    for v in nbrs:
        state.adj[v].discard(node)
        d_old = state.deg[v]
        d_new = d_old - 1.0
        if state.uses_agg and d_new > 0:
            delta = 1.0 / d_new - 1.0 / d_old
            for x in state.adj[v]:
                state.agg[x] += state.base[v] * delta
                changed.add(x)
        state.deg[v] = d_new
        if state.uses_agg:
            changed.add(v)
    state.adj[node] = set()
    state.deg[node] = 0.0
    state.agg[node] = 0.0
    state.present[node] = False
    state.pooled = state.pooled - state.emb[node]
    state.emb[node] = 0.0
    changed.discard(node)
    _refresh_rows(state, changed)
    return state.logits()


def _induced_subgraph(state: IncrementalState) -> tuple[Graph, np.ndarray]:
    """Present-node subgraph with original ids remapped, plus the id map."""
    alive = np.flatnonzero(state.present)
    remap = -np.ones(state.graph.num_nodes, dtype=np.int64)
    remap[alive] = np.arange(alive.size)
    # Neighbour sets hold only present nodes, and the id map is monotone, so
    # sorted original ids remap to the sorted CSR rows of the subgraph.
    rows = [sorted(state.adj[u]) for u in alive.tolist()]
    indptr = np.zeros(alive.size + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=indptr[-1])
    sub = Graph(alive.size, indptr, remap[flat], state.graph.features[alive], state.graph.label)
    return sub, alive


def full_student_logits(state: IncrementalState) -> np.ndarray:
    """From-scratch student forward on the current graph (the oracle path)."""
    sub, alive = _induced_subgraph(state)
    parts = [state.base[alive]]
    if state.uses_agg:
        parts.append(ga_mlp_aggregate(sub, state.base[alive]))
    rows = np.concatenate(parts, axis=1)
    out = student_infer(make_batch([sub], [rows]), state.config, state.params)
    return out.logits[0]


def full_teacher_logits(state: IncrementalState, teacher: TeacherModel) -> np.ndarray:
    sub, alive = _induced_subgraph(state)
    batch = make_batch([sub], [state.graph.features[alive]])
    out = INFER[teacher.config.kind](batch, teacher.config, teacher.params)
    return out.logits[0]


def shannon_entropy_bits(probabilities: np.ndarray) -> float:
    p = probabilities[probabilities > 0]
    return float(-(p * np.log2(p)).sum())


def _softmax_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def _score(logits: np.ndarray, reference_label: int, num_classes: int) -> tuple[float, float]:
    pred = int(np.argmax(logits))
    error = float(pred != reference_label)
    if error:
        entropy = float(np.log2(num_classes))
    else:
        entropy = shannon_entropy_bits(_softmax_np(logits))
    return error, entropy


@dataclass
class PerturbationMetrics:
    """Per-k metrics for one graph, averaged over trace repetitions."""

    student_error: np.ndarray
    student_entropy: np.ndarray
    teacher_error: np.ndarray
    teacher_entropy: np.ndarray


def perturb_and_score(graph: Graph, cache: StructCache, student: StudentModel,
                      teacher: TeacherModel, trace: PerturbationTrace) -> PerturbationMetrics:
    """Remove the trace's nodes, insert them back one at a time, score each k.

    The error reference is each engine's own prediction on the unperturbed
    graph. Student predictions come from the incremental state; teacher
    predictions from full recomputation.
    """
    num_classes = student.params["head.b"].size
    rows = student_input(graph, cache, student.config)
    orig_student = int(np.argmax(
        student_infer(make_batch([graph], [rows]), student.config, student.params).logits[0]
    ))
    full_batch = make_batch([graph])
    orig_teacher = int(np.argmax(
        INFER[teacher.config.kind](full_batch, teacher.config, teacher.params).logits[0]
    ))

    steps = trace.removed_nodes.size
    sums = np.zeros((4, steps + 1))
    for rep in range(trace.repetitions):
        removed = (trace.removed_nodes if rep == 0 else
                   _draw_removal(graph.num_nodes, steps, trace.graph_id, trace.seed, rep))
        state = init_incremental_state(graph, cache, student.config, student.params, removed)
        s_logits = state.logits()
        for k in range(steps + 1):
            if k > 0:
                node = int(removed[k - 1])
                present_nbrs = [v for v in graph.neighbors(node) if state.present[v]]
                s_logits = incremental_insert(state, node, present_nbrs)
            t_logits = full_teacher_logits(state, teacher)
            se, sh = _score(s_logits, orig_student, num_classes)
            te, th = _score(t_logits, orig_teacher, num_classes)
            sums[:, k] += (se, sh, te, th)
    sums /= trace.repetitions
    return PerturbationMetrics(*sums)


def aggregate_metrics(per_graph: list[PerturbationMetrics]) -> PerturbationMetrics:
    return PerturbationMetrics(
        student_error=np.mean([m.student_error for m in per_graph], axis=0),
        student_entropy=np.mean([m.student_entropy for m in per_graph], axis=0),
        teacher_error=np.mean([m.teacher_error for m in per_graph], axis=0),
        teacher_entropy=np.mean([m.teacher_entropy for m in per_graph], axis=0),
    )


@dataclass
class LatencyReport:
    """Per-insertion-step wall-clock, in milliseconds."""

    samples: dict[str, list[float]] = field(default_factory=dict)

    def add(self, engine: str, seconds: float) -> None:
        self.samples.setdefault(engine, []).append(seconds * 1e3)

    def summary(self) -> dict[str, dict[str, float]]:
        out = {}
        for engine, xs in self.samples.items():
            arr = np.array(xs)
            out[engine] = {
                "mean_ms": float(arr.mean()),
                "median_ms": float(np.median(arr)),
                "steps": int(arr.size),
            }
        return out


def time_inference(graphs: list[Graph], caches: list[StructCache], student: StudentModel,
                   teacher: TeacherModel, traces: list[PerturbationTrace],
                   warmup_steps: int = 3) -> LatencyReport:
    """Wall-clock per insertion step for the three inference engines.

    Subgraph extraction is kept out of the timed window for the two
    full-recompute engines, so their numbers are lower bounds and the
    incremental speedup is measured conservatively.
    """
    report = LatencyReport()
    teacher_infer = INFER[teacher.config.kind]
    for trace in traces:
        graph = graphs[trace.graph_id]
        cache = caches[trace.graph_id]
        state = init_incremental_state(graph, cache, student.config, student.params,
                                       trace.removed_nodes)
        for k, node in enumerate(trace.removed_nodes):
            node = int(node)
            present_nbrs = [v for v in graph.neighbors(node) if state.present[v]]
            t0 = time.perf_counter()
            incremental_insert(state, node, present_nbrs)
            t1 = time.perf_counter()

            sub, alive = _induced_subgraph(state)
            base_rows = state.base[alive]
            t2 = time.perf_counter()
            if state.uses_agg:
                rows = np.concatenate([base_rows, ga_mlp_aggregate(sub, base_rows)], axis=1)
            else:
                rows = base_rows
            student_infer(make_batch([sub], [rows]), state.config, state.params)
            t3 = time.perf_counter()

            teacher_batch = make_batch([sub], [state.graph.features[alive]])
            t4 = time.perf_counter()
            teacher_infer(teacher_batch, teacher.config, teacher.params)
            t5 = time.perf_counter()
            if k < warmup_steps:
                continue
            report.add("incremental_student", t1 - t0)
            report.add("full_student", t3 - t2)
            report.add("full_teacher", t5 - t4)
    return report
