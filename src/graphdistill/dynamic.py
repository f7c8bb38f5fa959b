"""Dynamic-graph benchmark: sequential node removal/insertion on test
graphs, incremental student inference against full recomputation, and
robustness/latency metrics.

The incremental path keeps, per present node, its sorted neighbour list,
aggregated feature row and embedding through the student MLP. Its initial
state comes from the graph's CSR masked to the present nodes, through the
``ga_mlp_aggregate`` the full path also uses. An update moves each
neighbor's degree through one reweight step and re-embeds only the rows
whose aggregation changes (the node, its neighbors, and theirs, since the
aggregation is normalized by neighbor degrees). Full recomputation runs a
forward from scratch on the present-node subgraph: the lists, remapped.
"""

from __future__ import annotations

import bisect
import itertools
import time
from dataclasses import astuple, dataclass, field

import numpy as np

from .data import Graph
from .errors import ConfigError, ContractError
from .models import (INFER, SUM, StudentConfig, make_batch, student_embed_rows, student_infer,
                     student_input)
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


def check_max_fraction(max_fraction: float) -> None:
    """The removal cap is a fraction of the graph in (0, 1]; NaN and inf are not."""
    if not 0.0 < max_fraction <= 1.0:
        raise ConfigError(f"max_fraction must be in (0, 1], got {max_fraction}")


def removal_misfit(num_nodes: int, num_remove: int, max_fraction: float) -> str | None:
    """Why ``num_remove`` removals do not fit a ``num_nodes``-node graph, or None."""
    if num_nodes - num_remove < 1:
        return f"removing {num_remove} of {num_nodes} nodes leaves no graph"
    if num_remove > max(1, int(max_fraction * num_nodes)):
        return (f"removing {num_remove} nodes exceeds the {max_fraction:.0%} cap "
                f"for {num_nodes} nodes")
    return None


def make_trace(graph: Graph, graph_id: int, num_remove: int = 10, repetitions: int = 20,
               seed: int = 0, max_fraction: float = 0.05) -> PerturbationTrace:
    """Plan ``repetitions`` random removals of ``num_remove`` distinct nodes."""
    if num_remove < 1:
        raise ConfigError(f"num_remove must be >= 1, got {num_remove}")
    check_max_fraction(max_fraction)
    misfit = removal_misfit(graph.num_nodes, num_remove, max_fraction)
    if misfit is not None:
        raise ConfigError(misfit)
    removed = _draw_removal(graph.num_nodes, num_remove, graph_id, seed, 0)
    return PerturbationTrace(graph_id, removed, repetitions, seed)


@dataclass
class StudentModel:
    config: StudentConfig
    params: dict[str, np.ndarray]


@dataclass
class TeacherModel:
    config: object  # models.GinConfig | models.GcnConfig
    params: dict[str, np.ndarray]


@dataclass
class IncrementalState:
    """Live state of one perturbed graph under a sum-readout student.

    ``adj``, ``deg`` and ``agg`` describe the present-node subgraph; rows of
    absent nodes are empty or zero. ``adj[u]`` holds u's neighbours in
    increasing order, and ``deg[u]`` is their count as a float. ``agg``
    stays zero for an MLP student.
    """

    graph: Graph
    config: StudentConfig
    params: dict[str, np.ndarray]
    base: np.ndarray            # static per-node inputs: X [+ original lape]
    present: np.ndarray
    adj: list[list[int]]
    deg: np.ndarray
    agg: np.ndarray             # aggregated block, rows valid where present
    emb: np.ndarray             # per-node embeddings, zero where absent
    pooled: np.ndarray

    def logits(self) -> np.ndarray:
        return self.pooled @ self.params["head.w"] + self.params["head.b"]


def _state_rows(state: IncrementalState, nodes: np.ndarray) -> np.ndarray:
    if state.config.kind == "ga-mlp":
        return np.concatenate([state.base[nodes], state.agg[nodes]], axis=1)
    return state.base[nodes]


def _checked_node(state: IncrementalState, node, present: bool) -> int:
    """``node`` as an int, after checking it is in the graph and ``present`` or not."""
    if not 0 <= node < state.graph.num_nodes:
        raise ContractError(f"node {node} is outside [0, {state.graph.num_nodes})")
    if state.present[node] != present:
        raise ContractError(f"node {node} is {'not' if present else 'already'} present")
    return int(node)


def init_incremental_state(graph: Graph, cache: StructCache, config: StudentConfig,
                           params: dict[str, np.ndarray],
                           removed: np.ndarray) -> IncrementalState:
    """Build the state for the graph with ``removed`` nodes (and their edges) gone.

    ``deg``, ``adj`` and ``agg`` (one ``ga_mlp_aggregate`` call) come from the
    CSR masked to edges between present nodes, whose rows ``Graph`` holds
    sorted and simple. Surviving nodes keep the original graph's positional
    encodings; only the aggregated block reacts to topology changes.
    """
    if config.readout != SUM:
        raise ContractError("incremental inference requires sum readout")
    n = graph.num_nodes
    removed = np.asarray(removed, dtype=np.int64)
    if removed.size and (removed.min() < 0 or removed.max() >= n):
        raise ContractError(f"removed node outside [0, {n})")
    src = np.repeat(np.arange(n), graph.degrees)
    present = np.ones(n, dtype=bool)
    present[removed] = False
    base = graph.features
    if config.use_lape:
        base = np.concatenate([graph.features, cache.lape], axis=1)
    keep = present[src] & present[graph.indices]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src[keep], minlength=n))])
    masked = Graph(n, indptr, graph.indices[keep], base, graph.label)
    bounds, flat = indptr.tolist(), masked.indices.tolist()
    state = IncrementalState(
        graph=graph, config=config, params=params, base=base, present=present,
        adj=[flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
        deg=masked.degrees.astype(np.float64),
        agg=ga_mlp_aggregate(masked, base) if config.kind == "ga-mlp" else np.zeros_like(base),
        emb=np.zeros((n, config.hidden)), pooled=np.zeros(config.hidden),
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


def _move_degree(state: IncrementalState, v: int, d_new: float, changed: set) -> None:
    """Set ``deg[v]`` to ``d_new``, reweighting v's share base[v] / deg[v] of
    the ``agg`` rows of its neighbours in ``adj[v]`` (one addition each, in
    any order); those rows join ``changed``."""
    d_old = state.deg[v]
    state.deg[v] = d_new
    if state.config.kind != "ga-mlp" or d_old == 0.0 or d_new == 0.0:
        return
    delta = state.base[v] * (1.0 / d_new - 1.0 / d_old)
    for x in state.adj[v]:
        state.agg[x] += delta
        changed.add(x)


def incremental_insert(state: IncrementalState, node: int, neighbors) -> np.ndarray:
    """Insert ``node`` with edges to ``neighbors`` (distinct, present); return logits.

    Cost is proportional to the work on affected rows (the node, its new
    neighbors, and their neighbors), never the graph size.
    """
    n = state.graph.num_nodes
    node = _checked_node(state, node, present=False)
    nbrs = sorted(int(v) for v in neighbors)
    if nbrs and (nbrs[0] < 0 or nbrs[-1] >= n):
        raise ContractError(f"neighbor of node {node} outside [0, {n})")
    if len(set(nbrs)) != len(nbrs):
        raise ContractError(f"neighbors of node {node} repeat")
    if node in nbrs:
        raise ContractError(f"node {node} lists itself as a neighbor")
    for v in nbrs:
        if not state.present[v]:
            raise ContractError(f"edge endpoint {v} is not present")
    changed = {node}
    for v in nbrs:
        _move_degree(state, v, state.deg[v] + 1.0, changed)
        bisect.insort(state.adj[v], node)
    state.adj[node] = nbrs
    state.deg[node] = float(len(nbrs))
    if state.config.kind == "ga-mlp":
        changed.update(nbrs)
        if nbrs:  # an absent node's agg row is already zero
            share = state.base[node] / state.deg[node]
            for v in nbrs:
                state.agg[v] += share
            arr = np.array(nbrs, dtype=np.int64)
            state.agg[node] = (state.base[arr] / state.deg[arr, None]).sum(axis=0)
    state.present[node] = True
    _refresh_rows(state, changed)
    return state.logits()


def incremental_remove(state: IncrementalState, node: int) -> np.ndarray:
    """Remove ``node`` and its incident edges; exact inverse of insertion."""
    node = _checked_node(state, node, present=True)
    nbrs = state.adj[node]
    changed = set()
    if state.config.kind == "ga-mlp" and nbrs:
        changed.update(nbrs)
        share = state.base[node] / state.deg[node]
        for v in nbrs:
            state.agg[v] -= share
    for v in nbrs:
        state.adj[v].remove(node)
        _move_degree(state, v, state.deg[v] - 1.0, changed)
    state.adj[node] = []
    state.deg[node] = 0.0
    state.agg[node] = 0.0
    state.present[node] = False
    state.pooled = state.pooled - state.emb[node]
    state.emb[node] = 0.0
    _refresh_rows(state, changed)
    return state.logits()


def _induced_subgraph(state: IncrementalState) -> tuple[Graph, np.ndarray]:
    """Present-node subgraph with original ids remapped, plus the id map."""
    alive = np.flatnonzero(state.present)
    remap = -np.ones(state.graph.num_nodes, dtype=np.int64)
    remap[alive] = np.arange(alive.size)
    # Neighbour lists are sorted and hold only present nodes, and the id map
    # is monotone, so they remap to the sorted CSR rows of the subgraph.
    rows = [state.adj[u] for u in alive.tolist()]
    indptr = np.zeros(alive.size + 1, dtype=np.int64)
    np.cumsum(state.deg[alive].astype(np.int64), out=indptr[1:])  # deg[u] == len(adj[u])
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=indptr[-1])
    sub = Graph(alive.size, indptr, remap[flat], state.graph.features[alive], state.graph.label)
    return sub, alive


def _student_logits(state: IncrementalState, sub: Graph, alive: np.ndarray) -> np.ndarray:
    """Student forward from scratch on the extracted present-node subgraph."""
    rows = state.base[alive]
    if state.config.kind == "ga-mlp":
        rows = np.concatenate([rows, ga_mlp_aggregate(sub, rows)], axis=1)
    return student_infer(make_batch([sub], [rows]), state.config, state.params).logits[0]


def _teacher_logits(teacher: TeacherModel, graph: Graph) -> np.ndarray:
    """Teacher forward from scratch on ``graph`` with its own features."""
    return INFER[teacher.config.kind](make_batch([graph]), teacher.config,
                                      teacher.params).logits[0]


def full_student_logits(state: IncrementalState) -> np.ndarray:
    """From-scratch student forward on the current graph (the oracle path)."""
    return _student_logits(state, *_induced_subgraph(state))


def full_teacher_logits(state: IncrementalState, teacher: TeacherModel) -> np.ndarray:
    return _teacher_logits(teacher, _induced_subgraph(state)[0])


def shannon_entropy_bits(probabilities: np.ndarray) -> float:
    p = probabilities[probabilities > 0]
    return float(-(p * np.log2(p)).sum())


def _softmax_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def _score(logits: np.ndarray, reference_label: int, num_classes: int) -> tuple[float, float]:
    if int(np.argmax(logits)) != reference_label:
        return 1.0, float(np.log2(num_classes))
    return 0.0, shannon_entropy_bits(_softmax_np(logits))


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
    batch = make_batch([graph], [student_input(graph, cache, student.config)])
    orig_student = int(np.argmax(student_infer(batch, student.config, student.params).logits[0]))
    orig_teacher = int(np.argmax(_teacher_logits(teacher, graph)))

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
    return PerturbationMetrics(*np.mean([astuple(m) for m in per_graph], axis=0))


@dataclass
class LatencyReport:
    """Per-insertion-step wall-clock in ms; the summary adds p95 and p99 tails."""

    samples: dict[str, list[float]] = field(default_factory=dict)

    def add(self, engine: str, seconds: float) -> None:
        self.samples.setdefault(engine, []).append(seconds * 1e3)

    def summary(self) -> dict[str, dict[str, float]]:
        return {engine: {"mean_ms": float(np.mean(xs)), "median_ms": float(np.median(xs)),
                         **{f"p{q}_ms": float(np.percentile(xs, q)) for q in (95, 99)},
                         "steps": len(xs)} for engine, xs in self.samples.items()}


# Insertion steps of each trace that ``time_inference`` runs but does not time.
WARMUP_STEPS = 3


def time_inference(graphs: list[Graph], caches: list[StructCache], student: StudentModel,
                   teacher: TeacherModel, traces: list[PerturbationTrace],
                   warmup_steps: int = WARMUP_STEPS) -> LatencyReport:
    """Wall-clock per insertion step for the three inference engines.

    The two full-recompute engines are timed on the cores behind
    ``full_student_logits`` and ``full_teacher_logits``: each window holds
    the input rows, ``make_batch`` and the forward. Subgraph extraction is
    kept out of both windows, so their numbers are lower bounds and the
    incremental speedup is measured conservatively.
    """
    report = LatencyReport()
    for trace in traces:
        graph = graphs[trace.graph_id]
        state = init_incremental_state(graph, caches[trace.graph_id], student.config,
                                       student.params, trace.removed_nodes)
        for k, node in enumerate(trace.removed_nodes):
            node = int(node)
            present_nbrs = [v for v in graph.neighbors(node) if state.present[v]]
            t0 = time.perf_counter()
            incremental_insert(state, node, present_nbrs)
            t1 = time.perf_counter()
            sub, alive = _induced_subgraph(state)
            t2 = time.perf_counter()
            _student_logits(state, sub, alive)
            t3 = time.perf_counter()
            _teacher_logits(teacher, sub)
            t4 = time.perf_counter()
            if k < warmup_steps:
                continue
            report.add("incremental_student", t1 - t0)
            report.add("full_student", t3 - t2)
            report.add("full_teacher", t4 - t3)
    return report
