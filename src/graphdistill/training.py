"""Teacher training, teacher-output caching, student distillation and learning
rate scheduling.

``sweep`` is the one student runner: distillation, the component ablation
and the loss-weight grid each train their arms of ``DistillWeights`` through
it, and ``distill_student`` is its one-arm case.

Evaluation protocol: folds carry train/test only; the best test accuracy
over epochs is reported per fold, and the plateau scheduler monitors the
same metric.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Adam
from .data import Dataset, FoldSplit
from .errors import ConfigError, IntegrityError, NumericError
from .losses import (
    DistillWeights,
    batch_ground_truth,
    batch_inter_cluster,
    batch_path_consistency,
    batch_soft_logits,
    batch_whole_graph,
    total_loss,
)
from .models import (
    FORWARD,
    INFER,
    INIT,
    GraphBatch,
    StudentConfig,
    init_linear_params,
    make_batch,
    params_to_arrays,
    student_forward,
    student_infer,
    student_input,
)
from .structure import StructCache


@dataclass
class RunConfig:
    """Every knob of a training/distillation run."""

    weights: DistillWeights = field(default_factory=DistillWeights)
    epochs: int = 350
    batch_size: int = 32
    lr: float = 8e-3
    lr_decay: float = 0.6
    lr_patience: int = 30
    seed: int = 0
    student_seeds: tuple = (0, 1, 2)
    walks_per_epoch: int | None = None
    temperature: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for name in ("lr", "temperature"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if self.walks_per_epoch is not None and self.walks_per_epoch < 1:
            raise ConfigError(f"walks_per_epoch must be None or >= 1, got {self.walks_per_epoch}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.lr_patience < 0:
            raise ConfigError(f"lr_patience must be >= 0, got {self.lr_patience}")
        if not self.student_seeds:
            raise ConfigError("student_seeds must hold at least one seed")
        if len(set(self.student_seeds)) != len(self.student_seeds):
            raise ConfigError(f"student_seeds repeats a seed: {tuple(self.student_seeds)}")
        if not self.lr_patience < self.epochs:
            raise ConfigError(
                f"lr_patience ({self.lr_patience}) must be < epochs ({self.epochs})"
            )


@dataclass
class FoldResult:
    fold_index: int
    seed: int
    best_test_accuracy: float
    epoch_of_best: int
    loss_curves: dict[str, list[float]]
    test_curve: list[float]
    wall_clock: float
    params: dict[str, np.ndarray] | None = field(default=None, repr=False)


@dataclass
class TeacherCheckpoint:
    fold_index: int
    config: object
    params: dict[str, np.ndarray]
    best_test_accuracy: float
    epoch_of_best: int
    train_accuracy: float


@dataclass
class TeacherCache:
    """Frozen per-graph teacher outputs, evaluated with dropout disabled."""

    fold_index: int
    logits: list[np.ndarray]
    node_embeddings: list[np.ndarray]
    graph_embeddings: list[np.ndarray]
    cluster_embeddings: list[np.ndarray]


class PlateauScheduler:
    """Multiply the optimizer lr by ``factor`` after ``patience`` epochs
    without improvement of the monitored (maximized) metric."""

    def __init__(self, optimizer: Adam, factor: float = 0.6, patience: int = 30):
        self.optimizer = optimizer
        self.factor = factor
        self.patience = patience
        self.best = -np.inf
        self.num_bad = 0
        self.lr_history: list[float] = []

    def step(self, metric: float) -> None:
        if metric > self.best:
            self.best = metric
            self.num_bad = 0
        else:
            self.num_bad += 1
            if self.num_bad > self.patience:
                self.optimizer.lr *= self.factor
                self.num_bad = 0
        self.lr_history.append(self.optimizer.lr)


class _Diverged(NumericError):
    """A training loss became non-finite."""


def _derived_rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def _chunks(ids: np.ndarray, size: int):
    for lo in range(0, ids.size, size):
        yield ids[lo : lo + size]


def _accuracy(infer_fn, batch: GraphBatch, config, params_np) -> float:
    out = infer_fn(batch, config, params_np)
    pred = np.argmax(out.logits, axis=1)
    return float((pred == batch.labels).mean())


def _fit_teacher(dataset: Dataset, fold: FoldSplit, config, run: RunConfig,
                 grid_index: int) -> TeacherCheckpoint:
    kind = config.kind
    rng_init = _derived_rng(run.seed, fold.fold_index, grid_index, 0)
    rng_shuffle = _derived_rng(run.seed, fold.fold_index, grid_index, 1)
    rng_dropout = _derived_rng(run.seed, fold.fold_index, grid_index, 2)
    params = INIT[kind](rng_init, dataset.feature_dim, config, dataset.num_classes)
    params_view = {k: p.values for k, p in params.items()}
    opt = Adam(params, run.lr)
    sched = PlateauScheduler(opt, run.lr_decay, run.lr_patience)

    test_batch = make_batch([dataset.graphs[i] for i in fold.test_ids])
    best_acc, best_epoch, best_params = -1.0, -1, None
    dropout_rng = rng_dropout if config.dropout > 0 else None

    for epoch in range(run.epochs):
        perm = rng_shuffle.permutation(fold.train_ids)
        for chunk in _chunks(perm, run.batch_size):
            batch = make_batch([dataset.graphs[i] for i in chunk])
            out = FORWARD[kind](batch, config, params, dropout_rng)
            loss = batch_ground_truth(out.logits, batch.labels)
            if not np.isfinite(loss.values):
                raise _Diverged(f"non-finite loss at epoch {epoch}")
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
        test_acc = _accuracy(INFER[kind], test_batch, config, params_view)
        if test_acc > best_acc:
            best_acc = test_acc
            best_epoch = epoch
            best_params = params_to_arrays(params)
        sched.step(test_acc)
    train_batch = make_batch([dataset.graphs[i] for i in fold.train_ids])
    return TeacherCheckpoint(
        fold_index=fold.fold_index,
        config=config,
        params=best_params,
        best_test_accuracy=best_acc,
        epoch_of_best=best_epoch,
        train_accuracy=_accuracy(INFER[kind], train_batch, config, best_params),
    )


def _teacher_task(args):
    dataset, fold, config, run, grid_index = args
    try:
        return fold.fold_index, grid_index, _fit_teacher(dataset, fold, config, run, grid_index)
    except _Diverged:
        return fold.fold_index, grid_index, None


def _parallel_map(fn, tasks, jobs: int):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def train_teacher(dataset: Dataset, folds: list[FoldSplit], grid: list,
                  run: RunConfig, jobs: int = 1) -> list[TeacherCheckpoint]:
    """Train every grid point on every fold; keep the best checkpoint per fold.

    A grid point whose loss diverges is recorded as failed and skipped;
    remaining points still compete for the fold.
    """
    tasks = [(dataset, fold, cfg, run, gi) for fold in folds for gi, cfg in enumerate(grid)]
    results = _parallel_map(_teacher_task, tasks, jobs)
    best: dict[int, TeacherCheckpoint] = {}
    for fold_index, _, ckpt in results:
        if ckpt is None:
            continue
        cur = best.get(fold_index)
        if cur is None or ckpt.best_test_accuracy > cur.best_test_accuracy:
            best[fold_index] = ckpt
    missing = [f.fold_index for f in folds if f.fold_index not in best]
    if missing:
        raise ConfigError(f"every grid point diverged for folds {missing}")
    return [best[f.fold_index] for f in folds]


def cache_teacher(checkpoint: TeacherCheckpoint, dataset: Dataset,
                  struct_caches: list[StructCache]) -> TeacherCache:
    """One frozen ForwardOutputs snapshot per graph, via the inference path."""
    if len(struct_caches) != len(dataset.graphs):
        raise IntegrityError(
            f"{len(struct_caches)} struct caches for {len(dataset.graphs)} graphs"
        )
    for i, (g, c) in enumerate(zip(dataset.graphs, struct_caches)):
        if c.clusters.cluster_of.size != g.num_nodes:
            raise IntegrityError(f"graph {i}: cluster assignment does not match node count")
    logits, node_emb, graph_emb, cluster_emb = [], [], [], []
    infer = INFER[checkpoint.config.kind]
    ids = np.arange(len(dataset.graphs))
    for chunk in _chunks(ids, 256):
        graphs = [dataset.graphs[i] for i in chunk]
        clusters = [struct_caches[i].clusters.cluster_of for i in chunk]
        batch = make_batch(graphs, cluster_ofs=clusters)
        out = infer(batch, checkpoint.config, checkpoint.params)
        for j, i in enumerate(chunk):
            lo, hi = batch.node_offsets[j], batch.node_offsets[j + 1]
            clo, chi = batch.cluster_offsets[j], batch.cluster_offsets[j + 1]
            logits.append(out.logits[j].copy())
            node_emb.append(out.node_embeddings[lo:hi].copy())
            graph_emb.append(out.graph_embedding[j].copy())
            cluster_emb.append(out.cluster_embeddings[clo:chi].copy())
    return TeacherCache(
        fold_index=checkpoint.fold_index,
        logits=logits,
        node_embeddings=node_emb,
        graph_embeddings=graph_emb,
        cluster_embeddings=cluster_emb,
    )


def _draw_walks(pool: np.ndarray, rng: np.random.Generator,
                limit: int | None) -> tuple[np.ndarray, int]:
    """Up to ``limit`` rows of a walk matrix in random order, and how many were drawn.

    Singleton rows (last entry -1) are dropped after the draw: they count in
    the number drawn, which the path-term weights divide by, but add no term.
    """
    take = len(pool) if limit is None else min(limit, len(pool))
    rows = pool[rng.permutation(len(pool))[:take]]
    return rows[rows[:, -1] >= 0], take


def _student_loss_parts(out, ids, batch, tcache: TeacherCache, walk_rows, walk_weights,
                        run: RunConfig, weights: DistillWeights) -> dict:
    zero = ad.constant(np.asarray(0.0))
    parts = {"gt": batch_ground_truth(out.logits, batch.labels), "sl": zero,
             "graph": zero, "cluster": zero, "path": zero}
    if weights.soft > 0:
        teacher_logits = np.stack([tcache.logits[i] for i in ids])
        parts["sl"] = batch_soft_logits(out.logits, teacher_logits, run.temperature)
    if weights.lam > 0:
        teacher_graph = np.stack([tcache.graph_embeddings[i] for i in ids])
        parts["graph"] = batch_whole_graph(out.graph_embedding, teacher_graph)
    if weights.mu > 0:
        teacher_clusters = np.concatenate([tcache.cluster_embeddings[i] for i in ids])
        parts["cluster"] = batch_inter_cluster(
            out.cluster_embeddings, teacher_clusters, batch.cluster_offsets, batch.num_graphs
        )
    if weights.eta > 0 and walk_rows.size:
        teacher_nodes = np.concatenate([tcache.node_embeddings[i] for i in ids])
        parts["path"] = batch_path_consistency(
            out.node_embeddings, teacher_nodes, walk_rows, walk_weights
        )
    return parts


def _fit_student(dataset: Dataset, fold: FoldSplit, struct_caches: list[StructCache],
                 inputs: list[np.ndarray], tcache: TeacherCache, scfg: StudentConfig,
                 run: RunConfig, weights: DistillWeights, seed: int,
                 capture_params: bool = False) -> FoldResult:
    t0 = time.perf_counter()
    rng_init = _derived_rng(run.seed, seed, fold.fold_index, 0)
    rng_shuffle = _derived_rng(run.seed, seed, fold.fold_index, 1)
    rng_dropout = _derived_rng(run.seed, seed, fold.fold_index, 2)
    rng_walks = _derived_rng(run.seed, seed, fold.fold_index, 3)
    dropout_rng = rng_dropout if scfg.dropout > 0 else None

    params = init_linear_params(rng_init, inputs[0].shape[1], scfg, dataset.num_classes)
    params_view = {k: p.values for k, p in params.items()}
    opt = Adam(params, run.lr)
    sched = PlateauScheduler(opt, run.lr_decay, run.lr_patience)
    test_batch = make_batch(
        [dataset.graphs[i] for i in fold.test_ids], [inputs[i] for i in fold.test_ids]
    )

    curves: dict[str, list[float]] = {k: [] for k in ("gt", "sl", "graph", "cluster", "path", "total")}
    test_curve: list[float] = []
    best_acc, best_epoch, best_params = -1.0, -1, None

    for epoch in range(run.epochs):
        epoch_walks = {}
        if weights.eta > 0:
            for gid in fold.train_ids:
                epoch_walks[gid] = _draw_walks(struct_caches[gid].walk_pool.walks, rng_walks,
                                               run.walks_per_epoch)

        sums = {k: 0.0 for k in curves}
        nbatches = 0
        perm = rng_shuffle.permutation(fold.train_ids)
        for chunk in _chunks(perm, run.batch_size):
            graphs = [dataset.graphs[i] for i in chunk]
            batch = make_batch(
                graphs,
                [inputs[i] for i in chunk],
                [struct_caches[i].clusters.cluster_of for i in chunk] if weights.mu > 0 else None,
            )
            if weights.eta > 0:
                rows, wts = [], []
                for j, gid in enumerate(chunk):
                    mat, taken = epoch_walks[gid]
                    if mat.shape[0]:
                        rows.append(mat + batch.node_offsets[j])
                        wts.append(np.full(mat.shape[0], 1.0 / (taken * len(chunk))))
                walk_rows = np.concatenate(rows) if rows else np.zeros((0, 0), dtype=np.int64)
                walk_weights = np.concatenate(wts) if wts else np.zeros(0)
            else:
                walk_rows, walk_weights = np.zeros((0, 0), dtype=np.int64), np.zeros(0)

            out = student_forward(batch, scfg, params, dropout_rng)
            parts = _student_loss_parts(out, chunk, batch, tcache, walk_rows, walk_weights, run, weights)
            loss = total_loss(parts, weights)
            if not np.isfinite(loss.values):
                raise _Diverged(f"non-finite student loss at epoch {epoch}")
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
            nbatches += 1
            for key in ("gt", "sl", "graph", "cluster", "path"):
                sums[key] += float(parts[key].values)
            sums["total"] += float(loss.values)

        for key in curves:
            curves[key].append(sums[key] / max(nbatches, 1))
        test_acc = _accuracy(student_infer, test_batch, scfg, params_view)
        test_curve.append(test_acc)
        if test_acc > best_acc:
            best_acc, best_epoch = test_acc, epoch
            if capture_params:
                best_params = params_to_arrays(params)
        sched.step(test_acc)

    return FoldResult(
        fold_index=fold.fold_index,
        seed=seed,
        best_test_accuracy=best_acc,
        epoch_of_best=best_epoch,
        loss_curves=curves,
        test_curve=test_curve,
        wall_clock=time.perf_counter() - t0,
        params=best_params,
    )


def _student_task(args):
    return _fit_student(*args)


def sweep(dataset: Dataset, folds: list[FoldSplit], struct_caches: list[StructCache],
          teacher_caches: dict[int, TeacherCache], scfg: StudentConfig, run: RunConfig,
          arms, jobs: int = 1, capture_params: bool = False) -> dict[str, list[FoldResult]]:
    """Train the student with each arm's loss weights on every fold, repeated over
    ``run.student_seeds``; ``run.weights`` is not read.

    ``arms`` maps a label to its ``DistillWeights``, as a dict or as (label,
    weights) pairs; a repeated label is a ``ConfigError``. Every graph's student
    input is built once, and every (arm, fold, seed) task goes to one
    ``_parallel_map``. Returns each arm's results in input order, fold-major.
    """
    pairs = list(arms.items() if isinstance(arms, dict) else arms)
    labels = [label for label, _ in pairs]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"repeated sweep arm labels {repeated}")
    if len(struct_caches) != len(dataset.graphs):
        raise ConfigError("struct caches missing: preprocess the dataset first")
    for fold in folds:
        if fold.fold_index not in teacher_caches:
            raise ConfigError(f"no teacher cache for fold {fold.fold_index}")
        teacher_hidden = teacher_caches[fold.fold_index].graph_embeddings[0].size
        if any(w.lam > 0 for _, w in pairs) and teacher_hidden != scfg.hidden:
            raise ConfigError(
                "whole-graph loss needs matching hidden sizes: "
                f"teacher {teacher_hidden}, student {scfg.hidden}"
            )
    inputs = [student_input(g, c, scfg) for g, c in zip(dataset.graphs, struct_caches)]
    tasks = [(dataset, fold, struct_caches, inputs, teacher_caches[fold.fold_index], scfg,
              run, weights, seed, capture_params)
             for _, weights in pairs for fold in folds for seed in run.student_seeds]
    results = _parallel_map(_student_task, tasks, jobs)
    per_arm = len(folds) * len(run.student_seeds)
    return {label: results[i * per_arm:(i + 1) * per_arm] for i, label in enumerate(labels)}


def distill_student(dataset: Dataset, folds: list[FoldSplit], struct_caches: list[StructCache],
                    teacher_caches: dict[int, TeacherCache], scfg: StudentConfig,
                    run: RunConfig, jobs: int = 1,
                    capture_params: bool = False) -> list[FoldResult]:
    """Train the student on every fold, repeated over run.student_seeds: a one-arm
    ``sweep`` over ``run.weights``."""
    return sweep(dataset, folds, struct_caches, teacher_caches, scfg, run,
                 {"run": run.weights}, jobs, capture_params)["run"]


def mean_accuracy(results: list[FoldResult]) -> float:
    return float(np.mean([r.best_test_accuracy for r in results]))


def std_accuracy(results: list[FoldResult]) -> float:
    return float(np.std([r.best_test_accuracy for r in results]))
