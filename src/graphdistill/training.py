"""Teacher training, teacher-output caching and student distillation.

``sweep`` is the one student runner: distillation, the component ablation
and the loss-weight grid each train their arms of ``DistillWeights`` through
it, and ``distill_student`` is its one-arm case.

``_fit`` is the one epoch loop of teachers and students, and the place for
per-epoch telemetry and for model selection on a validation slice.

``cache_teacher`` packs a fold's frozen teacher outputs into one table of six
arrays (``TeacherCache``), and each student batch gathers its teacher targets
from it by graph id and by segment rows. Its offsets come from the node counts
and ``ClusterAssignment.num_clusters``. Both it and ``sweep`` take the fit of
struct caches to the dataset from ``structure.check_struct_caches``.

Evaluation protocol: folds carry train/test only; the best test accuracy
over epochs is reported per fold, and the same best-so-far record drives the lr
plateau: after more than ``lr_patience`` epochs in a row without a new best,
``_fit`` multiplies the lr by ``lr_decay`` and counts again from zero.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Adam
from .data import Dataset, FoldSplit
from .errors import ConfigError, NumericError
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
    init_params,
    make_batch,
    params_to_arrays,
    student_forward,
    student_infer,
    student_input,
)
from .structure import StructCache, check_struct_caches

log = logging.getLogger("graphdistill")


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
        for name, seeds in (("seed", (self.seed,)), ("student_seeds", self.student_seeds)):
            if min(seeds) < 0:
                raise ConfigError(f"{name} must be >= 0, got {min(seeds)}")
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
    """Frozen teacher outputs of every graph, evaluated with dropout disabled.

    Each field is one array packed over the graphs in dataset order: ``logits``
    [G, C] and ``graph_embeddings`` [G, H] hold a row per graph, and graph ``i``'s
    rows of ``node_embeddings`` [N, H] and ``cluster_embeddings`` [K, H] are
    ``node_offsets[i]:node_offsets[i + 1]`` and ``cluster_offsets[i]:cluster_offsets[i + 1]``.
    """

    fold_index: int
    logits: np.ndarray
    graph_embeddings: np.ndarray
    node_embeddings: np.ndarray
    cluster_embeddings: np.ndarray
    node_offsets: np.ndarray
    cluster_offsets: np.ndarray


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


def _fit(stage: str, fold: FoldSplit, seed: int, params: dict, run: RunConfig,
         rng_shuffle: np.random.Generator, epoch_losses, accuracy,
         keep_best: bool) -> FoldResult:
    """The one training loop of teachers and students.

    Each epoch shuffles ``fold.train_ids`` into batches; ``epoch_losses()``, called
    before the epoch's first batch, returns ``batch_loss(chunk) -> (loss, parts)``.
    Parts are averaged into ``loss_curves``; ``accuracy(params_view)`` scores the test
    fold after each epoch for the lr plateau and best epoch (params kept when ``keep_best``).
    """
    t0 = time.perf_counter()
    params_view = {k: p.values for k, p in params.items()}
    opt = Adam(params, run.lr)
    curves: dict[str, list[float]] = {}
    test_curve: list[float] = []
    best_acc, best_epoch, best_params, stale = -1.0, -1, None, 0

    for epoch in range(run.epochs):
        sums: dict[str, float] = {}
        chunks = _chunks(rng_shuffle.permutation(fold.train_ids), run.batch_size)
        batch_loss = epoch_losses()
        for nbatches, chunk in enumerate(chunks, 1):
            loss, parts = batch_loss(chunk)
            if not np.isfinite(loss.values):
                raise _Diverged(f"non-finite {stage} loss at epoch {epoch}")
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
            # A comprehension, so that no loop variable keeps this batch's tape alive.
            sums = {key: sums.get(key, 0.0) + float(part.values) for key, part in parts.items()}
            del loss, parts  # so that the next forward starts with no tape alive
        for key, total in sums.items():
            curves.setdefault(key, []).append(total / nbatches)
        test_acc = accuracy(params_view)
        test_curve.append(test_acc)
        if test_acc > best_acc:
            best_acc, best_epoch, stale = test_acc, epoch, 0
            if keep_best:
                best_params = params_to_arrays(params)
        else:
            stale += 1
            if stale > run.lr_patience:
                opt.lr *= run.lr_decay
                stale = 0

    return FoldResult(fold_index=fold.fold_index, seed=seed, best_test_accuracy=best_acc,
                      epoch_of_best=best_epoch, loss_curves=curves, test_curve=test_curve,
                      wall_clock=time.perf_counter() - t0, params=best_params)


def _fit_teacher(dataset: Dataset, fold: FoldSplit, config, run: RunConfig,
                 grid_index: int) -> TeacherCheckpoint:
    kind = config.kind
    rng_init, rng_shuffle, rng_dropout = (
        _derived_rng(run.seed, fold.fold_index, grid_index, k) for k in range(3))
    params = INIT[kind](rng_init, dataset.feature_dim, config, dataset.num_classes)
    test_batch = make_batch([dataset.graphs[i] for i in fold.test_ids])

    def batch_loss(chunk):
        batch = make_batch([dataset.graphs[i] for i in chunk])
        out = FORWARD[kind](batch, config, params, rng_dropout)
        loss = batch_ground_truth(out.logits, batch.labels)
        return loss, {"gt": loss}

    result = _fit("teacher", fold, run.seed, params, run, rng_shuffle, lambda: batch_loss,
                  lambda view: _accuracy(INFER[kind], test_batch, config, view), keep_best=True)
    train_batch = make_batch([dataset.graphs[i] for i in fold.train_ids])
    return TeacherCheckpoint(
        fold_index=fold.fold_index, config=config, params=result.params,
        best_test_accuracy=result.best_test_accuracy, epoch_of_best=result.epoch_of_best,
        train_accuracy=_accuracy(INFER[kind], train_batch, config, result.params))


def _teacher_task(dataset, fold, config, run, grid_index):
    try:
        return fold.fold_index, grid_index, _fit_teacher(dataset, fold, config, run, grid_index)
    except _Diverged as exc:
        return fold.fold_index, grid_index, str(exc)


def _parallel_map(fn, tasks, jobs: int):
    """``fn(*task)`` for every task, in a process pool when ``jobs`` > 1."""
    if jobs <= 1:
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def train_teacher(dataset: Dataset, folds: list[FoldSplit], grid: list,
                  run: RunConfig, jobs: int = 1) -> list[TeacherCheckpoint]:
    """Train every grid point on every fold; keep the best checkpoint per fold.

    A diverged grid point is skipped. A fold that lost some of its points logs
    one warning naming them and their epochs; one that lost all is a ``ConfigError``.
    """
    tasks = [(dataset, fold, cfg, run, gi) for fold in folds for gi, cfg in enumerate(grid)]
    best: dict[int, TeacherCheckpoint] = {}
    diverged: dict[int, list[str]] = {}
    for fi, gi, ckpt in _parallel_map(_teacher_task, tasks, jobs):
        if isinstance(ckpt, str):
            diverged.setdefault(fi, []).append(f"grid point {gi}: {ckpt}")
        elif fi not in best or ckpt.best_test_accuracy > best[fi].best_test_accuracy:
            best[fi] = ckpt
    missing = [f.fold_index for f in folds if f.fold_index not in best]
    if missing:
        raise ConfigError(f"every grid point diverged for folds {missing}: " + "; ".join(
            f"fold {i} {', '.join(diverged.get(i, []))}" for i in missing))
    for fi, reasons in diverged.items():
        log.warning("teacher fold %d skipped %s", fi, ", ".join(reasons))
    return [best[f.fold_index] for f in folds]


def cache_teacher(checkpoint: TeacherCheckpoint, dataset: Dataset,
                  struct_caches: list[StructCache]) -> TeacherCache:
    """The packed teacher outputs of every graph, via the inference path."""
    check_struct_caches(dataset.graphs, struct_caches)
    outs = []
    for chunk in _chunks(np.arange(len(dataset.graphs)), 256):
        batch = make_batch([dataset.graphs[i] for i in chunk],
                           clusters=[struct_caches[i].clusters for i in chunk])
        outs.append(INFER[checkpoint.config.kind](batch, checkpoint.config, checkpoint.params))
    packed = {name: np.concatenate([getattr(out, name) for out in outs])
              for name in ("logits", "graph_embedding", "node_embeddings", "cluster_embeddings")}
    return TeacherCache(
        fold_index=checkpoint.fold_index, logits=packed["logits"],
        graph_embeddings=packed["graph_embedding"], node_embeddings=packed["node_embeddings"],
        cluster_embeddings=packed["cluster_embeddings"],
        node_offsets=np.cumsum([0] + [g.num_nodes for g in dataset.graphs]),
        cluster_offsets=np.cumsum([0] + [c.clusters.num_clusters for c in struct_caches]))


def _segment_rows(offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The rows of segments ``ids`` of a packed array, segment by segment in ``ids`` order."""
    starts, sizes = offsets[ids], offsets[ids + 1] - offsets[ids]
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _draw_walks(pool: np.ndarray, rng: np.random.Generator,
                limit: int | None) -> tuple[np.ndarray, int]:
    """Up to ``limit`` rows of a walk matrix in random order, and how many were drawn.

    Singleton rows (last entry -1) are dropped after the draw: they count in
    the number drawn, which the path-term weights divide by, but add no term.
    """
    take = len(pool) if limit is None else min(limit, len(pool))
    rows = pool[rng.permutation(len(pool))[:take]]
    return rows[rows[:, -1] >= 0], take


def _student_loss_parts(out, ids, batch, tcache: TeacherCache, epoch_walks: dict,
                        run: RunConfig, weights: DistillWeights) -> dict:
    zero = ad.constant(np.asarray(0.0))
    parts = {"gt": batch_ground_truth(out.logits, batch.labels), "sl": zero,
             "graph": zero, "cluster": zero, "path": zero}
    if weights.soft > 0:
        parts["sl"] = batch_soft_logits(out.logits, tcache.logits[ids], run.temperature)
    if weights.lam > 0:
        parts["graph"] = batch_whole_graph(out.graph_embedding, tcache.graph_embeddings[ids])
    if weights.mu > 0:
        teacher_clusters = tcache.cluster_embeddings[_segment_rows(tcache.cluster_offsets, ids)]
        parts["cluster"] = batch_inter_cluster(
            out.cluster_embeddings, teacher_clusters, batch.cluster_offsets, batch.num_graphs
        )
    if weights.eta > 0:
        rows, wts = [], []
        for j, gid in enumerate(ids):
            mat, taken = epoch_walks[gid]
            if mat.shape[0]:
                rows.append(mat + batch.node_offsets[j])
                wts.append(np.full(mat.shape[0], 1.0 / (taken * len(ids))))
        if rows:
            teacher_nodes = tcache.node_embeddings[_segment_rows(tcache.node_offsets, ids)]
            parts["path"] = batch_path_consistency(
                out.node_embeddings, teacher_nodes, np.concatenate(rows), np.concatenate(wts)
            )
    return parts


def _fit_student(dataset: Dataset, fold: FoldSplit, struct_caches: list[StructCache],
                 inputs: list[np.ndarray], tcache: TeacherCache, scfg: StudentConfig,
                 run: RunConfig, weights: DistillWeights, seed: int,
                 capture_params: bool = False) -> FoldResult:
    rng_init, rng_shuffle, rng_dropout, rng_walks = (
        _derived_rng(run.seed, seed, fold.fold_index, k) for k in range(4))

    params = init_params(rng_init, inputs[0].shape[1], scfg, dataset.num_classes)
    test_batch = make_batch([dataset.graphs[i] for i in fold.test_ids],
                            [inputs[i] for i in fold.test_ids])

    def epoch_losses():
        # Drawn before the first batch, in ``fold.train_ids`` order.
        epoch_walks = {gid: _draw_walks(struct_caches[gid].walk_pool.walks, rng_walks,
                                        run.walks_per_epoch)
                       for gid in (fold.train_ids if weights.eta > 0 else ())}
        def batch_loss(chunk):
            batch = make_batch([dataset.graphs[i] for i in chunk], [inputs[i] for i in chunk],
                               [struct_caches[i].clusters for i in chunk]
                               if weights.mu > 0 else None)
            out = student_forward(batch, scfg, params, rng_dropout)
            parts = _student_loss_parts(out, chunk, batch, tcache, epoch_walks, run, weights)
            loss = total_loss(parts, weights)
            return loss, {**parts, "total": loss}
        return batch_loss

    return _fit("student", fold, seed, params, run, rng_shuffle, epoch_losses,
                lambda view: _accuracy(student_infer, test_batch, scfg, view), capture_params)


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
    check_struct_caches(dataset.graphs, struct_caches)
    for fold in folds:
        if fold.fold_index not in teacher_caches:
            raise ConfigError(f"no teacher cache for fold {fold.fold_index}")
        teacher_hidden = teacher_caches[fold.fold_index].graph_embeddings.shape[1]
        if any(w.lam > 0 for _, w in pairs) and teacher_hidden != scfg.hidden:
            raise ConfigError(
                "whole-graph loss needs matching hidden sizes: "
                f"teacher {teacher_hidden}, student {scfg.hidden}"
            )
    inputs = [student_input(g, c, scfg) for g, c in zip(dataset.graphs, struct_caches)]
    tasks = [(dataset, fold, struct_caches, inputs, teacher_caches[fold.fold_index], scfg,
              run, weights, seed, capture_params)
             for _, weights in pairs for fold in folds for seed in run.student_seeds]
    results = _parallel_map(_fit_student, tasks, jobs)
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
