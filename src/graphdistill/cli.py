"""Command-line pipeline driver.

Batch commands: preprocess, train-teacher, distill, evaluate, ablate, grid,
dynamic-bench, report. Flags override config-file values, which override
defaults; all randomness funnels through --seed. Exit codes: 0 success,
1 invalid input or a diverged student (``GraphDistillError``), 2 usage
error, 3 missing input artifact.

The same seed gives byte-identical run directories, apart from timestamps
and wall-clock times, only at a fixed BLAS thread count and environment;
manifests record both, and ``report`` warns when its runs' environments differ.

``distill``, ``ablate`` and ``grid`` train their loss-weight arms in one
``training.sweep``. ``grid`` honours ``--soft`` and labels its rows
``grid[lam=<l>;mu=<m>;eta=<e>]-<student>``; a point named twice is invalid input.

``dynamic-bench`` runs saved (``--teacher-run``, ``--student-run``) or ``--synthetic``
models; both sources write perturbation.csv, latency.csv and latency.json.

``preprocess`` writes ``<name>.structcache.npz`` next to the TU files; the
other commands read it back. A sidecar of an older format
(``structcache/1`` or ``/2``), one that ``structure.check_struct_caches`` finds
unfit for the dataset (graph count, or rows per node), or one whose cluster or
walk ids point outside their graph, is invalid input (exit 1): run
``graphdistill preprocess`` again. So is a checkpoint whose config does not
match its parameters, a ``metrics.csv`` that is not UTF-8 or holds an accuracy
outside [0, 1], and a preprocess size numpy cannot allocate.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .data import load_tudataset, stratified_kfold, degree_onehot_features
from .dynamic import (
    WARMUP_STEPS,
    LatencyReport,
    StudentModel,
    TeacherModel,
    aggregate_metrics,
    check_max_fraction,
    make_trace,
    perturb_and_score,
    removal_misfit,
)
from .errors import (ArtifactMissingError, ConfigError, FormatError, GraphDistillError,
                     IntegrityError)
from .losses import DistillWeights
from .models import GcnConfig, GinConfig, StudentConfig, init_params, params_to_arrays
from .runio import (
    environment_differences,
    fold_results_rows,
    format_summary_table,
    load_student_checkpoint,
    load_teacher_checkpoint,
    metrics_files,
    new_run_dir,
    read_json_object,
    read_manifest,
    read_metrics_csv,
    save_student_checkpoint,
    save_teacher_checkpoint,
    summarize_metrics,
    write_fold_results_json,
    write_json,
    write_manifest,
    write_metrics_csv,
)
from .structure import (aggregate_blocks, build_struct_caches, check_struct_caches,
                        load_struct_caches, save_struct_caches)
from .synth import sparse_social_dataset
from .training import (
    RunConfig,
    _accuracy,
    cache_teacher,
    mean_accuracy,
    std_accuracy,
    sweep,
    train_teacher,
)
from . import models

log = logging.getLogger("graphdistill")

DATA_ENV = "GRAPHDISTILL_DATA"


def _values(text: str, kind) -> list:
    """Comma-separated ``kind`` values, at least one; a bad token is a ``ConfigError``
    naming it."""
    values = []
    for tok in text.split(","):
        if tok:
            try:
                values.append(kind(tok))
            except ValueError:
                raise ConfigError(f"expected comma-separated {kind.__name__}s, "
                                  f"got {tok!r} in {text!r}") from None
    if not values:
        raise ConfigError(f"expected at least one {kind.__name__}, got {text!r}")
    return values


def _ints(text: str) -> list[int]:
    return _values(text, int)


def _floats(text: str) -> list[float]:
    return _values(text, float)


def _resolve_dataset_dir(data_dir: Path, name: str) -> Path:
    nested = data_dir / name
    if (nested / f"{name}_A.txt").is_file():
        return nested
    if (data_dir / f"{name}_A.txt").is_file():
        return data_dir
    raise ArtifactMissingError(nested / f"{name}_A.txt")


def _sidecar_path(dataset_dir: Path, name: str) -> Path:
    return dataset_dir / f"{name}.structcache.npz"


def load_prepared_dataset(data_dir, name: str):
    """Load a TU directory; social-style sets get degree one-hot features."""
    dataset_dir = _resolve_dataset_dir(Path(data_dir), name)
    dataset = load_tudataset(dataset_dir, name)
    if not (dataset_dir / f"{name}_node_labels.txt").is_file():
        dataset = degree_onehot_features(dataset)
    return dataset, dataset_dir


def _load_caches(dataset_dir: Path, dataset):
    """The dataset's struct caches; a sidecar built for other graphs (``check_struct_caches``,
    or other edges and features, through the recomputed aggregated block) is a ``FormatError``."""
    sidecar = _sidecar_path(dataset_dir, dataset.name)
    if not sidecar.is_file():
        raise ArtifactMissingError(sidecar)
    caches, meta = load_struct_caches(sidecar)
    try:
        check_struct_caches(dataset.graphs, caches)
    except IntegrityError as exc:
        raise FormatError(f"{sidecar}: {exc} in dataset {dataset.name}; "
                          f"re-run `graphdistill preprocess`") from None
    aggs = aggregate_blocks(dataset.graphs, [c.lape for c in caches])
    for i, (cache, agg) in enumerate(zip(caches, aggs)):
        if (agg.shape != cache.agg_features.shape
                or np.abs(agg - cache.agg_features).max(initial=0.0)
                > 1e-9 * max(1.0, np.abs(agg).max(initial=0.0))):
            raise FormatError(f"{sidecar}: graph {i} was built from other edges or features "
                              f"than dataset {dataset.name}; re-run `graphdistill preprocess`")
    return caches, meta


def _echo_config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def cmd_preprocess(args) -> int:
    dataset, dataset_dir = load_prepared_dataset(args.data_dir, args.dataset)
    caches = build_struct_caches(dataset, args.seed, args.k_pe, args.walk_length,
                                 args.num_walks)
    sidecar = _sidecar_path(dataset_dir, args.dataset)
    save_struct_caches(sidecar, caches, args.dataset, args.seed)
    run_dir = new_run_dir(args.out_dir, args.dataset, "preprocess", args.seed)
    write_manifest(run_dir, {"command": "preprocess", "config": _echo_config(args),
                             "sidecar": str(sidecar)})
    log.info("wrote struct cache for %d graphs to %s", len(caches), sidecar)
    print(sidecar)
    return 0


def _teacher_grid(args) -> list:
    cls = {"gin": GinConfig, "gcn": GcnConfig}[args.arch]
    grid = []
    for layers in _ints(args.layers):
        for hidden in _ints(args.hidden):
            for dropout in _floats(args.dropout):
                grid.append(cls(num_layers=layers, hidden=hidden, dropout=dropout,
                                readout=args.readout))
    return grid


def cmd_train_teacher(args) -> int:
    run = RunConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                    lr_decay=args.lr_decay, lr_patience=args.lr_patience,
                    seed=args.seed)
    grid = _teacher_grid(args)
    dataset, dataset_dir = load_prepared_dataset(args.data_dir, args.dataset)
    folds = stratified_kfold(dataset, args.folds, args.seed)
    log.info("training %d grid points on %d folds", len(grid), len(folds))
    checkpoints = train_teacher(dataset, folds, grid, run, jobs=args.jobs)
    run_dir = new_run_dir(args.out_dir, args.dataset, "train-teacher", args.seed)
    rows = []
    for ckpt in checkpoints:
        save_teacher_checkpoint(run_dir, ckpt)
        rows.append((args.dataset, f"teacher-{args.arch}", ckpt.fold_index, args.seed,
                     ckpt.best_test_accuracy))
    write_metrics_csv(run_dir / "metrics.csv", rows)
    write_manifest(run_dir, {
        "command": "train-teacher", "config": _echo_config(args),
        "dataset": args.dataset, "arch": args.arch,
        "folds": args.folds, "fold_seed": args.seed,
        "grid": [dataclasses.asdict(g) for g in grid],
        "data_dir": str(dataset_dir),
    })
    mean = float(np.mean([c.best_test_accuracy for c in checkpoints]))
    log.info("teacher mean best fold-test accuracy: %.4f", mean)
    print(run_dir)
    return 0


def _teacher_run_folds(args):
    """Dataset name, dataset, its directory and the folds of ``args.teacher_run``.

    A ``--fold`` index outside the run's folds is a ``ConfigError``.
    """
    manifest = read_manifest(args.teacher_run, {"dataset": str, "folds": int, "fold_seed": int})
    fold = getattr(args, "fold", None)
    if fold is not None and not 0 <= fold < manifest["folds"]:
        raise ConfigError(f"--fold {fold} is out of range: {args.teacher_run} has "
                          f"{manifest['folds']} folds (0-{manifest['folds'] - 1})")
    name = manifest["dataset"]
    dataset, dataset_dir = load_prepared_dataset(args.data_dir, name)
    folds = stratified_kfold(dataset, manifest["folds"], manifest["fold_seed"])
    return name, dataset, dataset_dir, folds


def _rebuild_from_teacher_run(args):
    name, dataset, dataset_dir, folds = _teacher_run_folds(args)
    caches, _ = _load_caches(dataset_dir, dataset)
    checkpoints = {f.fold_index: load_teacher_checkpoint(args.teacher_run, f.fold_index)
                   for f in folds}
    teacher_caches = {fi: cache_teacher(ckpt, dataset, caches)
                      for fi, ckpt in checkpoints.items()}
    return name, dataset, folds, caches, teacher_caches


def _student_config(args) -> StudentConfig:
    return StudentConfig(kind=args.student, num_layers=args.student_layers,
                         hidden=args.hidden, dropout=args.dropout,
                         use_lape=args.lape, readout=args.readout)


def _method_name(scfg: StudentConfig, weights: DistillWeights) -> str:
    suffix = scfg.kind + ("+lape" if scfg.use_lape else "")
    if weights.lam == weights.mu == weights.eta == 0.0:
        return ("soft-kd-" if weights.soft > 0 else "plain-") + suffix
    return "multigran-kd-" + suffix


def _run_config(args) -> RunConfig:
    return RunConfig(epochs=args.epochs, batch_size=args.batch_size,
                     lr=args.lr, lr_decay=args.lr_decay, lr_patience=args.lr_patience,
                     seed=args.seed, student_seeds=tuple(_ints(args.student_seeds)),
                     walks_per_epoch=args.walks_per_epoch,
                     temperature=args.temperature)


def ablation_arms(base: DistillWeights) -> dict[str, DistillWeights]:
    """The five ablation arms. The baseline arm is the plain student (no
    distillation signal at all); single-component arms keep the soft-logit term."""
    keep = dataclasses.replace
    return {"baseline": DistillWeights(lam=0.0, mu=0.0, eta=0.0, soft=0.0),
            "graph": keep(base, mu=0.0, eta=0.0), "cluster": keep(base, lam=0.0, eta=0.0),
            "path": keep(base, lam=0.0, mu=0.0), "full": base}


def grid_arms(lams, mus, etas, soft: float) -> list[tuple[str, DistillWeights]]:
    """The searched trade-off combinations as (label, weights) pairs, in
    deterministic order; a label holds no comma, so it fits a metrics.csv row."""
    return [(f"lam={lam:g};mu={mu:g};eta={eta:g}", DistillWeights(lam, mu, eta, soft))
            for lam in lams for mu in mus for eta in etas]


def _sweep_command(args, scfg: StudentConfig, arms, method: str, results_json: str | None,
                   summarize) -> int:
    """Train every arm on ``--teacher-run`` in one ``training.sweep`` and write the run
    directory of distill, ablate and grid. ``method.format(label)`` names an arm's
    metrics.csv rows and ``results_json.format(label)``, if given, its results file;
    ``summarize(report)`` reports the results and returns the command's own manifest
    fields. ``--save-students`` saves each student's best parameters.
    """
    run = _run_config(args)
    name, dataset, folds, caches, teacher_caches = _rebuild_from_teacher_run(args)
    save = getattr(args, "save_students", False)
    report = sweep(dataset, folds, caches, teacher_caches, scfg, run, arms, jobs=args.jobs,
                   capture_params=save)
    run_dir = new_run_dir(args.out_dir, name, args.command, args.seed)
    rows = []
    for label, results in report.items():
        rows.extend(fold_results_rows(name, method.format(label), results))
        if results_json is not None:
            write_fold_results_json(run_dir / results_json.format(label), results)
        for r in results if save else ():
            save_student_checkpoint(run_dir, scfg, r.params, r.fold_index, r.seed)
    write_metrics_csv(run_dir / "metrics.csv", rows)
    write_manifest(run_dir, {"command": args.command, "config": _echo_config(args),
                             "dataset": name, **summarize(report)})
    print(run_dir)
    return 0


def cmd_distill(args) -> int:
    weights = DistillWeights(lam=args.lam, mu=args.mu, eta=args.eta, soft=args.soft)
    scfg = _student_config(args)
    method = _method_name(scfg, weights)

    def summarize(report):
        log.info("%s: mean best test accuracy %.4f +- %.4f", method,
                 mean_accuracy(report[method]), std_accuracy(report[method]))
        return {"method": method, "weights": dataclasses.asdict(weights),
                "student": dataclasses.asdict(scfg)}

    return _sweep_command(args, scfg, {method: weights}, "{}", "results.json", summarize)


def cmd_evaluate(args) -> int:
    name, dataset, _, folds = _teacher_run_folds(args)
    rows = []
    for fold in folds:
        if args.fold is not None and fold.fold_index != args.fold:
            continue
        ckpt = load_teacher_checkpoint(args.teacher_run, fold.fold_index)
        batch = models.make_batch([dataset.graphs[i] for i in fold.test_ids])
        acc = _accuracy(models.INFER[ckpt.config.kind], batch, ckpt.config, ckpt.params)
        rows.append((name, f"evaluate-{ckpt.config.kind}", fold.fold_index, args.seed, acc))
        print(f"fold {fold.fold_index}: test accuracy {acc:.4f}")
    run_dir = new_run_dir(args.out_dir, name, "evaluate", args.seed)
    write_metrics_csv(run_dir / "metrics.csv", rows)
    write_manifest(run_dir, {"command": "evaluate", "config": _echo_config(args)})
    return 0


def cmd_ablate(args) -> int:
    arms = ablation_arms(DistillWeights(lam=args.lam, mu=args.mu, eta=args.eta, soft=args.soft))
    scfg = _student_config(args)

    def summarize(report):
        table = "\n".join(f"{arm:<10} {100 * mean_accuracy(res):6.2f} +- "
                          f"{100 * std_accuracy(res):5.2f}" for arm, res in report.items())
        log.info("ablation summary (accuracy %%):\n%s", table)
        print(table)
        return {"arms": list(report)}

    return _sweep_command(args, scfg, arms, f"arm-{{}}-{scfg.kind}", "results_{}.json",
                          summarize)


def cmd_grid(args) -> int:
    scfg = _student_config(args)
    arms = grid_arms(_floats(args.lambdas), _floats(args.mus), _floats(args.etas), args.soft)

    def summarize(report):
        best = max(report, key=lambda label: mean_accuracy(report[label]))
        best_acc = mean_accuracy(report[best])
        print(f"best: {best} ({100 * best_acc:.2f}%)")
        return {"best": best, "best_accuracy": best_acc}

    return _sweep_command(args, scfg, arms, f"grid[{{}}]-{scfg.kind}", None, summarize)


def _dynamic_from_runs(args):
    """The ``--fold`` test graphs that fit ``--num-remove``, one trace each, with the
    saved teacher and student. A missing run flag is a ``ConfigError`` naming it."""
    for flag in ("teacher_run", "student_run"):
        if getattr(args, flag) is None:
            raise ConfigError(f"--{flag.replace('_', '-')} is required without --synthetic")
    name, dataset, dataset_dir, folds = _teacher_run_folds(args)
    caches, _ = _load_caches(dataset_dir, dataset)
    fold = folds[args.fold]
    t_ckpt = load_teacher_checkpoint(args.teacher_run, fold.fold_index)
    s_cfg, s_params = load_student_checkpoint(args.student_run, fold.fold_index,
                                              args.student_seed)
    traces = [make_trace(dataset.graphs[gid], gid, args.num_remove, args.repetitions,
                         args.seed, args.max_fraction) for gid in map(int, fold.test_ids)
              if removal_misfit(dataset.graphs[gid].num_nodes, args.num_remove,
                                args.max_fraction) is None]
    return (name, dataset.graphs, caches, StudentModel(s_cfg, s_params),
            TeacherModel(t_ckpt.config, t_ckpt.params), traces)


def _dynamic_synthetic(args):
    """Fresh models on ``--timing-graphs`` synthetic sparse graphs, one repetition each."""
    # Every timed step comes after the warm-up; make_trace rejects counts below 1.
    if 1 <= args.num_remove <= WARMUP_STEPS:
        raise ConfigError(f"--num-remove must exceed the {WARMUP_STEPS} untimed warm-up "
                          f"steps with --synthetic, got {args.num_remove}")
    dataset = sparse_social_dataset(num_graphs=args.timing_graphs,
                                    num_nodes=args.synthetic_nodes, seed=args.seed)
    caches = build_struct_caches(dataset, args.seed)
    rng = np.random.default_rng(args.seed)
    t_cfg = GinConfig(num_layers=5, hidden=64)
    t_params = params_to_arrays(init_params(rng, dataset.feature_dim, t_cfg, 2))
    s_cfg = StudentConfig(kind="ga-mlp", num_layers=3, hidden=64)
    in_dim = models.student_input(dataset.graphs[0], caches[0], s_cfg).shape[1]
    s_params = params_to_arrays(init_params(rng, in_dim, s_cfg, 2))
    traces = [make_trace(g, i, args.num_remove, 1, args.seed, args.max_fraction)
              for i, g in enumerate(dataset.graphs)]
    return (dataset.name, dataset.graphs, caches, StudentModel(s_cfg, s_params),
            TeacherModel(t_cfg, t_params), traces)


def cmd_dynamic_bench(args) -> int:
    """Score every trace and time the first ``--timing-graphs`` in the same pass."""
    source = _dynamic_synthetic if args.synthetic else _dynamic_from_runs
    name, graphs, caches, student, teacher, traces = source(args)
    if not traces:
        raise ConfigError(f"no test graph large enough for {args.num_remove} removals")
    latency = LatencyReport()
    agg = aggregate_metrics([
        perturb_and_score(graphs[t.graph_id], caches[t.graph_id], student, teacher, t,
                          latency if i < args.timing_graphs else None)
        for i, t in enumerate(traces)])
    run_dir = new_run_dir(args.out_dir, name, "dynamic-bench", args.seed)
    summary = _write_dynamic_outputs(run_dir, agg, latency)
    write_manifest(run_dir, {"command": "dynamic-bench", "config": _echo_config(args),
                             "dataset": name, "graphs_scored": len(traces)})
    for engine, stats in summary.items():
        print(f"{engine:<22} mean {stats['mean_ms']:8.3f} ms  median {stats['median_ms']:8.3f} ms")
    if summary:
        speedup = summary["full_teacher"]["mean_ms"] / summary["incremental_student"]["mean_ms"]
        print(f"incremental speedup over full teacher: {speedup:.1f}x")
    print(run_dir)
    return 0


def _write_dynamic_outputs(run_dir, agg, latency) -> dict:
    """Write perturbation.csv, latency.csv and latency.json; return the latency summary."""
    with (run_dir / "perturbation.csv").open("w") as fh:
        fh.write("k,student_error,student_entropy,teacher_error,teacher_entropy\n")
        columns = (agg.student_error, agg.student_entropy, agg.teacher_error, agg.teacher_entropy)
        for k, values in enumerate(zip(*(c.tolist() for c in columns))):
            fh.write(",".join([str(k), *map(repr, values)]) + "\n")
    summary = latency.summary()
    with (run_dir / "latency.csv").open("w") as fh:
        fh.write("engine,mean_ms,median_ms,p95_ms,p99_ms,steps\n")
        for engine, stats in summary.items():
            fh.write(f"{engine},{stats['mean_ms']!r},{stats['median_ms']!r},"
                     f"{stats['p95_ms']!r},{stats['p99_ms']!r},{stats['steps']}\n")
    write_json(run_dir / "latency.json", summary)
    return summary


def cmd_report(args) -> int:
    files = metrics_files(args.runs)
    if differ := environment_differences(files):
        log.warning("aggregated runs differ in environment: %s", ", ".join(differ))
    rows = [row for f in files for row in read_metrics_csv(f)]
    summary = summarize_metrics(rows)
    table = format_summary_table(summary)
    print(table)
    run_dir = new_run_dir(args.out_dir, "all", "report", args.seed)
    write_metrics_csv(run_dir / "metrics.csv", rows)
    with (run_dir / "summary.txt").open("w") as fh:
        fh.write(table + "\n")
    write_manifest(run_dir, {"command": "report", "config": _echo_config(args)})
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-dir", default=os.environ.get(DATA_ENV, "data"))
    p.add_argument("--out-dir", default="runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--config", default=None, help="JSON file with flag defaults")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The optimisation flags shared by teacher training and distillation."""
    p.add_argument("--epochs", type=int, default=RunConfig.epochs)
    p.add_argument("--batch-size", type=int, default=RunConfig.batch_size)
    p.add_argument("--lr", type=float, default=RunConfig.lr)
    p.add_argument("--lr-decay", type=float, default=RunConfig.lr_decay)
    p.add_argument("--lr-patience", type=int, default=RunConfig.lr_patience)


def _add_student_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--student", choices=["mlp", "ga-mlp"], default="mlp")
    p.add_argument("--lape", action="store_true")
    p.add_argument("--student-layers", type=int, default=3)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--readout", choices=["sum", "attention"], default="sum")
    p.add_argument("--lambda", dest="lam", type=float, default=DistillWeights.lam)
    p.add_argument("--mu", type=float, default=DistillWeights.mu)
    p.add_argument("--eta", type=float, default=DistillWeights.eta)
    p.add_argument("--soft", type=float, default=DistillWeights.soft)
    _add_run_flags(p)
    p.add_argument("--student-seeds", default=",".join(map(str, RunConfig.student_seeds)))
    p.add_argument("--walks-per-epoch", type=int, default=RunConfig.walks_per_epoch)
    p.add_argument("--temperature", type=float, default=RunConfig.temperature)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(prog="graphdistill",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="compute and persist per-graph structure")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--k-pe", type=int, default=8)
    p.add_argument("--walk-length", type=int, default=8)
    p.add_argument("--num-walks", type=int, default=None)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train-teacher", help="train GNN teachers over a config grid")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--arch", choices=["gin", "gcn"], default="gin")
    p.add_argument("--layers", default="3")
    p.add_argument("--hidden", default="64")
    p.add_argument("--dropout", default="0")
    p.add_argument("--readout", choices=["sum", "attention"], default="sum")
    p.add_argument("--folds", type=int, default=10)
    _add_run_flags(p)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("distill", help="distill a teacher run into a student")
    _add_common(p)
    p.add_argument("--teacher-run", required=True)
    _add_student_flags(p)
    p.add_argument("--save-students", action="store_true")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("evaluate", help="re-score saved teacher checkpoints")
    _add_common(p)
    p.add_argument("--teacher-run", required=True)
    p.add_argument("--fold", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the five-arm component ablation")
    _add_common(p)
    p.add_argument("--teacher-run", required=True)
    _add_student_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grid", help="enumerate the loss-weight search space")
    _add_common(p)
    p.add_argument("--teacher-run", required=True)
    _add_student_flags(p)
    p.add_argument("--lambdas", default="1.0,0.1,0.01")
    p.add_argument("--mus", default="1.0,0.1,0.01")
    p.add_argument("--etas", default="1e-4,1e-5")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("dynamic-bench", help="node removal/insertion benchmark")
    _add_common(p)
    p.add_argument("--teacher-run")
    p.add_argument("--student-run")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--student-seed", type=int, default=0)
    p.add_argument("--num-remove", type=int, default=10)
    p.add_argument("--repetitions", type=int, default=20)
    p.add_argument("--max-fraction", type=float, default=0.05)
    p.add_argument("--timing-graphs", type=int, default=10)
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--synthetic-nodes", type=int, default=400)
    p.set_defaults(func=cmd_dynamic_bench)

    p = sub.add_parser("report", help="aggregate stored metric CSVs")
    _add_common(p)
    p.add_argument("--runs", nargs="+", required=True)
    p.set_defaults(func=cmd_report)
    return parser, sub.choices


def _config_value(action: argparse.Action, key: str, value):
    """A ``--config`` value as its flag would parse it; ``ConfigError`` naming ``key``
    otherwise.

    A switch takes a JSON boolean. Any other flag takes a string or a number,
    passed through the flag's ``type`` and checked against its ``choices``
    as if it had been typed on the command line, or ``null`` where the flag
    defaults to none.
    """
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"config key {key!r}: expected true or false, got {value!r}")
    if value is None and action.default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"config key {key!r}: expected a string or a number, got {value!r}")
    text = str(value)
    try:
        value = text if action.type is None else action.type(text)
    except ValueError:
        raise ConfigError(f"config key {key!r}: invalid {action.type.__name__} value "
                          f"{text!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of "
                          f"{', '.join(map(str, action.choices))}")
    return value


def _apply_config_file(subparser, args, parser, argv) -> argparse.Namespace:
    """Config file sets subcommand defaults; explicit flags still override."""
    if not args.config:
        return args
    overrides = read_json_object(args.config, {})
    actions = {a.dest: a for a in subparser._actions}
    defaults = {}
    unknown = []
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest in actions:
            defaults[dest] = _config_value(actions[dest], key, value)
        else:
            unknown.append(dest)
    if unknown:
        log.warning("config keys not used by %s: %s", args.command, sorted(unknown))
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


_COUNT_FLAGS = ("jobs", "num_walks", "repetitions", "synthetic_nodes", "timing_graphs")


def _check_counts(args) -> None:
    """Every count flag the command has is >= 1 (``None`` means its default)."""
    for name in _COUNT_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _check_seeds(args) -> None:
    """``--seed`` and every ``--student-seeds`` entry is >= 0, as seed sequences need
    (``None`` means the default)."""
    seeds = [("--seed", args.seed)]
    if getattr(args, "student_seeds", None) is not None:
        seeds += [("--student-seeds", s) for s in _ints(args.student_seeds)]
    for flag, value in seeds:
        if value is not None and value < 0:
            raise ConfigError(f"{flag} must be >= 0, got {value}")


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(registry[args.command], args, parser, argv)
        _check_counts(args)
        _check_seeds(args)
        if getattr(args, "max_fraction", None) is not None:
            check_max_fraction(args.max_fraction)
        return args.func(args)
    except ArtifactMissingError as exc:
        log.error("%s", exc)
        return 3
    except GraphDistillError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
