"""Run-directory layout, manifests, metric CSVs and result aggregation.

Every command writes into a fresh directory named
``<dataset>_<command>_s<seed>_<timestamp>`` containing ``manifest.json``
(enough to re-run the experiment exactly) plus its artifacts. Metric rows
go to a flat ``metrics.csv`` with columns dataset,method,fold,seed,accuracy;
floats are serialized with ``repr`` so identical runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from .checkpoint import MAGIC, load_checkpoint, save_checkpoint
from .errors import ArtifactMissingError, FormatError
from .models import GcnConfig, GinConfig, StudentConfig
from .structure import STRUCT_CACHE_FORMAT
from .training import FoldResult, TeacherCheckpoint

METRICS_HEADER = "dataset,method,fold,seed,accuracy"
FORMAT_VERSIONS = {
    "structcache": STRUCT_CACHE_FORMAT,
    "checkpoint": MAGIC.decode("ascii"),
    "metrics_csv": "1",
}


def new_run_dir(out_root, dataset: str, command: str, seed: int) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(out_root) / f"{dataset}_{command}_s{seed}_{stamp}"
    path = base
    suffix = 1
    while path.exists():
        path = Path(f"{base}-{suffix}")
        suffix += 1
    path.mkdir(parents=True)
    return path


def write_manifest(run_dir, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("format_versions", FORMAT_VERSIONS)
    with (Path(run_dir) / "manifest.json").open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    path = Path(path)
    if not path.is_file():
        raise ArtifactMissingError(path)
    with path.open() as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def read_manifest(run_dir) -> dict:
    return _read_json(Path(run_dir) / "manifest.json")


def write_metrics_csv(path, rows: list[tuple]) -> None:
    """Rows are (dataset, method, fold, seed, accuracy)."""
    with Path(path).open("w") as fh:
        fh.write(METRICS_HEADER + "\n")
        for dataset, method, fold, seed, acc in rows:
            fh.write(f"{dataset},{method},{fold},{seed},{acc!r}\n")


def read_metrics_csv(path) -> list[tuple]:
    path = Path(path)
    if not path.is_file():
        raise ArtifactMissingError(path)
    rows = []
    with path.open() as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise FormatError(f"{path}: unexpected header {header!r}")
        for line in fh:
            dataset, method, fold, seed, acc = line.strip().split(",")
            rows.append((dataset, method, int(fold), int(seed), float(acc)))
    return rows


def fold_results_rows(dataset: str, method: str, results: list[FoldResult]) -> list[tuple]:
    return [
        (dataset, method, r.fold_index, r.seed, r.best_test_accuracy)
        for r in results
    ]


def write_fold_results_json(path, results: list[FoldResult]) -> None:
    payload = [
        {
            "fold": r.fold_index,
            "seed": r.seed,
            "best_test_accuracy": r.best_test_accuracy,
            "epoch_of_best": r.epoch_of_best,
            "loss_curves": r.loss_curves,
            "test_curve": r.test_curve,
            "wall_clock_s": r.wall_clock,
        }
        for r in results
    ]
    with Path(path).open("w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _config_to_dict(config) -> dict:
    d = dataclasses.asdict(config)
    d["kind"] = config.kind
    return d


def config_from_dict(d: dict):
    d = dict(d)
    kind = d.pop("kind")
    if kind == "gin":
        return GinConfig(**d)
    if kind == "gcn":
        return GcnConfig(**d)
    return StudentConfig(kind=kind, **d)


def save_teacher_checkpoint(run_dir, ckpt: TeacherCheckpoint) -> None:
    stem = Path(run_dir) / f"teacher_fold{ckpt.fold_index}"
    save_checkpoint(stem.with_suffix(".ckpt"), ckpt.params)
    meta = {
        "fold_index": ckpt.fold_index,
        "config": _config_to_dict(ckpt.config),
        "best_test_accuracy": ckpt.best_test_accuracy,
        "epoch_of_best": ckpt.epoch_of_best,
        "train_accuracy": ckpt.train_accuracy,
    }
    with stem.with_suffix(".json").open("w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_teacher_checkpoint(run_dir, fold_index: int) -> TeacherCheckpoint:
    stem = Path(run_dir) / f"teacher_fold{fold_index}"
    meta = _read_json(stem.with_suffix(".json"))
    params = load_checkpoint(stem.with_suffix(".ckpt"))
    return TeacherCheckpoint(
        fold_index=meta["fold_index"],
        config=config_from_dict(meta["config"]),
        params=params,
        best_test_accuracy=meta["best_test_accuracy"],
        epoch_of_best=meta["epoch_of_best"],
        train_accuracy=meta["train_accuracy"],
    )


def save_student_checkpoint(run_dir, config: StudentConfig, params: dict,
                            fold_index: int, seed: int) -> None:
    stem = Path(run_dir) / f"student_fold{fold_index}_seed{seed}"
    save_checkpoint(stem.with_suffix(".ckpt"), params)
    with stem.with_suffix(".json").open("w") as fh:
        json.dump({"config": _config_to_dict(config), "fold_index": fold_index,
                   "seed": seed}, fh, indent=2)
        fh.write("\n")


def load_student_checkpoint(run_dir, fold_index: int, seed: int):
    stem = Path(run_dir) / f"student_fold{fold_index}_seed{seed}"
    meta = _read_json(stem.with_suffix(".json"))
    return config_from_dict(meta["config"]), load_checkpoint(stem.with_suffix(".ckpt"))


def collect_metrics(paths) -> list[tuple]:
    """Gather metric rows from run dirs, metrics files, or directory roots."""
    rows = []
    for p in paths:
        p = Path(p)
        if p.is_file():
            rows.extend(read_metrics_csv(p))
        elif (p / "metrics.csv").is_file():
            rows.extend(read_metrics_csv(p / "metrics.csv"))
        else:
            found = sorted(p.glob("**/metrics.csv"))
            if not found:
                raise ArtifactMissingError(p / "metrics.csv")
            for f in found:
                rows.extend(read_metrics_csv(f))
    return rows


def summarize_metrics(rows: list[tuple]) -> list[tuple]:
    """Mean and population std of accuracy per (dataset, method)."""
    import numpy as np

    groups: dict[tuple, list[float]] = {}
    for dataset, method, _fold, _seed, acc in rows:
        groups.setdefault((dataset, method), []).append(acc)
    out = []
    for (dataset, method) in sorted(groups):
        accs = np.array(groups[(dataset, method)])
        out.append((dataset, method, float(accs.mean()), float(accs.std()), accs.size))
    return out


def format_summary_table(summary: list[tuple]) -> str:
    lines = [f"{'dataset':<20} {'method':<28} {'mean':>8} {'std':>8} {'n':>4}"]
    for dataset, method, mean, std, n in summary:
        lines.append(f"{dataset:<20} {method:<28} {100 * mean:8.2f} {100 * std:8.2f} {n:>4}")
    return "\n".join(lines)
