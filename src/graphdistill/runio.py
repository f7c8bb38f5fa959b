"""Run-directory layout, manifests, metric CSVs and result aggregation.

Every command writes into a fresh directory named
``<dataset>_<command>_s<seed>_<timestamp>`` containing ``manifest.json``
(enough to re-run the experiment exactly, with the environment its floats
depend on) plus its artifacts. Metric rows go to a flat ``metrics.csv`` with
columns dataset,method,fold,seed,accuracy; floats are serialized with
``repr`` so identical runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .checkpoint import MAGIC, load_checkpoint, save_checkpoint
from .errors import ArtifactMissingError, ConfigError, ContractError, FormatError
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


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Versions, BLAS build and BLAS thread variables (None when unset): the
    same seed gives the same floats only where all of these agree."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "graphdistill": __version__,
        "blas_name": blas.get("name"), "blas_version": blas.get("version"),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def write_json(path, obj, sort_keys: bool = False) -> None:
    with Path(path).open("w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def write_manifest(run_dir, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("format_versions", FORMAT_VERSIONS)
    payload.setdefault("environment", _environment())
    write_json(Path(run_dir) / "manifest.json", payload, sort_keys=True)


def read_json_object(path, fields: dict) -> dict:
    """A JSON object holding every key of ``fields`` with a value of its
    type; anything else is a ``FormatError`` naming the file."""
    path = Path(path)
    if not path.is_file():
        raise ArtifactMissingError(path)
    with path.open() as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for key, kind in fields.items():
        if key not in data:
            raise FormatError(f"{path}: missing key {key!r}")
        if not isinstance(data[key], kind):
            raise FormatError(f"{path}: {key!r} has type {type(data[key]).__name__}")
    return data


def read_manifest(run_dir, fields: dict) -> dict:
    """``manifest.json`` of ``run_dir``; ``fields`` maps each key the caller
    reads to its type."""
    return read_json_object(Path(run_dir) / "manifest.json", fields)


def write_metrics_csv(path, rows: list[tuple]) -> None:
    """Rows are (dataset, method, fold, seed, accuracy); a field holding a comma or a
    line break, which ``read_metrics_csv`` could not split back, is a ``ContractError``."""
    bad = [v for row in rows for v in map(str, row) if any(c in v for c in ",\r\n")]
    if bad:
        raise ContractError(f"metrics.csv fields {bad} hold a comma or a line break")
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
        for lineno, line in enumerate(fh, start=2):
            try:
                dataset, method, fold, seed, acc = line.strip().split(",")
                rows.append((dataset, method, int(fold), int(seed), float(acc)))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: expected {METRICS_HEADER}, "
                                  f"got {line.strip()!r}") from exc
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
    write_json(path, payload)


def _config_to_dict(config) -> dict:
    d = dataclasses.asdict(config)
    d["kind"] = config.kind
    return d


CONFIG_CLASSES = {"gin": GinConfig, "gcn": GcnConfig, "mlp": StudentConfig,
                  "ga-mlp": StudentConfig}


def config_from_dict(d: dict, source):
    """Model config saved by ``_config_to_dict``; errors name ``source``."""
    d = dict(d)
    kind = d.pop("kind", None)
    if not isinstance(kind, str) or kind not in CONFIG_CLASSES:
        raise FormatError(f"{source}: unknown model kind {kind!r}")
    cls = CONFIG_CLASSES[kind]
    types = {f.name: type(f.default) for f in dataclasses.fields(cls) if f.init}
    for key, value in d.items():
        if key not in types:
            raise FormatError(f"{source}: unknown {kind} config key {key!r}")
        kinds = (int, float) if types[key] is float else types[key]
        if not isinstance(value, kinds):
            raise FormatError(f"{source}: config key {key!r} has type {type(value).__name__}")
    if cls is StudentConfig:
        d["kind"] = kind
    try:
        return cls(**d)
    except ConfigError as exc:
        raise FormatError(f"{source}: {exc}") from None


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
    write_json(stem.with_suffix(".json"), meta)


def load_teacher_checkpoint(run_dir, fold_index: int) -> TeacherCheckpoint:
    stem = Path(run_dir) / f"teacher_fold{fold_index}"
    path = stem.with_suffix(".json")
    meta = read_json_object(path, {"fold_index": int, "config": dict,
                                   "best_test_accuracy": (int, float), "epoch_of_best": int,
                                   "train_accuracy": (int, float)})
    params = load_checkpoint(stem.with_suffix(".ckpt"))
    return TeacherCheckpoint(
        fold_index=meta["fold_index"],
        config=config_from_dict(meta["config"], path),
        params=params,
        best_test_accuracy=meta["best_test_accuracy"],
        epoch_of_best=meta["epoch_of_best"],
        train_accuracy=meta["train_accuracy"],
    )


def save_student_checkpoint(run_dir, config: StudentConfig, params: dict,
                            fold_index: int, seed: int) -> None:
    stem = Path(run_dir) / f"student_fold{fold_index}_seed{seed}"
    save_checkpoint(stem.with_suffix(".ckpt"), params)
    write_json(stem.with_suffix(".json"),
               {"config": _config_to_dict(config), "fold_index": fold_index, "seed": seed})


def load_student_checkpoint(run_dir, fold_index: int, seed: int):
    stem = Path(run_dir) / f"student_fold{fold_index}_seed{seed}"
    path = stem.with_suffix(".json")
    config = config_from_dict(read_json_object(path, {"config": dict})["config"], path)
    return config, load_checkpoint(stem.with_suffix(".ckpt"))


def _written_by_report(run_dir: Path) -> bool:
    try:
        return read_manifest(run_dir, {}).get("command") == "report"
    except (ArtifactMissingError, FormatError):
        return False


def metrics_files(paths) -> list[Path]:
    """The ``metrics.csv`` files of run dirs, metrics files, or directory roots; under
    a root, earlier ``report`` dirs (copies of the rows they read) are skipped."""
    files = []
    for p in map(Path, paths):
        if p.is_file():
            files.append(p)
        elif (p / "metrics.csv").is_file():
            files.append(p / "metrics.csv")
        else:
            found = sorted(f for f in p.glob("**/metrics.csv")
                           if not _written_by_report(f.parent))
            if not found:
                raise ArtifactMissingError(p / "metrics.csv")
            files.extend(found)
    return files


def environment_differences(files) -> list[str]:
    """The ``environment`` keys whose values differ between the manifests next
    to ``files``; a file with no manifest, or a manifest with no ``environment``
    object, is skipped."""
    envs = []
    for f in files:
        try:
            envs.append(read_json_object(Path(f).parent / "manifest.json",
                                         {"environment": dict})["environment"])
        except (ArtifactMissingError, FormatError):
            continue
    keys = sorted({key for env in envs for key in env})
    return [key for key in keys if len({json.dumps(env.get(key)) for env in envs}) > 1]


def summarize_metrics(rows: list[tuple]) -> list[tuple]:
    """Mean and population std of accuracy per (dataset, method)."""
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
