"""Fuzz of the command line, in-process through ``cli.main``.

Each example runs one command on a copy of a tiny prepared dataset, sidecar,
teacher run and student run, with one thing broken: a numeric flag or
``--config`` key set to an edge value, or one artifact the command reads cut
short, given a flipped byte or given bytes that are not UTF-8. Whatever it
is, ``main`` returns 0, 1 or 3, or exits 2 for a usage error on the command
line; nothing raises.

Drawn counts are never above 1.5, and ``--jobs`` never above 1, so no
example trains long, allocates much or starts a process. Examples are
derandomized, so every run draws the same ones.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphdistill.cli import main
from graphdistill.data import save_tudataset
from graphdistill.synth import two_class_structural

FLOAT_VALUES = (0, -1, 1.5, float("nan"), float("inf"), float("-inf"), 1e308, True, None, "x")
COUNT_VALUES = (0, -1, 1.5, "x", True, None)

TU = tuple(f"data/TINY/TINY_{part}.txt" for part in ("A", "graph_indicator", "graph_labels",
                                                    "node_labels"))
SIDECAR = "data/TINY/TINY.structcache.npz"
TEACHER = ("teacher/manifest.json", "teacher/teacher_fold0.ckpt", "teacher/teacher_fold0.json")
STUDENT = ("student/student_fold0_seed0.ckpt", "student/student_fold0_seed0.json")

RUN_FLOATS = ("--lr", "--lr-decay")
RUN_COUNTS = ("--epochs", "--batch-size", "--lr-patience", "--seed", "--jobs")
STUDENT_FLOATS = RUN_FLOATS + ("--dropout", "--lambda", "--mu", "--eta", "--soft",
                               "--temperature")
STUDENT_COUNTS = RUN_COUNTS + ("--hidden", "--student-layers", "--walks-per-epoch",
                               "--student-seeds")
STUDENT_RUN = ["--teacher-run", "teacher", "--epochs", "1", "--lr-patience", "0",
               "--student-seeds", "0", "--hidden", "4", "--student", "ga-mlp", "--lape",
               "--mu", "0.1", "--eta", "0.1"]

# command -> (argv after the command, float flags, count flags, artifacts it reads)
COMMANDS = {
    "preprocess": (["--dataset", "TINY", "--k-pe", "2", "--walk-length", "2"], (),
                   ("--k-pe", "--walk-length", "--num-walks", "--seed", "--jobs"), TU),
    "train-teacher": (["--dataset", "TINY", "--layers", "1", "--hidden", "4", "--folds", "2",
                       "--epochs", "1", "--lr-patience", "0"],
                      RUN_FLOATS + ("--dropout",),
                      RUN_COUNTS + ("--hidden", "--layers", "--folds"), TU),
    "distill": (STUDENT_RUN, STUDENT_FLOATS, STUDENT_COUNTS, TU + (SIDECAR,) + TEACHER),
    "grid": (STUDENT_RUN + ["--lambdas", "0.1", "--mus", "0.1", "--etas", "0.1"],
             STUDENT_FLOATS + ("--lambdas", "--mus", "--etas"), STUDENT_COUNTS,
             TU + (SIDECAR,) + TEACHER),
    "evaluate": (["--teacher-run", "teacher"], (), ("--fold", "--seed", "--jobs"),
                 TU + TEACHER),
    "dynamic-bench": (["--teacher-run", "teacher", "--student-run", "student",
                       "--num-remove", "1", "--repetitions", "1", "--max-fraction", "1",
                       "--timing-graphs", "1"], ("--max-fraction",),
                      ("--fold", "--student-seed", "--num-remove", "--repetitions",
                       "--timing-graphs", "--seed", "--jobs"),
                      TU + (SIDECAR,) + TEACHER + STUDENT),
    "report": (["--runs", "teacher"], (), ("--seed", "--jobs"),
               ("teacher/metrics.csv", "teacher/manifest.json")),
}


def _run(root: Path, command: str, *args: str) -> int:
    return main([command, *args, "--data-dir", str(root / "data"),
                 "--out-dir", str(root / "runs")])


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A tiny dataset with its sidecar, a 2-fold GIN teacher run and a student run,
    each moved to a fixed name so that argv and artifacts name them the same way."""
    root = tmp_path_factory.mktemp("fuzz")
    save_tudataset(root / "data" / "TINY", two_class_structural(
        num_graphs=8, seed=0, min_nodes=6, max_nodes=8, name="TINY"))
    assert _run(root, "preprocess", "--dataset", "TINY", "--k-pe", "2",
                "--walk-length", "2") == 0
    assert _run(root, "train-teacher", *COMMANDS["train-teacher"][0]) == 0
    (teacher,) = (root / "runs").glob("*_train-teacher_*")
    teacher.rename(root / "teacher")
    assert _run(root, "distill", "--teacher-run", str(root / "teacher"),
                *STUDENT_RUN[2:], "--save-students") == 0
    (student,) = (root / "runs").glob("*_distill_*")
    student.rename(root / "student")
    shutil.rmtree(root / "runs")
    return root


def _text(value) -> str:
    """``value`` as typed on the command line."""
    return "true" if value is True else "null" if value is None else str(value)


@st.composite
def examples(draw):
    """(command, flag edits, config JSON or None, artifact corruption or None)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, floats, counts, artifacts = COMMANDS[command]
    kind = draw(st.sampled_from(["argv", "config", "artifact"]))
    edit = config = corruption = None
    if kind == "artifact":
        name = draw(st.sampled_from(artifacts + ("config.json",)))
        how = draw(st.sampled_from(["cut", "flip", "utf8"]))
        corruption = (name, how, draw(st.floats(0.0, 1.0)), draw(st.integers(1, 255)))
        config = {"seed": 0}
    else:
        flag = draw(st.sampled_from(floats + counts))
        value = draw(st.sampled_from(FLOAT_VALUES if flag in floats else COUNT_VALUES))
        if kind == "argv":
            edit = f"{flag}={_text(value)}"
        else:
            config = {"lam" if flag == "--lambda" else flag[2:]: value}
    return command, edit, config, corruption


def _corrupt(path: Path, how: str, at: float, byte: int) -> None:
    data = path.read_bytes()
    pos = min(int(at * len(data)), max(len(data) - 1, 0))
    if how == "cut":
        data = data[:pos]
    elif how == "flip" and data:
        data = data[:pos] + bytes([data[pos] ^ byte]) + data[pos + 1:]
    else:
        data = data[:pos] + b"\xff\xfe" + data[pos:]
    path.write_bytes(data)


# Edge values such as --lr 1e308 overflow the training arithmetic on purpose.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(example=examples())
def test_every_input_ends_in_an_exit_code(pristine, example):
    command, edit, config, corruption = example
    argv, _, _, _ = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("data", "teacher", "student"):
            shutil.copytree(pristine / part, root / part)
        args = [a if a not in ("teacher", "student") else str(root / a) for a in argv]
        if edit is not None:
            args.append(edit)
        if config is not None:
            (root / "config.json").write_text(json.dumps(config))
            args += ["--config", str(root / "config.json")]
        if corruption is not None:
            name, how, at, byte = corruption
            _corrupt(root / name, how, at, byte)
        try:
            code = _run(root, command, *args)
        except SystemExit as exc:
            # argparse's usage error, for a value typed on the command line only
            assert exc.code == 2 and edit is not None, example
            return
        assert code in (0, 1, 3), example
