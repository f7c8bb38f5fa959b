import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import graphdistill
from graphdistill import cli
from graphdistill.cli import _load_caches, _write_dynamic_outputs, main
from graphdistill.dynamic import LatencyReport, PerturbationMetrics
from graphdistill.data import Dataset, Graph, save_tudataset
from graphdistill.errors import ContractError, FormatError
from graphdistill.models import StudentConfig
from graphdistill.structure import build_struct_caches, save_struct_caches
from graphdistill.runio import (
    load_student_checkpoint,
    load_teacher_checkpoint,
    read_manifest,
    read_metrics_csv,
    save_student_checkpoint,
    write_metrics_csv,
)
from graphdistill.synth import two_class_structural


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ds = two_class_structural(num_graphs=20, seed=0, min_nodes=8, max_nodes=14,
                              name="TINY")
    save_tudataset(root / "TINY", ds)
    return root


def run_dirs(out_dir):
    return sorted(p for p in out_dir.iterdir() if p.is_dir())


class TestPipeline:
    def test_full_flow(self, tiny_data, tmp_path):
        out = tmp_path / "runs"
        base = ["--data-dir", str(tiny_data), "--out-dir", str(out), "--seed", "1"]

        assert main(["preprocess", "--dataset", "TINY", "--k-pe", "4",
                     "--walk-length", "4", *base]) == 0
        sidecar = tiny_data / "TINY" / "TINY.structcache.npz"
        assert sidecar.is_file()

        assert main(["train-teacher", "--dataset", "TINY", "--arch", "gin",
                     "--layers", "2", "--hidden", "8", "--folds", "2",
                     "--epochs", "3", "--lr-patience", "1", *base]) == 0
        teacher_run = [p for p in run_dirs(out) if "train-teacher" in p.name][0]
        assert (teacher_run / "teacher_fold0.ckpt").is_file()
        assert (teacher_run / "teacher_fold0.json").is_file()
        assert (teacher_run / "manifest.json").is_file()

        assert main(["distill", "--teacher-run", str(teacher_run), "--student", "ga-mlp",
                     "--lape", "--hidden", "8", "--student-layers", "2",
                     "--lambda", "0.1", "--mu", "0.1", "--eta", "1e-4",
                     "--epochs", "3", "--lr-patience", "1", "--student-seeds", "0",
                     "--save-students", *base]) == 0
        distill_run = [p for p in run_dirs(out) if "_distill_" in p.name][0]
        rows = read_metrics_csv(distill_run / "metrics.csv")
        assert len(rows) == 2  # 2 folds x 1 seed
        assert all(r[1] == "multigran-kd-ga-mlp+lape" for r in rows)
        assert (distill_run / "results.json").is_file()
        assert (distill_run / "student_fold0_seed0.ckpt").is_file()

        assert main(["evaluate", "--teacher-run", str(teacher_run), *base]) == 0

        assert main(["dynamic-bench", "--teacher-run", str(teacher_run),
                     "--student-run", str(distill_run), "--fold", "0",
                     "--num-remove", "2", "--repetitions", "1",
                     "--max-fraction", "0.9", "--timing-graphs", "2", *base]) == 0
        bench_run = [p for p in run_dirs(out) if "dynamic-bench" in p.name][0]
        assert (bench_run / "perturbation.csv").is_file()
        assert (bench_run / "latency.csv").is_file()

        assert main(["report", "--runs", str(out), *base]) == 0
        report_run = [p for p in run_dirs(out) if "_report_" in p.name][0]
        assert (report_run / "summary.txt").is_file()

    def test_ablate_writes_five_arms(self, tiny_data, tmp_path):
        out = tmp_path / "runs"
        base = ["--data-dir", str(tiny_data), "--out-dir", str(out), "--seed", "2"]
        assert main(["preprocess", "--dataset", "TINY", "--k-pe", "4",
                     "--walk-length", "4", *base]) == 0
        assert main(["train-teacher", "--dataset", "TINY", "--layers", "2",
                     "--hidden", "8", "--folds", "2", "--epochs", "2",
                     "--lr-patience", "1", *base]) == 0
        teacher_run = [p for p in run_dirs(out) if "train-teacher" in p.name][0]
        assert main(["ablate", "--teacher-run", str(teacher_run), "--hidden", "8",
                     "--student-layers", "2", "--epochs", "2", "--lr-patience", "1",
                     "--student-seeds", "0", *base]) == 0
        ablate_run = [p for p in run_dirs(out) if "_ablate_" in p.name][0]
        rows = read_metrics_csv(ablate_run / "metrics.csv")
        methods = {r[1] for r in rows}
        assert len(methods) == 5
        assert len(rows) == 5 * 2  # arms x folds

    def test_grid_run_reads_back_in_report(self, tiny_data, tmp_path):
        out = tmp_path / "runs"
        base = ["--data-dir", str(tiny_data), "--out-dir", str(out), "--seed", "3"]
        assert main(["preprocess", "--dataset", "TINY", "--k-pe", "4",
                     "--walk-length", "4", *base]) == 0
        assert main(["train-teacher", "--dataset", "TINY", "--layers", "2",
                     "--hidden", "8", "--folds", "2", "--epochs", "2",
                     "--lr-patience", "1", *base]) == 0
        teacher_run = [p for p in run_dirs(out) if "train-teacher" in p.name][0]
        assert main(["grid", "--teacher-run", str(teacher_run), "--hidden", "8",
                     "--student-layers", "2", "--epochs", "2", "--lr-patience", "1",
                     "--student-seeds", "0", "--lambdas", "0.1", "--mus", "1",
                     "--etas", "1e-4", *base]) == 0
        grid_run = [p for p in run_dirs(out) if "_grid_" in p.name][0]
        rows = read_metrics_csv(grid_run / "metrics.csv")
        assert [r[1] for r in rows] == ["grid[lam=0.1;mu=1;eta=0.0001]-mlp"] * 2
        assert read_manifest(grid_run, {"best": str})["best"] == "lam=0.1;mu=1;eta=0.0001"
        assert main(["report", "--runs", str(grid_run), *base]) == 0


class TestByteIdentityScope:
    """The same seed gives byte-identical run directories at one BLAS thread count,
    and teacher params within a bound, not byte-equality, across thread counts. The
    thread variables are read when the BLAS library loads, so each run is a fresh
    interpreter."""

    # Relative Frobenius distance allowed between 1- and 2-thread teacher params
    # after 6 epochs. Up to 2.2e-12 has been measured on larger sets; this tiny set
    # has agreed exactly on a 2-core machine, which the test does not require.
    THREAD_RTOL = 1e-9

    @staticmethod
    def _train(tiny_data, out, threads: str) -> Path:
        src = Path(graphdistill.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src),
               **{var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")}}
        proc = subprocess.run(
            [sys.executable, "-m", "graphdistill.cli", "train-teacher", "--dataset", "TINY",
             "--layers", "2", "--hidden", "16", "--folds", "2", "--epochs", "6",
             "--lr-patience", "2", "--data-dir", str(tiny_data), "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        return Path(proc.stdout.strip().splitlines()[-1])

    def test_one_thread_count_is_byte_identical(self, tiny_data, tmp_path):
        first, second = (self._train(tiny_data, tmp_path / "runs", "1") for _ in range(2))
        assert first != second  # the timestamped names differ, nothing else
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_thread_counts_agree_within_bound(self, tiny_data, tmp_path):
        one, two = (self._train(tiny_data, tmp_path / f"runs-{t}", t) for t in ("1", "2"))
        for fold in (0, 1):
            a = load_teacher_checkpoint(one, fold).params
            b = load_teacher_checkpoint(two, fold).params
            assert a.keys() == b.keys()
            for key in a:
                gap = np.linalg.norm(a[key] - b[key])
                assert gap <= self.THREAD_RTOL * np.linalg.norm(a[key]), (fold, key, gap)


def _preprocess(tiny_data, tmp_path):
    assert main(["preprocess", "--dataset", "TINY", "--k-pe", "4", "--walk-length", "4",
                 "--data-dir", str(tiny_data), "--out-dir", str(tmp_path / "prep")]) == 0


class TestSweepCommands:
    """distill, ablate and grid share one sweep and one writer."""

    def test_metrics_equal_across_jobs(self, tiny_data, teacher_run, tmp_path):
        _preprocess(tiny_data, tmp_path)
        common = ["--teacher-run", str(teacher_run), "--hidden", "4", "--student-layers", "2",
                  "--epochs", "2", "--lr-patience", "1", "--student-seeds", "0,1",
                  "--data-dir", str(tiny_data)]
        for argv in (["distill"], ["ablate"],
                     ["grid", "--lambdas", "0.1,1", "--mus", "1", "--etas", "1e-4"]):
            written = []
            for jobs in ("1", "2"):
                out = tmp_path / f"{argv[0]}_jobs{jobs}"
                assert main([*argv, *common, "--jobs", jobs, "--out-dir", str(out)]) == 0
                written.append((run_dirs(out)[0] / "metrics.csv").read_bytes())
            assert written[0] == written[1], argv[0]
            assert len(written[0].splitlines()) > 4

    def test_grid_honours_soft(self, tiny_data, teacher_run, tmp_path, monkeypatch):
        _preprocess(tiny_data, tmp_path)
        arms, sweep = [], cli.sweep

        def recording_sweep(*args, **kwargs):
            arms.append(args[6])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "sweep", recording_sweep)
        assert main(["grid", "--teacher-run", str(teacher_run), "--hidden", "4",
                     "--epochs", "2", "--lr-patience", "1", "--student-seeds", "0",
                     "--lambdas", "0.1", "--mus", "1,0.1", "--etas", "1e-4", "--soft", "0",
                     "--data-dir", str(tiny_data), "--out-dir", str(tmp_path / "runs")]) == 0
        (grid,) = arms
        assert [w.soft for _, w in grid] == [0.0, 0.0]

    @pytest.mark.parametrize("flag,value", [("--lambdas", "0.1,0.1"),
                                            ("--etas", "0.1234567,0.1234568")])
    def test_grid_repeated_point_exits_1(self, tiny_data, teacher_run, tmp_path, caplog,
                                         flag, value):
        _preprocess(tiny_data, tmp_path)
        out = tmp_path / "runs"
        assert main(["grid", "--teacher-run", str(teacher_run), "--hidden", "4",
                     "--epochs", "2", "--lr-patience", "1", flag, value,
                     "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 1
        assert "repeated sweep arm labels" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("field", ["a,b", "a\nb", "a\rb"])
    def test_metrics_writer_rejects_separators(self, tmp_path, field):
        path = tmp_path / "metrics.csv"
        with pytest.raises(ContractError, match="comma or a line break"):
            write_metrics_csv(path, [("TINY", "m", 0, 0, 0.5), ("TINY", field, 1, 0, 0.5)])
        assert not path.exists()


# sha256 of the saved-model perturbation.csv below: the numbers written when the
# scores and the latencies of a trace came from two separate replays of it, each
# as the repr of a Python float.
PERTURBATION_SHA256 = "e2fb8cdc36bf5b7aca4a747f0a20af03813f797d05174affd91322b2f8db3119"


class TestDynamicBenchPins:
    def test_saved_model_outputs_pinned(self, tiny_data, teacher_run, tmp_path):
        _preprocess(tiny_data, tmp_path)
        base = ["--data-dir", str(tiny_data), "--out-dir", str(tmp_path / "runs")]
        assert main(["distill", "--teacher-run", str(teacher_run), "--student", "ga-mlp",
                     "--lape", "--hidden", "4", "--student-layers", "2", "--epochs", "2",
                     "--lr-patience", "1", "--student-seeds", "0", "--save-students",
                     *base]) == 0
        student_run = run_dirs(tmp_path / "runs")[0]
        # 5 removals: 2 timed steps after the warm-up on each of 2 of the 10 test graphs.
        assert main(["dynamic-bench", "--teacher-run", str(teacher_run), "--student-run",
                     str(student_run), "--num-remove", "5", "--repetitions", "3",
                     "--max-fraction", "0.7", "--timing-graphs", "2", "--seed", "5",
                     *base]) == 0
        bench = [p for p in run_dirs(tmp_path / "runs") if "dynamic-bench" in p.name][0]
        assert read_manifest(bench, {"graphs_scored": int})["graphs_scored"] == 10
        got = hashlib.sha256((bench / "perturbation.csv").read_bytes()).hexdigest()
        assert got == PERTURBATION_SHA256
        header, *rows = (bench / "perturbation.csv").read_text().splitlines()
        assert header == "k,student_error,student_entropy,teacher_error,teacher_entropy"
        assert rows and all(len(row.split(",")) == 5 for row in rows)
        for row in rows:
            [float(field) for field in row.split(",")]  # plain numbers, no numpy reprs
        header, *rows = (bench / "latency.csv").read_text().splitlines()
        assert header == "engine,mean_ms,median_ms,p95_ms,p99_ms,steps"
        assert {row.split(",")[0]: row.split(",")[-1] for row in rows} == {
            "incremental_student": "4", "full_student": "4", "full_teacher": "4"}


    def test_saved_model_prints_engines_before_run_dir(self, tiny_data, teacher_run,
                                                       tmp_path, capsys):
        _preprocess(tiny_data, tmp_path)
        base = ["--data-dir", str(tiny_data), "--out-dir", str(tmp_path / "runs")]
        assert main(["distill", "--teacher-run", str(teacher_run), "--hidden", "4",
                     "--epochs", "2", "--lr-patience", "1", "--student-seeds", "0",
                     "--save-students", *base]) == 0
        student_run = run_dirs(tmp_path / "runs")[0]
        run = ["dynamic-bench", "--teacher-run", str(teacher_run), "--student-run",
               str(student_run), "--max-fraction", "0.7", "--repetitions", "2", *base]
        capsys.readouterr()
        assert main([*run, "--num-remove", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:3]] == [
            "incremental_student", "full_student", "full_teacher"]
        assert lines[3].startswith("incremental speedup over full teacher")
        assert "dynamic-bench" in lines[4] and len(lines) == 5
        # Every step of a 3-removal trace is warm-up: nothing timed, no speedup line.
        assert main([*run, "--num-remove", "3"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        bench = Path(line)
        assert (bench / "latency.csv").read_text().splitlines() == [
            "engine,mean_ms,median_ms,p95_ms,p99_ms,steps"]
        assert len((bench / "perturbation.csv").read_text().splitlines()) == 5


class TestLatencyOutputs:
    def test_csv_and_json_carry_tails(self, tmp_path):
        report = LatencyReport()
        for i in range(40):
            report.add("incremental_student", (i % 7) * 1e-4)
            report.add("full_teacher", (40 - i) ** 2 * 1e-5)
        agg = PerturbationMetrics(*np.zeros((4, 3)))
        _write_dynamic_outputs(tmp_path, agg, report)
        lines = (tmp_path / "latency.csv").read_text().splitlines()
        assert lines[0] == "engine,mean_ms,median_ms,p95_ms,p99_ms,steps"
        stored = json.loads((tmp_path / "latency.json").read_text())
        for line in lines[1:]:
            engine, *values, steps = line.split(",")
            ms = report.samples[engine]
            want = [np.mean(ms), np.median(ms), np.percentile(ms, 95), np.percentile(ms, 99)]
            assert [float(v) for v in values] == [float(x) for x in want]
            assert int(steps) == 40
            assert [stored[engine][k] for k in ("mean_ms", "median_ms", "p95_ms", "p99_ms")] \
                == [float(x) for x in want]
        assert sorted(stored) == ["full_teacher", "incremental_student"]


class TestCliContracts:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["preprocess", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_dataset_exits_3(self, tmp_path):
        code = main(["preprocess", "--dataset", "NOPE", "--data-dir", str(tmp_path),
                     "--out-dir", str(tmp_path / "runs")])
        assert code == 3

    def test_missing_teacher_run_exits_3(self, tmp_path):
        code = main(["distill", "--teacher-run", str(tmp_path / "absent"),
                     "--out-dir", str(tmp_path / "runs")])
        assert code == 3

    def test_missing_teacher_checkpoint_exits_3(self, tiny_data, tmp_path):
        out = tmp_path / "runs"
        base = ["--data-dir", str(tiny_data), "--out-dir", str(out)]
        assert main(["train-teacher", "--dataset", "TINY", "--layers", "1",
                     "--hidden", "4", "--folds", "2", "--epochs", "2", "--lr-patience", "1",
                     *base]) == 0
        teacher_run = run_dirs(out)[0]
        (teacher_run / "teacher_fold0.ckpt").unlink()
        assert main(["evaluate", "--teacher-run", str(teacher_run), *base]) == 3

    def test_config_file_defaults_and_cli_override(self, tiny_data, tmp_path):
        out = tmp_path / "runs"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k-pe": 3, "walk-length": 5}))
        assert main(["preprocess", "--dataset", "TINY", "--data-dir", str(tiny_data),
                     "--out-dir", str(out), "--config", str(cfg),
                     "--walk-length", "2"]) == 0
        manifest = json.loads(
            (run_dirs(out)[0] / "manifest.json").read_text()
        )
        assert manifest["config"]["k_pe"] == 3        # from file
        assert manifest["config"]["walk_length"] == 2  # flag wins

    @pytest.mark.parametrize("text,reason", [("{not json", "not valid JSON"),
                                             ('["k-pe", 3]', "JSON object")],
                             ids=["invalid-json", "json-list"])
    def test_bad_config_file_exits_1(self, tiny_data, tmp_path, caplog, text, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["preprocess", "--dataset", "TINY", "--data-dir", str(tiny_data),
                     "--out-dir", str(tmp_path / "runs"), "--config", str(cfg)]) == 1
        assert str(cfg) in caplog.text and reason in caplog.text
        assert not (tmp_path / "runs").exists()

    def test_corrupt_struct_cache_exits_1(self, tmp_path, caplog):
        data = tmp_path / "data"
        ds = two_class_structural(num_graphs=8, seed=0, min_nodes=6, max_nodes=9, name="TINY")
        save_tudataset(data / "TINY", ds)
        base = ["--data-dir", str(data), "--out-dir", str(tmp_path / "runs")]
        assert main(["train-teacher", "--dataset", "TINY", "--layers", "1",
                     "--hidden", "4", "--folds", "2", "--epochs", "2", "--lr-patience", "1",
                     *base]) == 0
        teacher_run = run_dirs(tmp_path / "runs")[0]
        sidecar = data / "TINY" / "TINY.structcache.npz"
        sidecar.write_bytes(b"not an npz archive")
        assert main(["distill", "--teacher-run", str(teacher_run), "--epochs", "2",
                     "--lr-patience", "1", *base]) == 1
        assert str(sidecar) in caplog.text
        # the previous layout, with one offset per walk, must be rebuilt
        meta = {"format": "structcache/2", "dataset": "TINY", "seed": 0, "num_graphs": 8,
                "walk_length": 8}
        np.savez_compressed(sidecar, meta=np.str_(json.dumps(meta)),
                            walk_off=np.zeros(1, dtype=np.int64))
        caplog.clear()
        assert main(["distill", "--teacher-run", str(teacher_run), "--epochs", "2",
                     "--lr-patience", "1", *base]) == 1
        assert f"{sidecar}: unsupported cache format 'structcache/2'" in caplog.text
        assert "re-run `graphdistill preprocess`" in caplog.text

    def test_sidecar_of_other_dataset_exits_1(self, tmp_path, caplog):
        data = tmp_path / "data"
        base = ["--data-dir", str(data), "--out-dir", str(tmp_path / "runs")]
        save_tudataset(data / "TINY", two_class_structural(
            num_graphs=8, seed=0, min_nodes=6, max_nodes=9, name="TINY"))
        assert main(["preprocess", "--dataset", "TINY", "--k-pe", "2", *base]) == 0
        save_tudataset(data / "TINY", two_class_structural(
            num_graphs=8, seed=2, min_nodes=10, max_nodes=12, name="TINY"))
        assert main(["train-teacher", "--dataset", "TINY", "--layers", "1",
                     "--hidden", "4", "--folds", "2", "--epochs", "2", "--lr-patience", "1",
                     *base]) == 0
        teacher_run = [p for p in run_dirs(tmp_path / "runs") if "train-teacher" in p.name][0]
        assert main(["distill", "--teacher-run", str(teacher_run), "--epochs", "2",
                     "--lr-patience", "1", *base]) == 1
        sidecar = data / "TINY" / "TINY.structcache.npz"
        assert f"{sidecar}: graph 0 has" in caplog.text
        assert "graphdistill preprocess" in caplog.text

    @pytest.mark.parametrize("flag,value", [("--temperature", "0"), ("--walks-per-epoch", "-1")])
    def test_out_of_range_distill_flag_exits_1(self, tiny_data, teacher_run, tmp_path, caplog,
                                               flag, value):
        out = tmp_path / "runs"
        assert main(["distill", "--teacher-run", str(teacher_run), flag, value,
                     "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 1
        assert flag[2:].replace("-", "_") in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--layers", "--hidden", "--dropout"])
    def test_bad_list_token_exits_1(self, tiny_data, tmp_path, caplog, flag):
        out = tmp_path / "runs"
        assert main(["train-teacher", "--dataset", "TINY", flag, "2,x", "--data-dir",
                     str(tiny_data), "--out-dir", str(out)]) == 1
        assert "got 'x' in '2,x'" in caplog.text
        assert not out.exists()

    def test_config_file_number_for_list_flag(self, tiny_data, tmp_path):
        out = tmp_path / "runs"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layers": 1, "hidden": 4}))
        assert main(["train-teacher", "--dataset", "TINY", "--folds", "2", "--epochs", "2",
                     "--lr-patience", "1", "--config", str(cfg), "--data-dir", str(tiny_data),
                     "--out-dir", str(out)]) == 0
        grid = json.loads((run_dirs(out)[0] / "manifest.json").read_text())["grid"]
        assert [(g["num_layers"], g["hidden"]) for g in grid] == [(1, 4)]

    def test_manifest_contains_reproduction_info(self, tiny_data, tmp_path):
        out = tmp_path / "runs"
        assert main(["preprocess", "--dataset", "TINY", "--data-dir", str(tiny_data),
                     "--out-dir", str(out), "--seed", "9"]) == 0
        manifest = json.loads((run_dirs(out)[0] / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert "format_versions" in manifest

    def test_manifest_records_environment(self, tiny_data, tmp_path, monkeypatch):
        # The thread variables are recorded as set (None when unset); they
        # reach the manifest only, so metrics.csv keeps its bytes.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        runs = []
        for omp in (None, "3"):
            if omp is None:
                monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OMP_NUM_THREADS", omp)
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
            out = tmp_path / f"runs-{omp}"
            assert main(["train-teacher", "--dataset", "TINY", "--layers", "1", "--hidden", "4",
                         "--folds", "2", "--epochs", "2", "--lr-patience", "1",
                         "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 0
            (run,) = run_dirs(out)
            env = json.loads((run / "manifest.json").read_text())["environment"]
            assert env == {
                "python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "graphdistill": graphdistill.__version__,
                "blas_name": blas["name"], "blas_version": blas["version"],
                "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": omp, "MKL_NUM_THREADS": None,
            }
            runs.append((run / "metrics.csv").read_bytes())
        assert runs[0] == runs[1]

    def test_report_warns_on_differing_environments(self, tiny_data, tmp_path, monkeypatch,
                                                    caplog):
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            out = tmp_path / f"runs-{threads}"
            assert main(["train-teacher", "--dataset", "TINY", "--layers", "1", "--hidden", "4",
                         "--folds", "2", "--epochs", "2", "--lr-patience", "1",
                         "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 0
            runs.extend(run_dirs(out))
        reports = []
        for case in ("both manifests", "one manifest"):
            caplog.clear()
            out = tmp_path / case
            assert main(["report", "--runs", *map(str, runs), "--out-dir", str(out)]) == 0
            warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
            reports.append((run_dirs(out)[0] / "metrics.csv").read_bytes())
            if case == "both manifests":
                assert warned == ["aggregated runs differ in environment: OPENBLAS_NUM_THREADS"]
                (runs[1] / "manifest.json").unlink()  # a run with no manifest is skipped
            else:
                assert warned == []
        first, second = ((run / "metrics.csv").read_bytes() for run in runs)
        assert reports[0] == reports[1] == first + second.split(b"\n", 1)[1]


    def test_report_under_its_own_root_skips_earlier_reports(self, tiny_data, tmp_path,
                                                             capsys):
        runs = tmp_path / "runs"
        assert main(["train-teacher", "--dataset", "TINY", "--layers", "1", "--hidden", "4",
                     "--folds", "2", "--epochs", "2", "--lr-patience", "1",
                     "--data-dir", str(tiny_data), "--out-dir", str(runs)]) == 0
        for _ in range(2):
            capsys.readouterr()
            assert main(["report", "--runs", str(runs), "--out-dir", str(runs)]) == 0
            header, row = capsys.readouterr().out.splitlines()
            assert header.split()[-1] == "n" and row.split()[-1] == "2"
        reports = [p for p in run_dirs(runs) if "_report_" in p.name]
        assert len(reports) == 2
        assert main(["report", "--runs", *map(str, reports), "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[-1] == "4"


class TestLoadCaches:
    def write(self, tmp_path, num_graphs, seed):
        ds = two_class_structural(num_graphs=num_graphs, seed=seed, min_nodes=5,
                                  max_nodes=9, name="T")
        save_struct_caches(tmp_path / "T.structcache.npz",
                           build_struct_caches(ds, seed=0, k_pe=2, walk_length=2), "T", 0)
        return ds

    def test_matching_dataset_loads(self, tmp_path):
        ds = self.write(tmp_path, 3, seed=0)
        caches, meta = _load_caches(tmp_path, ds)
        assert len(caches) == 3 and meta["dataset"] == "T"

    def test_graph_count_mismatch(self, tmp_path):
        ds = self.write(tmp_path, 3, seed=0)
        ds.graphs.pop()
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "T.structcache.npz"))
                           + ": holds 3 graphs, dataset T has 2"):
            _load_caches(tmp_path, ds)

    def test_first_node_count_mismatch_named(self, tmp_path):
        ds = self.write(tmp_path, 3, seed=0)
        g = ds.graphs[1]
        ds.graphs[1] = Graph.from_edges(g.num_nodes + 1, g.edge_pairs().tolist(),
                                        np.ones((g.num_nodes + 1, g.features.shape[1])),
                                        g.label)
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "T.structcache.npz"))
                           + f": graph 1 has {g.num_nodes} nodes"):
            _load_caches(tmp_path, ds)


class TestLoadCachesEdges:
    def test_sidecar_of_other_edges_rejected(self, tmp_path):
        feats = np.ones((6, 1))
        built = Dataset([Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)], feats, 0)], 1, 1, "T")
        save_struct_caches(tmp_path / "T.structcache.npz",
                           build_struct_caches(built, seed=0, k_pe=2, walk_length=2), "T", 0)
        _load_caches(tmp_path, built)
        other = Dataset([Graph.from_edges(6, [(0, 2), (1, 3), (2, 4), (3, 5)], feats, 0)],
                        1, 1, "T")
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "T.structcache.npz"))
                           + ": graph 0 was built from other edges"):
            _load_caches(tmp_path, other)

    @pytest.mark.parametrize("bad", [[2], [1, 3], [4]])
    def test_first_bad_graph_named(self, tmp_path, bad):
        ds = two_class_structural(num_graphs=5, seed=1, min_nodes=6, max_nodes=9, name="T")
        save_struct_caches(tmp_path / "T.structcache.npz",
                           build_struct_caches(ds, seed=0, k_pe=2, walk_length=2), "T", 0)
        graphs = list(ds.graphs)
        for i in bad:  # same node count, one feature entry changed
            g = graphs[i]
            feats = g.features.copy()
            feats[-1, 0] += 1.0
            graphs[i] = Graph(g.num_nodes, g.indptr, g.indices, feats, g.label)
        other = Dataset(graphs, ds.num_classes, ds.feature_dim, "T")
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "T.structcache.npz"))
                           + f": graph {bad[0]} was built from other edges"):
            _load_caches(tmp_path, other)

    def test_sidecar_of_other_edges_exits_1(self, tmp_path, caplog):
        data = tmp_path / "data"
        base = ["--data-dir", str(data), "--out-dir", str(tmp_path / "runs")]
        ds = two_class_structural(num_graphs=8, seed=0, min_nodes=6, max_nodes=9, name="TINY")
        save_tudataset(data / "TINY", ds)
        assert main(["preprocess", "--dataset", "TINY", "--k-pe", "2", *base]) == 0
        # same node counts, every graph rewired as a path
        paths = [Graph.from_edges(g.num_nodes, [(u, u + 1) for u in range(g.num_nodes - 1)],
                                  g.features, g.label) for g in ds.graphs]
        save_tudataset(data / "TINY", Dataset(paths, ds.num_classes, ds.feature_dim, "TINY"))
        assert main(["train-teacher", "--dataset", "TINY", "--layers", "1",
                     "--hidden", "4", "--folds", "2", "--epochs", "2", "--lr-patience", "1",
                     *base]) == 0
        teacher_run = [p for p in run_dirs(tmp_path / "runs") if "train-teacher" in p.name][0]
        assert main(["distill", "--teacher-run", str(teacher_run), "--epochs", "2",
                     "--lr-patience", "1", *base]) == 1
        sidecar = data / "TINY" / "TINY.structcache.npz"
        assert f"{sidecar}: graph 0 was built from other edges" in caplog.text


@pytest.fixture(scope="module")
def teacher_run(tiny_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("teacher_runs")
    assert main(["train-teacher", "--dataset", "TINY", "--layers", "1", "--hidden", "4",
                 "--folds", "2", "--epochs", "2", "--lr-patience", "1",
                 "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 0
    return run_dirs(out)[0]


def _edit_json(fn):
    def edit(path):
        path.write_text(json.dumps(fn(json.loads(path.read_text()))))
    return edit


def _set_config(key, val):
    def fn(meta):
        meta["config"][key] = val
        return meta
    return fn


def _without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


MANIFEST_FIELDS = {"dataset": str, "folds": int, "fold_seed": int}

# name -> (file in the run directory, corruption, what the error says)
RUN_DIR_CORRUPTIONS = {
    "metrics-row-4-fields": (
        "metrics.csv",
        lambda p: p.write_text(p.read_text().splitlines()[0] + "\nTINY,teacher-gin,0,0.5\n"),
        ":2: expected dataset,method,fold,seed,accuracy"),
    "meta-without-config": ("teacher_fold0.json", _edit_json(_without("config")),
                            ": missing key 'config'"),
    "config-unknown-kind": ("teacher_fold0.json", _edit_json(_set_config("kind", "gat")),
                            ": unknown model kind 'gat'"),
    "config-extra-key": ("teacher_fold0.json", _edit_json(_set_config("width", 3)),
                         ": unknown gin config key 'width'"),
    "meta-is-list": ("teacher_fold0.json", _edit_json(lambda meta: [meta]),
                     ": expected a JSON object, got list"),
    "manifest-without-folds": ("manifest.json", _edit_json(_without("folds")),
                               ": missing key 'folds'"),
}


def _corrupt_copy(teacher_run, tmp_path, case):
    run = tmp_path / "run"
    shutil.copytree(teacher_run, run)
    name, edit, message = RUN_DIR_CORRUPTIONS[case]
    edit(run / name)
    return run, re.escape(str(run / name) + message)


class TestRunDirErrors:
    @pytest.mark.parametrize("case", list(RUN_DIR_CORRUPTIONS))
    def test_reader_raises_format_error(self, teacher_run, tmp_path, case):
        run, message = _corrupt_copy(teacher_run, tmp_path, case)
        readers = {
            "metrics.csv": lambda: read_metrics_csv(run / "metrics.csv"),
            "teacher_fold0.json": lambda: load_teacher_checkpoint(run, 0),
            "manifest.json": lambda: read_manifest(run, MANIFEST_FIELDS),
        }
        with pytest.raises(FormatError, match=message):
            readers[RUN_DIR_CORRUPTIONS[case][0]]()

    @pytest.mark.parametrize("case", list(RUN_DIR_CORRUPTIONS))
    def test_cli_exits_1(self, tiny_data, teacher_run, tmp_path, caplog, case):
        run, message = _corrupt_copy(teacher_run, tmp_path, case)
        base = ["--data-dir", str(tiny_data), "--out-dir", str(tmp_path / "runs")]
        if case.startswith("metrics"):
            assert main(["report", "--runs", str(run), *base]) == 1
        else:
            assert main(["evaluate", "--teacher-run", str(run), *base]) == 1
        assert re.search(message, caplog.text)

    def test_valid_run_reads_back(self, teacher_run):
        assert read_manifest(teacher_run, MANIFEST_FIELDS)["folds"] == 2
        assert load_teacher_checkpoint(teacher_run, 1).config.kind == "gin"
        assert len(read_metrics_csv(teacher_run / "metrics.csv")) == 2

    def test_student_meta_checked(self, tmp_path):
        save_student_checkpoint(tmp_path, StudentConfig(kind="ga-mlp"), {"w": np.ones(2)}, 0, 0)
        cfg, params = load_student_checkpoint(tmp_path, 0, 0)
        assert cfg == StudentConfig(kind="ga-mlp") and list(params) == ["w"]
        meta = tmp_path / "student_fold0_seed0.json"
        for corrupt, message in ((_set_config("hidden", "64"), "'hidden' has type str"),
                                 (_without("config"), "missing key 'config'")):
            shutil.copy(meta, tmp_path / "good.json")
            _edit_json(corrupt)(meta)
            with pytest.raises(FormatError, match=re.escape(f"{meta}: ") + ".*" + message):
                load_student_checkpoint(tmp_path, 0, 0)
            shutil.copy(tmp_path / "good.json", meta)


class TestCliRangeChecks:
    """Out-of-range flags end in ``ConfigError`` (exit 1) and write no run directory."""

    @pytest.mark.parametrize("flag,value,message", [
        ("--hidden", "0", "hidden must be >= 1, got 0"),
        ("--layers", "0", "num_layers must be >= 1, got 0"),
        ("--dropout", "1.0", "dropout must be in [0, 1), got 1.0"),
    ])
    def test_teacher_config_exits_1(self, tiny_data, tmp_path, caplog, flag, value, message):
        out = tmp_path / "runs"
        assert main(["train-teacher", "--dataset", "TINY", flag, value, "--data-dir",
                     str(tiny_data), "--out-dir", str(out)]) == 1
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--hidden", "0", "hidden must be >= 1, got 0"),
        ("--student-layers", "0", "num_layers must be >= 1, got 0"),
        ("--dropout", "1.0", "dropout must be in [0, 1), got 1.0"),
        ("--dropout", "-0.1", "dropout must be in [0, 1), got -0.1"),
    ])
    def test_student_config_exits_1(self, tiny_data, teacher_run, tmp_path, caplog, flag,
                                    value, message):
        out = tmp_path / "runs"
        assert main(["distill", "--teacher-run", str(teacher_run), flag, value,
                     "--lambda", "0", "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 1
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--lr-decay", "-1", "lr_decay must be in (0, 1], got -1.0"),
        ("--lr-decay", "0", "lr_decay must be in (0, 1], got 0.0"),
        ("--lr-decay", "1.5", "lr_decay must be in (0, 1], got 1.5"),
        ("--lr-patience", "-5", "lr_patience must be >= 0, got -5"),
    ])
    def test_teacher_schedule_exits_1(self, tiny_data, tmp_path, caplog, flag, value, message):
        out = tmp_path / "runs"
        assert main(["train-teacher", "--dataset", "TINY", flag, value, "--data-dir",
                     str(tiny_data), "--out-dir", str(out)]) == 1
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--lambda", "nan", "weight lam must be finite and >= 0, got nan"),
        ("--mu", "inf", "weight mu must be finite and >= 0, got inf"),
        ("--soft", "-1", "weight soft must be finite and >= 0, got -1.0"),
        ("--student-seeds", ",", "expected at least one int, got ','"),
        ("--lr-decay", "nan", "lr_decay must be in (0, 1], got nan"),
        ("--student-seeds", "0,0", "student_seeds repeats a seed: (0, 0)"),
    ])
    def test_distill_run_config_exits_1(self, tiny_data, teacher_run, tmp_path, caplog, flag,
                                        value, message):
        out = tmp_path / "runs"
        assert main(["distill", "--teacher-run", str(teacher_run), flag, value,
                     "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 1
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("fold", ["7", "-1"])
    def test_dynamic_bench_fold_out_of_range(self, tiny_data, teacher_run, tmp_path, caplog,
                                             fold):
        out = tmp_path / "runs"
        assert main(["dynamic-bench", "--teacher-run", str(teacher_run), "--student-run",
                     str(tmp_path / "no-student"), "--fold", fold, "--data-dir",
                     str(tiny_data), "--out-dir", str(out)]) == 1
        assert f"--fold {fold} is out of range" in caplog.text
        assert "has 2 folds" in caplog.text
        assert not out.exists()

    def test_evaluate_fold_out_of_range(self, tiny_data, teacher_run, tmp_path, caplog):
        out = tmp_path / "runs"
        assert main(["evaluate", "--teacher-run", str(teacher_run), "--fold", "9",
                     "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 1
        assert "--fold 9 is out of range" in caplog.text and "has 2 folds" in caplog.text
        assert not out.exists()

    def test_evaluate_fold_in_range_scores_it(self, tiny_data, teacher_run, tmp_path, capsys):
        assert main(["evaluate", "--teacher-run", str(teacher_run), "--fold", "1",
                     "--data-dir", str(tiny_data), "--out-dir", str(tmp_path / "runs")]) == 0
        assert capsys.readouterr().out.startswith("fold 1: test accuracy")

    def test_synthetic_num_remove_zero(self, tmp_path, caplog):
        assert main(["dynamic-bench", "--synthetic", "--num-remove", "0", "--timing-graphs",
                     "1", "--synthetic-nodes", "40", "--out-dir", str(tmp_path / "runs")]) == 1
        assert "num_remove must be >= 1, got 0" in caplog.text

    @pytest.mark.parametrize("num_remove", ["1", "3"])
    def test_synthetic_num_remove_within_warmup(self, tmp_path, caplog, num_remove):
        """Every step of such a trace is warm-up, so nothing would be timed."""
        out = tmp_path / "runs"
        assert main(["dynamic-bench", "--synthetic", "--num-remove", num_remove,
                     "--timing-graphs", "1", "--synthetic-nodes", "40",
                     "--max-fraction", "0.5", "--out-dir", str(out)]) == 1
        assert (f"--num-remove must exceed the 3 untimed warm-up steps with --synthetic, "
                f"got {num_remove}") in caplog.text
        assert not out.exists()

    def test_synthetic_writes_the_saved_model_outputs(self, tmp_path, capsys):
        assert main(["dynamic-bench", "--synthetic", "--num-remove", "5", "--timing-graphs", "2",
                     "--synthetic-nodes", "20", "--max-fraction", "0.5",
                     "--out-dir", str(tmp_path / "runs")]) == 0
        bench = Path(capsys.readouterr().out.splitlines()[-1])
        manifest = read_manifest(bench, {"dataset": str, "graphs_scored": int})
        assert manifest["graphs_scored"] == 2 and bench.name.startswith(manifest["dataset"])
        assert len((bench / "perturbation.csv").read_text().splitlines()) == 7
        stored = json.loads((bench / "latency.json").read_text())
        assert {engine: stats["steps"] for engine, stats in stored.items()} == {
            "incremental_student": 4, "full_student": 4, "full_teacher": 4}

    @pytest.mark.parametrize("missing", ["--teacher-run", "--student-run"])
    def test_dynamic_bench_missing_run_flag_exits_1(self, tiny_data, teacher_run, tmp_path,
                                                    caplog, missing):
        out = tmp_path / "runs"
        runs = {"--teacher-run": str(teacher_run), "--student-run": str(tmp_path / "student")}
        given = [x for flag, path in runs.items() if flag != missing for x in (flag, path)]
        assert main(["dynamic-bench", *given, "--data-dir", str(tiny_data),
                     "--out-dir", str(out)]) == 1
        assert f"{missing} is required without --synthetic" in caplog.text
        assert not out.exists()

    def test_synthetic_four_removals_timed(self, tmp_path, capsys):
        assert main(["dynamic-bench", "--synthetic", "--num-remove", "4", "--timing-graphs", "1",
                     "--synthetic-nodes", "20", "--max-fraction", "0.5",
                     "--out-dir", str(tmp_path / "runs")]) == 0
        assert "incremental speedup over full teacher" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_synthetic_nodes_below_1(self, tmp_path, caplog, value):
        out = tmp_path / "runs"
        assert main(["dynamic-bench", "--synthetic", "--synthetic-nodes", value,
                     "--out-dir", str(out)]) == 1
        assert f"--synthetic-nodes must be >= 1, got {value}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("synthetic", [True, False])
    def test_dynamic_bench_max_fraction_not_finite(self, tiny_data, teacher_run, tmp_path,
                                                   caplog, value, synthetic):
        out = tmp_path / "runs"
        source = (["--synthetic", "--synthetic-nodes", "40"] if synthetic else
                  ["--teacher-run", str(teacher_run), "--student-run",
                   str(tmp_path / "no-student"), "--data-dir", str(tiny_data)])
        assert main(["dynamic-bench", *source, "--max-fraction", value, "--timing-graphs", "1",
                     "--out-dir", str(out)]) == 1
        assert f"max_fraction must be in (0, 1], got {value}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--timing-graphs", "--repetitions"])
    def test_dynamic_bench_count_below_1(self, tmp_path, caplog, flag):
        assert main(["dynamic-bench", "--synthetic", flag, "0", "--synthetic-nodes", "40",
                     "--out-dir", str(tmp_path / "runs")]) == 1
        assert f"{flag} must be >= 1, got 0" in caplog.text

    @pytest.mark.parametrize("flag,value", [("--num-walks", "-3"), ("--num-walks", "0"),
                                            ("--jobs", "0")])
    def test_preprocess_count_below_1(self, tmp_path, caplog, flag, value):
        data = tmp_path / "data"
        save_tudataset(data / "TINY", two_class_structural(num_graphs=4, seed=0, min_nodes=8,
                                                           max_nodes=10, name="TINY"))
        out = tmp_path / "runs"
        assert main(["preprocess", "--dataset", "TINY", flag, value, "--data-dir", str(data),
                     "--out-dir", str(out)]) == 1
        assert f"{flag} must be >= 1, got {value}" in caplog.text
        assert not (data / "TINY" / "TINY.structcache.npz").exists()
        assert not out.exists()

    def test_preprocess_negative_seed(self, tmp_path, caplog):
        data = tmp_path / "data"
        save_tudataset(data / "TINY", two_class_structural(num_graphs=4, seed=0, min_nodes=8,
                                                           max_nodes=10, name="TINY"))
        out = tmp_path / "runs"
        assert main(["preprocess", "--dataset", "TINY", "--seed", "-1", "--data-dir",
                     str(data), "--out-dir", str(out)]) == 1
        assert "--seed must be >= 0, got -1" in caplog.text
        assert not (data / "TINY" / "TINY.structcache.npz").exists()
        assert not out.exists()

    def test_teacher_negative_seed(self, tiny_data, tmp_path, caplog):
        out = tmp_path / "runs"
        assert main(["train-teacher", "--dataset", "TINY", "--seed", "-1", "--data-dir",
                     str(tiny_data), "--out-dir", str(out)]) == 1
        assert "--seed must be >= 0, got -1" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["-1", "0,-2"])
    def test_distill_negative_student_seed(self, tiny_data, teacher_run, tmp_path, caplog,
                                           seeds):
        out = tmp_path / "runs"
        assert main(["distill", "--teacher-run", str(teacher_run), "--student-seeds", seeds,
                     "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 1
        assert f"--student-seeds must be >= 0, got {seeds.split(',')[-1]}" in caplog.text
        assert not out.exists()

    def test_count_from_config_file_checked(self, tiny_data, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        out = tmp_path / "runs"
        assert main(["train-teacher", "--dataset", "TINY", "--config", str(cfg),
                     "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 1
        assert "--jobs must be >= 1, got 0" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"epochs": 1.5}, {"folds": 2.0}, {"batch_size": 2.5}, {"seed": 1.5}, {"lr": None},
        {"epochs": True}, {"epochs": "x"}, {"arch": "gat"}, {"layers": [3]},
    ], ids=["epochs-float", "folds-float", "batch-size-float", "seed-float", "lr-null",
            "epochs-bool", "epochs-text", "arch-not-a-choice", "layers-list"])
    def test_bad_config_value_exits_1(self, tiny_data, tmp_path, caplog, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert main(["train-teacher", "--dataset", "TINY", "--config", str(cfg),
                     "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 1
        (key,) = config
        assert f"config key {key!r}" in caplog.text
        assert not out.exists()

    def test_config_values_parse_like_flags(self, tiny_data, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": "2", "folds": 2, "lr": 1, "lr-patience": 1,
                                   "layers": 1, "hidden": 4, "arch": "gcn"}))
        out = tmp_path / "runs"
        assert main(["train-teacher", "--dataset", "TINY", "--config", str(cfg),
                     "--data-dir", str(tiny_data), "--out-dir", str(out)]) == 0
        config = json.loads((run_dirs(out)[0] / "manifest.json").read_text())["config"]
        assert (config["epochs"], config["folds"], config["lr"], config["arch"]) == (
            2, 2, 1.0, "gcn")
        assert type(config["lr"]) is float

    @pytest.mark.parametrize("config,code", [({"save_students": 1}, 1),
                                             ({"walks_per_epoch": None}, 0)],
                             ids=["switch-not-bool", "null-where-default-is-none"])
    def test_config_switch_and_null(self, tiny_data, teacher_run, tmp_path, caplog, config,
                                    code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert main(["distill", "--teacher-run", str(teacher_run), "--config", str(cfg),
                     "--epochs", "2", "--lr-patience", "1", "--student-seeds", "0",
                     "--hidden", "4", "--data-dir", str(tiny_data),
                     "--out-dir", str(out)]) == code
        if code:
            assert "config key 'save_students'" in caplog.text

    def test_checkpoint_config_out_of_range_is_format_error(self, teacher_run, tmp_path,
                                                            tiny_data, caplog):
        run = tmp_path / "run"
        shutil.copytree(teacher_run, run)
        meta = run / "teacher_fold0.json"
        _edit_json(_set_config("hidden", 0))(meta)
        with pytest.raises(FormatError, match=re.escape(f"{meta}: hidden must be >= 1")):
            load_teacher_checkpoint(run, 0)
        assert main(["evaluate", "--teacher-run", str(run), "--data-dir", str(tiny_data),
                     "--out-dir", str(tmp_path / "runs")]) == 1
