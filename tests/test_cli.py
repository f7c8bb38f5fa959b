import json

import numpy as np
import pytest

from graphdistill.cli import main
from graphdistill.data import save_tudataset
from graphdistill.runio import read_metrics_csv
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

    def test_manifest_contains_reproduction_info(self, tiny_data, tmp_path):
        out = tmp_path / "runs"
        assert main(["preprocess", "--dataset", "TINY", "--data-dir", str(tiny_data),
                     "--out-dir", str(out), "--seed", "9"]) == 0
        manifest = json.loads((run_dirs(out)[0] / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert "format_versions" in manifest
