"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import pipeline  # noqa: E402
import tracing  # noqa: E402
from graphdistill import autodiff, data, dynamic, models, structure, training  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] \
        == list(pipeline.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    assert WORKLOADS == list(pipeline.workloads())


def tu_files(workload: str, seed: int, out: Path) -> dict[str, bytes]:
    data.save_tudataset(out, pipeline.workloads()[workload].make_dataset(seed))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload, tmp_path):
    first = tu_files(workload, 5, tmp_path / "a")
    assert tu_files(workload, 5, tmp_path / "b") == first
    assert tu_files(workload, 6, tmp_path / "c") != first


def test_host_speed_scaling():
    speed = hostspeed.HostSpeed()
    period = hostspeed.PERIOD_S
    # Probes every period, except one blind stretch of 10 periods after 4.
    speed.at = [i * period for i in range(5)] + [(14 + i) * period for i in range(6)]
    speed.took = [hostspeed.REFERENCE_S / 2] * 11  # the host runs at half speed
    speed.cost = [0.0] * 11
    assert speed.blind_share() == pytest.approx(9 / 19)
    got = speed.scaled([0.0, 5 * period, 4 * period, 0.0],
                       [3 * period, 9 * period, 10 * period, 19 * period])
    want = [6 * period, 9 * period, 2 * period + 9 * period, 20 * period + 9 * period]
    assert got == pytest.approx(want)
    speed.cost = [period / 10] * 11  # probe time inside a timing is taken out
    speed._arrays = None
    assert speed.scaled([0.0], [3 * period]) == pytest.approx([2 * (3 - 0.3) * period])


def test_tracer_restores_every_lookup_site():
    modules = (autodiff, data, dynamic, models, structure, training)
    before = [dict(m.__dict__) for m in modules]
    tables = (dict(models.FORWARD), dict(models.INFER))
    step = autodiff.Adam.step
    with tracing.Tracer().installed():
        assert training.make_batch is not before[-1]["make_batch"]
        assert models.INFER["gin"] is not tables[1]["gin"]
        assert autodiff.Adam.step is not step
    assert [dict(m.__dict__) for m in modules] == before
    assert (dict(models.FORWARD), dict(models.INFER)) == tables
    assert autodiff.Adam.step is step


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
