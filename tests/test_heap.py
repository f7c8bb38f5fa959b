"""The glibc heap setting made on import of ``graphdistill.autodiff``.

Both tests run training steps in a subprocess that can undo the setting
with its own ``mallopt`` calls, back to glibc's 128 KiB defaults. The first
counts minor page faults of one step with the setting and without it; the
second checks that the setting changes no output bit.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphdistill

from heap_steps import Trainer, mallopt_fn

needs_glibc = pytest.mark.skipif(mallopt_fn() is None, reason="C library has no mallopt")


def _subprocess(*args) -> str:
    src = Path(graphdistill.__file__).resolve().parents[1]
    code = (f"import sys; sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]; "
            f"import heap_steps; heap_steps.{args[0]}(*{list(args[1:])!r})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@needs_glibc
def test_training_step_reuses_faulted_heap():
    counts = json.loads(_subprocess("run_faults").strip().splitlines()[-1])
    assert counts["defaults"] > 1000, counts
    assert counts["kept"] < 0.1 * counts["defaults"], counts


@needs_glibc
def test_outputs_bit_equal_without_setting(tmp_path):
    trainer = Trainer(dropout=0.3)
    losses = [trainer.step() for _ in range(2)]
    here = trainer.outputs(losses)
    _subprocess("run_outputs", str(tmp_path / "defaults.npz"))
    with np.load(tmp_path / "defaults.npz") as there:
        assert sorted(there.files) == sorted(here)
        for name, value in here.items():
            assert np.array_equal(there[name], value), name
