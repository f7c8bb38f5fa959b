"""Benchmark of the graphdistill pipeline.

Run one workload from the repository root:

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. ``--workload all`` runs every workload, each in its own process.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("train-small", "large-sparse")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: most matrices here are 64 wide, and a second thread on a
# small shared machine adds more run-to-run spread than speed.
BLAS_THREADS = 1


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every input (self-tests)")
    return p.parse_args(argv)


def blas_threads() -> int:
    """Threads of the OpenBLAS that numpy loaded, read from the library itself."""
    import ctypes
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def machine_facts(seed: int) -> dict:
    import networkx
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def run_one(args) -> int:
    import pipeline

    workload = pipeline.workloads(args.tiny)[args.workload]
    work_dir = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    print("# machine " + json.dumps(machine_facts(args.seed), sort_keys=True))
    try:
        outcome = pipeline.run(workload, args.seed, args.seconds, bool(args.trace),
                               work_dir, log)
    except pipeline.NoResult as exc:
        log(str(exc))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    directions = {name: d for name, _, d in pipeline.END_TO_END}
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in outcome.notes:
        print(f"# {note}")
    for name, value in outcome.metrics.items():
        better = f"({directions[name]} is better)" if name in directions else ""
        print(f"{name:<44} {value:>16.6g} {outcome.units[name]:<12} {better}")
    rate = outcome.failed / outcome.attempted
    print(f"# error_rate {rate:.6g} ({outcome.failed} failed of {outcome.attempted} operations)")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": outcome.units[name]}
                    for name, value in outcome.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            log(f"workload {name} exited with code {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"# all workloads: error_rate {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} operations)")
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "workloads": results}))
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "graphdistill" / "__init__.py").is_file():
        log(f"graphdistill sources not found under {SRC}")
        return 2
    for var in BLAS_ENV:  # must be set before numpy loads OpenBLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
