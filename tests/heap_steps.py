"""Training steps run in a subprocess by ``test_heap.py``.

Kept apart from the test module so that the subprocess does not import
pytest. ``restore_glibc_defaults`` undoes the heap setting that importing
``graphdistill.autodiff`` makes.
"""

import ctypes
import json
import resource

import numpy as np

from graphdistill import autodiff as ad
from graphdistill.data import Graph
from graphdistill.losses import batch_ground_truth
from graphdistill.models import INFER, GcnConfig, gcn_forward, init_params, make_batch

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
GLIBC_DEFAULT = 128 * 1024


def mallopt_fn():
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn


def restore_glibc_defaults() -> None:
    mallopt = mallopt_fn()
    assert mallopt(M_MMAP_THRESHOLD, GLIBC_DEFAULT) == 1
    assert mallopt(M_TRIM_THRESHOLD, GLIBC_DEFAULT) == 1


def _batch():
    """Two 2000-node sparse graphs (random tree plus n/5 extra edges), 16 features."""
    rng = np.random.default_rng(7)
    graphs = []
    for label in (0, 1):
        n = 2000
        parent = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
        extra = rng.integers(0, n, size=(n // 5, 2))
        extra = extra[extra[:, 0] != extra[:, 1]]
        edges = list(zip(parent.tolist(), range(1, n))) + [tuple(e) for e in extra.tolist()]
        features = np.eye(16)[rng.integers(0, 16, n)]
        graphs.append(Graph.from_edges(n, edges, features, label))
    return make_batch(graphs)


class Trainer:
    """GCN-3x64 on one batch, Adam, dropout from a seeded generator."""

    def __init__(self, dropout=0.0):
        self.batch = _batch()
        self.config = GcnConfig(num_layers=3, hidden=64, dropout=dropout)
        self.params = init_params(np.random.default_rng(1), 16, self.config, 2)
        self.opt = ad.Adam(self.params, 1e-2)
        self.rng = np.random.default_rng(2) if dropout > 0 else None

    def step(self) -> float:
        out = gcn_forward(self.batch, self.config, self.params, self.rng)
        loss = batch_ground_truth(out.logits, self.batch.labels)
        self.opt.zero_grad()
        ad.backward(loss)
        self.opt.step()
        return float(loss.values)

    def outputs(self, losses) -> dict:
        arrays = {k: p.values for k, p in self.params.items()}
        infer = INFER["gcn"](self.batch, self.config, arrays)
        return {**{f"param.{k}": v for k, v in arrays.items()},
                "logits": infer.logits, "nodes": infer.node_embeddings,
                "losses": np.asarray(losses)}


def _faults_of(fn) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def run_faults() -> None:
    trainer = Trainer()
    trainer.step()
    kept = _faults_of(trainer.step)
    restore_glibc_defaults()
    trainer.step()
    defaults = _faults_of(trainer.step)
    print(json.dumps({"kept": kept, "defaults": defaults}))


def run_outputs(out_path: str) -> None:
    restore_glibc_defaults()
    trainer = Trainer(dropout=0.3)
    losses = [trainer.step() for _ in range(2)]
    np.savez(out_path, **trainer.outputs(losses))
