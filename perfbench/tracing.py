"""Per-layer spans timed from outside the package.

A ``Tracer`` replaces public functions of ``graphdistill`` with timing
wrappers at the place each one is looked up, keeps per-name counters in
memory and restores every original on exit. The wrapped functions are
called with the same arguments in the same order, so traced runs compute
bit-identical results.

Lookup sites matter: ``training`` and ``dynamic`` import their helpers by
name, and ``models.FORWARD`` / ``models.INFER`` hold direct references, so
each of those is patched where the caller reads it.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from graphdistill import autodiff, data, dynamic, models, structure, training

AUTODIFF_OPS = ("segment_sum", "gather_rows", "matmul", "add", "mul", "relu",
                "log_softmax", "l2_normalize", "concat", "frobenius_sq")

LOSS_TERMS = ("batch_ground_truth", "batch_soft_logits", "batch_whole_graph",
              "batch_inter_cluster", "batch_path_consistency", "total_loss")

# (module, attribute, span name). One span name may sit at several sites.
SITES = (
    [(structure, fn, f"structure.{fn}") for fn in
     ("louvain_cluster", "laplacian_pe", "sample_walks", "ga_mlp_aggregate",
      "save_struct_caches", "load_struct_caches")]
    + [(data, "load_tudataset", "data.load_tudataset")]
    + [(mod, "make_batch", "models.make_batch") for mod in (models, training, dynamic)]
    + [(training, "student_forward", "models.student_forward")]
    + [(mod, "student_infer", "models.student_infer") for mod in (models, training, dynamic)]
    + [(training, term, f"losses.{term}") for term in LOSS_TERMS]
    + [(autodiff, "backward", "autodiff.backward"),
       (autodiff.Adam, "step", "autodiff.Adam.step")]
    + [(training, fn, f"training.{fn}") for fn in
       ("train_teacher", "distill_student", "cache_teacher")]
    + [(dynamic, "ga_mlp_aggregate", "structure.ga_mlp_aggregate")]
    + [(dynamic, fn, f"dynamic.{fn}") for fn in
       ("init_incremental_state", "incremental_insert", "incremental_remove",
        "full_student_logits", "full_teacher_logits")]
)

# Teacher kinds share one span per role: each workload trains one kind.
DICT_SITES = ((models.FORWARD, "models.teacher_forward"),
              (models.INFER, "models.teacher_infer"))

UPDATE_SPANS = ("dynamic.incremental_insert", "dynamic.incremental_remove")


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span timers and counters for one benchmark process."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.rows_refreshed = 0
        self._stack: list[list] = []  # [span name, child seconds] per open span
        self._undo: list = []

    def reset(self) -> None:
        self.stats = {}
        self.rows_refreshed = 0

    def stat(self, name: str) -> SpanStat:
        return self.stats.get(name) or self.stats.setdefault(name, SpanStat())

    def _timed(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                st = self.stat(name)
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
        traced.__wrapped__ = fn
        return traced

    def _op(self, name: str, fn):
        """Time an autodiff op and the backward closure it stores on its output."""
        forward = self._timed(name, fn)
        bwd_name = name + ".bwd"

        def traced(*args, **kwargs):
            out = forward(*args, **kwargs)
            if out._backward is not None:
                out._backward = self._timed(bwd_name, out._backward)
            return out
        return traced

    def _embed_rows(self, fn):
        """Count rows the incremental updates push through the student MLP."""
        def traced(rows, *args, **kwargs):
            if self._stack and self._stack[-1][0] in UPDATE_SPANS:
                self.rows_refreshed += rows.shape[0]
            return fn(rows, *args, **kwargs)
        return traced

    def _patch(self, owner, attr, make_wrapper) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]``) by ``make_wrapper(original)``.

        A site the package no longer has is skipped; its span then records
        no calls, which the benchmark reports as a failure.
        """
        table = owner if isinstance(owner, dict) else owner.__dict__
        if attr not in table:
            return
        original = table[attr]
        self._undo.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = make_wrapper(original)
        else:
            setattr(owner, attr, make_wrapper(original))

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        try:
            for op in AUTODIFF_OPS:
                self._patch(autodiff, op, lambda fn, op=op: self._op(f"autodiff.{op}", fn))
            for owner, attr, name in SITES:
                self._patch(owner, attr, lambda fn, name=name: self._timed(name, fn))
            for table, name in DICT_SITES:
                for kind in list(table):
                    self._patch(table, kind, lambda fn, name=name: self._timed(name, fn))
            self._patch(dynamic, "student_embed_rows", self._embed_rows)
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)


SPANS = (
    "structure.laplacian_pe", "structure.louvain_cluster", "structure.sample_walks",
    "structure.ga_mlp_aggregate", "structure.save_struct_caches",
    "structure.load_struct_caches", "data.load_tudataset",
    "models.make_batch", "models.teacher_forward", "models.student_forward",
    "models.teacher_infer", "models.student_infer",
    "autodiff.backward", "autodiff.Adam.step",
    *(f"losses.{term}" for term in LOSS_TERMS),
    "training.train_teacher", "training.distill_student", "training.cache_teacher",
    "dynamic.init_incremental_state", *UPDATE_SPANS,
    "dynamic.full_student_logits", "dynamic.full_teacher_logits",
)

# Spans whose own time, outside traced children, is a separate metric.
SELF_SPANS = ("training.train_teacher", "training.distill_student",
              "dynamic.full_student_logits", "dynamic.full_teacher_logits")

PER_LAYER = (
    [(f"{span}.s", "s") for span in SPANS]
    + [(f"{span}.calls", "count") for span in SPANS]
    + [(f"{span}.self_s", "s") for span in SELF_SPANS]
    + [(f"autodiff.{op}.{part}", unit) for op in AUTODIFF_OPS
       for part, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))]
    + [("structure.sidecar_bytes", "bytes"), ("dynamic.rows_refreshed", "rows/update"),
       ("trace.overhead_pct", "%")]
)


def layer_metrics(tracer: Tracer, updates: int, sidecar_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced round, except ``trace.overhead_pct``."""
    out: dict[str, float] = {}
    for span in SPANS:
        st = tracer.stat(span)
        out[f"{span}.s"] = st.total_s
        out[f"{span}.calls"] = st.calls
    for span in SELF_SPANS:
        out[f"{span}.self_s"] = tracer.stat(span).self_s
    for op in AUTODIFF_OPS:
        fwd, bwd = tracer.stat(f"autodiff.{op}"), tracer.stat(f"autodiff.{op}.bwd")
        out[f"autodiff.{op}.fwd_s"] = fwd.total_s
        out[f"autodiff.{op}.bwd_s"] = bwd.total_s
        out[f"autodiff.{op}.calls"] = fwd.calls
    out["structure.sidecar_bytes"] = sidecar_bytes
    out["dynamic.rows_refreshed"] = tracer.rows_refreshed / max(updates, 1)
    return out


def silent_spans(tracer: Tracer) -> list[str]:
    """Spans, and op backward closures, that recorded no call.

    Every workload runs every layer, so a name listed here means a wrapper
    sits where nothing looks it up.
    """
    names = list(SPANS) + [f"autodiff.{op}{part}" for op in AUTODIFF_OPS
                           for part in ("", ".bwd")]
    return [name for name in names if tracer.stat(name).calls == 0]
