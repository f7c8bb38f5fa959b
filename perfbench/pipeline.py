"""Benchmark workloads: seeded inputs, the measured pipeline, metrics.

Every workload runs the same distill-and-serve pipeline on its own inputs:
the preprocess path (TU load, struct caches, sidecar save and read-back),
teacher training on one fold, a checkpoint round trip, teacher caching,
student distillation with all five loss terms, batch student inference,
and a closed-loop stream of node inserts and removes served by the
incremental student. Workloads differ in graph shape and model, so each
one stresses a different layer.

A run makes one checked pass through the pipeline, then keeps calling its
stages, interleaved, until the time is up. Interleaving spreads every
metric's samples over the whole run, so a burst of load on a shared
machine touches all of them a little instead of one of them a lot. Every
timing is scaled to a reference host speed by a probe timed all through
the run (``hostspeed``), and a metric is the median, or the 99th
percentile, of the scaled timings of the whole run.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from graphdistill import data, dynamic, models, runio, structure, synth, training
from graphdistill.errors import GraphDistillError

import checks
import hostspeed
import tracing

K_PE = 8
WALK_LENGTH = 8
INFER_CHUNK = 256
SETUP_REPEATS = 5
MAX_DEGREE = 16  # social graphs one-hot encode degrees 0..15 and ">= 16"

# name, unit, direction: the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("preprocess_graphs_per_s", "graphs/s", "higher"),
    ("teacher_train_graphs_per_s", "graphs/s", "higher"),
    ("student_train_graphs_per_s", "graphs/s", "higher"),
    ("teacher_infer_graphs_per_s", "graphs/s", "higher"),
    ("student_infer_graphs_per_s", "graphs/s", "higher"),
    ("dyn_update_p50_ms", "ms", "lower"),
    ("dyn_update_p99_ms", "ms", "lower"),
    ("dyn_full_student_p50_ms", "ms", "lower"),
    ("dyn_full_teacher_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

STAGES = ("preprocess", "teacher_train", "teacher_infer", "student_train", "student_infer",
          "stream")
# Relative share of the measuring time each stage gets after the first pass.
SHARES = {"preprocess": 4, "teacher_train": 4, "teacher_infer": 1, "student_train": 1,
          "student_infer": 1, "stream": 3}


def structural_dataset(num_graphs: int):
    def make(seed: int) -> data.Dataset:
        return synth.two_class_structural(num_graphs, seed=seed)
    return make


def social_dataset(num_graphs: int, num_nodes: int):
    """The ``sparse_social_dataset`` recipe with every graph at exactly ``num_nodes``.

    Dense LaPE costs O(n^3), so the +-10% size draw of the stock generator
    would move preprocess time by about 10% between seeds. Its labels are
    coin flips; alternating them keeps both classes for a stratified split.
    Degrees are one-hot encoded up to ``MAX_DEGREE``, so the input width is
    the same for every seed.
    """
    def make(seed: int) -> data.Dataset:
        rng = np.random.default_rng(seed)
        graphs = [
            data.Graph.from_edges(
                num_nodes,
                synth.preferential_attachment_edges(num_nodes, rng, extra_edges=num_nodes // 5),
                np.ones((num_nodes, 1)), i % 2)
            for i in range(num_graphs)
        ]
        base = data.Dataset(graphs, 2, 1, "synthetic-social-large")
        return data.degree_onehot_features(base, max_deg=MAX_DEGREE)
    return make


@dataclass(frozen=True)
class Workload:
    name: str
    make_dataset: object  # seed -> Dataset
    teacher: object       # GinConfig | GcnConfig
    student: models.StudentConfig
    teacher_epochs: int
    student_epochs: int
    stream_graphs: int    # graphs the update stream cycles through
    updates_per_graph: int
    full_every: int       # full recomputes run on every n-th update


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` shrinks every size for self-tests."""
    ga_mlp_lape = models.StudentConfig(kind="ga-mlp", num_layers=3, hidden=64, use_lape=True)
    # train_teacher evaluates the whole training fold each time test accuracy
    # improves. Over 2 epochs that happens once or twice, depending on the
    # seed, which moved train-small's teacher time by 20% between seeds;
    # over 4 epochs it varies less.
    specs = [
        Workload("train-small", structural_dataset(40 if tiny else 405),
                 models.GinConfig(num_layers=3, hidden=64), ga_mlp_lape,
                 teacher_epochs=4, student_epochs=2, stream_graphs=40,
                 updates_per_graph=5 if tiny else 50, full_every=5 if tiny else 10),
        Workload("large-sparse", social_dataset(4, 150 if tiny else 2000),
                 models.GcnConfig(num_layers=3, hidden=64), ga_mlp_lape,
                 teacher_epochs=3, student_epochs=2, stream_graphs=4,
                 updates_per_graph=10 if tiny else 1000, full_every=5 if tiny else 100),
    ]
    return {w.name: w for w in specs}


class Tally:
    """Attempted and failed operations; each failure is also logged."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def op(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, failures: list[str], what: str) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for msg in failures[:5]:
                self.log(f"check failed ({what}): {msg}")


@dataclass
class Samples:
    """Every timing a run collects, each as (start, seconds) by ``time.perf_counter``."""

    stages: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    graphs: dict[str, int] = field(default_factory=dict)  # graphs one stage call handles
    updates: list[tuple[float, float]] = field(default_factory=list)
    full_student: list[tuple[float, float]] = field(default_factory=list)
    full_teacher: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class Pass:
    """Outputs and stage times of one full pass through the pipeline."""

    stage_s: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)
    stream_logits: list[np.ndarray] = field(default_factory=list)
    teacher_loss: float = 0.0
    sidecar_bytes: int = 0
    peak_rss_mb: float = 0.0  # process peak so far, read when the pass ends

    def guards(self) -> dict:
        """Values a repeated or traced pass must reproduce bit for bit."""
        out = {"teacher_loss": self.teacher_loss,
               "student_loss": self.outputs["student_train"].loss_curves["total"][-1]}
        for stage in STAGES:
            stage_out = self.stream_logits if stage == "stream" else self.outputs[stage]
            out[stage] = fingerprint(stage, stage_out)
        return out


def fingerprint(stage: str, out) -> float:
    """A number that changes whenever a stage's output changes."""
    if stage == "preprocess":
        _, _, caches = out
        return float(sum(c.lape.sum() + c.clusters.modularity + c.agg_features.sum()
                         for c in caches))
    if stage == "teacher_train":
        return float(sum(v.sum() for v in out.params.values()))
    if stage == "teacher_infer":
        return float(sum(x.sum() for x in out.logits))
    if stage == "student_train":
        return float(out.loss_curves["total"][-1] + sum(v.sum() for v in out.params.values()))
    if stage == "student_infer":
        return float(out.sum())
    return float(np.concatenate(out).sum())


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(labels.size), labels].mean())


class Bench:
    """One workload at one seed, inside its own work directory."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, log):
        self.w = workload
        self.seed = seed
        self.log = log
        self.tally = Tally(log)
        self.tu_dir = work_dir / "tu"
        self.ckpt_dir = work_dir / "ckpt"
        self.name = ""
        self.setup_s: list[tuple[float, float]] = []
        self.speed = hostspeed.HostSpeed()

    def setup(self) -> None:
        """Generate the inputs and write them as TU files, several times."""
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.tu_dir, ignore_errors=True)
            t0 = time.perf_counter()
            ds = self.w.make_dataset(self.seed)
            data.save_tudataset(self.tu_dir, ds)
            self.setup_s.append((t0, time.perf_counter() - t0))
        self.name = ds.name
        self.ckpt_dir.mkdir(parents=True, exist_ok=True)

    @property
    def sidecar(self) -> Path:
        return self.tu_dir / f"{self.name}.structcache.npz"

    # One call per stage. Each takes its inputs from a finished pass, so
    # the measuring loop can call any stage in any order.

    def preprocess(self, p: Pass):  # the first stage: needs nothing from ``p``
        ds = data.load_tudataset(self.tu_dir, self.name)
        built = structure.build_struct_caches(ds, self.seed, k_pe=K_PE, walk_length=WALK_LENGTH)
        structure.save_struct_caches(self.sidecar, built, self.name, self.seed)
        caches, _ = structure.load_struct_caches(self.sidecar)
        return ds, built, caches

    def teacher_train(self, p: Pass):
        ds, fold = p.outputs["preprocess"][0], p.outputs["fold"]
        run = training.RunConfig(epochs=self.w.teacher_epochs,
                                 lr_patience=self.w.teacher_epochs - 1, seed=self.seed)
        (ckpt,) = training.train_teacher(ds, [fold], [self.w.teacher], run, jobs=1)
        return ckpt

    def teacher_infer(self, p: Pass):
        ds, _, caches = p.outputs["preprocess"]
        return training.cache_teacher(p.outputs["loaded"], ds, caches)

    def student_train(self, p: Pass):
        ds, _, caches = p.outputs["preprocess"]
        fold = p.outputs["fold"]
        run = training.RunConfig(epochs=self.w.student_epochs,
                                 lr_patience=self.w.student_epochs - 1, seed=self.seed,
                                 student_seeds=(0,))
        (result,) = training.distill_student(
            ds, [fold], caches, {fold.fold_index: p.outputs["teacher_infer"]}, self.w.student,
            run, jobs=1, capture_params=True)
        return result

    def student_infer(self, p: Pass):
        ds, _, caches = p.outputs["preprocess"]
        params = p.outputs["student_train"].params
        logits = []
        for lo in range(0, len(ds), INFER_CHUNK):
            ids = range(lo, min(lo + INFER_CHUNK, len(ds)))
            rows = [models.student_input(ds.graphs[i], caches[i], self.w.student) for i in ids]
            batch = models.make_batch([ds.graphs[i] for i in ids], rows)
            logits.append(models.student_infer(batch, self.w.student, params).logits)
        return np.concatenate(logits)

    def stream(self, p: Pass, gid: int, samples: Samples) -> np.ndarray:
        """Closed loop on one graph: one caller, each update waits for its logits."""
        w, tally = self.w, self.tally
        ds, _, caches = p.outputs["preprocess"]
        params = p.outputs["student_train"].params
        loaded = p.outputs["loaded"]
        teacher = dynamic.TeacherModel(loaded.config, loaded.params)
        graph = ds.graphs[gid]
        n = graph.num_nodes
        rng = np.random.default_rng([self.seed, gid])
        removed = rng.choice(n, size=max(1, n // 10), replace=False)
        tally.op()
        state = dynamic.init_incremental_state(graph, caches[gid], w.student, params, removed)
        logits = state.logits()
        held = self.speed.held  # no host speed probe inside these short timings
        for step in range(1, w.updates_per_graph + 1):
            absent = np.flatnonzero(~state.present)
            alive = np.flatnonzero(state.present)
            tally.op()
            if absent.size > 0 and (alive.size <= 1 or rng.random() < 0.5):
                node = int(rng.choice(absent))
                nbrs = [int(v) for v in graph.neighbors(node) if state.present[v]]
                with held():
                    t0 = time.perf_counter()
                    logits = dynamic.incremental_insert(state, node, nbrs)
                    dt = time.perf_counter() - t0
            else:
                node = int(rng.choice(alive))
                with held():
                    t0 = time.perf_counter()
                    logits = dynamic.incremental_remove(state, node)
                    dt = time.perf_counter() - t0
            samples.updates.append((t0, dt))
            if step % w.full_every == 0:
                tally.op(2)
                with held():
                    t0 = time.perf_counter()
                    full = dynamic.full_student_logits(state)
                    t1 = time.perf_counter()
                    dynamic.full_teacher_logits(state, teacher)
                    t2 = time.perf_counter()
                samples.full_student.append((t0, t1 - t0))
                samples.full_teacher.append((t1, t2 - t1))
                tally.check(checks.incremental_failures(logits, full),
                            f"graph {gid} step {step}")
        return logits

    def graphs_per_call(self, stage: str, p: Pass, out) -> int:
        if stage == "preprocess":
            return len(out[0])
        if stage in ("teacher_train", "student_train"):
            epochs = self.w.teacher_epochs if stage == "teacher_train" else self.w.student_epochs
            return epochs * p.outputs["fold"].train_ids.size
        return len(p.outputs["preprocess"][0])

    def call(self, stage: str, p: Pass, samples: Samples, gid: int = 0):
        """Run one timed call of ``stage``; return its output and seconds."""
        self.tally.op()
        t0 = time.perf_counter()
        if stage == "stream":
            out = self.stream(p, gid, samples)
        else:
            out = getattr(self, stage)(p)
        dt = time.perf_counter() - t0
        if stage != "stream":
            samples.stages.setdefault(stage, []).append((t0, dt))
            samples.graphs[stage] = self.graphs_per_call(stage, p, out)
        return out, dt

    def full_pass(self, samples: Samples, full_checks: bool) -> Pass:
        """Every stage once, in pipeline order; the stream serves every stream graph."""
        p = Pass()
        p.outputs["preprocess"], p.stage_s["preprocess"] = self.call("preprocess", p, samples)
        ds = p.outputs["preprocess"][0]
        p.sidecar_bytes = self.sidecar.stat().st_size
        k = min(10, int(np.bincount(ds.labels).min()))
        p.outputs["fold"] = fold = data.stratified_kfold(ds, k, self.seed)[0]

        for stage in ("teacher_train", "teacher_infer", "student_train", "student_infer"):
            p.outputs[stage], p.stage_s[stage] = self.call(stage, p, samples)
            if stage == "teacher_train":
                self.tally.op()
                runio.save_teacher_checkpoint(self.ckpt_dir, p.outputs[stage])
                p.outputs["loaded"] = runio.load_teacher_checkpoint(self.ckpt_dir,
                                                                    fold.fold_index)
        p.stage_s["stream"] = 0.0
        for gid in range(min(self.w.stream_graphs, len(ds))):
            logits, dt = self.call("stream", p, samples, gid)
            p.stream_logits.append(logits)
            p.stage_s["stream"] += dt

        tcache = p.outputs["teacher_infer"]
        p.teacher_loss = _cross_entropy(np.stack([tcache.logits[i] for i in fold.train_ids]),
                                        ds.labels[fold.train_ids])
        if full_checks:
            self._check_outputs(p)
        p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return p

    def _check_outputs(self, p: Pass) -> None:
        tally = self.tally
        ds, built, caches = p.outputs["preprocess"]
        tally.check(checks.sidecar_failures(built, caches), "sidecar read-back")
        for i, (g, c) in enumerate(zip(ds.graphs, built)):
            tally.check(checks.lape_failures(g, c.lape, K_PE), f"graph {i} lape")
            tally.check(checks.modularity_failures(g, c.clusters), f"graph {i} modularity")
        tally.check(checks.checkpoint_failures(p.outputs["teacher_train"], p.outputs["loaded"]),
                    "checkpoint round trip")
        curves = p.outputs["student_train"].loss_curves
        tally.check([f"{k} loss {v!r}" for k, v in curves.items() if not np.isfinite(v).all()],
                    "student loss terms finite")
        tally.check([] if np.isfinite(p.teacher_loss) and all(
            np.isfinite(x).all() for x in p.outputs["teacher_infer"].logits)
            else ["non-finite teacher logits"], "teacher cache")
        tally.check([] if np.isfinite(p.outputs["student_infer"]).all()
                    else ["non-finite student logits"], "student inference")

    def check_same(self, expected: dict, got: dict, what: str) -> None:
        self.tally.check([f"{k}: {got[k]!r} != {expected[k]!r}"
                          for k in expected if got[k] != expected[k]], what)


def end_to_end(bench: Bench, first: Pass, samples: Samples) -> dict[str, float]:
    """Metrics over the whole measuring loop, every timing at the reference speed."""
    def scaled(timings: list[tuple[float, float]]) -> np.ndarray:
        starts, seconds = zip(*timings)
        return bench.speed.scaled(starts, seconds)

    def rate(stage: str) -> float:
        return float(np.median(samples.graphs[stage] / scaled(samples.stages[stage])))

    def ms(timings: list[tuple[float, float]], q: float) -> float:
        return float(np.percentile(scaled(timings), q)) * 1e3

    return {
        "setup_s": float(np.median(scaled(bench.setup_s))),
        "preprocess_graphs_per_s": rate("preprocess"),
        "teacher_train_graphs_per_s": rate("teacher_train"),
        "student_train_graphs_per_s": rate("student_train"),
        "teacher_infer_graphs_per_s": rate("teacher_infer"),
        "student_infer_graphs_per_s": rate("student_infer"),
        "dyn_update_p50_ms": ms(samples.updates, 50),
        "dyn_update_p99_ms": ms(samples.updates, 99),
        "dyn_full_student_p50_ms": ms(samples.full_student, 50),
        "dyn_full_teacher_p50_ms": ms(samples.full_teacher, 50),
        # The checked pass's peak: later calls add allocator slack, not work.
        "peak_rss_mb": first.peak_rss_mb,
    }


def raw_medians(samples: Samples) -> str:
    """Unscaled medians, for the human-readable lines."""
    parts = [f"{stage} {statistics.median(s for _, s in t):.4g} s"
             for stage, t in samples.stages.items()]
    for name, t in (("update", samples.updates), ("full student", samples.full_student),
                    ("full teacher", samples.full_teacher)):
        parts.append(f"{name} {statistics.median(s for _, s in t) * 1e3:.4g} ms")
    return ", ".join(parts)


@dataclass
class Outcome:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    notes: list[str]


class NoResult(Exception):
    """The first pass did not complete, so there is nothing to report."""


def _measure(bench: Bench, first: Pass, samples: Samples, deadline: float) -> dict[str, int]:
    """Call stages, interleaved by ``SHARES``, while the next call fits before ``deadline``.

    Each call must reproduce the first pass's output exactly. Returns the
    number of calls per stage.
    """
    n_stream = len(first.stream_logits)
    spent = dict(first.stage_s)
    took = {s: [first.stage_s[s]] for s in STAGES}
    took["stream"] = [first.stage_s["stream"] / n_stream]
    calls = {s: 1 for s in STAGES}
    calls["stream"] = n_stream
    expected = first.guards()
    while True:
        left = deadline - time.perf_counter()
        fits = [s for s in STAGES if statistics.median(took[s]) <= left]
        if not fits:
            return calls
        stage = min(fits, key=lambda s: spent[s] / SHARES[s])
        gid = calls[stage] % n_stream
        out, dt = bench.call(stage, first, samples, gid)
        spent[stage] += dt
        took[stage].append(dt)
        calls[stage] += 1
        if stage == "stream":
            got = np.array_equal(out, first.stream_logits[gid])
            bench.tally.check([] if got else [f"graph {gid} logits differ"],
                              "stream repeats the first pass")
        else:
            bench.check_same({stage: expected[stage]}, {stage: fingerprint(stage, out)},
                             f"{stage} repeats the first pass")


def _first_pass(bench: Bench, samples: Samples) -> Pass:
    try:
        return bench.full_pass(samples, full_checks=True)
    except GraphDistillError as exc:
        raise NoResult(f"first pass failed: {type(exc).__name__}: {exc}") from exc


def _run_untraced(bench: Bench, seconds: float) -> Outcome:
    """End-to-end metrics over the calls after the first pass.

    The first pass warms up and is the reference; its timings stand in only
    for a stage the measuring loop had no time to call again.
    """
    bench.setup()
    start = time.perf_counter()
    warmup, samples = Samples(), Samples()
    first = _first_pass(bench, warmup)
    try:
        calls = _measure(bench, first, samples, start + seconds)
    except GraphDistillError as exc:
        bench.tally.check([f"{type(exc).__name__}: {exc}"], "stage call")
        calls = {}
    for stage, timings in warmup.stages.items():
        samples.stages.setdefault(stage, timings)
        samples.graphs.setdefault(stage, warmup.graphs[stage])
    for name in ("updates", "full_student", "full_teacher"):
        if not getattr(samples, name):
            setattr(samples, name, getattr(warmup, name))
    metrics = end_to_end(bench, first, samples)
    probe = bench.speed.median_probe()
    notes = [
        "calls per stage: " + ", ".join(f"{s} {n}" for s, n in calls.items())
        + f"; {len(samples.updates)} updates, {len(samples.full_student)} full recomputes",
        f"host speed: {len(bench.speed.took)} probes, median {probe * 1e6:.1f} us against "
        f"{hostspeed.REFERENCE_S * 1e6:.1f} us at the reference speed; "
        f"{100 * bench.speed.blind_share():.0f}% of the time in long native calls, unscaled",
        "unscaled medians: " + raw_medians(samples),
        "guards: " + ", ".join(f"{k}={v!r}" for k, v in first.guards().items()),
    ]
    units = {name: unit for name, unit, _ in END_TO_END}
    return Outcome(metrics, units, bench.tally.attempted, bench.tally.failed, notes)


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
        log) -> Outcome:
    """Set up, then measure for ``seconds`` and summarise.

    Untraced runs report the end-to-end metrics. Traced runs make one
    untraced reference pass, then traced passes whose guards must be
    bit-equal to it, and report per-layer medians over the traced passes.
    A package error ends the run early and counts as a failed operation.
    """
    bench = Bench(workload, seed, work_dir, log)
    if not trace:
        with bench.speed.sampling():
            return _run_untraced(bench, seconds)
    bench.setup()
    start = time.perf_counter()
    first = _first_pass(bench, Samples())

    notes = ["guards: " + ", ".join(f"{k}={v!r}" for k, v in first.guards().items())]
    tracer = tracing.Tracer()
    expected = first.guards()
    plain, traced, per_pass = [], [], []

    def pass_s(p: Pass) -> float:
        return sum(p.stage_s.values())

    # Untraced and traced passes alternate, so the overhead compares passes
    # made under the same machine load.
    while not traced or (time.perf_counter() - start
                         + statistics.median(map(pass_s, plain + traced)) * 2 <= seconds):
        try:
            plain.append(bench.full_pass(Samples(), full_checks=False))
            with tracer.installed():
                tracer.reset()
                p = bench.full_pass(Samples(), full_checks=False)
        except GraphDistillError as exc:
            bench.tally.check([f"{type(exc).__name__}: {exc}"], "traced pass")
            break
        bench.check_same(expected, p.guards(),
                         f"traced pass {len(traced) + 1} bit-equal to untraced")
        bench.tally.check([f"no calls recorded for {name}"
                           for name in tracing.silent_spans(tracer)],
                          "every traced layer was exercised")
        traced.append(p)
        updates = workload.updates_per_graph * len(p.stream_logits)
        per_pass.append(tracing.layer_metrics(tracer, updates, p.sidecar_bytes))
    if not traced:
        raise NoResult("no traced pass completed")
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    overhead = (statistics.median(map(pass_s, traced))
                / statistics.median(map(pass_s, plain)) - 1.0)
    metrics["trace.overhead_pct"] = 100.0 * overhead
    notes.insert(0, f"{len(traced)} traced passes; tracing overhead {100 * overhead:+.1f}% "
                    "of pipeline time against as many untraced passes")
    return Outcome(metrics, dict(tracing.PER_LAYER), bench.tally.attempted,
                   bench.tally.failed, notes)
