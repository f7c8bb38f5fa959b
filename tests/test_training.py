import gc
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from graphdistill import autodiff as ad, training
from graphdistill.autodiff import Adam
from graphdistill.cli import _floats, ablation_arms, build_parser, grid_arms
from graphdistill.data import Dataset, FoldSplit, degree_onehot_features, stratified_kfold
from graphdistill.dynamic import make_trace
from graphdistill.errors import (ConfigError, ContractError, GraphDistillError, IntegrityError,
                                 NumericError)
from graphdistill.losses import DistillWeights
from graphdistill.models import INIT, GcnConfig, GinConfig, StudentConfig, make_batch
from graphdistill.structure import build_struct_caches, sample_walks
from graphdistill.synth import two_class_structural
from graphdistill.training import (
    RunConfig,
    TeacherCheckpoint,
    _draw_walks,
    _segment_rows,
    cache_teacher,
    distill_student,
    mean_accuracy,
    sweep,
    train_teacher,
)

from conftest import build_graph
from oracles import full_walk_matrix, reference_cache_teacher, unpadded


@pytest.fixture(scope="module")
def tiny_setup():
    dataset = two_class_structural(num_graphs=24, seed=0, min_nodes=8, max_nodes=14,
                                   name="tiny")
    folds = stratified_kfold(dataset, 2, seed=0)
    caches = build_struct_caches(dataset, seed=0, k_pe=4, walk_length=4)
    run = RunConfig(weights=DistillWeights(), epochs=4, batch_size=8, lr=8e-3,
                    lr_patience=2, seed=0, student_seeds=(0,))
    grid = [GinConfig(num_layers=2, hidden=8)]
    checkpoints = train_teacher(dataset, folds, grid, run)
    tcaches = {c.fold_index: cache_teacher(c, dataset, caches) for c in checkpoints}
    return dataset, folds, caches, run, checkpoints, tcaches


class TestPlateauInFit:
    """The lr plateau of ``_fit``, driven by a scripted test accuracy: the lr of
    each epoch is read at its one ``Adam.step``."""

    @staticmethod
    def _epoch_lrs(monkeypatch, accuracies, decay, patience):
        lrs = []

        class RecordingAdam(Adam):
            def step(self):
                lrs.append(self.lr)
                super().step()

        monkeypatch.setattr(training, "Adam", RecordingAdam)
        params = {"p": ad.parameter(np.zeros(1))}
        fold = FoldSplit(0, np.arange(1), np.arange(1, 2))
        run = RunConfig(epochs=len(accuracies), lr=1.0, lr_decay=decay, lr_patience=patience)
        scripted = iter(accuracies)

        def batch_loss(chunk):
            loss = ad.frobenius_sq(params["p"])
            return loss, {"gt": loss}

        result = training._fit("test", fold, 0, params, run, np.random.default_rng(0),
                               lambda: batch_loss, lambda view: next(scripted), keep_best=False)
        assert result.test_curve == list(accuracies)
        assert result.epoch_of_best == accuracies.index(max(accuracies))
        return lrs

    def test_decay_after_patience_and_again_after_reset(self, monkeypatch):
        lrs = self._epoch_lrs(monkeypatch, [0.5] * 4 + [0.4] * 4, decay=0.6, patience=2)
        assert lrs == pytest.approx([1, 1, 1, 1, 0.6, 0.6, 0.6, 0.36])

    def test_new_best_restarts_the_count(self, monkeypatch):
        accuracies = [0.5, 0.4, 0.4, 0.6, 0.4, 0.4, 0.4, 0.4]
        lrs = self._epoch_lrs(monkeypatch, accuracies, decay=0.5, patience=2)
        assert lrs == [1.0] * 7 + [0.5]

    def test_rising_accuracy_keeps_lr(self, monkeypatch):
        lrs = self._epoch_lrs(monkeypatch, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], decay=0.5,
                              patience=1)
        assert lrs == [1.0] * 6


class TestRunConfigValidation:
    def test_patience_must_be_below_epochs(self):
        with pytest.raises(ConfigError):
            RunConfig(epochs=10, lr_patience=10)

    def test_batch_size_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(epochs=10, lr_patience=1, batch_size=0)

    @pytest.mark.parametrize("key,value", [
        ("temperature", 0.0), ("temperature", -1.0), ("temperature", float("nan")),
        ("temperature", float("inf")), ("walks_per_epoch", 0), ("walks_per_epoch", -1),
        ("lr", 0.0), ("lr", -8e-3), ("lr", float("nan")), ("lr", float("inf")),
    ])
    def test_out_of_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(epochs=10, lr_patience=1, **{key: value})

    @pytest.mark.parametrize("key,value", [
        ("lr_decay", 0.0), ("lr_decay", -1.0), ("lr_decay", 1.5), ("lr_decay", float("nan")),
        ("lr_decay", float("inf")), ("lr_patience", -5), ("lr_patience", -1),
        ("student_seeds", ()), ("student_seeds", (0, 0)), ("student_seeds", (1, 2, 1)),
    ])
    def test_schedule_and_seeds_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{"epochs": 10, "lr_patience": 1, key: value})

    def test_schedule_edges_accepted(self):
        RunConfig(epochs=10, lr_patience=0, lr_decay=1.0, student_seeds=(3,))
        RunConfig(epochs=10, lr_patience=9, lr_decay=1e-9)

    def test_edge_values_accepted(self):
        RunConfig(epochs=10, lr_patience=1, walks_per_epoch=1, temperature=1e-3, lr=1e-9)
        RunConfig(epochs=10, lr_patience=1, walks_per_epoch=None)


class TestNegativeSeedsTyped:
    """An out-of-range seed or degree cap raises a typed error where it enters the
    library, before any numpy seed sequence or index sees it."""

    @pytest.mark.parametrize("call,error,match", [
        (lambda ds, folds, caches, run, tcaches: train_teacher(
            ds, folds, [GinConfig(num_layers=2, hidden=8)], replace(run, seed=-1)),
         ConfigError, "seed must be >= 0, got -1"),
        (lambda ds, folds, caches, run, tcaches: distill_student(
            ds, folds, caches, tcaches, StudentConfig(hidden=8),
            replace(run, student_seeds=(0, -2))),
         ConfigError, "student_seeds must be >= 0, got -2"),
        (lambda ds, folds, caches, run, tcaches: sweep(
            ds, folds, caches, tcaches, StudentConfig(hidden=8), replace(run, seed=-1),
            {"plain": DistillWeights(lam=0, mu=0, eta=0, soft=0)}),
         ConfigError, "seed must be >= 0, got -1"),
        (lambda ds, folds, caches, run, tcaches: build_struct_caches(ds, -1),
         ContractError, "seed must be >= 0, got -1"),
        (lambda ds, folds, caches, run, tcaches: stratified_kfold(ds, 2, -1),
         ConfigError, "seed must be >= 0, got -1"),
        (lambda ds, folds, caches, run, tcaches: make_trace(ds.graphs[0], 0, 1, 1, seed=-1),
         ConfigError, "seed must be >= 0, got -1"),
        (lambda ds, folds, caches, run, tcaches: degree_onehot_features(ds, max_deg=-1),
         ConfigError, "max_deg must be None or >= 0, got -1"),
    ], ids=["train_teacher", "distill_student", "sweep", "build_struct_caches",
            "stratified_kfold", "make_trace", "degree_onehot_features"])
    def test_typed_error(self, tiny_setup, call, error, match):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        with pytest.raises(error, match=match):
            call(dataset, folds, caches, run, tcaches)


class TestTeacherTraining:
    def test_single_graph_smoke(self):
        g = build_graph(3, [(0, 1), (1, 2)], np.ones((3, 2)), label=0)
        g2 = build_graph(3, [(0, 1)], np.ones((3, 2)), label=1)
        ds = Dataset([g, g2] * 2, 2, 2, "smoke")
        folds = stratified_kfold(ds, 2, seed=0)
        run = RunConfig(epochs=1, lr_patience=0, seed=0)
        ckpts = train_teacher(ds, folds, [GinConfig(num_layers=1, hidden=4)], run)
        assert len(ckpts) == 2
        for c in ckpts:
            assert c.best_test_accuracy in (0.0, 0.5, 1.0)

    def test_deterministic_checkpoints(self, tiny_setup):
        dataset, folds, caches, run, checkpoints, _ = tiny_setup
        again = train_teacher(dataset, folds, [GinConfig(num_layers=2, hidden=8)], run)
        for a, b in zip(checkpoints, again):
            assert a.best_test_accuracy == b.best_test_accuracy
            for k in a.params:
                assert a.params[k].tobytes() == b.params[k].tobytes()

    def test_grid_keeps_best(self, tiny_setup):
        dataset, folds, _, run, _, _ = tiny_setup
        grid = [GinConfig(num_layers=1, hidden=4), GinConfig(num_layers=2, hidden=8)]
        ckpts = train_teacher(dataset, folds, grid, run)
        assert len(ckpts) == len(folds)


class TestTeacherCache:
    def test_cache_twice_bitwise_identical(self, tiny_setup):
        dataset, folds, caches, run, checkpoints, _ = tiny_setup
        a = cache_teacher(checkpoints[0], dataset, caches)
        b = cache_teacher(checkpoints[0], dataset, caches)
        for pa, pb in zip(a.node_embeddings, b.node_embeddings):
            assert pa.tobytes() == pb.tobytes()
        for pa, pb in zip(a.logits, b.logits):
            assert pa.tobytes() == pb.tobytes()

    def test_untrained_teacher_cache_shapes(self, tiny_setup):
        dataset, folds, caches, run, checkpoints, _ = tiny_setup
        ckpt = checkpoints[0]
        cache = cache_teacher(ckpt, dataset, caches)
        assert cache.logits.shape == (len(dataset.graphs), dataset.num_classes)
        assert cache.node_embeddings.shape == (cache.node_offsets[-1], ckpt.config.hidden)
        assert cache.cluster_embeddings.shape[0] == cache.cluster_offsets[-1]
        for i, g in enumerate(dataset.graphs):
            lo, hi = cache.node_offsets[i:i + 2]
            clo, chi = cache.cluster_offsets[i:i + 2]
            assert cache.node_embeddings[lo:hi].shape == (g.num_nodes, ckpt.config.hidden)
            assert cache.logits[i].shape == (dataset.num_classes,)
            assert cache.cluster_embeddings[clo:chi].shape[0] == caches[i].clusters.num_clusters

    def test_cached_logits_reproduce_train_accuracy(self, tiny_setup):
        dataset, folds, caches, run, checkpoints, _ = tiny_setup
        for ckpt, fold in zip(checkpoints, folds):
            cache = cache_teacher(ckpt, dataset, caches)
            preds = np.array([int(np.argmax(cache.logits[i])) for i in fold.train_ids])
            labels = dataset.labels[fold.train_ids]
            assert float((preds == labels).mean()) == ckpt.train_accuracy

    def test_cluster_mismatch_is_integrity_error(self, tiny_setup):
        dataset, folds, caches, run, checkpoints, _ = tiny_setup
        import copy

        broken = [caches[0]] + caches[1:]
        broken[0] = copy.deepcopy(broken[0])
        broken[0].clusters.cluster_of = broken[0].clusters.cluster_of[:-1]
        with pytest.raises(IntegrityError, match="cluster"):
            cache_teacher(checkpoints[0], dataset, broken)


class TestPackedTeacherCache:
    """Each packed field holds, byte for byte, the per-graph arrays that slicing the
    chunked teacher forward gives (``oracles.reference_cache_teacher``), and the
    offsets cut it into graphs."""

    @pytest.fixture(scope="class")
    def many_graphs(self):
        # More graphs than one 256-graph inference chunk holds.
        dataset = two_class_structural(num_graphs=300, seed=3, min_nodes=5, max_nodes=8,
                                       name="many")
        return dataset, build_struct_caches(dataset, seed=3, k_pe=2, walk_length=2)

    @pytest.mark.parametrize("config", [
        GinConfig(num_layers=2, hidden=8, eps=0.3),
        GcnConfig(num_layers=2, hidden=8, readout="attention"),
    ], ids=["gin", "gcn"])
    def test_packed_fields_equal_reference_lists(self, many_graphs, config):
        dataset, caches = many_graphs
        params = INIT[config.kind](np.random.default_rng(0), dataset.feature_dim, config,
                                   dataset.num_classes)
        ckpt = TeacherCheckpoint(fold_index=0, config=config,
                                 params={k: p.values for k, p in params.items()},
                                 best_test_accuracy=0.0, epoch_of_best=0, train_accuracy=0.0)
        cache = cache_teacher(ckpt, dataset, caches)
        logits, nodes, graphs, clusters = reference_cache_teacher(ckpt, dataset, caches)
        for got, want in [(cache.logits, np.stack(logits)),
                          (cache.graph_embeddings, np.stack(graphs)),
                          (cache.node_embeddings, np.concatenate(nodes)),
                          (cache.cluster_embeddings, np.concatenate(clusters))]:
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert cache.node_offsets.tolist() == np.cumsum(
            [0] + [g.num_nodes for g in dataset.graphs]).tolist()
        assert cache.cluster_offsets.tolist() == np.cumsum(
            [0] + [c.clusters.num_clusters for c in caches]).tolist()

    def test_segment_rows_gather_slices_in_id_order(self):
        offsets = np.array([0, 3, 3, 4, 8, 10])
        table = np.arange(20.0).reshape(10, 2)
        for ids in ([4, 0, 2], [1], [3, 3, 0], [1, 1], list(range(5))):
            ids = np.array(ids)
            want = np.concatenate([table[offsets[i]:offsets[i + 1]] for i in ids])
            assert table[_segment_rows(offsets, ids)].tobytes() == want.tobytes()


class TestDistillStudent:
    def test_runs_and_reports(self, tiny_setup):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8, use_lape=True)
        results = distill_student(dataset, folds, caches, tcaches, scfg, run)
        assert len(results) == len(folds) * len(run.student_seeds)
        for r in results:
            assert 0.0 <= r.best_test_accuracy <= 1.0
            assert len(r.test_curve) == run.epochs
            assert len(r.loss_curves["total"]) == run.epochs

    def test_loss_decomposition_identity(self, tiny_setup):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="ga-mlp", num_layers=2, hidden=8)
        results = distill_student(dataset, folds, caches, tcaches, scfg, run)
        w = run.weights
        for r in results:
            for e in range(run.epochs):
                total = r.loss_curves["total"][e]
                recomposed = (r.loss_curves["gt"][e]
                              + w.soft * r.loss_curves["sl"][e]
                              + w.lam * r.loss_curves["graph"][e]
                              + w.mu * r.loss_curves["cluster"][e]
                              + w.eta * r.loss_curves["path"][e])
                assert total == pytest.approx(recomposed, abs=1e-9)

    def test_deterministic_given_seed(self, tiny_setup):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8)
        a = distill_student(dataset, folds, caches, tcaches, scfg, run)
        b = distill_student(dataset, folds, caches, tcaches, scfg, run)
        for ra, rb in zip(a, b):
            assert ra.best_test_accuracy == rb.best_test_accuracy
            assert ra.loss_curves == rb.loss_curves

    def test_zero_weight_leaves_shared_gradients_unchanged(self, tiny_setup):
        # One optimization step with eta=0 must equal a run where the path
        # loss is computed but multiplied by zero weight; shared parts agree.
        dataset, folds, caches, run, _, tcaches = tiny_setup
        from dataclasses import replace

        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8)
        run_a = replace(run, epochs=2, lr_patience=1,
                        weights=DistillWeights(lam=0.1, mu=0.1, eta=0.0, soft=1.0))
        run_b = replace(run, epochs=2, lr_patience=1,
                        weights=DistillWeights(lam=0.1, mu=0.1, eta=1e-30, soft=1.0))
        a = distill_student(dataset, folds, caches, tcaches, scfg, run_a)
        b = distill_student(dataset, folds, caches, tcaches, scfg, run_b)
        for ra, rb in zip(a, b):
            np.testing.assert_allclose(ra.loss_curves["gt"], rb.loss_curves["gt"],
                                       atol=1e-12)
            np.testing.assert_allclose(ra.loss_curves["cluster"], rb.loss_curves["cluster"],
                                       atol=1e-12)

    def test_missing_caches_config_error(self, tiny_setup):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8)
        with pytest.raises(ConfigError, match="preprocess"):
            distill_student(dataset, folds, caches[:-1], tcaches, scfg, run)

    def test_swapped_struct_caches_are_integrity_error(self, tiny_setup):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        sizes = [g.num_nodes for g in dataset.graphs]
        j = next(i for i, n in enumerate(sizes) if n != sizes[0])
        swapped = list(caches)
        swapped[0], swapped[j] = caches[j], caches[0]
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8, use_lape=True)
        with pytest.raises(IntegrityError, match="graph 0: cluster assignment does not match"):
            distill_student(dataset, folds, swapped, tcaches, scfg, run)

    def test_hidden_mismatch_with_graph_loss(self, tiny_setup):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=16)  # teacher hidden 8
        with pytest.raises(ConfigError, match="hidden"):
            distill_student(dataset, folds, caches, tcaches, scfg, run)

    def test_capture_params(self, tiny_setup):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8)
        results = distill_student(dataset, folds, caches, tcaches, scfg, run,
                                  capture_params=True)
        assert all(r.params is not None for r in results)


# ``FoldResult.loss_curves`` of a 2-epoch GA-MLP+LaPE distill on ``tiny_setup``
# (2 of its 96 walks start on an isolated node); one list entry per fold.
# The last bits depend on the summation order of the walk scores and their
# adjoints in ``losses._walk_log_probs``, and of the cluster-kernel entries and
# their adjoints in ``losses.batch_inter_cluster``.
PINNED_LOSS_CURVES = {
    None: [
        {
            "gt": [1.1417966449794443, 0.7711382983405954],
            "sl": [0.10693418396165008, 0.23250897201163076],
            "graph": [1.0735917224788383, 1.1803795366266416],
            "cluster": [0.49285586199250253, 0.3210462385032094],
            "path": [0.7386634773087671, 0.7956899052554733],
            "total": [1.4054494537359592, 1.1538694168557369],
        },
        {
            "gt": [0.92752806769161, 0.7569734022714517],
            "sl": [0.1955562159671359, 0.21229559201932705],
            "graph": [1.2888811353555276, 1.2561062452961842],
            "cluster": [0.33420264734896243, 0.35568459145057885],
            "path": [0.5716520786106485, 0.510913570347818],
            "total": [1.285449827137056, 1.1304991693224897],
        },
    ],
    2: [
        {
            "gt": [1.141796644941378, 0.7711382379000831],
            "sl": [0.10693418397017812, 0.2325089935639283],
            "graph": [1.0735917224639824, 1.1803792830255877],
            "cluster": [0.4928558619019263, 0.32104649120860745],
            "path": [0.7536606103328123, 0.8949222106934676],
            "total": [1.4054509534091801, 1.1538793011085002],
        },
        {
            "gt": [0.9275280675176922, 0.7569736770922153],
            "sl": [0.19555621588877078, 0.21229533333066267],
            "graph": [1.2888811352280947, 1.2561050733065702],
            "cluster": [0.3342026473921169, 0.3556853875471446],
            "path": [0.568765000628406, 0.461113539168866],
            "total": [1.285449538168547, 1.1304941678621663],
        },
    ],
}

# The same distill with ``eta = 0`` (no path term): only the inter-cluster
# term's summation order moves its last bits.
PINNED_LOSS_CURVES_NO_PATH = [
    {
        "gt": [1.1417966449775312, 0.7711382692275999],
        "sl": [0.10693418396686304, 0.23250907162410805],
        "graph": [1.0735917224678455, 1.180380183823199],
        "cluster": [0.4928558619751071, 0.3210463567706676],
        "path": [0.0, 0.0],
        "total": [1.4053755873886895, 1.1537899949110946],
    },
    {
        "gt": [0.9275280673358288, 0.7569733417026666],
        "sl": [0.19555621585555988, 0.21229554769407322],
        "graph": [1.2888811352116865, 1.2561073163282823],
        "cluster": [0.33420264757093343, 0.35568386105972966],
        "path": [0.0, 0.0],
        "total": [1.2853926614696507, 1.130448007135541],
    },
]


class TestPinnedLossCurves:
    @staticmethod
    def curves(tiny_setup, **changes):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="ga-mlp", num_layers=2, hidden=8, use_lape=True)
        run = replace(run, epochs=2, lr_patience=1, **changes)
        return [r.loss_curves for r in distill_student(dataset, folds, caches, tcaches, scfg, run)]

    @pytest.mark.parametrize("walks_per_epoch", [None, 2])
    def test_loss_curves_unchanged(self, tiny_setup, walks_per_epoch):
        assert (self.curves(tiny_setup, walks_per_epoch=walks_per_epoch)
                == PINNED_LOSS_CURVES[walks_per_epoch])

    def test_no_path_term_curves_unchanged(self, tiny_setup):
        weights = DistillWeights(eta=0.0)
        assert self.curves(tiny_setup, weights=weights) == PINNED_LOSS_CURVES_NO_PATH


def params_sha256(params: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(str(params[key].shape).encode())
        h.update(params[key].tobytes())
    return h.hexdigest()


# Per fold of a 2-epoch teacher on ``tiny_setup``: (params sha256,
# best_test_accuracy, epoch_of_best, train_accuracy).
PINNED_TEACHERS = {
    "gin": (GinConfig(num_layers=2, hidden=8, dropout=0.3, eps=0.3), [
        ("e5d984fb2189b2c3aec956a01d6d834126a98ce733ea4fd8eda43c5995af7176",
         0.5833333333333334, 0, 0.5833333333333334),
        ("7d11e33a904677a0bd2bedc035a6da40f8222f166d799ea16809671d09a86fbd",
         0.6666666666666666, 1, 0.4166666666666667),
    ]),
    "gin-eps0": (GinConfig(num_layers=2, hidden=8), [
        ("131f30c2eab273105f9a518cda6b4243fdbabffd6489143315e7b78bed32ed9c",
         0.5833333333333334, 0, 0.5833333333333334),
        ("eda8392cdf9ee4b75e7040e09f59f35bd842ed07ceedd06c17287a5d2bbfceae",
         0.6666666666666666, 1, 0.4166666666666667),
    ]),
    "gcn": (GcnConfig(num_layers=2, hidden=8, readout="attention"), [
        ("3688e6e23202945559a7f62a7ec1f9cceb99364b4cdee10fd010a85237e44a63",
         0.75, 0, 0.6666666666666666),
        ("f0123427bda00774ef5fdf595e9e13970f02ff62bc9c727b942d6a924db713c8",
         0.8333333333333334, 0, 0.5833333333333334),
    ]),
}

# Per fold of the ``TestPinnedLossCurves`` distill: (test_curve, epoch_of_best,
# best params sha256).
PINNED_STUDENTS = {
    None: [
        ([0.5833333333333334, 0.5833333333333334], 0,
         "bd0cee9c0b007926db6a40840295efdc46eed3235d118e824c7edfbdd9ad334b"),
        ([0.25, 0.16666666666666666], 0,
         "757f11cddad960654817a87260adfba18174f003f09a2c23e3a1518fc75c7e5d"),
    ],
    2: [
        ([0.5833333333333334, 0.5833333333333334], 0,
         "f902f26f9158941f7da6a004fad792d40b9e36028d9d77f99751d5d1bf3fc8b3"),
        ([0.25, 0.16666666666666666], 0,
         "25640e36bf3f8a3f8d11094fd18d9cd2e6208d501be2f14332a152552ea871e3"),
    ],
}


class TestPinnedFits:
    """Teacher checkpoints and student selections of a 2-epoch run, pinned to
    the bit: the training loop's draw order, selection and updates."""

    @pytest.mark.parametrize("name", sorted(PINNED_TEACHERS))
    def test_teacher_checkpoints_unchanged(self, tiny_setup, name):
        dataset, folds, _, run, _, _ = tiny_setup
        config, pinned = PINNED_TEACHERS[name]
        ckpts = train_teacher(dataset, folds, [config], replace(run, epochs=2, lr_patience=1))
        assert [(params_sha256(c.params), c.best_test_accuracy, c.epoch_of_best,
                 c.train_accuracy) for c in ckpts] == pinned

    @pytest.mark.parametrize("walks_per_epoch", [None, 2])
    def test_student_selection_unchanged(self, tiny_setup, walks_per_epoch):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="ga-mlp", num_layers=2, hidden=8, use_lape=True)
        run = replace(run, epochs=2, lr_patience=1, walks_per_epoch=walks_per_epoch)
        results = distill_student(dataset, folds, caches, tcaches, scfg, run,
                                  capture_params=True)
        assert [(r.test_curve, r.epoch_of_best, params_sha256(r.params))
                for r in results] == PINNED_STUDENTS[walks_per_epoch]


class TestWalkDraw:
    """An epoch's draw from the padded pool matrix equals the pick through the
    stacked full-walk matrix and its pool-index map (``oracles.full_walk_matrix``)."""

    @staticmethod
    def assert_same_draw(pool, walk_length, limit, seed):
        full, row_of = full_walk_matrix(unpadded(pool), walk_length)
        got, take = _draw_walks(pool, np.random.default_rng(seed), limit)
        assert take == (len(pool) if limit is None else min(limit, len(pool)))
        rows = row_of[np.random.default_rng(seed).permutation(len(pool))[:take]]
        want = full[rows[rows >= 0]]
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("limit", [None, 1, 5, 50])
    def test_pool_with_singleton_rows(self, limit):
        g = build_graph(7, [(0, 1), (1, 2), (2, 0), (4, 5)])  # 3 and 6 are isolated
        pool = sample_walks(g, 20, 3, seed=4).walks
        assert 0 < np.sum(pool[:, -1] < 0) < len(pool)
        for seed in range(3):
            self.assert_same_draw(pool, 3, limit, seed)

    @pytest.mark.parametrize("limit", [None, 2])
    def test_empty_and_all_singleton_pools(self, limit):
        self.assert_same_draw(np.zeros((0, 4), dtype=np.int64), 3, limit, 0)
        self.assert_same_draw(sample_walks(build_graph(2, []), 6, 3, seed=0).walks, 3,
                              limit, 0)


class TestDivergence:
    def test_nan_teacher_logit_is_typed_error(self, tiny_setup):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        fold = folds[0]
        tcache = tcaches[fold.fold_index]
        logits = tcache.logits.copy()
        logits[int(fold.train_ids[0]), 0] = np.nan
        bad = {fold.fold_index: replace(tcache, logits=logits)}
        scfg = StudentConfig(kind="mlp", hidden=8)
        with pytest.raises(GraphDistillError, match="non-finite student loss at epoch 0"):
            distill_student(dataset, [fold], caches, bad, scfg, run)

    def test_diverged_teacher_grid_point_is_skipped(self, tiny_setup):
        dataset, folds, _, run, _, _ = tiny_setup
        graphs = list(dataset.graphs)
        nan_features = graphs[0].features.copy()
        nan_features[0, 0] = np.nan
        graphs[0] = replace(graphs[0], features=nan_features)
        bad = replace(dataset, graphs=graphs)
        grid = [GinConfig(num_layers=1, hidden=4)]
        with pytest.raises(ConfigError, match="every grid point diverged"):
            train_teacher(bad, folds, grid, run)
        assert issubclass(training._Diverged, NumericError)
        # Graph 0 trains in one fold only; that fold names its grid point and epoch.
        with pytest.raises(ConfigError, match=r"folds \[(\d)\]: fold \1 grid point 0: "
                                              r"non-finite teacher loss at epoch 0$"):
            train_teacher(bad, folds, grid, run)

    def test_partly_diverged_fold_logs_one_warning(self, tiny_setup, monkeypatch, caplog):
        dataset, folds, _, run, _, _ = tiny_setup
        fit = training._fit_teacher

        def fit_or_diverge(dataset, fold, config, run, grid_index):
            if grid_index == 1:
                raise training._Diverged("non-finite teacher loss at epoch 3")
            return fit(dataset, fold, config, run, grid_index)

        monkeypatch.setattr(training, "_fit_teacher", fit_or_diverge)
        grid = [GinConfig(num_layers=1, hidden=4), GinConfig(num_layers=2, hidden=8)]
        with caplog.at_level("WARNING", logger="graphdistill"):
            ckpts = train_teacher(dataset, folds, grid, run)
        assert [c.config for c in ckpts] == [grid[0]] * len(folds)
        assert [r.getMessage() for r in caplog.records] == [
            f"teacher fold {f.fold_index} skipped grid point 1: non-finite teacher loss at epoch 3"
            for f in folds]


def _reference_accum(t, g):
    """The eager accumulation the lean tape replaced: a zeroed buffer, then +=."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


class TestLeanTapeBitEqual:
    """Borrowed first gradients change no bit of training."""

    @staticmethod
    def _train(dataset, folds, caches, run):
        two = replace(run, epochs=2, lr_patience=1)
        out = {}
        # With eps 0, ``add`` hands one gradient to both branches of a GIN layer.
        teachers = {"gin": GinConfig(num_layers=2, hidden=8, dropout=0.3, eps=0.3),
                    "gin-eps0": GinConfig(num_layers=2, hidden=8),
                    "gcn": GcnConfig(num_layers=2, hidden=8, readout="attention")}
        for name, cfg in teachers.items():
            (ckpt,) = train_teacher(dataset, folds[:1], [cfg], two)
            out.update({f"{name}.{k}": v for k, v in ckpt.params.items()})
            out[f"{name}.accuracy"] = np.array([ckpt.best_test_accuracy, ckpt.train_accuracy])
        tcaches = {ckpt.fold_index: cache_teacher(ckpt, dataset, caches)}
        scfg = StudentConfig(kind="ga-mlp", hidden=8, use_lape=True, dropout=0.2)
        weights = DistillWeights(lam=0.1, mu=0.1, eta=0.1, soft=1.0)
        (res,) = distill_student(dataset, folds[:1], caches, tcaches, scfg,
                                 replace(two, weights=weights), capture_params=True)
        out.update({f"student.{k}": v for k, v in res.params.items()})
        out.update({f"curve.{k}": np.array(v) for k, v in res.loss_curves.items()})
        out["curve.test"] = np.array(res.test_curve)
        return out

    def test_matches_eager_accumulation(self, tiny_setup, monkeypatch):
        dataset, folds, caches, run, _, _ = tiny_setup
        lean = self._train(dataset, folds, caches, run)
        monkeypatch.setattr(ad, "_accum", _reference_accum)
        eager = self._train(dataset, folds, caches, run)
        assert lean.keys() == eager.keys()
        assert all(v > 0 for v in lean["curve.path"]) and all(v > 0 for v in lean["curve.cluster"])
        for key in lean:
            assert np.array_equal(lean[key], eager[key]), key


class TestTapeFreedBetweenBatches:
    """No tensor of one batch's tape is alive when the next batch's forward starts,
    across batches and across epochs."""

    @staticmethod
    def _counting(forward, live):
        def wrapped(*args, **kwargs):
            gc.collect()
            live.append(sum(isinstance(o, ad.Tensor) and o._op != "leaf"
                            for o in gc.get_objects()))
            return forward(*args, **kwargs)
        return wrapped

    def test_teacher(self, tiny_setup, monkeypatch):
        dataset, folds, _, run, _, _ = tiny_setup
        live = []
        monkeypatch.setitem(training.FORWARD, "gin", self._counting(training.FORWARD["gin"], live))
        train_teacher(dataset, folds[:1], [GinConfig(num_layers=2, hidden=8)],
                      replace(run, epochs=2, lr_patience=1))
        assert len(live) == 4 and len(set(live)) == 1, live

    def test_student(self, tiny_setup, monkeypatch):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        live = []
        monkeypatch.setattr(training, "student_forward",
                            self._counting(training.student_forward, live))
        scfg = StudentConfig(kind="ga-mlp", num_layers=2, hidden=8, use_lape=True)
        distill_student(dataset, folds[:1], caches, tcaches, scfg,
                        replace(run, epochs=2, lr_patience=1))
        assert len(live) == 4 and len(set(live)) == 1, live


class TestAblation:
    def test_arm_weight_vectors(self):
        base = DistillWeights(lam=0.3, mu=0.2, eta=1e-4, soft=1.0)
        arms = ablation_arms(base)
        assert arms["baseline"] == DistillWeights(0, 0, 0, soft=0.0)
        assert arms["graph"] == DistillWeights(0.3, 0, 0, soft=1.0)
        assert arms["cluster"] == DistillWeights(0, 0.2, 0, soft=1.0)
        assert arms["path"] == DistillWeights(0, 0, 1e-4, soft=1.0)
        assert arms["full"] == base

    def test_report_shape(self, tiny_setup):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8)
        report = sweep(dataset, folds, caches, tcaches, scfg, run, ablation_arms(run.weights))
        assert list(report) == ["baseline", "graph", "cluster", "path", "full"]
        for results in report.values():
            assert len(results) == len(folds) * len(run.student_seeds)

    def test_all_zero_arms_identical(self, tiny_setup):
        # With every weight zero, all arms collapse to the same computation.
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8)
        arms = ablation_arms(DistillWeights(0.0, 0.0, 0.0, soft=0.0))
        report = sweep(dataset, folds, caches, tcaches, scfg, run, arms)
        ref = [r.best_test_accuracy for r in report["baseline"]]
        for arm in ("graph", "cluster", "path", "full"):
            assert [r.best_test_accuracy for r in report[arm]] == ref


class TestWeightGrid:
    def test_spec_search_space_size(self):
        parser, _ = build_parser()
        args = parser.parse_args(["grid", "--teacher-run", "run"])
        grid = grid_arms(_floats(args.lambdas), _floats(args.mus), _floats(args.etas),
                         args.soft)
        assert len(grid) == 18
        assert len({(w.lam, w.mu, w.eta) for _, w in grid}) == 18
        assert len({label for label, _ in grid}) == 18
        assert all("," not in label for label, _ in grid)


class TestSweep:
    def test_one_pool_and_arms_match_one_arm_runs(self, tiny_setup, monkeypatch):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8)
        run = replace(run, student_seeds=(0, 1))
        arms = grid_arms([0.1, 0.0], [1.0], [1e-4, 0.0], soft=1.0)
        pools = []

        class CountingPool(training.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(training, "ProcessPoolExecutor", CountingPool)
        report = sweep(dataset, folds, caches, tcaches, scfg, run, arms, jobs=2)
        assert len(pools) == 1
        assert list(report) == [label for label, _ in arms]
        for label, weights in arms:
            alone = distill_student(dataset, folds, caches, tcaches, scfg,
                                    replace(run, weights=weights))
            got = report[label]
            assert [(r.fold_index, r.seed) for r in got] == [
                (f.fold_index, s) for f in folds for s in run.student_seeds]
            assert [r.loss_curves for r in got] == [r.loss_curves for r in alone]
            assert [r.test_curve for r in got] == [r.test_curve for r in alone]

    @pytest.mark.parametrize("values", [[0.1, 0.1], [0.1234567, 0.1234568]])
    def test_repeated_label_rejected(self, tiny_setup, monkeypatch, values):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8)
        monkeypatch.setattr(training, "_parallel_map", None)  # fails before any training
        with pytest.raises(ConfigError, match="repeated sweep arm labels"):
            sweep(dataset, folds, caches, tcaches, scfg, run,
                  grid_arms(values, [1.0], [1e-4], soft=1.0))


class TestParallelJobs:
    def test_jobs_two_matches_serial(self, tiny_setup):
        dataset, folds, caches, run, _, tcaches = tiny_setup
        scfg = StudentConfig(kind="mlp", num_layers=2, hidden=8)
        serial = distill_student(dataset, folds, caches, tcaches, scfg, run, jobs=1)
        parallel = distill_student(dataset, folds, caches, tcaches, scfg, run, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.best_test_accuracy == b.best_test_accuracy
