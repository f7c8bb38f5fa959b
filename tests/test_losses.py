import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from graphdistill import autodiff as ad, losses
from graphdistill.errors import ConfigError, IntegrityError
from graphdistill.losses import (
    DistillWeights,
    batch_ground_truth,
    batch_inter_cluster,
    batch_path_consistency,
    batch_soft_logits,
    batch_whole_graph,
    block_kernel,
    total_loss,
)
from graphdistill.models import INFER, GinConfig, init_gin_params, make_batch, params_to_arrays
from graphdistill.structure import build_struct_caches
from graphdistill.synth import two_class_structural

from oracles import (
    assert_grads_close,
    autodiff_grads,
    finite_difference_grads,
    full_walk_matrix,
    kl_divergence,
    mmd_poly_sq,
    path_kl_oracle,
    reference_inter_cluster,
    reference_walk_log_probs,
    softmax_np,
)


def value(t):
    return float(t.values)


def unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def offsets_of(sizes):
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


def inter_cluster(student, teacher, sizes):
    """Inter-cluster loss of a batch whose graphs own ``sizes`` clusters each."""
    return value(batch_inter_cluster(ad.constant(student), teacher, offsets_of(sizes),
                                     len(sizes)))


def kernel_matrix(reps):
    """The full cosine kernel of one graph's clusters, read through ``block_kernel``."""
    n = len(reps)
    entries = block_kernel(ad.constant(reps), np.arange(n + 1) * n, np.tile(np.arange(n), n))
    return entries.values.reshape(n, n)


def path_loss(h_teacher, h_student, walks):
    """Path loss of one graph whose walk pool is ``walks`` (equal lengths)."""
    walks = np.asarray(walks, dtype=np.int64)
    weights = np.full(walks.shape[0], 1.0 / max(walks.shape[0], 1))
    return value(batch_path_consistency(ad.constant(h_student), h_teacher, walks, weights))


class TestGroundTruth:
    def test_uniform_binary(self):
        assert value(batch_ground_truth(ad.constant([[0.0, 0.0]]), np.array([0]))) == \
            pytest.approx(np.log(2.0), abs=1e-12)
        many = batch_ground_truth(ad.constant(np.zeros((3, 2))), np.array([0, 1, 0]))
        assert value(many) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_confident_correct(self):
        loss = batch_ground_truth(ad.constant([[20.0, 0.0], [0.0, 20.0]]), np.array([0, 1]))
        assert value(loss) == pytest.approx(0.0, abs=1e-8)

    def test_confident_wrong_closed_form(self):
        # -log sigmoid(-20) = log(1 + e^20) = 20.000000002061153...
        wrong = float(np.log1p(np.exp(20.0)))
        loss = batch_ground_truth(ad.constant([[0.0, 20.0]]), np.array([0]))
        assert value(loss) == pytest.approx(wrong, rel=1e-12)
        # a batch is the mean over its graphs
        right = float(np.log1p(np.exp(-20.0)))
        loss = batch_ground_truth(ad.constant([[0.0, 20.0], [20.0, 0.0]]), np.array([0, 0]))
        assert value(loss) == pytest.approx((wrong + right) / 2, rel=1e-12)


class TestSoftLogits:
    def test_identical_logits_zero(self):
        t = np.array([[1.3, -0.2, 0.5], [0.0, 4.0, -2.0]])
        for rows in (t[:1], t):
            loss = batch_soft_logits(ad.constant(rows.copy()), rows)
            assert value(loss) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_pair_zero(self):
        loss = batch_soft_logits(ad.constant([[0.0, 0.0]]), np.zeros((1, 2)))
        assert value(loss) == pytest.approx(0.0, abs=1e-12)

    def test_swapped_margin_closed_form(self):
        # teacher (1,0), student (0,1): KL = tanh(1/2) = 0.46211715726...
        loss = batch_soft_logits(ad.constant([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert value(loss) == pytest.approx(np.tanh(0.5), rel=1e-12)
        # second graph agrees with its teacher: the batch mean halves the KL
        loss = batch_soft_logits(ad.constant([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert value(loss) == pytest.approx(np.tanh(0.5) / 2, rel=1e-12)

    def test_temperature_scaling(self):
        s, t = np.array([[0.3, -0.7]]), np.array([[1.0, 0.2]])
        base = value(batch_soft_logits(ad.constant(s), t, temperature=1.0))
        hot = value(batch_soft_logits(ad.constant(s), t, temperature=4.0))
        p_t = softmax_np(t[0] / 4.0)
        q = softmax_np(s[0] / 4.0)
        expected = 16.0 * kl_divergence(p_t, q)
        assert hot == pytest.approx(expected, rel=1e-10)
        assert hot != pytest.approx(base, rel=1e-3)


class TestWholeGraph:
    def test_aligned_zero(self):
        h = np.array([[0.3, 1.2, -0.4], [2.0, -1.0, 0.5]])
        loss = batch_whole_graph(ad.constant(h.copy()), h)
        assert value(loss) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_unit_vectors(self):
        loss = batch_whole_graph(ad.constant([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert value(loss) == pytest.approx(2.0, rel=1e-6)
        loss = batch_whole_graph(ad.constant([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert value(loss) == pytest.approx(1.0, rel=1e-6)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        h_t = rng.normal(size=(3, 4))
        h_s = rng.normal(size=(3, 4))
        base = value(batch_whole_graph(ad.constant(h_s), h_t))
        for c in (0.5, 3.0):
            scaled_t = value(batch_whole_graph(ad.constant(h_s), c * h_t))
            scaled_s = value(batch_whole_graph(ad.constant(c * h_s), h_t))
            assert scaled_t == pytest.approx(base, abs=1e-12)
            assert scaled_s == pytest.approx(base, abs=1e-12)


class TestKernelMatrix:
    def test_identical_rows(self):
        k = kernel_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_allclose(k, np.ones((2, 2)), atol=1e-7)

    def test_orthogonal_rows_identity(self):
        k = kernel_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(k, np.eye(2), atol=1e-7)

    def test_cosine_closed_form(self):
        k = kernel_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert k[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-7)

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(1)
        reps = rng.normal(size=(6, 4))
        k = kernel_matrix(reps)
        assert np.all(k <= 1.0 + 1e-12) and np.all(k >= -1.0 - 1e-12)
        np.testing.assert_allclose(k, k.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(k), np.ones(6), atol=1e-7)


class TestInterCluster:
    def test_equal_kernels_zero(self):
        rng = np.random.default_rng(2)
        reps = rng.normal(size=(3, 5))
        assert inter_cluster(reps, 4.0 * reps, [3]) == pytest.approx(0.0, abs=1e-20)

    def test_frobenius_arithmetic(self):
        # student clusters at cosine 0.5, teacher clusters orthogonal:
        # kernels differ by 0.5 in two entries, 2 * 0.5^2 = 0.5 per graph
        student = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        teacher = np.eye(2)
        assert inter_cluster(student, teacher, [2]) == pytest.approx(0.5, abs=1e-14)
        # two such graphs: cross-graph kernel entries are masked out
        both = inter_cluster(np.vstack([student, student]), np.vstack([teacher, teacher]), [2, 2])
        assert both == pytest.approx(0.5, abs=1e-14)

    def test_single_cluster_always_zero(self):
        rng = np.random.default_rng(3)
        s, t = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert inter_cluster(s, t, [1, 1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch_is_integrity_error(self):
        with pytest.raises(IntegrityError, match="cluster"):
            batch_inter_cluster(ad.constant(np.ones((2, 4))), np.ones((3, 4)),
                                offsets_of([2]), 1)

    def test_matches_mmd_on_normalized_rows(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sizes = [int(k) for k in rng.integers(1, 7, size=int(rng.integers(1, 4)))]
            h = int(rng.integers(2, 6))
            a = rng.normal(size=(sum(sizes), h))
            b = rng.normal(size=(sum(sizes), h))
            offsets = offsets_of(sizes)
            expected = sum(mmd_poly_sq(unit_rows(a[lo:hi]), unit_rows(b[lo:hi]))
                           for lo, hi in zip(offsets[:-1], offsets[1:])) / len(sizes)
            assert inter_cluster(a, b, sizes) == pytest.approx(expected, abs=1e-10)


class TestMMD:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(4, 3))
        assert mmd_poly_sq(h, h.copy()) == pytest.approx(0.0, abs=1e-20)

    def test_single_rows_scalar_case(self):
        a, b = np.array([1.0, 2.0]), np.array([2.0, 0.5])
        expected = (float(a @ a) - float(b @ b)) ** 2
        assert mmd_poly_sq(a[None], b[None]) == pytest.approx(expected, rel=1e-12)

    def test_row_count_mismatch(self):
        with pytest.raises(IntegrityError):
            mmd_poly_sq(np.ones((2, 2)), np.ones((3, 2)))


class TestPathSoftmax:
    """The walk-similarity distribution, seen through the path loss in closed form."""

    def test_equal_embeddings_uniform(self):
        # equal teacher embeddings: p is uniform over the 4 walk positions;
        # student eye(4) from anchor 0: q = (e, 1, 1, 1) / (e + 3)
        loss = path_loss(np.ones((4, 3)), np.eye(4), [[0, 1, 2, 3]])
        assert loss == pytest.approx(np.log((np.e + 3) / 4) - 0.25, rel=1e-12)

    def test_orthogonal_equal_norm_uniform(self):
        # orthogonal unit rows look alike from the anchor, but the anchor
        # itself is a walk position and h_0.h_0 = 1 favours position 0
        walk = [[0, 1, 2, 3]]
        p = np.array([np.e, 1.0, 1.0, 1.0]) / (np.e + 3)
        assert path_loss(np.eye(4), np.ones((4, 2)), walk) == \
            pytest.approx(float((p * np.log(4 * p)).sum()), rel=1e-12)

    def test_alternating_walk_closed_form(self):
        # p = (e, 1, e, 1) / (2e + 2) against a uniform student
        p = np.array([np.e, 1.0, np.e, 1.0]) / (2 * np.e + 2)
        loss = path_loss(np.eye(2), np.ones((2, 3)), [[0, 1, 0, 1]])
        assert loss == pytest.approx(float((p * np.log(4 * p)).sum()), rel=1e-12)

    def test_large_scores_match_oracle(self):
        rng = np.random.default_rng(11)
        # scores reach the hundreds: a softmax without its max shift overflows
        H_t, H_s = rng.normal(size=(5, 4)) * 5, rng.normal(size=(5, 4)) * 5
        walks = [[2, 0, 4, 4, 1], [1, 3, 3, 0, 2]]
        loss = path_loss(H_t, H_s, walks)
        assert loss > 1.0
        assert loss == pytest.approx(path_kl_oracle(H_t, H_s, walks), rel=1e-9)


class TestPathConsistency:
    def test_equal_embeddings_zero(self):
        rng = np.random.default_rng(7)
        H = rng.normal(size=(6, 4))
        walks = [[0, 1, 2, 1], [3, 4, 5, 3]]
        assert path_loss(H, H.copy(), walks) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_both_sides_zero(self):
        loss = path_loss(np.ones((4, 2)), np.full((4, 3), 0.5), [[0, 1, 2, 3]])
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(8)
        H_t = rng.normal(size=(6, 4))
        H_s = rng.normal(size=(6, 4))
        walks = rng.integers(0, 6, size=(7, 5))
        assert path_loss(H_t, H_s, walks) == pytest.approx(
            path_kl_oracle(H_t, H_s, list(walks)), abs=1e-10)

    def test_empty_pool_zero(self):
        loss = batch_path_consistency(ad.constant(np.ones((2, 2))), np.ones((2, 2)),
                                      np.zeros((0, 5), dtype=np.int64), np.zeros(0))
        assert value(loss) == 0.0

    def test_singleton_walks_contribute_zero(self):
        # A walk that ended early on an isolated start is dropped from the
        # matrix but still counts in the pool size the weights divide by.
        rng = np.random.default_rng(9)
        H_t, H_s = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        mixed = [np.array([2]), np.array([0, 1, 0])]
        matrix, row_of = full_walk_matrix(mixed, walk_length=2)
        np.testing.assert_array_equal(matrix, [[0, 1, 0]])
        np.testing.assert_array_equal(row_of, [-1, 0])
        half = batch_path_consistency(ad.constant(H_s), H_t, matrix, np.full(1, 1 / 2))
        full = path_loss(H_t, H_s, matrix)
        assert value(half) == pytest.approx(full / 2, rel=1e-12)
        assert value(half) == pytest.approx(path_kl_oracle(H_t, H_s, mixed), rel=1e-12)

    def test_batched_matches_per_walk(self):
        # two graphs in one batch (nodes 0-3 with two walks, 4-7 with one):
        # the weights 1 / (walks-in-graph * graphs) average per graph
        rng = np.random.default_rng(10)
        H_t = rng.normal(size=(8, 4))
        H_s = rng.normal(size=(8, 4))
        walks = np.array([[0, 1, 2, 3], [1, 0, 1, 0], [4, 5, 6, 7]])
        weights = np.array([0.25, 0.25, 0.5])
        batched = batch_path_consistency(ad.constant(H_s), H_t, walks, weights)
        per_graph = (path_kl_oracle(H_t, H_s, list(walks[:2]))
                     + path_kl_oracle(H_t, H_s, list(walks[2:]))) / 2
        assert value(batched) == pytest.approx(per_graph, abs=1e-12)


@st.composite
def walk_batches(draw):
    """A batch of 1-3 graphs of 1-5 nodes each, 1-4 full-length walks per graph
    (columns 2-6) over that graph's global node ids, and per-graph weights.
    Small graphs make walks revisit their anchor and repeat nodes."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    length = draw(st.integers(2, 6))
    rows, weights, lo = [], [], 0
    for n in sizes:
        count = draw(st.integers(1, 4))
        for _ in range(count):
            rows.append([lo + draw(st.integers(0, n - 1)) for _ in range(length)])
            weights.append(1.0 / (count * len(sizes)))
        lo += n
    return lo, np.array(rows, dtype=np.int64), np.array(weights)


def path_term_results(H_s, H_t, walks, weights):
    """Value and gradient of ``batch_path_consistency`` and of the same KL over
    ``oracles.reference_walk_log_probs``, and the scales that bound their gaps.

    Both forms sum the same terms in another order, so each gap is bounded by
    the summed magnitudes, not by the result, which can cancel. The value
    sums ``w * p * (log p - log q)`` over walks and positions; its scale is the
    sum of ``w * p * (|log p| + |log q|)``. A score ``<H[v], H[a]>`` of anchor
    ``a`` and position ``v`` has adjoint ``w * (q - p)``; each score adds at
    most ``w * (p + q) * |H[a]|`` to the gradient of ``H[v]`` and
    ``w * (p + q) * |H[v]|`` to that of ``H[a]``, and the gradient scale sums
    these contributions entry by entry.
    """
    logp_t = reference_walk_log_probs(ad.constant(H_t), walks).values
    results = []
    for loss_of in (
        lambda H: batch_path_consistency(H, H_t, walks, weights),
        lambda H: losses._weighted_kl(logp_t, reference_walk_log_probs(H, walks), weights),
    ):
        H = ad.parameter(H_s)
        loss = loss_of(H)
        ad.backward(loss)
        results.append((float(loss.values), H.grad))
    logq = reference_walk_log_probs(ad.constant(H_s), walks).values
    p, q = np.exp(logp_t), np.exp(logq)
    value_scale = float((weights[:, None] * p * (np.abs(logp_t) + np.abs(logq))).sum())
    adjoint = (weights[:, None] * (p + q)).ravel()
    anchors = np.repeat(walks[:, 0], walks.shape[1])
    grad_scale = np.zeros_like(H_s)
    np.add.at(grad_scale, walks.ravel(), adjoint[:, None] * np.abs(H_s[anchors]))
    np.add.at(grad_scale, anchors, adjoint[:, None] * np.abs(H_s[walks.ravel()]))
    return results, value_scale, grad_scale


def assert_gaps_within_1e_12(results, value_scale, grad_scale):
    (value, grad), (ref_value, ref_grad) = results
    assert abs(value - ref_value) <= 1e-12 * value_scale
    assert np.all(np.abs(grad - ref_grad) <= 1e-12 * grad_scale)


class TestPathTermAgainstPerPositionForm:
    """``batch_path_consistency`` against the same KL over the one-gather-per-
    position scores of ``oracles.reference_walk_log_probs``."""

    # Two draws whose value or largest gradient entry nearly cancels: a bound
    # of 1e-12 times the result failed on both.
    @example(batch=(3, np.array([[0, 0, 0, 1]]), np.ones(1)), seed=856)
    @example(batch=(3, np.array([[0, 0, 2]]), np.ones(1)), seed=856)
    @given(batch=walk_batches(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_value_and_gradient(self, batch, seed):
        num_nodes, walks, weights = batch
        assume((walks != walks[:, :1]).any())  # some walk leaves its anchor
        rng = np.random.default_rng(seed)
        H_t, H_s = rng.normal(size=(num_nodes, 4)), rng.normal(size=(num_nodes, 4))
        assert_gaps_within_1e_12(*path_term_results(H_s, H_t, walks, weights))

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_catches_a_1e_9_relative_error(self, seed):
        rng = np.random.default_rng(seed)
        H_t, H_s = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        walks = rng.integers(0, 6, size=(4, 5))
        results, value_scale, grad_scale = path_term_results(H_s, H_t, walks, np.full(4, 0.25))
        assert_gaps_within_1e_12(results, value_scale, grad_scale)
        (value, grad), ref = results
        for wrong in ((value * (1 + 1e-9), grad), (value, grad * (1 + 1e-9))):
            with pytest.raises(AssertionError):
                assert_gaps_within_1e_12([wrong, ref], value_scale, grad_scale)

    def test_single_walk_of_two_positions(self):
        rng = np.random.default_rng(15)
        H_t, H_s = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        results = path_term_results(H_s, H_t, np.array([[2, 0]]), np.ones(1))
        assert_gaps_within_1e_12(*results)
        assert not results[0][0][1][1].any()  # node 1 is on no walk


class TestInterClusterAgainstDenseForm:
    """``batch_inter_cluster``, which scores only each graph's diagonal block,
    against ``oracles.reference_inter_cluster``: the dense kernels of the whole
    batch under a block mask, with a closed-form gradient."""

    def test_value_and_gradient_within_1e_12(self):
        rng = np.random.default_rng(16)
        fixed = [[5], [2], [3, 1, 4], [1, 6], [7, 7, 2, 1, 3]]  # one-graph batches first
        drawn = [[int(k) for k in rng.integers(2, 9, size=int(rng.integers(1, 6)))]
                 for _ in range(30)]
        for sizes in fixed + drawn:
            offsets = offsets_of(sizes)
            width = int(rng.integers(2, 7))
            student = rng.normal(size=(offsets[-1], width))
            teacher = rng.normal(size=(offsets[-1], width))
            want, want_grad = reference_inter_cluster(student, teacher, offsets, len(sizes))
            s = ad.parameter(student)
            loss = batch_inter_cluster(s, teacher, offsets, len(sizes))
            ad.backward(loss)
            assert want > 0 and abs(float(loss.values) - want) <= 1e-12 * want
            assert np.abs(s.grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


class TestDistillWeights:
    @pytest.mark.parametrize("name", ["lam", "mu", "eta", "soft"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-12])
    def test_non_finite_or_negative_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"weight {name} must be finite and >= 0"):
            DistillWeights(**{name: value})

    def test_zero_and_large_accepted(self):
        DistillWeights(lam=0.0, mu=0.0, eta=0.0, soft=0.0)
        DistillWeights(lam=1e300, mu=1e300, eta=1e300, soft=1e300)


class TestTotalLoss:
    def _parts(self, values):
        keys = ("gt", "sl", "graph", "cluster", "path")
        return {k: ad.constant(np.asarray(v)) for k, v in zip(keys, values)}

    def test_weighted_arithmetic(self):
        parts = self._parts((1.0, 1.0, 1.0, 1.0, 1.0))
        w = DistillWeights(lam=0.1, mu=0.1, eta=1e-4, soft=1.0)
        assert float(total_loss(parts, w).values) == pytest.approx(2.2001, abs=1e-12)

    def test_zero_weights_reduce_to_soft_kd(self):
        parts = self._parts((0.7, 0.3, 9.0, 9.0, 9.0))
        w = DistillWeights(lam=0.0, mu=0.0, eta=0.0, soft=1.0)
        assert float(total_loss(parts, w).values) == pytest.approx(1.0, abs=1e-12)

    def test_all_parts_zero_equals_gt(self):
        parts = self._parts((0.42, 0.0, 0.0, 0.0, 0.0))
        w = DistillWeights(lam=0.3, mu=0.2, eta=0.1, soft=1.0)
        assert float(total_loss(parts, w).values) == pytest.approx(0.42, abs=1e-12)


class TestLossProperties:
    def test_nonnegative_and_zero_at_equality(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            h = int(rng.integers(2, 8))
            g = int(rng.integers(1, 4))
            sizes = [int(c) for c in rng.integers(1, 5, size=g)]
            logits_t = rng.normal(size=(g, k))
            h_t = rng.normal(size=(g, h))
            reps_t = rng.normal(size=(sum(sizes), h))
            h_nodes_t = rng.normal(size=(5, h))
            walks = rng.integers(0, 5, size=(3, 4))

            assert value(batch_soft_logits(ad.constant(rng.normal(size=(g, k))), logits_t)) >= 0
            assert value(batch_whole_graph(ad.constant(rng.normal(size=(g, h))), h_t)) >= 0
            assert inter_cluster(rng.normal(size=reps_t.shape), reps_t, sizes) >= 0
            assert path_loss(h_nodes_t, rng.normal(size=(5, h)), walks) >= -1e-12

            # exact zero when the student equals the teacher
            assert value(batch_soft_logits(ad.constant(logits_t.copy()), logits_t)) == \
                pytest.approx(0, abs=1e-12)
            assert value(batch_whole_graph(ad.constant(h_t.copy()), h_t)) == \
                pytest.approx(0, abs=1e-12)
            assert inter_cluster(reps_t.copy(), reps_t, sizes) == pytest.approx(0, abs=1e-15)
            assert path_loss(h_nodes_t, h_nodes_t.copy(), walks) == pytest.approx(0, abs=1e-12)


class TestLossGradients:
    def test_finite_difference_all_losses(self):
        rng = np.random.default_rng(12)
        labels = np.array([1, 0])
        logits_t = rng.normal(size=(2, 3))
        h_t = rng.normal(size=(2, 4))
        reps_t = rng.normal(size=(5, 4))
        offsets = offsets_of([3, 2])
        nodes_t = rng.normal(size=(6, 4))
        walks = rng.integers(0, 6, size=(4, 5))
        weights = np.full(4, 0.25)

        cases = {
            "gt": ((2, 3), lambda p: batch_ground_truth(p, labels)),
            "sl": ((2, 3), lambda p: batch_soft_logits(p, logits_t)),
            "sl-hot": ((2, 3), lambda p: batch_soft_logits(p, logits_t, temperature=2.0)),
            "graph": ((2, 4), lambda p: batch_whole_graph(p, h_t)),
            "cluster": ((5, 4), lambda p: batch_inter_cluster(p, reps_t, offsets, 2)),
            "path": ((6, 4), lambda p: batch_path_consistency(p, nodes_t, walks, weights)),
        }
        for name, (shape, fn) in cases.items():
            p = ad.parameter(rng.normal(size=shape))

            def loss():
                return fn(p)

            numeric = finite_difference_grads(loss, {"p": p})
            analytic = autodiff_grads(loss, {"p": p})
            assert_grads_close(analytic, numeric, rel_tol=1e-4)

    def test_teacher_side_receives_no_gradient(self):
        rng = np.random.default_rng(13)
        teacher = ad.parameter(rng.normal(size=(1, 4)))  # even if marked trainable
        student = ad.parameter(rng.normal(size=(1, 4)))
        loss = batch_whole_graph(student, teacher.values)
        ad.backward(loss)
        assert teacher.grad is None
        assert student.grad is not None


class TestBatchedInterCluster:
    def test_matches_sum_of_per_graph_losses(self):
        rng = np.random.default_rng(14)
        sizes = [2, 3, 1]
        offsets = offsets_of(sizes)
        s = rng.normal(size=(6, 4))
        t = rng.normal(size=(6, 4))
        batched = inter_cluster(s, t, sizes)
        manual = 0.0
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            s_n, t_n = unit_rows(s[lo:hi]), unit_rows(t[lo:hi])
            per_graph = float(((s_n @ s_n.T - t_n @ t_n.T) ** 2).sum())
            manual += per_graph
            assert inter_cluster(s[lo:hi], t[lo:hi], [hi - lo]) == pytest.approx(
                per_graph, abs=1e-12)
        assert batched == pytest.approx(manual / 3.0, abs=1e-12)


class TestStudentEqualToTeacher:
    def test_every_term_is_exactly_zero(self):
        ds = two_class_structural(num_graphs=4, seed=5, name="eq")
        caches = build_struct_caches(ds, seed=0, k_pe=2, walk_length=4)
        batch = make_batch(ds.graphs, clusters=[c.clusters for c in caches])
        assert batch.num_graphs == 4 and batch.cluster_offsets[-1] > 4
        cfg = GinConfig(num_layers=2, hidden=8)
        params = params_to_arrays(init_gin_params(np.random.default_rng(0), ds.feature_dim,
                                                  cfg, ds.num_classes))
        out = INFER["gin"](batch, cfg, params)
        rows, weights = [], []
        for j, cache in enumerate(caches):
            walks = cache.walk_pool.walks[cache.walk_pool.walks[:, -1] >= 0]
            rows.append(walks + batch.node_offsets[j])
            weights.append(np.full(walks.shape[0], 1.0 / (walks.shape[0] * len(caches))))
        walks, weights = np.concatenate(rows), np.concatenate(weights)
        assert walks.shape[0] > 4

        for temperature in (1.0, 2.0):
            assert value(batch_soft_logits(ad.constant(out.logits), out.logits,
                                           temperature)) == 0.0
        assert value(batch_whole_graph(ad.constant(out.graph_embedding),
                                       out.graph_embedding)) == 0.0
        assert value(batch_inter_cluster(ad.constant(out.cluster_embeddings),
                                         out.cluster_embeddings, batch.cluster_offsets,
                                         batch.num_graphs)) == 0.0
        assert value(batch_path_consistency(ad.constant(out.node_embeddings),
                                            out.node_embeddings, walks, weights)) == 0.0
