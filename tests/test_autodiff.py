import struct

import numpy as np
import pytest

from graphdistill import autodiff as ad
from graphdistill.autodiff import Adam, Tensor
from graphdistill.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from graphdistill.errors import (
    ArtifactMissingError,
    ContractError,
    FormatError,
    NumericError,
    ShapeError,
)

from oracles import assert_grads_close, autodiff_grads, finite_difference_grads


class TestForwardValues:
    def test_segment_sum_definition(self):
        x = ad.constant([[1.0], [2.0], [3.0]])
        out = ad.segment_sum(x, np.array([0, 0, 1]), 2)
        np.testing.assert_array_equal(out.values, [[3.0], [3.0]])

    def test_l2_normalize_triangle(self):
        out = ad.l2_normalize(ad.constant([3.0, 4.0]))
        np.testing.assert_allclose(out.values, [0.6, 0.8], atol=1e-7)

    def test_softmax_symmetry(self):
        out = ad.softmax(ad.constant([0.0, 0.0]), dim=0)
        np.testing.assert_allclose(out.values, [0.5, 0.5], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = ad.constant(rng.normal(scale=30.0, size=(8, 5)))
        out = ad.softmax(x, dim=1)
        np.testing.assert_allclose(out.values.sum(axis=1), np.ones(8), atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = rng.normal(scale=50.0, size=(6, 4))
        ls = ad.log_softmax(ad.constant(x), dim=1).values
        np.testing.assert_allclose(ls, np.log(ad.softmax(ad.constant(x), dim=1).values),
                                   atol=1e-9)

    def test_segment_gather_matches_onehot_matmul(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 3))
        ids = rng.integers(0, 4, size=7)
        onehot = np.zeros((4, 7))
        onehot[ids, np.arange(7)] = 1.0
        seg = ad.segment_sum(ad.constant(x), ids, 4).values
        np.testing.assert_allclose(seg, onehot @ x, atol=1e-12)
        gathered = ad.gather_rows(ad.constant(seg), ids).values
        np.testing.assert_allclose(gathered, onehot.T @ seg, atol=1e-12)

    def test_unsorted_segments(self):
        x = ad.constant(np.arange(8.0).reshape(4, 2))
        out = ad.segment_sum(x, np.array([1, 0, 1, 0]), 2)
        np.testing.assert_array_equal(out.values, [[8.0, 10.0], [4.0, 6.0]])


class TestBackwardExamples:
    def test_quadratic(self):
        x = ad.parameter([1.0, 2.0])
        ad.backward(ad.tensor_sum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_frobenius_difference(self):
        a = ad.parameter([[1.0, 2.0], [3.0, 4.0]])
        b = ad.constant([[0.0, 1.0], [1.0, 0.0]])
        ad.backward(ad.frobenius_sq(ad.sub(a, b)))
        np.testing.assert_allclose(a.grad, 2.0 * (a.values - b.values))

    def test_gradients_accumulate_over_reuse(self):
        x = ad.parameter([1.0, 2.0])
        y = ad.add(ad.tensor_sum(ad.mul(x, x)), ad.tensor_sum(x))
        ad.backward(y)
        np.testing.assert_allclose(x.grad, 2.0 * x.values + 1.0)

    def test_nonscalar_root_rejected(self):
        x = ad.parameter([[1.0, 2.0]])
        with pytest.raises(ContractError):
            ad.backward(x)


def _check_op(build, shapes, seed=0, rel_tol=1e-4):
    rng = np.random.default_rng(seed)
    params = {f"p{i}": ad.parameter(rng.normal(size=s)) for i, s in enumerate(shapes)}

    def loss():
        return build(*params.values())

    numeric = finite_difference_grads(loss, params)
    analytic = autodiff_grads(loss, params)
    assert_grads_close(analytic, numeric, rel_tol=rel_tol)


class TestGradcheckEveryOp:
    def test_matmul(self):
        _check_op(lambda a, b: ad.frobenius_sq(ad.matmul(a, b)), [(3, 4), (4, 2)])

    def test_add_same_shape(self):
        _check_op(lambda a, b: ad.frobenius_sq(ad.add(a, b)), [(3, 2), (3, 2)])

    def test_add_row_bias(self):
        _check_op(lambda a, b: ad.frobenius_sq(ad.add(a, b)), [(3, 2), (2,)])

    def test_add_scalar(self):
        _check_op(lambda a: ad.tensor_sum(ad.add(a, 1.5)), [(3, 2)])

    def test_sub(self):
        _check_op(lambda a, b: ad.frobenius_sq(ad.sub(a, b)), [(4, 2), (4, 2)])

    def test_mul_elementwise(self):
        _check_op(lambda a, b: ad.tensor_sum(ad.mul(a, b)), [(3, 3), (3, 3)])

    def test_mul_scalar(self):
        _check_op(lambda a: ad.tensor_sum(ad.mul(a, -2.5)), [(4,)])

    def test_relu(self):
        _check_op(lambda a: ad.tensor_sum(ad.relu(a)), [(5, 3)], seed=3)

    def test_exp(self):
        _check_op(lambda a: ad.tensor_sum(ad.exp(a)), [(4, 2)])

    def test_log(self):
        rng = np.random.default_rng(0)
        p = ad.parameter(rng.uniform(0.5, 2.0, size=(3, 3)))

        def loss():
            return ad.tensor_sum(ad.log(p))

        assert_grads_close(autodiff_grads(loss, {"p": p}),
                           finite_difference_grads(loss, {"p": p}))

    def test_sigmoid(self):
        _check_op(lambda a: ad.tensor_sum(ad.sigmoid(a)), [(4, 3)])

    def test_softmax(self):
        w = np.arange(12.0).reshape(3, 4) / 7.0
        _check_op(lambda a: ad.tensor_sum(ad.mul(ad.softmax(a, dim=1), ad.constant(w))),
                  [(3, 4)])

    def test_log_softmax(self):
        w = np.arange(12.0).reshape(3, 4) / 5.0
        _check_op(lambda a: ad.tensor_sum(ad.mul(ad.log_softmax(a, dim=1), ad.constant(w))),
                  [(3, 4)])

    def test_l2_normalize(self):
        w = np.arange(8.0).reshape(2, 4)
        _check_op(lambda a: ad.tensor_sum(ad.mul(ad.l2_normalize(a, dim=-1), ad.constant(w))),
                  [(2, 4)])

    def test_concat(self):
        _check_op(lambda a, b: ad.frobenius_sq(ad.concat([a, b], dim=1)), [(3, 2), (3, 3)])

    def test_transpose(self):
        w = np.arange(6.0).reshape(3, 2)
        _check_op(lambda a: ad.tensor_sum(ad.mul(ad.transpose(a), ad.constant(w))),
                  [(2, 3)])

    def test_segment_sum(self):
        ids = np.array([0, 2, 0, 1, 2])
        _check_op(lambda a: ad.frobenius_sq(ad.segment_sum(a, ids, 3)), [(5, 2)])

    def test_gather_rows(self):
        idx = np.array([2, 0, 1, 0])
        _check_op(lambda a: ad.frobenius_sq(ad.gather_rows(a, idx)), [(3, 2)])

    def test_sum_mean(self):
        _check_op(lambda a: ad.tensor_sum(a), [(3, 3)])
        _check_op(lambda a: ad.tensor_mean(a), [(3, 3)])


class TestShapeAndNumericErrors:
    def test_shape_error_reports_both_shapes(self):
        a, b = ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 3\)"):
            ad.add(a, b)

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_segment_index_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.segment_sum(ad.constant(np.ones((2, 1))), np.array([0, 5]), 2)

    def test_debug_mode_flags_nonfinite(self):
        ad.set_debug_checks(True)
        try:
            with np.errstate(invalid="ignore"):
                with pytest.raises(NumericError, match="log"):
                    ad.log(ad.constant([-1.0]))
        finally:
            ad.set_debug_checks(False)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = ad.parameter(np.array([1.0, -2.0, 0.5]))
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.array([0.3, -4.0, 1e-3])
        opt.step()
        expected = np.array([1.0, -2.0, 0.5]) - 0.01 * np.sign([0.3, -4.0, 1e-3])
        np.testing.assert_allclose(p.values, expected, atol=1e-5)

    def test_zero_grad_leaves_params(self):
        p = ad.parameter(np.array([1.0, 2.0]))
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.0, 2.0])

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(5)
            p = ad.parameter(rng.normal(size=(4, 3)))
            opt = Adam({"p": p}, lr=0.05)
            for _ in range(25):
                x = ad.constant(rng.normal(size=(4, 3)))
                loss = ad.frobenius_sq(ad.sub(p, x))
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
            return p.values

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"layer0.w": rng.normal(size=(4, 3)), "bias": rng.normal(size=(3,)),
                  "scalar": np.asarray(2.5)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        back = load_checkpoint(path)
        assert list(back) == list(params)
        for k in params:
            np.testing.assert_array_equal(back[k], params[k])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    @staticmethod
    def _saved(tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)})
        return path, path.read_bytes()

    def test_missing_file_is_artifact_missing(self, tmp_path):
        with pytest.raises(ArtifactMissingError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_cut_inside_header_length_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:10])
        with pytest.raises(FormatError, match="header length"):
            load_checkpoint(path)

    def test_cut_inside_header_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:20])
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        header = b'{"version": 1, "params": [{"name": "w"}]}'
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(FormatError, match="malformed header"):
            load_checkpoint(path)

    def test_cut_inside_data_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="truncated data for b"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)


class TestTensorBasics:
    def test_values_are_float64(self):
        assert Tensor([1, 2]).values.dtype == np.float64

    def test_constant_requires_no_grad(self):
        c = ad.constant([1.0])
        out = ad.mul(c, 2.0)
        assert not out.requires_grad
