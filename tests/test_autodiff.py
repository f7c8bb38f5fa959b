import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from graphdistill import autodiff as ad
from graphdistill.autodiff import Adam, Tensor
from graphdistill.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from graphdistill.errors import (
    ArtifactMissingError,
    ContractError,
    FormatError,
    ShapeError,
)

from oracles import assert_grads_close, autodiff_grads, finite_difference_grads, softmax_np


class TestForwardValues:
    def test_segment_sum_definition(self):
        x = ad.constant([[1.0], [2.0], [3.0]])
        out = ad.segment_sum(x, np.array([0, 0, 1]), 2)
        np.testing.assert_array_equal(out.values, [[3.0], [3.0]])

    def test_sampled_dots_definition(self):
        x = ad.constant([[3.0, 4.0], [0.5, 2.0]])
        y = ad.constant([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [1.0, -1.0]])
        out = ad.sampled_dots(x, y, np.array([0, 3, 4]), np.array([2, 0, 2, 3]))
        np.testing.assert_array_equal(out.values, [14.0, 3.0, 14.0, -1.5])
        # 2-D indices: one row per row of x, the same entries in the same order
        grid = ad.sampled_dots(x, y, np.array([0, 2, 4]), np.array([[0, 1], [2, 3]]))
        np.testing.assert_array_equal(grid.values, [[3.0, 4.0], [5.0, -1.5]])
        # x and y one tensor, rows without entries, repeated entries
        out = ad.sampled_dots(y, y, np.array([0, 0, 2, 2, 3]), np.array([1, 1, 2]))
        np.testing.assert_array_equal(out.values, [1.0, 1.0, 0.0])
        # no rows, and rows without entries, in either layout
        for ptr, idx in ((np.zeros(1), np.zeros((0, 3))), (np.zeros(3), np.zeros((2, 0))),
                         (np.zeros(3), np.zeros(0))):
            x = ad.constant(np.ones((len(ptr) - 1, 2)))
            assert ad.sampled_dots(x, y, ptr, idx).shape == idx.shape

    def test_l2_normalize_triangle(self):
        out = ad.l2_normalize(ad.constant([3.0, 4.0]))
        np.testing.assert_allclose(out.values, [0.6, 0.8], atol=1e-7)

    def test_softmax_symmetry(self):
        out = ad.log_softmax(ad.constant([0.0, 0.0]), dim=0)
        np.testing.assert_allclose(np.exp(out.values), [0.5, 0.5], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = ad.constant(rng.normal(scale=30.0, size=(8, 5)))
        out = ad.log_softmax(x, dim=1)
        np.testing.assert_allclose(np.exp(out.values).sum(axis=1), np.ones(8), atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = rng.normal(scale=50.0, size=(6, 4))
        ls = ad.log_softmax(ad.constant(x), dim=1).values
        np.testing.assert_allclose(ls, np.log(np.apply_along_axis(softmax_np, 1, x)),
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

    def test_relu_propagates_nan_and_masks_zero(self):
        x = ad.parameter([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(ad.relu(x).values, [0.0, 0.0, 2.0])
        ad.backward(ad.tensor_sum(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])
        with np.errstate(invalid="ignore"):
            assert np.isnan(ad.relu(ad.constant([np.nan])).values[0])

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

    def test_linear(self):
        _check_op(lambda h, w, b: ad.frobenius_sq(ad.linear(h, w, b)), [(3, 4), (4, 2), (2,)])

    def test_sub(self):
        _check_op(lambda a, b: ad.frobenius_sq(ad.sub(a, b)), [(4, 2), (4, 2)])

    def test_mul_elementwise(self):
        _check_op(lambda a, b: ad.tensor_sum(ad.mul(a, b)), [(3, 3), (3, 3)])

    def test_mul_scalar(self):
        _check_op(lambda a: ad.tensor_sum(ad.mul(a, -2.5)), [(4,)])

    def test_relu(self):
        _check_op(lambda a: ad.tensor_sum(ad.relu(a)), [(5, 3)], seed=3)

    def test_sigmoid(self):
        _check_op(lambda a: ad.tensor_sum(ad.sigmoid(a)), [(4, 3)])

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

    def test_segment_sum(self):
        ids = np.array([0, 2, 0, 1, 2])
        _check_op(lambda a: ad.frobenius_sq(ad.segment_sum(a, ids, 3)), [(5, 2)])

    def test_gather_rows(self):
        idx = np.array([2, 0, 1, 0])
        _check_op(lambda a: ad.frobenius_sq(ad.gather_rows(a, idx)), [(3, 2)])

    # rows of 3, 0, 1 and 2 entries, unsorted and repeated columns
    PATTERN = (np.array([0, 3, 3, 4, 6]), np.array([4, 0, 4, 2, 5, 1]))

    def test_sampled_dots(self):
        ptr, idx = self.PATTERN
        x, y = np.arange(12.0).reshape(4, 3) / 7.0, np.array([[1.0, -2.0, 0.5]] * 6)
        _check_op(lambda a, b: ad.frobenius_sq(ad.sampled_dots(a, b, ptr, idx)), [(4, 3), (6, 3)])
        _check_op(lambda a: ad.frobenius_sq(ad.sampled_dots(a, ad.constant(y), ptr, idx)),
                  [(4, 3)])
        _check_op(lambda b: ad.frobenius_sq(ad.sampled_dots(ad.constant(x), b, ptr, idx)),
                  [(6, 3)])
        grid = np.array([[4, 0, 4], [2, 5, 1]])
        _check_op(lambda a, b: ad.frobenius_sq(ad.sampled_dots(a, b, np.array([0, 3, 6]), grid)),
                  [(2, 3), (6, 3)])

    def test_sampled_dots_of_one_tensor(self):
        # x is y: both adjoints land in one tensor, diagonal entries included
        ptr, idx = np.array([0, 2, 3, 5, 6, 6, 6]), np.array([0, 3, 1, 2, 5, 4])
        _check_op(lambda h: ad.frobenius_sq(ad.sampled_dots(h, h, ptr, idx)), [(6, 3)])

    def test_sampled_dots_of_rows_gathered_from_one_tensor(self):
        # the path term's shape: anchors gathered from the table they are scored
        # against, with repeats and the anchor itself among its own positions
        later, first = np.array([[1, 2, 0], [3, 3, 1]]), np.array([0, 3])
        _check_op(lambda h: ad.frobenius_sq(ad.sampled_dots(ad.gather_rows(h, first), h,
                                                            np.array([0, 3, 6]), later)),
                  [(4, 3)])

    def test_sum_mean(self):
        _check_op(lambda a: ad.tensor_sum(a), [(3, 3)])
        _check_op(lambda a: ad.mul(ad.tensor_sum(a), 1.0 / 9.0), [(3, 3)])


class TestLeanTape:
    """Adjoints only for operands that require grad; borrowed first gradients."""

    @pytest.mark.parametrize("op", ["matmul", "mul", "linear"])
    def test_no_adjoint_for_constant_operand(self, op, monkeypatch):
        rng = np.random.default_rng(0)
        c = ad.constant(rng.normal(size=(4, 3)))
        p = ad.parameter(rng.normal(size=(3, 3)))
        b = ad.parameter(rng.normal(size=3))
        targets = []
        accum = ad._accum
        monkeypatch.setattr(ad, "_accum", lambda t, g: (targets.append(t), accum(t, g)))
        if op == "matmul":
            out, expected = ad.matmul(c, p), {"p": c.values.T @ np.ones((4, 3))}
        elif op == "mul":
            p = ad.parameter(rng.normal(size=(4, 3)))
            out, expected = ad.mul(p, c), {"p": c.values}
        else:
            out = ad.linear(c, p, b)
            expected = {"p": c.values.T @ np.ones((4, 3)), "b": np.full(3, 4.0)}
        ad.backward(ad.tensor_sum(out))
        assert c.grad is None and all(t is not c for t in targets)
        np.testing.assert_array_equal(p.grad, expected["p"])
        if "b" in expected:
            np.testing.assert_array_equal(b.grad, expected["b"])

    @pytest.mark.parametrize("constant_side", ["x", "y"])
    def test_sampled_dots_no_adjoint_for_constant_operand(self, constant_side, monkeypatch):
        rng = np.random.default_rng(1)
        xv, yv = rng.normal(size=(2, 3)), rng.normal(size=(6, 3))
        x = ad.constant(xv) if constant_side == "x" else ad.parameter(xv)
        y = ad.constant(yv) if constant_side == "y" else ad.parameter(yv)
        targets = []
        accum = ad._accum
        monkeypatch.setattr(ad, "_accum", lambda t, g: (targets.append(t), accum(t, g)))
        # each row of x against 3 rows of y; row 5 of y is in no row's pattern
        ptr, idx = np.array([0, 3, 6]), np.array([0, 1, 2, 3, 4, 0])
        ad.backward(ad.tensor_sum(ad.sampled_dots(x, y, ptr, idx)))
        const, param = (x, y) if constant_side == "x" else (y, x)
        assert const.grad is None and all(t is not const for t in targets)
        if param is y:
            expected = np.array([xv[0] + xv[1], xv[0], xv[0], xv[1], xv[1], 0 * xv[0]])
        else:
            expected = np.array([yv[:3].sum(axis=0), yv[3] + yv[4] + yv[0]])
        np.testing.assert_allclose(param.grad, expected, rtol=1e-15)

    def test_shared_gradient_is_never_written(self):
        # x gets four contributions: first y's own gradient array, which
        # ``add`` hands to both x and w, then one from u and two from v.
        rng = np.random.default_rng(2)
        params = {"x": ad.parameter(rng.normal(size=(3, 3))),
                  "w": ad.parameter(rng.normal(size=(3, 3)))}
        seen = {}

        def watch(t, name):
            inner = t._backward

            def back(g):
                seen[name] = (t, g.copy())
                inner(g)
            t._backward = back
            return t

        def loss():
            x, w = params["x"], params["w"]
            z = watch(ad.mul(watch(ad.add(x, w), "y"), ad.constant(np.full((3, 3), 0.5))), "z")
            u = watch(ad.matmul(x, w), "u")
            v = watch(ad.mul(x, x), "v")
            return ad.add(ad.add(ad.tensor_sum(z), ad.frobenius_sq(u)), ad.tensor_sum(v))

        assert_grads_close(autodiff_grads(loss, params), finite_difference_grads(loss, params),
                           rel_tol=1e-6)
        assert set(seen) == {"y", "z", "u", "v"}
        for t, grad_at_backward in seen.values():
            np.testing.assert_array_equal(t.grad, grad_at_backward)


class TestShapeAndNumericErrors:
    def test_shape_error_reports_both_shapes(self):
        a, b = ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 3\)"):
            ad.add(a, b)

    def test_linear_bias_shape_checked(self):
        h, w = ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 4)))
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(h, w, ad.constant(np.ones(3)))

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    @pytest.mark.parametrize("x, y, indptr, indices", [
        ((2, 3), (4, 2), [0, 1, 2], [0, 1]),         # widths differ
        ((2, 3), (4, 3), [0, 1], [0, 1]),            # indptr one short
        ((2, 3), (4, 3), [0, 1, 3], [0, 1]),         # indptr ends past the entries
        ((2, 3), (4, 3), [0, 2, 1], [0, 1]),         # indptr decreases
        ((2, 3), (4, 3), [1, 1, 2], [0, 1]),         # indptr starts above 0
        ((6,), (4, 3), [0, 1, 2], [0, 1]),           # x not a matrix
        ((2, 3), (4, 3), [0, 1, 2], [[0], [1], [2]]),  # 2-D indices, rows != len(x)
        ((2, 3), (4, 3), [0, 1, 4], [[0, 1], [2, 3]]),  # 2-D indices, uneven indptr
        ((2, 3), (4, 3), [0, 1, 2], np.zeros((1, 1, 2))),  # 3-D indices
    ], ids=["width", "indptr-short", "indptr-long", "indptr-decreasing", "indptr-start",
            "x-vector", "grid-rows", "grid-indptr", "indices-3d"])
    def test_sampled_dots_bad_shapes(self, x, y, indptr, indices):
        with pytest.raises(ShapeError, match="sampled_dots"):
            ad.sampled_dots(ad.constant(np.ones(x)), ad.constant(np.ones(y)),
                            np.array(indptr), np.array(indices, dtype=np.int64))

    def test_segment_index_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.segment_sum(ad.constant(np.ones((2, 1))), np.array([0, 5]), 2)


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


def scatter_loop(num_rows, idx, rows):
    """Reference segment sum: ``out[idx[i]] += rows[i]`` in row order."""
    out = np.zeros((num_rows,) + rows.shape[1:])
    for i, r in enumerate(idx):
        out[r] += rows[i]
    return out


class TestScatterRows:
    @pytest.mark.parametrize("ids,num_rows", [
        ([0, 0, 1, 1, 1, 3], 4),  # sorted, segment 2 empty
        ([2, 0, 2, 1, 0, 2], 3),  # unsorted, repeated
        ([4, 4, 4, 4, 4], 6),     # one segment, the others empty
        ([0], 1),
        ([], 3),                  # empty input
        ([], 0),
    ])
    def test_bit_equal_to_in_order_loop(self, ids, num_rows):
        rng = np.random.default_rng(len(ids))
        idx = np.asarray(ids, dtype=np.int64)
        # magnitudes from 1e-8 to 1e8, so any other summation order shows
        rows = rng.normal(size=(idx.size, 3)) * 10.0 ** rng.integers(-8, 9, size=(idx.size, 1))
        got = ad.scatter_rows(num_rows, idx, rows)
        assert got.shape == (num_rows, 3) and got.dtype == np.float64
        assert got.tobytes() == scatter_loop(num_rows, idx, rows).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_ids_bit_equal_to_in_order_loop(self, data):
        num_rows = data.draw(st.integers(1, 7))
        ids = data.draw(st.lists(st.integers(0, num_rows - 1), max_size=40))
        if data.draw(st.booleans()):
            ids.sort()
        idx = np.asarray(ids, dtype=np.int64)
        rows = data.draw(hnp.arrays(np.float64, (idx.size, 2),
                                    elements=st.floats(-1e12, 1e12, allow_subnormal=False)))
        got = ad.scatter_rows(num_rows, idx, rows)
        assert got.tobytes() == scatter_loop(num_rows, idx, rows).tobytes()

    @pytest.mark.parametrize("bad", [3, 5, -1], ids=["rows", "past-rows", "negative"])
    def test_bad_ids_raise_shape_error(self, bad):
        rows = np.ones((2, 4))
        with pytest.raises(ShapeError):
            ad.scatter_rows(3, [0, bad], rows)
        with pytest.raises(ShapeError):
            ad.segment_sum(ad.constant(rows), np.array([bad, 0]), 3)
        # the ids ``gather_rows`` checks are those its adjoint scatters by
        with pytest.raises(ShapeError):
            ad.gather_rows(ad.parameter(np.ones((3, 4))), np.array([0, bad]))
        with pytest.raises(ShapeError, match="sampled_dots"):
            ad.sampled_dots(ad.constant(rows), ad.constant(np.ones((3, 4))),
                            np.array([0, 1, 2]), np.array([bad, 0]))

    def test_segment_sum_and_gather_adjoint_use_it(self):
        rng = np.random.default_rng(3)
        idx = np.array([2, 0, 2, 1, 2, 0])
        a = ad.parameter(rng.normal(size=(6, 4)))
        np.testing.assert_array_equal(ad.segment_sum(a, idx, 4).values,
                                      scatter_loop(4, idx, a.values))
        h = ad.parameter(rng.normal(size=(3, 4)))
        g = rng.normal(size=(6, 4))
        ad.backward(ad.tensor_sum(ad.mul(ad.gather_rows(h, idx[idx < 3]), ad.constant(g))))
        np.testing.assert_array_equal(h.grad, scatter_loop(3, idx[idx < 3], g))


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


@st.composite
def param_dicts(draw):
    names = draw(st.lists(st.text(min_size=0, max_size=6), max_size=6, unique=True))
    shapes = st.lists(st.integers(0, 2), max_size=3).map(tuple)  # () is 0-d
    return {name: draw(hnp.arrays(np.float64, draw(shapes))) for name in names}


class TestCheckpointProperties:
    @settings(max_examples=25, deadline=None)
    @given(params=param_dicts())
    def test_round_trip_and_every_cut_rejected(self, params, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(path, params)
        back = load_checkpoint(path)
        assert list(back) == list(params)
        for name, arr in params.items():
            assert back[name].shape == arr.shape and back[name].tobytes() == arr.tobytes()
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    def test_non_ascii_and_many_names(self, tmp_path):
        params = {f"層{i}.wé": np.full((i % 3, 2), float(i)) for i in range(300)}
        params["0-d"] = np.asarray(-0.0)
        save_checkpoint(tmp_path / "m.ckpt", params)
        back = load_checkpoint(tmp_path / "m.ckpt")
        assert list(back) == list(params)
        assert all(back[k].tobytes() == v.tobytes() for k, v in params.items())


class TestTensorBasics:
    def test_values_are_float64(self):
        assert Tensor([1, 2]).values.dtype == np.float64

    def test_constant_requires_no_grad(self):
        c = ad.constant([1.0])
        out = ad.mul(c, 2.0)
        assert not out.requires_grad

    def test_constants_record_no_tape(self):
        c = ad.constant(np.ones((2, 3)))
        out = ad.relu(ad.linear(c, ad.constant(np.ones((3, 2))), ad.constant(np.ones(2))))
        assert out._parents == () and out._backward is None
        dots = ad.sampled_dots(c, ad.constant(np.ones((4, 3))), np.array([0, 2, 4]),
                               np.array([[0, 1], [2, 3]]))
        assert dots.shape == (2, 2) and dots._parents == () and dots._backward is None
