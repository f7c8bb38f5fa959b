"""``csr.CsrOperator``: ``op @ x`` and ``op.T @ x`` byte-equal to scipy's
``csr_array`` products, a typed error for every malformed structure and for
every id the transposed product would write outside its output, and no scipy
sparse matrix on the training and inference paths."""

import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from graphdistill import autodiff, csr, dynamic, models, structure
from graphdistill.csr import CsrOperator
from graphdistill.data import stratified_kfold
from graphdistill.errors import ContractError, ShapeError
from graphdistill.losses import DistillWeights
from graphdistill.models import GcnConfig, GinConfig, StudentConfig, make_batch, student_input
from graphdistill.structure import build_struct_caches
from graphdistill.synth import two_class_structural
from graphdistill.training import RunConfig, cache_teacher, distill_student, train_teacher

from oracles import reference_union

FLOATS = st.floats(-1e12, 1e12, allow_subnormal=False)


@st.composite
def operators(draw):
    """Operators of every shape class, with empty rows, unsorted and repeated
    columns, ``nnz == 0`` and slack entries past ``indptr[-1]``."""
    form = draw(st.sampled_from(["any", "row", "column"]))
    rows = 1 if form == "row" else draw(st.integers(1, 9))
    cols = 1 if form == "column" else draw(st.integers(1, 9))
    counts = draw(st.lists(st.integers(0, 4), min_size=rows, max_size=rows))
    nnz = sum(counts)
    slack = draw(st.integers(0, 2))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(dtype)
    indices = draw(hnp.arrays(dtype, nnz + slack, elements=st.integers(0, cols - 1)))
    data = draw(hnp.arrays(np.float64, nnz + slack, elements=FLOATS))
    return data, indices, indptr, (rows, cols)


@st.composite
def dense_inputs(draw, rows):
    """``rows`` x width inputs, width 1, 64 or small, in C order, Fortran
    order or as a strided column slice."""
    width = draw(st.sampled_from([1, 64, 3]))
    layout = draw(st.sampled_from(["C", "F", "sliced"]))
    if layout == "sliced":
        wide = draw(hnp.arrays(np.float64, (rows, 2 * width), elements=FLOATS))
        return wide[:, ::2]
    x = draw(hnp.arrays(np.float64, (rows, width), elements=FLOATS))
    return np.asfortranarray(x) if layout == "F" else x


class TestOperatorOracle:
    def test_private_kernel_is_scipy_csr_matvecs(self):
        from scipy.sparse._sparsetools import csr_matvecs
        assert csr.csr_matvecs is csr_matvecs

    def test_private_kernel_is_scipy_csc_matvecs(self):
        from scipy.sparse._sparsetools import csc_matvecs
        assert csr.csc_matvecs is csc_matvecs

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_byte_equal_to_scipy_product(self, data):
        values, indices, indptr, shape = data.draw(operators())
        x = data.draw(dense_inputs(shape[1]))
        got = CsrOperator(values, indices, indptr, shape) @ x
        want = sp.csr_array((values, indices, indptr), shape=shape) @ x
        assert got.shape == want.shape == (shape[0], x.shape[1])
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_transposed_byte_equal_to_scipy_product(self, data):
        values, indices, indptr, shape = data.draw(operators())
        x = data.draw(dense_inputs(shape[0]))
        got = CsrOperator(values, indices, indptr, shape).T @ x
        want = sp.csr_array((values, indices, indptr), shape=shape).T @ x
        assert got.shape == want.shape == (shape[1], x.shape[1])
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_no_entries(self, index_dtype):
        op = CsrOperator(np.zeros(0), np.zeros(0, index_dtype), np.zeros(4, index_dtype), (3, 5))
        out = op @ np.ones((5, 2))
        assert out.shape == (3, 2) and out.tobytes() == np.zeros((3, 2)).tobytes()
        out = op.T @ np.ones((3, 2))
        assert out.shape == (5, 2) and out.tobytes() == np.zeros((5, 2)).tobytes()

    def test_to_scipy_is_the_same_matrix(self):
        indptr = np.array([0, 2, 2, 3])
        op = CsrOperator(np.array([1.5, -2.0, 4.0]), np.array([0, 2, 1]), indptr, (3, 3))
        mat = op.to_scipy()
        assert isinstance(mat, sp.csr_array) and mat.shape == (3, 3)
        np.testing.assert_array_equal(mat.toarray(), op @ np.eye(3))
        np.testing.assert_array_equal(mat.toarray(), [[1.5, 0, -2.0], [0, 0, 0], [0, 4.0, 0]])

    def test_transpose_is_a_view_on_the_same_arrays(self):
        op = CsrOperator(np.array([1.5, -2.0, 4.0]), np.array([0, 3, 1]),
                         np.array([0, 2, 2, 3]), (3, 4))
        t = op.T
        assert t.shape == (4, 3) and t.T.shape == (3, 4)
        assert t.data is op.data and t.indices is op.indices and t.indptr is op.indptr
        dense = op @ np.eye(4)
        np.testing.assert_array_equal(t @ np.eye(3), dense.T)
        np.testing.assert_array_equal(t.T @ np.eye(4), dense)
        mat = t.to_scipy()
        assert isinstance(mat, sp.csr_array) and mat.shape == (4, 3)
        np.testing.assert_array_equal(mat.toarray(), dense.T)


def _good():
    return {"data": np.array([1.0, 2.0, 3.0]), "indices": np.array([1, 0, 2]),
            "indptr": np.array([0, 1, 3]), "shape": (2, 3)}


MALFORMED = {
    "indptr one short": (ShapeError, {"indptr": np.array([0, 3])}),
    "indptr one long": (ShapeError, {"indptr": np.array([0, 1, 2, 3])}),
    "indptr starts above 0": (ContractError, {"indptr": np.array([1, 1, 3])}),
    "indptr ends past nnz": (ContractError, {"indptr": np.array([0, 1, 4])}),
    "data longer than indices": (ShapeError, {"data": np.ones(4)}),
    "indices longer than data": (ShapeError, {"indices": np.array([1, 0, 2, 0])}),
    "mixed index dtypes": (ContractError, {"indptr": np.array([0, 1, 3], dtype=np.int32)}),
    "float indices": (ContractError, {"indices": np.array([1.0, 0.0, 2.0]),
                                      "indptr": np.array([0.0, 1.0, 3.0])}),
    "int16 indices": (ContractError, {"indices": np.array([1, 0, 2], dtype=np.int16),
                                      "indptr": np.array([0, 1, 3], dtype=np.int16)}),
    "integer data": (ContractError, {"data": np.array([1, 2, 3])}),
    "2-D data": (ShapeError, {"data": np.ones((3, 1))}),
    "2-D indptr": (ShapeError, {"indptr": np.array([[0, 1, 3]])}),
    "negative rows": (ShapeError, {"shape": (-1, 3)}),
}


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_structure_rejected(self, case):
        error, change = MALFORMED[case]
        with pytest.raises(error):
            CsrOperator(**{**_good(), **change})

    @pytest.mark.parametrize("x", [np.ones((2, 4)), np.ones((4, 4)), np.ones((0, 4)),
                                   np.ones(3), np.ones((3, 2, 1))],
                             ids=["too few rows", "too many rows", "no rows", "1-D", "3-D"])
    def test_input_rejected(self, x):
        with pytest.raises(ShapeError):
            CsrOperator(**_good()) @ x

    @pytest.mark.parametrize("x", [np.ones((3, 4)), np.ones((1, 4)), np.ones(2)],
                             ids=["too many rows", "too few rows", "1-D"])
    def test_transposed_input_rejected(self, x):
        with pytest.raises(ShapeError, match="CSC operator"):
            CsrOperator(**_good()).T @ x

    @pytest.mark.parametrize("change", [
        {"indices": np.array([1, 0, 3])}, {"indices": np.array([1, -1, 2])},
        {"indices": np.array([1, 0, 2, 7]), "data": np.ones(4), "indptr": np.array([0, 4, 3])},
    ], ids=["index past cols", "negative index", "indptr decreases"])
    def test_transposed_product_never_writes_outside(self, change):
        # ``op @ x`` only reads by index; ``op.T @ x`` writes by it, so it checks
        with pytest.raises(ShapeError, match=r"outside \[0, 3\)"):
            CsrOperator(**{**_good(), **change}).T @ np.ones((2, 4))

    def test_transposed_product_ignores_slack_entries(self):
        # entries past ``indptr[-1]`` are never read, so their ids are not checked
        op = CsrOperator(np.ones(4), np.array([1, 0, 2, -5]), np.array([0, 1, 3]), (2, 3))
        np.testing.assert_array_equal(op.T @ np.array([[1.0], [2.0]]), [[2.0], [1.0], [2.0]])


# --- no scipy sparse matrix and no union CSR where none is needed ---------------

@pytest.fixture(scope="module")
def guard_setup():
    dataset = two_class_structural(num_graphs=12, seed=3, min_nodes=8, max_nodes=12,
                                   name="guard")
    folds = stratified_kfold(dataset, 2, seed=0)
    caches = build_struct_caches(dataset, seed=0, k_pe=4, walk_length=4)
    run = RunConfig(weights=DistillWeights(), epochs=2, batch_size=4, lr_patience=1, seed=0,
                    student_seeds=(0,))
    scfg = StudentConfig(kind="ga-mlp", num_layers=2, hidden=8, use_lape=True)
    return dataset, folds, caches, run, scfg


def _student_paths(dataset, folds, caches, run, scfg, tcaches):
    """A five-term student fit, batch inference and the student full recompute;
    returns the dynamic state."""
    results = distill_student(dataset, folds, caches, tcaches, scfg, run, capture_params=True)
    params = results[0].params
    rows = [student_input(g, c, scfg) for g, c in zip(dataset.graphs, caches)]
    models.student_infer(make_batch(dataset.graphs, rows), scfg, params)
    state = dynamic.init_incremental_state(dataset.graphs[0], caches[0], scfg, params,
                                           np.array([0, 3]))
    dynamic.full_student_logits(state)
    return state


class TestHotPaths:
    def test_no_scipy_sparse_import(self):
        for mod in (autodiff, models, structure, dynamic):
            for name, value in vars(mod).items():
                if isinstance(value, types.ModuleType):
                    assert not value.__name__.startswith("scipy.sparse"), (mod.__name__, name)

    def test_no_scipy_matrix_built(self, guard_setup, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy sparse matrix built on a training or inference path")
        for name in ("csr_array", "csr_matrix"):
            monkeypatch.setattr(sp, name, refuse)
        dataset, folds, caches, run, scfg = guard_setup
        gin = train_teacher(dataset, folds, [GinConfig(num_layers=2, hidden=8)], run)
        gcn = train_teacher(dataset, folds, [GcnConfig(num_layers=2, hidden=8)], run)
        cache_teacher(gcn[0], dataset, caches)
        tcaches = {c.fold_index: cache_teacher(c, dataset, caches) for c in gin}
        state = _student_paths(dataset, folds, caches, run, scfg, tcaches)
        for teacher in (gin[0], gcn[0]):
            dynamic.full_teacher_logits(state, dynamic.TeacherModel(teacher.config,
                                                                    teacher.params))

    def test_student_batches_build_no_union(self, guard_setup, monkeypatch):
        dataset, folds, caches, run, scfg = guard_setup
        gin = train_teacher(dataset, folds, [GinConfig(num_layers=2, hidden=8)], run)
        tcaches = {c.fold_index: cache_teacher(c, dataset, caches) for c in gin}
        calls = []
        union = models.disjoint_union

        def counted(graphs):
            calls.append(len(graphs))
            return union(graphs)
        monkeypatch.setattr(models, "disjoint_union", counted)
        _student_paths(dataset, folds, caches, run, scfg, tcaches)
        assert calls == []
        # A teacher batch builds its union once, whatever it propagates, and the
        # union equals the node-by-node reference.
        graphs = dataset.graphs[:5]
        batch = make_batch(graphs)
        for _ in range(2):
            models.INFER["gin"](batch, gin[0].config, gin[0].params)
        batch.gcn_operator
        assert calls == [5]
        for name, want in reference_union(graphs).items():
            assert np.array_equal(getattr(batch, name), want), name
