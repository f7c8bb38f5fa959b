"""The one sparse matrix type: a CSR operator that multiplies dense matrices.

Every sparse product of the package (message passing, GA-MLP aggregation,
scatters and the adjoints of ``autodiff.sampled_dots``) is ``op @ x`` or
``op.T @ x``; ``op.T`` reads the same three arrays as CSC, like scipy's
``csr_array.T``. The two products run scipy's compiled kernels,
``csr_matvecs`` and ``csc_matvecs``, in scipy's summation order, so results
are byte-equal to scipy's, without ``csr_array``'s constructor (index-dtype
scan, int64 -> int32 copy, ``check_format``, ``prune``), which on graphs of
tens of nodes costs several times the product. They make the O(1) checks of
scipy's default ``check_format(full_check=False)``, listed in ``__init__``.
``op @ x`` only reads by index and scans neither array; callers build both
from validated graphs. ``op.T @ x`` needs no sort: row by row it adds
``data[k] * x[i]`` into output row ``indices[k]``, so each output row sums
its inputs in input order. It writes by index, so it first checks in O(nnz)
that ``indptr`` never decreases and ``indices`` are in range (``ShapeError``).
``to_scipy`` gives a real ``csr_array`` for ``eigsh`` in LaPE.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
# scipy's only public route to these kernels goes through ``csr_array``'s
# constructor (see above). They are the package's private scipy imports;
# tests/test_csr.py pins both, so a scipy release that moves one fails there.
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from .errors import ContractError, ShapeError


class CsrOperator:
    """A rows x cols CSR matrix; ``op @ x`` and ``op.T @ x`` take a dense ``x``."""

    __slots__ = ("data", "indices", "indptr", "shape", "_csc")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple[int, int]):
        """Check: 1-D arrays; ``len(indptr) == rows + 1``; ``data`` and ``indices``
        of one length; one int32 or int64 dtype for both index arrays; float64
        ``data``; ``indptr[0] == 0`` and ``indptr[-1] <= nnz`` (the kernels
        ignore entries past ``indptr[-1]``, as ``prune`` drops them)."""
        rows, cols = int(shape[0]), int(shape[1])
        if data.ndim != 1 or indices.ndim != 1 or indptr.ndim != 1:
            raise ShapeError("CSR data, indices and indptr must be 1-D")
        if rows < 0 or cols < 0 or indptr.size != rows + 1:
            raise ShapeError(f"indptr of length {indptr.size} for shape {(rows, cols)}")
        if data.size != indices.size:
            raise ShapeError(f"{data.size} CSR values for {indices.size} column indices")
        if indices.dtype != indptr.dtype or indptr.dtype not in (np.int32, np.int64):
            raise ContractError(f"CSR index dtypes {indices.dtype} and {indptr.dtype}: "
                                "want one of int32, int64 for both")
        if data.dtype != np.float64:
            raise ContractError(f"CSR values must be float64, got {data.dtype}")
        if indptr[0] != 0 or indptr[-1] > indices.size:
            raise ContractError(f"indptr runs from {indptr[0]} to {indptr[-1]} "
                                f"over {indices.size} entries")
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape, self._csc = (rows, cols), False

    @property
    def T(self) -> CsrOperator:
        t = CsrOperator.__new__(CsrOperator)
        t.data, t.indices, t.indptr = self.data, self.indices, self.indptr
        t.shape, t._csc = self.shape[::-1], not self._csc
        return t

    def __matmul__(self, x) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        rows, cols = self.shape
        if x.ndim != 2 or x.shape[0] != cols:
            raise ShapeError(f"{'CSC' if self._csc else 'CSR'} operator {self.shape} "
                             f"times input {x.shape}")
        out = np.zeros((rows, x.shape[1]))
        if not self._csc:
            csr_matvecs(rows, cols, x.shape[1], self.indptr, self.indices, self.data, x, out)
            return out
        ptr, used = self.indptr, self.indices[:self.indptr[-1]]
        if np.count_nonzero(ptr[1:] < ptr[:-1]) or used.size and (used.min() < 0 or
                                                                  used.max() >= rows):
            raise ShapeError(f"CSC product: decreasing indptr, or an index outside [0, {rows})")
        csc_matvecs(rows, cols, x.shape[1], ptr, self.indices, self.data, x, out)
        return out

    def to_scipy(self) -> sp.csr_array:
        mat = sp.csr_array((self.data, self.indices, self.indptr),
                           shape=self.shape[::-1] if self._csc else self.shape)
        return mat.T.tocsr() if self._csc else mat
