"""The one sparse matrix type: a CSR operator that multiplies dense matrices.

Every sparse product of the package (message passing, GA-MLP aggregation,
segment sums and the ``gather_rows`` adjoint) is ``CsrOperator @ x``. It
runs the compiled kernel of ``scipy.sparse.csr_array @ x``, ``csr_matvecs``,
in the same summation order, so results are byte-equal to scipy's. It skips
``csr_array``'s constructor (index-dtype scan, int64 -> int32 copy,
``check_format``, ``prune``), which on graphs of tens of nodes costs
several times the product. In its place it makes the O(1) checks of
scipy's default ``check_format(full_check=False)``, listed in ``__init__``,
and a product checks that ``x`` is a matrix of ``cols`` rows. Like scipy's
default it does not scan ``indptr`` for order or ``indices`` for range; the
callers build both from validated graphs. ``to_scipy`` gives a real
``csr_array`` where a scipy algorithm needs one (``eigsh`` in LaPE).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
# scipy's only public route to this kernel goes through ``csr_array``'s
# constructor (see above). This is the package's one private scipy import;
# tests/test_csr.py pins it, so a scipy release that moves it fails there.
from scipy.sparse._sparsetools import csr_matvecs

from .errors import ContractError, ShapeError


class CsrOperator:
    """A rows x cols CSR matrix whose one operation is ``op @ x`` for dense ``x``."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple[int, int]):
        """Check: 1-D arrays; ``len(indptr) == rows + 1``; ``data`` and ``indices``
        of one length; one int32 or int64 dtype for both index arrays; float64
        ``data``; ``indptr[0] == 0`` and ``indptr[-1] <= nnz`` (the kernel
        ignores entries past ``indptr[-1]``, as ``prune`` drops them)."""
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
        self.shape = (rows, cols)

    def __matmul__(self, x) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        rows, cols = self.shape
        if x.ndim != 2 or x.shape[0] != cols:
            raise ShapeError(f"CSR operator {self.shape} times input {x.shape}")
        out = np.zeros((rows, x.shape[1]))
        csr_matvecs(rows, cols, x.shape[1], self.indptr, self.indices, self.data, x, out)
        return out

    def to_scipy(self) -> sp.csr_array:
        return sp.csr_array((self.data, self.indices, self.indptr), shape=self.shape)
