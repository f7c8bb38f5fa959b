"""Minimal dense-tensor reverse-mode autodiff on float64 numpy buffers.

The operator set is exactly what the models and losses need. Tensors are
0-, 1- or 2-dimensional; broadcasting is limited to python scalars in
``mul`` and the row-vector bias of ``linear``. Gradients accumulate
additively into parents when ``backward`` walks the (implicit) tape in
reverse topological order, and only into parents that require grad.

Segment sums and the adjoint of ``gather_rows`` are one kernel,
``scatter_rows``: ``op.T @ rows`` for the 0/1 gather pattern ``op``, a
``csr.CsrOperator`` (``csr`` says why that needs no sort and checks every
id). ``sampled_dots`` takes the dot products of the row pairs a CSR pattern
names; its adjoints are two products with that pattern.

Importing this module sets two glibc ``malloc`` parameters for the whole
process: ``M_MMAP_THRESHOLD`` to 32 MiB (glibc's 64-bit maximum) and
``M_TRIM_THRESHOLD`` to 64 MiB. Tape temporaries are typically 1-4 MB
(a 4000 x 64 float64 activation is 2 MB). Under glibc's defaults each one
is either mmapped fresh or trimmed back to the kernel when freed, so every
training step page-faults its temporaries in again. With these settings a
step reuses heap pages the process has already faulted in. Fork-started
worker processes inherit the settings. Where the C library has no
``mallopt`` (not glibc), nothing is set. Results do not depend on the
setting; only allocation speed does.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .csr import CsrOperator
from .errors import ContractError, ShapeError

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Raise glibc's mmap and trim thresholds so freed temporaries stay mapped."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20)):
        if mallopt(param, value) != 1:
            return


_keep_freed_heap()

class Tensor:
    """Dense float64 value participating in reverse-mode differentiation."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "_op", "_owns_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        self._owns_grad = False

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, op={self._op})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def _make(values, op: str, parents, backward_fn) -> Tensor:
    out = Tensor(values)
    out._op = op
    for p in parents:  # a plain loop costs less than any() over a generator
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward_fn
            break
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Keep the first ``g`` uncopied, never to be written (``add`` hands one ``g``
    to both parents); the second makes a sum ``t`` owns, later ones add into it."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
        t._owns_grad = False
    elif t._owns_grad:
        t.grad += g
    else:
        t.grad = t.grad + g
        t._owns_grad = True


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every tensor the scalar ``root`` depends on."""
    if root.values.shape != ():
        raise ContractError(f"backward root must be scalar, got shape {root.values.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    root.grad = np.ones_like(root.values)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def _as_scalar(x) -> float | None:
    if isinstance(x, (int, float, np.integer, np.floating)):
        return float(x)
    return None


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"add: incompatible shapes {a.values.shape} and {b.values.shape}")

    def back(g):
        _accum(a, g)
        _accum(b, g)
    return _make(a.values + b.values, "add", (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"sub: incompatible shapes {a.values.shape} and {b.values.shape}")

    def back(g):
        _accum(a, g)
        _accum(b, -g)
    return _make(a.values - b.values, "sub", (a, b), back)


def mul(a: Tensor, b) -> Tensor:
    s = _as_scalar(b)
    if s is not None:
        def back(g):
            _accum(a, g * s)
        return _make(a.values * s, "mul", (a,), back)
    if a.values.shape != b.values.shape:
        raise ShapeError(f"mul: incompatible shapes {a.values.shape} and {b.values.shape}")

    def back(g):
        if a.requires_grad:
            _accum(a, g * b.values)
        if b.requires_grad:
            _accum(b, g * a.values)
    return _make(a.values * b.values, "mul", (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.values.shape} and {b.values.shape}")

    def back(g):
        if a.requires_grad:
            _accum(a, g @ b.values.T)
        if b.requires_grad:
            _accum(b, a.values.T @ g)
    return _make(a.values @ b.values, "matmul", (a, b), back)


def linear(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``h @ w + b``: a matrix product plus a row-vector bias ``b`` on every row."""
    if (h.values.ndim != 2 or w.values.ndim != 2 or h.values.shape[1] != w.values.shape[0]
            or b.values.shape != (w.values.shape[1],)):
        raise ShapeError(f"linear: incompatible shapes {h.values.shape}, {w.values.shape} "
                         f"and {b.values.shape}")

    def back(g):
        if h.requires_grad:
            _accum(h, g @ w.values.T)
        if w.requires_grad:
            _accum(w, h.values.T @ g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))
    out = h.values @ w.values
    out += b.values
    return _make(out, "linear", (h, w, b), back)


def relu(a: Tensor) -> Tensor:
    # np.maximum is several times faster than np.where; the mask is built
    # only when a gradient is needed, as float64 in one pass (the same bits
    # as a product with the bool mask, and faster).
    def back(g):
        _accum(a, g * (a.values > 0).astype(np.float64))
    return _make(np.maximum(a.values, 0.0), "relu", (a,), back)


def sigmoid(a: Tensor) -> Tensor:
    out_vals = 1.0 / (1.0 + np.exp(-a.values))

    def back(g):
        _accum(a, g * out_vals * (1.0 - out_vals))
    return _make(out_vals, "sigmoid", (a,), back)


def log_softmax(a: Tensor, dim: int = -1) -> Tensor:
    shifted = a.values - a.values.max(axis=dim, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=dim, keepdims=True))
    out_vals = shifted - logsum

    def back(g):
        soft = np.exp(out_vals)
        _accum(a, g - soft * g.sum(axis=dim, keepdims=True))
    return _make(out_vals, "log_softmax", (a,), back)


def l2_normalize(a: Tensor, dim: int = -1, eps: float = 1e-8) -> Tensor:
    """Unit-normalize along ``dim`` with denominator max(norm, eps), so the
    result is exactly scale-invariant away from zero and finite at zero."""
    norm = np.sqrt((a.values ** 2).sum(axis=dim, keepdims=True))
    denom = np.maximum(norm, eps)
    out_vals = a.values / denom

    def back(g):
        dot = (g * a.values).sum(axis=dim, keepdims=True)
        # Below eps the map is linear (x / eps): no correction term.
        correction = np.where(norm > eps, a.values * dot / denom ** 3, 0.0)
        _accum(a, g / denom - correction)
    return _make(out_vals, "l2_normalize", (a,), back)


def concat(parts: list[Tensor], dim: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    sizes = [p.values.shape[dim] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[dim] = slice(lo, hi)
            _accum(p, g[tuple(sl)])
    return _make(np.concatenate([p.values for p in parts], axis=dim), "concat", tuple(parts), back)


def scatter_rows(num_rows: int, idx, rows: np.ndarray) -> np.ndarray:
    """Sum ``rows`` into ``num_rows`` output rows grouped by ``idx``: the transposed
    product of the gather pattern, which adds each output row's inputs in input
    order and raises ``ShapeError`` for an id outside [0, num_rows)."""
    idx = np.asarray(idx, dtype=np.int64)
    gather = CsrOperator(np.ones(idx.size), idx, np.arange(idx.size + 1), (idx.size, num_rows))
    return gather.T @ rows


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"segment_sum expects a matrix, got shape {a.values.shape}")
    idx = np.asarray(segment_ids, dtype=np.int64)
    if idx.shape != (a.values.shape[0],):
        raise ShapeError(f"segment_sum: ids shape {idx.shape} for input {a.values.shape}")

    def back(g):
        _accum(a, g[idx])
    return _make(scatter_rows(num_segments, idx, a.values), "segment_sum", (a,), back)


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got shape {a.values.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.values.shape[0]):
        raise ShapeError(f"gather index out of range [0, {a.values.shape[0]})")

    def back(g):
        _accum(a, scatter_rows(a.values.shape[0], idx, g))
    return _make(a.values[idx], "gather_rows", (a,), back)


def sampled_dots(x: Tensor, y: Tensor, indptr: np.ndarray, indices: np.ndarray) -> Tensor:
    """``out[k] = <x[i], y[indices[k]]>`` for each entry ``k`` of row ``i`` of the CSR
    pattern (``indptr``, ``indices``), shaped like ``indices``. A 2-D ``indices``
    (one row per row of ``x``) is scored through one gather of ``y``, a 1-D one
    read from the Gram product ``x @ y.T``. With ``P`` the pattern holding the
    incoming gradient, the adjoints are ``P @ y`` and ``P.T @ x``; ``x`` may be ``y``."""
    xv, yv = x.values, y.values
    idx, ptr = np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)
    flat, rows = idx.ravel(), len(xv) if xv.ndim else -1
    if (xv.ndim != 2 or yv.ndim != 2 or xv.shape[1] != yv.shape[1] or ptr.shape != (rows + 1,)
            or ptr[0] != 0 or ptr[-1] != flat.size or np.count_nonzero(ptr[1:] < ptr[:-1])
            or idx.ndim != 1 and (idx.ndim != 2 or len(idx) != rows
                                  or np.count_nonzero(ptr[1:] - ptr[:-1] != idx.shape[1]))):
        raise ShapeError(f"sampled_dots: pattern {ptr.shape} x {idx.shape} for operands "
                         f"{xv.shape} and {yv.shape}")
    if flat.size and (flat.min() < 0 or flat.max() >= len(yv)):
        raise ShapeError(f"sampled_dots: index out of range [0, {len(yv)})")
    if idx.ndim == 2:
        out = (yv.take(flat, axis=0).reshape(*idx.shape, yv.shape[1]) @ xv[:, :, None])[:, :, 0]
    else:
        out = (xv @ yv.T).ravel()[np.repeat(np.arange(rows) * len(yv), ptr[1:] - ptr[:-1]) + flat]

    def back(g):
        p = CsrOperator(np.ravel(g), flat, ptr, (rows, len(yv)))
        if x.requires_grad:
            _accum(x, p @ yv)
        if y.requires_grad:
            _accum(y, p.T @ xv)
    return _make(out, "sampled_dots", (x, y), back)


def propagate(a: Tensor, op) -> Tensor:
    """``op @ a`` for a symmetric n x n ``CsrOperator`` (or dense matrix) ``op``.

    Symmetry makes the backward pass the same product, ``op @ g``; the
    caller guarantees it, because checking it would cost as much as the
    product.
    """
    if a.values.ndim != 2 or op.shape != (a.values.shape[0],) * 2:
        raise ShapeError(f"propagate: operator {op.shape} for input {a.values.shape}")

    def back(g):
        _accum(a, op @ g)
    return _make(op @ a.values, "propagate", (a,), back)


def frobenius_sq(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, 2.0 * g * a.values)
    return _make(np.asarray((a.values ** 2).sum()), "frobenius_sq", (a,), back)


def tensor_sum(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, np.full_like(a.values, g))
    return _make(np.asarray(a.values.sum()), "sum", (a,), back)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam optimizer with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 8e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.values) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.values -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
