"""Minimal dense-tensor reverse-mode autodiff on float64 numpy buffers.

The operator set is exactly what the models and losses need. Tensors are
0-, 1- or 2-dimensional; broadcasting is limited to python scalars and a
row-vector bias in ``add``. Gradients accumulate additively into parents
when ``backward`` walks the (implicit) tape in reverse topological order.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_DEBUG_FINITE = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle per-op non-finite output checks (off by default)."""
    global _DEBUG_FINITE
    _DEBUG_FINITE = bool(enabled)


class Tensor:
    """Dense float64 value participating in reverse-mode differentiation."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, op={self._op})"

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.values.shape}")
        return float(self.values.reshape(()))

    def backward(self):
        backward(self)


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def _make(values, op: str, parents, backward_fn) -> Tensor:
    out = Tensor(values)
    out._op = op
    if _DEBUG_FINITE and not np.all(np.isfinite(out.values)):
        raise NumericError(f"non-finite output from op {op!r}")
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


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


def add(a: Tensor, b) -> Tensor:
    s = _as_scalar(b)
    if s is not None:
        def back(g):
            _accum(a, g)
        return _make(a.values + s, "add", (a,), back)
    if a.values.shape == b.values.shape:
        def back(g):
            _accum(a, g)
            _accum(b, g)
        return _make(a.values + b.values, "add", (a, b), back)
    # Row-vector bias: [n, d] + [d].
    if a.values.ndim == 2 and b.values.shape == (a.values.shape[1],):
        def back(g):
            _accum(a, g)
            _accum(b, g.sum(axis=0))
        return _make(a.values + b.values, "add", (a, b), back)
    raise ShapeError(f"add: incompatible shapes {a.values.shape} and {b.values.shape}")


def sub(a: Tensor, b) -> Tensor:
    s = _as_scalar(b)
    if s is not None:
        def back(g):
            _accum(a, g)
        return _make(a.values - s, "sub", (a,), back)
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
        _accum(a, g * b.values)
        _accum(b, g * a.values)
    return _make(a.values * b.values, "mul", (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.values.shape} and {b.values.shape}")

    def back(g):
        _accum(a, g @ b.values.T)
        _accum(b, a.values.T @ g)
    return _make(a.values @ b.values, "matmul", (a, b), back)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.values.shape}")

    def back(g):
        _accum(a, g.T)
    return _make(a.values.T.copy(), "transpose", (a,), back)


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0

    def back(g):
        _accum(a, g * mask)
    return _make(np.where(mask, a.values, 0.0), "relu", (a,), back)


def exp(a: Tensor) -> Tensor:
    out_vals = np.exp(a.values)

    def back(g):
        _accum(a, g * out_vals)
    return _make(out_vals, "exp", (a,), back)


def log(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, g / a.values)
    return _make(np.log(a.values), "log", (a,), back)


def sigmoid(a: Tensor) -> Tensor:
    out_vals = 1.0 / (1.0 + np.exp(-a.values))

    def back(g):
        _accum(a, g * out_vals * (1.0 - out_vals))
    return _make(out_vals, "sigmoid", (a,), back)


def _softmax_vals(x: np.ndarray, dim: int) -> np.ndarray:
    shifted = x - x.max(axis=dim, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=dim, keepdims=True)


def softmax(a: Tensor, dim: int = -1) -> Tensor:
    out_vals = _softmax_vals(a.values, dim)

    def back(g):
        dot = (g * out_vals).sum(axis=dim, keepdims=True)
        _accum(a, out_vals * (g - dot))
    return _make(out_vals, "softmax", (a,), back)


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


def scatter_rows(num_rows: int, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum ``rows`` into ``num_rows`` output rows grouped by ``idx``."""
    out = np.zeros((num_rows,) + rows.shape[1:])
    if idx.size == 0:
        return out
    if np.all(idx[:-1] <= idx[1:]):  # sorted: reduceat is much faster than add.at
        starts = np.flatnonzero(np.diff(idx, prepend=idx[0] - 1))
        out[idx[starts]] = np.add.reduceat(rows, starts, axis=0)
    else:
        np.add.at(out, idx, rows)
    return out


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"segment_sum expects a matrix, got shape {a.values.shape}")
    idx = np.asarray(segment_ids, dtype=np.int64)
    if idx.shape != (a.values.shape[0],):
        raise ShapeError(f"segment_sum: ids shape {idx.shape} for input {a.values.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= num_segments):
        raise ShapeError(f"segment index out of range [0, {num_segments})")

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


def propagate(a: Tensor, op) -> Tensor:
    """``op @ a`` for a symmetric sparse (or dense) n x n operator ``op``.

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


def tensor_mean(a: Tensor) -> Tensor:
    n = a.values.size

    def back(g):
        _accum(a, np.full_like(a.values, g / n))
    return _make(np.asarray(a.values.mean()), "mean", (a,), back)


class Adam:
    """Adam optimizer with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 8e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.values) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.values -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
