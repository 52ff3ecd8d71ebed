"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

The op set is deliberately small: elementwise arithmetic, matmul, `affine`,
reductions, reshape/swapaxes/concat/slice and indexing, log, sigmoid, GELU,
softmax, log-softmax, and scaled dot-product multi-head attention. Row lookup
is plain advanced indexing (`table[idx]`), whose gradient scatter-adds.
Everything trainable in this package is a patch-token transformer built from
these ops, so nothing else is needed. All values are float64 and all kernels
are deterministic (no parallel reduction reordering), which is what makes the
1e-4 finite-difference tolerance and byte-identical checkpoints achievable.

Graph and finite-check policy, decided in `_op` alone: an op result joins the
graph (keeps its parents and backward function) only when grad is enabled and
some parent needs a gradient. A Tensor built from outside data is always
checked for NaN and infinity, an op result only while grad is enabled; both
raise FloatingPointError, which a training step (`optim.train_step`) re-raises
as RuntimeError naming the step. The code that reads a `no_grad` result into
numpy calls `Tensor.readout()`, which checks it once. A non-finite value that
a later op maps to a finite one (a score of minus infinity that softmax turns
into a zero weight) is therefore reported during training but not during
inference.

The grad mode is per thread: `no_grad` switches it off for the calling thread
alone, so threads that run inference side by side (the IDM's averaged
denoising runs) leave training in any other thread untouched.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "concat",
    "attention",
    "autodiff_grad",
    "finite_diff_grad",
    "no_grad",
]

LAYER_NORM_EPS = 1e-5


class _GradMode(threading.local):
    enabled = True            # every thread starts with grad enabled


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode), for the
    calling thread only."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus (optionally) a node in the backward graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError("non-finite values entering the graph")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection ------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def readout(self) -> np.ndarray:
        """The values of a `no_grad` result, checked finite once here since
        its ops skipped the check."""
        if not np.all(np.isfinite(self.data)):
            raise FloatingPointError("non-finite values in an inference result")
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph mechanics ----------------------------------------------------
    def _accumulate(self, g: np.ndarray) -> None:
        """Add `g` to the gradient. The first one is copied into a buffer
        laid out like `data`, whatever the layout of `g` (a transposed view
        would make later reductions sum in another order)."""
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------
    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))
        return _op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)
        return _op(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))
        return _op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * (other ** -1.0)

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))
        return _op(self.data ** exponent, (self,), backward)

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul requires operands with ndim >= 2")
        return _op(self.data @ other.data, (self, other),
                   lambda g: _matmul_backward(self, other, g))

    def affine(self, w: "Tensor", b: "Tensor") -> "Tensor":
        """`self @ w + b` in one op, the bias added in the product's buffer."""
        if self.ndim < 2 or w.ndim < 2:
            raise ValueError("matmul requires operands with ndim >= 2")
        y = self.data @ w.data
        y += b.data

        def backward(g):
            _matmul_backward(self, w, g)
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        return _op(y, (self, w, b), backward)

    # -- reductions ---------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        def backward(g):
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(gg, self.shape))
        return _op(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape manipulation ---------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g):
            self._accumulate(g.reshape(self.shape))
        return _op(self.data.reshape(shape), (self,), backward)

    def swapaxes(self, a: int, b: int):
        def backward(g):
            self._accumulate(g.swapaxes(a, b))
        return _op(self.data.swapaxes(a, b), (self,), backward)

    def __getitem__(self, key):
        def backward(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            np.add.at(self.grad, key, g)       # repeated indices must accumulate
        return _op(self.data[key], (self,), backward)

    # -- elementwise nonlinearities -------------------------------------------
    def log(self):
        def backward(g):
            self._accumulate(g / self.data)
        return _op(np.log(self.data), (self,), backward)

    def sigmoid(self):
        # numerically stable two-sided form
        x = self.data
        pos = x >= 0
        y = np.empty_like(x)
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)

        def backward(g):
            self._accumulate(g * y * (1.0 - y))
        return _op(y, (self,), backward)

    def gelu(self):
        # exact (erf) form; derivative Phi(x) + x*phi(x)
        x = self.data
        phi_cdf = x / math.sqrt(2.0)                 # 0.5 * (1 + erf(x / sqrt 2))
        erf(phi_cdf, out=phi_cdf)
        phi_cdf += 1.0
        phi_cdf *= 0.5

        def backward(g):
            # g * (phi_cdf + x * pdf), in one buffer
            d = -0.5 * x
            d *= x
            np.exp(d, out=d)
            d /= math.sqrt(2.0 * math.pi)
            d *= x
            d += phi_cdf
            d *= g
            self._accumulate(d)
        return _op(x * phi_cdf, (self,), backward)

    def clip(self, lo: float, hi: float):
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g):
            self._accumulate(g * mask)
        return _op(np.clip(self.data, lo, hi), (self,), backward)

    def softmax(self, axis: int = -1):
        y = self.data - self.data.max(axis=axis, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=axis, keepdims=True)

        def backward(g):
            # y * (g - sum(g * y)), in one buffer
            d = g * y
            dot = d.sum(axis=axis, keepdims=True)
            np.subtract(g, dot, out=d)
            d *= y
            self._accumulate(d)
        return _op(y, (self,), backward)

    def log_softmax(self, axis: int = -1):
        z = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
        sm = np.exp(z - lse)

        def backward(g):
            self._accumulate(g - sm * g.sum(axis=axis, keepdims=True))
        return _op(z - lse, (self,), backward)

    def layer_norm(self):
        """Normalize over the last axis (affine params applied by the caller)."""
        y = self.data - self.data.mean(axis=-1, keepdims=True)
        var = (y * y).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        y *= inv
        n = self.shape[-1]

        def backward(g):
            # inv * (g - mean(g) - y * sum(g * y) / n), in two buffers
            gy = g * y
            np.multiply(y, gy.sum(axis=-1, keepdims=True), out=gy)
            gy /= n
            d = g - g.mean(axis=-1, keepdims=True)
            d -= gy
            d *= inv
            self._accumulate(d)
        return _op(y, (self,), backward)


def _op(data, parents: tuple[Tensor, ...],
        backward: Callable[[np.ndarray], None] | None) -> Tensor:
    """The result of an op on `parents`; the only place that applies the
    graph and finite-check policy of the module docstring."""
    grad_enabled = _grad_mode.enabled
    out = Tensor.__new__(Tensor)          # skips the constructor's finite check
    out.data = np.asarray(data, dtype=np.float64)
    if grad_enabled and not np.all(np.isfinite(out.data)):
        raise FloatingPointError("non-finite values entering the graph")
    out.grad = None
    out.requires_grad = grad_enabled and any(p.requires_grad for p in parents)
    out._parents, out._backward = (parents, backward) if out.requires_grad else ((), None)
    return out


def _matmul_backward(a: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Give the operands of `a @ b` their gradients from the result's `g`."""
    if a.requires_grad:
        a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
    if b.requires_grad:
        b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(a, b)
                t._accumulate(g[tuple(sl)])
    return _op(data, tuple(tensors), backward)


def attention(query: Tensor, keys: Tensor, values: Tensor, n_heads: int) -> Tensor:
    """Scaled dot-product multi-head attention with identity projections.

    query: (..., M, D), keys/values: (..., K, D), D divisible by n_heads.
    Output rows are convex combinations of value rows within each head.
    """
    query, keys, values = (Tensor._coerce(t) for t in (query, keys, values))
    d_model = query.shape[-1]
    if d_model % n_heads != 0:
        raise ValueError(f"model dim {d_model} not divisible by {n_heads} heads")
    d_head = d_model // n_heads

    def split(t: Tensor) -> Tensor:
        # (..., N, D) -> (..., heads, N, d_head)
        n = t.shape[-2]
        t = t.reshape(t.shape[:-2] + (n, n_heads, d_head))
        return t.swapaxes(-2, -3)

    q, k, v = split(query), split(keys), split(values)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_head))
    weights = scores.softmax(axis=-1)
    heads = weights @ v                      # (..., heads, M, d_head)
    merged = heads.swapaxes(-2, -3)          # (..., M, heads, d_head)
    return merged.reshape(merged.shape[:-2] + (d_model,))


def autodiff_grad(loss_fn: Callable[[dict[str, Tensor]], Tensor],
                  params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Gradient of a scalar loss with respect to every parameter array."""
    leaves = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
    loss = loss_fn(leaves)
    if not isinstance(loss, Tensor):
        raise TypeError("loss function must return a Tensor built from supported ops")
    if loss.size != 1:
        raise ValueError("loss must be scalar")
    loss.backward()
    return {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in leaves.items()}


def finite_diff_grad(loss_fn: Callable[[dict[str, Tensor]], Tensor],
                     params: dict[str, np.ndarray],
                     eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradients, the test oracle for autodiff_grad."""
    if eps <= 0:
        raise ValueError("eps must be positive")

    def evaluate(arrays: dict[str, np.ndarray]) -> float:
        with no_grad():
            loss = loss_fn({k: Tensor(v) for k, v in arrays.items()})
        return float(loss.readout())

    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    grads = {}
    for name, arr in base.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = evaluate(base)
            flat[i] = orig - eps
            lo = evaluate(base)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads
