"""Dense float64 tensor engine with reverse-mode differentiation.

Every array the network touches is a `Tensor`: a C-contiguous float64
ndarray plus an optional gradient buffer and the links needed to replay
the forward pass backwards. The op set is exactly what the model needs
(matmul, softmax, top-n masked softmax, layer norm, the usual elementwise
activations and reductions) and every differentiable op can be checked
against central finite differences via `grad_check`.

Graphs are per-result: each Tensor records its parents and a closure
that routes the incoming gradient, so independent forward passes never
share state and can run on separate threads.

Graphs are also single-use. `backward` releases every interior node as
soon as its closure has run, so a training step holds one graph at a
time and intermediate gradients are freed during the pass. Leaf
gradients accumulate across passes over freshly built graphs; running
backward a second time through a released graph raises RuntimeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "GradCheckReport",
    "NumericError",
    "ParameterError",
    "ShapeError",
    "Tensor",
    "backward",
    "concat",
    "exp",
    "grad_check",
    "layer_norm",
    "masked_softmax",
    "matmul",
    "mean",
    "relu",
    "reshape",
    "permute",
    "sigmoid",
    "softmax_lastaxis",
    "sqrt",
    "sum_",
    "tanh",
    "topn_keep_mask",
    "transpose_last2",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ParameterError(ValueError):
    """A non-shape argument is out of its valid range."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


class Tensor:
    """Dense n-dimensional float64 array with a differentiation record.

    `data` is always C-contiguous (row-major). `grad` is lazily
    allocated, shaped like `data`, and on a leaf accumulates across
    backward calls until `zero_grad`. Tensors are treated as immutable
    after construction except for gradient accumulation; optimizers that
    update `data` in place must do so between recorded passes.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if data is None:
            raise TypeError("Tensor data is None")
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- gradient bookkeeping ------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        backward(self)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return _add(self, _wrap(other))

    def __radd__(self, other):
        return _add(_wrap(other), self)

    def __sub__(self, other):
        return _add(self, _neg(_wrap(other)))

    def __rsub__(self, other):
        return _add(_wrap(other), _neg(self))

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __rmul__(self, other):
        return _mul(_wrap(other), self)

    def __truediv__(self, other):
        return _div(self, _wrap(other))

    def __rtruediv__(self, other):
        return _div(_wrap(other), self)

    def __neg__(self):
        return _neg(self)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: Sequence[Tensor], bwd) -> Tensor:
    """Build a result node, recording parents only when a grad can flow."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = bwd
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squash = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if squash:
        g = g.sum(axis=squash, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ---------------------------------------------------------------


def _add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), bwd)


def _neg(a: Tensor) -> Tensor:
    def bwd(g):
        a._accumulate(-g)

    return _make(-a.data, (a,), bwd)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), bwd)


def _div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as err:
        raise ShapeError(f"matmul broadcast failed: {a.shape} @ {b.shape}") from err

    def bwd(g):
        if b.ndim == 2 and a.ndim > 2:
            # a 2-D weight shared by every leading index: fold those axes
            # into GEMM rows, so each gradient is one BLAS call
            k, n = b.shape
            g2 = g.reshape(-1, n)
            if a.requires_grad:
                a._accumulate((g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                b._accumulate(a.data.reshape(-1, k).T @ g2)
            return
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(data, (a, b), bwd)


# -- shape manipulation -------------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = x.data.reshape(shape)

    def bwd(g):
        x._accumulate(g.reshape(x.shape))

    return _make(data, (x,), bwd)


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.ascontiguousarray(np.transpose(x.data, axes))
    inverse = np.argsort(axes)

    def bwd(g):
        x._accumulate(np.transpose(g, inverse))

    return _make(data, (x,), bwd)


def transpose_last2(x: Tensor) -> Tensor:
    """Swap the last two axes (the inversion between token layouts)."""
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2 needs >=2-d input, got {x.shape}")
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return permute(x, axes)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return _make(data, tensors, bwd)


# -- reductions ---------------------------------------------------------------


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.shape).copy())

    return _make(data, (x,), bwd)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = x.size if axis is None else x.shape[axis]
    return sum_(x, axis=axis, keepdims=keepdims) * (1.0 / count)


# -- elementwise activations ----------------------------------------------


def relu(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.maximum(x.data, 0.0)

    def bwd(g):
        # subgradient at 0 taken as 0
        x._accumulate(g * (x.data > 0.0))

    return _make(data, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.tanh(x.data)

    def bwd(g):
        x._accumulate(g * (1.0 - data * data))

    return _make(data, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    x = _wrap(x)
    # evaluated branch-wise to stay overflow-free on both tails
    d = x.data
    e = np.exp(-np.abs(d))
    data = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bwd(g):
        x._accumulate(g * data * (1.0 - data))

    return _make(data, (x,), bwd)


def exp(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.exp(x.data)

    def bwd(g):
        x._accumulate(g * data)

    return _make(data, (x,), bwd)


def sqrt(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.sqrt(x.data)

    def bwd(g):
        x._accumulate(g * 0.5 / data)

    return _make(data, (x,), bwd)


# -- structured ops -----------------------------------------------------------


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    x = _wrap(x)
    if x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        x._accumulate(data * (g - inner))

    return _make(data, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if eps <= 0:
        raise ParameterError(f"layer_norm eps must be positive, got {eps}")
    width = x.shape[-1]
    if gamma.shape != (width,) or beta.shape != (width,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last axis {width}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = gamma.data * xhat + beta.data

    def bwd(g):
        if x.requires_grad:
            gx = g * gamma.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (gx - m1 - xhat * m2))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * xhat, gamma.shape))
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.shape))

    return _make(data, (x, gamma, beta), bwd)


def topn_keep_mask(scores: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of the n largest entries per row (last axis).

    Ties break toward the lowest column index so sparsity patterns are
    reproducible run to run; -0.0 and 0.0 count as equal. This is the
    mask a stable descending argsort gives, found in O(cols) per row:
    entries above the row's n-th largest value are kept, then the
    lowest-column entries equal to it until the row holds exactly n.
    """
    cols = scores.shape[-1]
    if not 1 <= n <= cols:
        raise ParameterError(f"top-n count {n} out of range [1, {cols}]")
    kth = np.partition(scores, cols - n, axis=-1)[..., cols - n, None]
    above = scores > kth
    tied = scores == kth
    room = n - above.sum(axis=-1, keepdims=True)
    return above | (tied & (np.cumsum(tied, axis=-1, dtype=np.int32) <= room))


def masked_softmax(x: Tensor, keep: np.ndarray) -> Tensor:
    """Softmax along the last axis over the kept entries only.

    `keep` is a constant boolean mask that broadcasts to `x` (an N x N
    mask serves every head of H x N x N scores); each row must keep at
    least one entry. Dropped entries get probability exactly 0 and no
    gradient. Dropped entries reach `exp` as 0, not as a huge negative
    number, so a sparse mask pays for no underflowing exponentials.
    """
    x = _wrap(x)
    keep = np.asarray(keep, dtype=bool)
    try:
        fits = x.ndim >= 1 and np.broadcast_shapes(keep.shape, x.shape) == x.shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"mask shape {keep.shape} does not broadcast to input {x.shape}")
    if not np.atleast_1d(keep).any(axis=-1).all():
        raise ParameterError("masked_softmax needs at least one kept entry per row")
    top = np.where(keep, x.data, -np.inf).max(axis=-1, keepdims=True)
    e = np.exp(np.where(keep, x.data - top, 0.0)) * keep
    data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        x._accumulate(data * (g - inner))

    return _make(data, (x,), bwd)


# -- reverse pass -------------------------------------------------------------


def _released(g: np.ndarray) -> None:
    raise RuntimeError(
        "backward reached a graph node that an earlier backward pass already "
        "released; rebuild the graph with a new forward pass"
    )


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dLeaf into every requires_grad leaf under `loss`.

    The graph is single-use: each interior node is released as soon as
    its closure has run (its `grad` becomes None and it drops its
    parents and closure), so intermediate gradients and activations are
    freed during the pass. Leaf gradients are kept and accumulate across
    passes over freshly built graphs. Running backward again through a
    released node raises RuntimeError.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    # iterative topological order; graphs can outgrow the recursion limit
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss._accumulate(np.ones_like(loss.data))
    # popping drops the pass's own reference, so a node's buffers go as
    # soon as nothing downstream of it still holds them
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._parents = ()
        node._backward = _released


# -- finite-difference oracle ---------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    """Worst-case disagreement between backward() and central differences."""

    max_abs_err: float
    max_rel_err: float
    param_count: int


# Below this magnitude the relative comparison would amplify finite-
# difference noise on true-zero gradients, so the denominator is floored.
_REL_FLOOR = 1e-4


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> GradCheckReport:
    """Compare backward() gradients of `f` at `x` with central differences.

    `f` must map a Tensor to a scalar Tensor and rebuild its graph on
    every call. The analytic side runs once; the numeric side evaluates
    (f(x+h) - f(x-h)) / 2h per coordinate.
    """
    if h <= 0:
        raise ParameterError(f"grad_check step must be positive, got {h}")

    leaf = Tensor(x.data.copy(), requires_grad=True)
    out = f(leaf)
    if out.size != 1:
        raise ShapeError(f"grad_check target must be scalar, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise NumericError("grad_check target evaluated to a non-finite value")
    out.backward()
    analytic = leaf.grad.copy() if leaf.grad is not None else np.zeros_like(x.data)

    base = x.data.reshape(-1)
    numeric = np.empty_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + h
        hi = f(Tensor(bumped.reshape(x.shape))).item()
        bumped[i] = base[i] - h
        lo = f(Tensor(bumped.reshape(x.shape))).item()
        numeric[i] = (hi - lo) / (2.0 * h)
    if not np.isfinite(numeric).all():
        raise NumericError("finite-difference probe produced non-finite values")

    a = analytic.reshape(-1)
    abs_err = np.abs(a - numeric)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), _REL_FLOOR)
    rel_err = abs_err / denom
    return GradCheckReport(
        max_abs_err=float(abs_err.max(initial=0.0)),
        max_rel_err=float(rel_err.max(initial=0.0)),
        param_count=int(x.size),
    )


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape: Iterable[int]) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=tuple(shape))
