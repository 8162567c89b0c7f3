"""Dense float64 tensor engine with reverse-mode differentiation.

Every array the network touches is a `Tensor`: a C-contiguous float64
ndarray plus an optional gradient buffer and the links needed to replay
the forward pass backwards. The op set is what the model needs (matmul,
softmax, layer norm, the usual elementwise activations and reductions),
plus the top-n keep mask of its node attention. `fused` is the one node
constructor: every op, and every whole composition the model records as
one node, is its forward expression plus a `grads(g)` that maps the
gradient at the result to one gradient per parent, or None for a parent
that records none. The model's compositions share the plain-array
kernels of the single ops (`softmax_array`, `softmax_array_grad` and the
GEMM folds `fold_dot`, `fold_wgrad`, `fold_bgrad`); its gate also uses
`sigmoid_array`. Every differentiable op can be checked against central
finite differences via `grad_check`.

Graphs are per-result: each Tensor records its parents and a closure
that routes the incoming gradient, so independent forward passes never
share state and can run on separate threads.

A node keeps for backward only the arrays its backward reads, and
recomputes the rest from arrays that stay alive anyway (its parents'
data), with the forward's own operations in the same order, so the
gradients are bit-identical to keeping them: `layer_norm` keeps its row
means and inverse deviations, not the normalized input. Its optional
`skip` input folds a residual add into the same node.

Graphs are also single-use. `backward` releases every interior node as
soon as its closure has run, so a training step holds one graph at a
time and intermediate gradients are freed during the pass. Leaf
gradients accumulate across passes over freshly built graphs; running
backward a second time through a released graph raises RuntimeError.

Gradient buffers are never copied and never written in place: the first
gradient a node receives is stored as a view of the array its producer
returned, each later one makes `grad + g`, a new array, and what is
stored is read-only. Producers may hand out views of their own incoming
gradient (a reshape, a split, a transpose), so nothing may write into a
buffer it did not allocate; read-only storage makes such a write an error.

Heap policy: a day-step allocates and frees the same few hundred arrays
every time, and glibc's default trims the freed top of the heap back to
the system after each backward, so the next step faults all those pages
in again (about 3,000 per reference-scale step). `keep_heap_resident`
raises the trim and mmap thresholds so the freed graph stays mapped for
reuse. `train.train_model` and `cli.cmd_backtest` call it; nothing does
at import, so other commands (`export-attention`) and library callers
that only score keep glibc's defaults and their smaller peak.
"""

from __future__ import annotations

import ctypes
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
    "fold_bgrad",
    "fold_dot",
    "fold_wgrad",
    "fused",
    "grad_check",
    "keep_heap_resident",
    "layer_norm",
    "matmul",
    "mean",
    "relu",
    "reshape",
    "permute",
    "sigmoid_array",
    "softmax_array",
    "softmax_array_grad",
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

    `data` is always C-contiguous (row-major). `grad` is None until a
    gradient arrives, then shaped like `data` and read-only: the first
    gradient is kept as a view, not copied, and each later one replaces
    it with the sum `grad + g`. On a leaf it accumulates across backward
    calls until `zero_grad`. Tensors are treated as immutable after
    construction except for gradient accumulation; optimizers that
    update `data` in place must do so between recorded passes and must
    not write into `grad`.
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
        g = np.asarray(g)
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
        # the producer may still hold `g` or its base: keep a view, never write into it
        g = g.view() if self.grad is None else self.grad + g
        g.flags.writeable = False
        self.grad = g

    def backward(self) -> None:
        backward(self)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return _add(self, _wrap(other))

    def __sub__(self, other):
        return _sub(self, _wrap(other))

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __truediv__(self, other):
        return _div(self, _wrap(other))


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def fused(data: np.ndarray, parents: Sequence[Tensor], grads: Callable) -> Tensor:
    """The graph node holding `data`, computed from `parents`: every op builds its result here.

    `grads(g)` maps the gradient at the result to one gradient per
    parent, each shaped like that parent; it may be one op's derivative
    or a whole composition's hand-derived backward. Parents are recorded
    only when one of them records gradients, and then `grads` runs once
    per backward pass. A parent's gradient is added only where it records
    gradients; its entry may be None where it does not, so `grads` can
    skip work for constant inputs.
    """
    out = Tensor(data)
    parents = tuple(parents)
    if any(p.requires_grad for p in parents):

        def bwd(g):
            for p, gp in zip(parents, grads(g)):
                if p.requires_grad:
                    p._accumulate(gp)

        out.requires_grad = True
        out._parents = parents
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


def _binary(data: np.ndarray, a: Tensor, b: Tensor, grad_a: Callable, grad_b: Callable) -> Tensor:
    """The node of a broadcasting binary op: `grad_a(g)` runs only where `a`
    records gradients and is summed back to `a`'s shape, likewise for `b`."""
    return fused(data, (a, b), lambda g: (
        _unbroadcast(grad_a(g), a.shape) if a.requires_grad else None,
        _unbroadcast(grad_b(g), b.shape) if b.requires_grad else None,
    ))


def _add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a.data + b.data, a, b, lambda g: g, lambda g: g)


def _sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a.data - b.data, a, b, lambda g: g, lambda g: -g)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a.data * b.data, a, b, lambda g: g * b.data, lambda g: g * a.data)


def _div(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a.data / b.data, a, b, lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data))


def fold_dot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`x @ w` for a 2-D `w`, with the leading axes of `x` folded into one GEMM's rows."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def fold_wgrad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a 2-D weight applied as `x @ w`: leading axes fold into GEMM rows."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def fold_bgrad(g: np.ndarray) -> np.ndarray:
    """Gradient of a bias added along the last axis."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


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
    if b.ndim == 2 and a.ndim > 2:
        # a 2-D weight shared by every leading index: each gradient is one GEMM
        return fused(data, (a, b), lambda g: (
            fold_dot(g, b.data.T) if a.requires_grad else None,
            fold_wgrad(a.data, g) if b.requires_grad else None,
        ))
    return _binary(
        data, a, b, lambda g: g @ np.swapaxes(b.data, -1, -2), lambda g: np.swapaxes(a.data, -1, -2) @ g
    )


# -- shape manipulation -------------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    return fused(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = np.argsort(axes)
    return fused(np.ascontiguousarray(np.transpose(x.data, axes)), (x,), lambda g: (np.transpose(g, inverse),))


def transpose_last2(x: Tensor) -> Tensor:
    """Swap the last two axes (the inversion between token layouts)."""
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2 needs >=2-d input, got {x.shape}")
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return permute(x, axes)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return fused(data, tensors, lambda g: np.split(g, offsets, axis=axis))


# -- reductions ---------------------------------------------------------------


def _spread(g: np.ndarray, x: Tensor, axis, keepdims: bool) -> np.ndarray:
    """Gradient at `x` of a sum over `axis`: `g` broadcast back to `x`'s shape, as a new array."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, x.shape).copy()


def sum_(x: Tensor, axis=None) -> Tensor:
    return fused(x.data.sum(axis=axis), (x,), lambda g: (_spread(g, x, axis, False),))


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """`sum_` times 1 / count, as one node."""
    scale = 1.0 / (x.size if axis is None else x.shape[axis])
    data = x.data.sum(axis=axis, keepdims=keepdims) * scale
    return fused(data, (x,), lambda g: (_spread(g * scale, x, axis, keepdims),))


# -- elementwise activations ----------------------------------------------


def relu(x: Tensor) -> Tensor:
    x = _wrap(x)
    # subgradient at 0 taken as 0
    return fused(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0.0),))


def tanh(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.tanh(x.data)
    return fused(data, (x,), lambda g: (g * (1.0 - data * data),))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function of a plain array, overflow-free on both tails."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def exp(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.exp(x.data)
    return fused(data, (x,), lambda g: (g * data,))


def sqrt(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.sqrt(x.data)
    return fused(data, (x,), lambda g: (g * 0.5 / data,))


# -- structured ops -----------------------------------------------------------


def softmax_array(x: np.ndarray, *, axis: int = -1) -> np.ndarray:
    """Softmax of a plain array along `axis` (default the last), stabilized
    by max subtraction."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_array_grad(p: np.ndarray, g: np.ndarray, *, axis: int = -1) -> np.ndarray:
    """Gradient at a softmax's input from its output `p` along `axis` and the gradient `g` at `p`."""
    return p * (g - (g * p).sum(axis=axis, keepdims=True))


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    x = _wrap(x)
    if x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {x.shape}")
    data = softmax_array(x.data)
    return fused(data, (x,), lambda g: (softmax_array_grad(data, g),))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, skip: Tensor | None = None) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5), then affine.

    With a `skip` tensor the input is the residual sum `x + skip`, formed
    inside this one node. Backward keeps only the row means and inverse
    deviations: it recomputes the sum and the normalized input from the
    parents with the forward's own operations, so the gradients are those
    of keeping them.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    width = x.shape[-1]
    if gamma.shape != (width,) or beta.shape != (width,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last axis {width}"
        )
    terms = (x,) if skip is None else (x, _wrap(skip))

    def summed():
        return x.data if skip is None else x.data + terms[1].data

    s = summed()
    mu = s.mean(axis=-1, keepdims=True)
    xc = s - mu
    sq = xc * xc
    var = sq.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = np.multiply(xc, inv, out=xc)
    data = np.multiply(gamma.data, xhat, out=sq)  # gamma * xhat + beta, in the squares' buffer
    data += beta.data

    def grads(g):
        xhat = summed() - mu
        xhat *= inv
        gx = None
        if any(t.requires_grad for t in terms):
            gx = g * gamma.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            gx = inv * (gx - m1 - xhat * m2)
        return (
            *(gx for _ in terms),
            _unbroadcast(g * xhat, gamma.shape) if gamma.requires_grad else None,
            _unbroadcast(g, beta.shape) if beta.requires_grad else None,
        )

    return fused(data, (*terms, gamma, beta), grads)


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


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_heap_resident() -> None:
    """Keep freed heap memory mapped, so repeated day-steps reuse it without page faults.

    Sets glibc's trim threshold to 512 MB and its mmap threshold to 32 MB
    (the largest it accepts on 64-bit), which also stops glibc from
    adapting either. Does nothing where libc.so.6 or mallopt is missing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 512 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape: Iterable[int]) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=tuple(shape))
