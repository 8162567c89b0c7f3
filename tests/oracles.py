"""Test references shared by more than one test module, each defined once.

`filled_softmax` over an `argsort_keep_mask` is the top-n softmax of the
node attention written the plain way; `op_nodes` lists the graph nodes
a backward pass runs; `graph_bytes` counts the array memory a graph
keeps alive; `model_grad_check` checks the whole model's gradients
against central finite differences.
"""

from types import FunctionType, SimpleNamespace

import numpy as np

from dualpath import numerics as nm
from dualpath.loss import LossConfig, total_loss
from dualpath.model import ModelConfig, ModelParams, forward
from dualpath.numerics import GradCheckReport, Tensor, grad_check


def argsort_keep_mask(scores, n):
    """The n largest entries per row (last axis), ties to the lowest column, by stable descending argsort."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    keep = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(keep, order[..., :n], True, axis=-1)
    return keep


def filled_softmax(x, keep):
    """Softmax over the entries `keep` marks: dropped ones are filled with -1e30 before a plain softmax.

    `keep` broadcasts to `x` (an N x N mask serves every head of H x N x N
    scores); `x * keep + fill` passes kept values and their gradient
    through exactly, and dropped entries come out exactly 0.
    """
    keep = np.broadcast_to(keep, x.shape)
    return nm.softmax_lastaxis(x * keep + np.where(keep, 0.0, -1e30))


def op_nodes(root):
    """The graph nodes under `root` whose backward runs: the walk perfbench/micro.py's `_op_nodes` counts."""
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        if node._backward is not None:
            out.append(node)
        stack.extend(node._parents)
    return out


def graph_bytes(root):
    """Bytes of the distinct ndarray buffers reachable from the graph under `root`.

    That is each node's data (leaves included) plus every array its
    backward closure holds, found through the closure cells and the lists,
    tuples, dicts and namespaces in them. A view counts as its base
    buffer, and each base counts once.
    """
    bases, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj.nbytes
        elif isinstance(obj, Tensor):
            stack += [obj.data, obj.grad, obj._backward, *obj._parents]
        elif isinstance(obj, FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a variable the closure's branch never assigned
                    pass
        elif isinstance(obj, (list, tuple)):
            stack += obj
        elif isinstance(obj, dict):
            stack += obj.values()
        elif isinstance(obj, SimpleNamespace):
            stack += vars(obj).values()
    return sum(bases.values())


def model_grad_check(
    config: ModelConfig,
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    loss_cfg: LossConfig = LossConfig(),
    h: float = 1e-5,
    include_input: bool = True,
) -> GradCheckReport:
    """Check d(loss)/d(theta) for every parameter tensor (and the input)
    against central finite differences, aggregating the worst errors."""
    base = {name: Tensor(t.data) for name, t in params.named().items()}
    x_const = Tensor(x)
    y_const = Tensor(y)

    def loss_at(x_t: Tensor, named: dict[str, Tensor]) -> Tensor:
        p = ModelParams.from_named(config, named)
        y_hat, _ = forward(x_t, p, config)
        return total_loss(y_hat, y_const, loss_cfg)

    worst_abs = 0.0
    worst_rel = 0.0
    count = 0
    for name in base:
        def f(t: Tensor, _name=name) -> Tensor:
            named = dict(base)
            named[_name] = t
            return loss_at(x_const, named)

        rep = grad_check(f, base[name], h)
        worst_abs = max(worst_abs, rep.max_abs_err)
        worst_rel = max(worst_rel, rep.max_rel_err)
        count += rep.param_count

    if include_input:
        rep = grad_check(lambda t: loss_at(t, dict(base)), x_const, h)
        worst_abs = max(worst_abs, rep.max_abs_err)
        worst_rel = max(worst_rel, rep.max_rel_err)
        count += rep.param_count
    return GradCheckReport(max_abs_err=worst_abs, max_rel_err=worst_rel, param_count=count)
