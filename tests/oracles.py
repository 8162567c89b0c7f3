"""Test references shared by more than one test module, each defined once.

`filled_softmax` over an `argsort_keep_mask` is the top-n softmax of the
node attention written the plain way; `op_nodes` lists the graph nodes
a backward pass runs.
"""

import numpy as np

from dualpath import numerics as nm


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
