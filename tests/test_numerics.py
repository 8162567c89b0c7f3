import ast
import math
import pathlib
import zlib

import numpy as np
import pytest

import dualpath
from dualpath import numerics as nm
from dualpath.numerics import (
    ParameterError,
    ShapeError,
    Tensor,
    grad_check,
)

from oracles import argsort_keep_mask, filled_softmax, op_nodes


def _topn_softmax(x, n):
    # a softmax over each row's n largest entries, the mask from topn_keep_mask
    return filled_softmax(x, nm.topn_keep_mask(x.data, n))


@pytest.mark.parametrize("module", [dualpath, nm], ids=["dualpath", "dualpath.numerics"])
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def _public_definitions(tree):
    """The names a module defines at top level without a leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def _references(tree, module, own):
    """The names of `dualpath.<module>` a parsed file uses: names imported
    from it, `alias.name` on the module, and in the module itself (`own`)
    any name read outside the top-level definition it names."""
    imported, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases |= {a.asname or a.name for a in node.names if a.name.split(".")[-1] == module}
    found = set()

    def visit(node, defining):
        if own and defining is None and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = node.name
        if (
            isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)
            and (own or node.id in imported)
            and node.id != defining
        ):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, None)
    return found


def _caller_trees():
    """The package directory, and each file that may use the package, parsed:
    its own modules, the shared test oracles and the benchmark."""
    package, tests = pathlib.Path(nm.__file__).parent, pathlib.Path(__file__).parent
    callers = [*package.glob("*.py"), tests / "oracles.py", *(tests.parent / "perfbench").glob("*.py")]
    return package, {path: ast.parse(path.read_text()) for path in callers}


def test_every_public_engine_name_has_a_caller():
    # a public name that neither the package, a shared test oracle nor the
    # benchmark uses outside its own definition is dead code
    package, trees = _caller_trees()
    unused = []
    for module in sorted(package.glob("*.py")):
        used = set().union(*(
            _references(tree, module.stem, path == module) for path, tree in trees.items()
        ))
        unused += [f"{module.stem}.{name}" for name in sorted(_public_definitions(trees[module]) - used)]
    assert unused == []


def _defaulted_parameters(tree):
    """(name a call uses, parameter, position) of each defaulted parameter of a
    public function, or of a public class's public method or `__init__` (called
    by the class name); position is the number of positional arguments a call
    needs to reach it, None for a keyword-only parameter."""
    out = []

    def add(fn, name, bound):
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        out.extend((name, a.arg, i + 1 - bound) for i, a in enumerate(positional) if i >= first)
        out.extend((name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:  # `self` or `cls` comes bound
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or not fn.name.startswith("_")):
                    add(fn, node.name if fn.name == "__init__" else fn.name, 1)
    return out


def _calls(tree):
    """(called name, positional argument count, keyword names) of each call
    through a plain or attribute name; a call that unpacks `*` or `**` may
    pass anything, so it counts as passing every parameter (None)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            yield name, math.inf, None
        else:
            yield name, len(node.args), {k.arg for k in node.keywords}


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no caller in the package, a shared test oracle or the
    # benchmark ever overrides is a constant, not an option
    package, trees = _caller_trees()
    calls = [call for tree in trees.values() for call in _calls(tree)]
    unset = [
        f"{module.stem}.{name}({param})"
        for module in sorted(package.glob("*.py"))
        for name, param, position in _defaulted_parameters(trees[module])
        if not any(
            called == name and (keywords is None or param in keywords or (position and count >= position))
            for called, count, keywords in calls
        )
    ]
    assert unset == []


def test_tensor_refuses_none():
    # np.asarray(None, dtype=float) is a 0-d NaN; a missing operand must not become one
    with pytest.raises(TypeError):
        Tensor(None)
    with pytest.raises(TypeError):
        Tensor(np.ones(2)) + None


def test_matmul_identity():
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    m = Tensor([[2.0, 3.0], [4.0, 5.0]])
    assert np.array_equal(nm.matmul(eye, m).data, m.data)


def test_matmul_hand_product():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert nm.matmul(a, b).data.tolist() == [[11.0]]


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    got = nm.matmul(Tensor(a), Tensor(b)).data
    assert np.abs(got - expected).max() < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_batched_broadcast_gradients():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((5, 3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    out = nm.sum_(nm.matmul(a, b))
    out.backward()
    # d(sum(AB))/dB = sum over batch of A^T ones
    expected_b = np.einsum("nij,nik->jk", a.data, np.ones((5, 3, 2)))
    assert np.allclose(b.grad, expected_b, atol=1e-12)
    expected_a = np.ones((5, 3, 2)) @ b.data.T
    assert np.allclose(a.grad, expected_a, atol=1e-12)


@pytest.mark.parametrize("a_shape", [(5, 3, 4), (2, 5, 3, 4)])
@pytest.mark.parametrize("grad_a,grad_b", [(True, False), (False, True), (True, True)])
def test_matmul_weight_fold_gradients(a_shape, grad_a, grad_b):
    # an N-d activation times a 2-d weight: both gradients come from one
    # row-folded GEMM each; they must match the einsum contraction
    rng = np.random.default_rng(10)
    a = Tensor(rng.standard_normal(a_shape), requires_grad=grad_a)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=grad_b)
    up = rng.standard_normal(a_shape[:-1] + (2,))
    nm.sum_(nm.matmul(a, b) * up).backward()
    if grad_a:
        assert np.allclose(a.grad, np.einsum("...ij,kj->...ik", up, b.data), rtol=0, atol=1e-12)
    else:
        assert a.grad is None
    if grad_b:
        per_batch = np.einsum("...ij,...ik->...jk", a.data, up)
        assert np.allclose(b.grad, per_batch.reshape(-1, 4, 2).sum(axis=0), rtol=0, atol=1e-12)
    else:
        assert b.grad is None


def test_matmul_2d_by_batched_broadcast_gradients():
    # the weight-fold shape test must not catch a 2-d `a` broadcast over a 3-d `b`
    rng = np.random.default_rng(11)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((5, 4, 2)), requires_grad=True)
    up = rng.standard_normal((5, 3, 2))
    nm.sum_(nm.matmul(a, b) * up).backward()
    assert np.allclose(a.grad, np.einsum("nij,nkj->ik", up, b.data), rtol=0, atol=1e-12)
    assert np.allclose(b.grad, np.einsum("ij,nik->njk", a.data, up), rtol=0, atol=1e-12)


def test_softmax_uniform_input():
    out = nm.softmax_lastaxis(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_large_values_no_overflow():
    out = nm.softmax_lastaxis(Tensor([1000.0, 0.0]))
    assert np.isfinite(out.data).all()
    assert out.data[0] > 1.0 - 1e-12
    assert out.data[1] < 1e-12


def test_softmax_exact_exponentials():
    x = Tensor([math.log(1.0), math.log(2.0), math.log(3.0)])
    out = nm.softmax_lastaxis(x)
    assert np.abs(out.data - np.array([1 / 6, 2 / 6, 3 / 6])).max() < 1e-15


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((4, 7, 5)) * 10)
    sums = nm.softmax_lastaxis(x).data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-9


def test_softmax_array_along_another_axis_matches_the_swapped_array():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 7, 5)) * 10
    g = rng.standard_normal(x.shape)
    p = nm.softmax_array(x, axis=-2)
    want = nm.softmax_array(x.swapaxes(-1, -2)).swapaxes(-1, -2)
    assert np.abs(p - want).max() <= 1e-15
    got_grad = nm.softmax_array_grad(p, g, axis=-2)
    want_grad = nm.softmax_array_grad(want.swapaxes(-1, -2), g.swapaxes(-1, -2)).swapaxes(-1, -2)
    assert np.abs(got_grad - want_grad).max() <= 1e-14


def test_softmax_empty_axis_rejected():
    with pytest.raises(ShapeError):
        nm.softmax_lastaxis(Tensor(np.zeros((3, 0))))


def test_layer_norm_constant_vector():
    gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
    out = nm.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), gamma, beta)
    assert np.abs(out.data).max() < 1e-9


def test_layer_norm_two_point():
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = nm.layer_norm(Tensor([1.0, 3.0]), gamma, beta)
    # the variance is exactly 1, and 1e-5 is added to it
    inv = 1.0 / math.sqrt(1.0 + 1e-5)
    assert out.data.tolist() == [-inv, inv]


def test_layer_norm_statistics():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal(5) * 4 + 2)
    out = nm.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
    assert abs(out.data.mean()) < 1e-9
    assert abs(out.data.var() - 1.0) < 1e-6


def test_layer_norm_affine_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))


def test_topn_direct():
    keep = nm.topn_keep_mask(np.array([[3.0, 1.0, 2.0]]), 2)
    assert keep[0].tolist() == [True, False, True]


def test_topn_full_retention_is_identity():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 5)))
    keep = nm.topn_keep_mask(x.data, 5)
    assert keep.all()
    # so the node attention's bitwise match with the filled softmax at
    # n_keep = N (tests/test_model.py) is one with the plain softmax
    assert np.array_equal(filled_softmax(x, keep).data, nm.softmax_lastaxis(x).data)


def test_topn_then_softmax_support():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((8, 8)))
    probs = _topn_softmax(x, 3).data
    assert ((probs > 0).sum(axis=1) == 3).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_topn_tie_break_lowest_column():
    keep = nm.topn_keep_mask(np.array([[1.0, 1.0, 1.0, 1.0]]), 2)
    assert keep[0].tolist() == [True, True, False, False]


def test_topn_out_of_range():
    x = np.zeros((2, 3))
    with pytest.raises(ParameterError):
        nm.topn_keep_mask(x, 0)
    with pytest.raises(ParameterError):
        nm.topn_keep_mask(x, 4)


_MASK_RNG = np.random.default_rng(21)
MASK_CASES = {
    "random_2d": _MASK_RNG.standard_normal((40, 50)),
    "random_3d": _MASK_RNG.standard_normal((3, 20, 30)),
    "ties_2d": _MASK_RNG.integers(-2, 3, size=(60, 25)).astype(float),
    "ties_3d": _MASK_RNG.integers(0, 2, size=(4, 10, 12)).astype(float),
    "signed_zeros": _MASK_RNG.choice([-0.0, 0.0, 1.0, -1.0], size=(50, 16)),
    "constant": np.zeros((5, 9)),
}


@pytest.mark.parametrize("scores", MASK_CASES.values(), ids=MASK_CASES.keys())
def test_topn_keep_mask_equals_stable_argsort(scores):
    cols = scores.shape[-1]
    for n in sorted({1, 2, cols // 3, cols - 1, cols}):
        keep = nm.topn_keep_mask(scores, n)
        assert keep.dtype == bool
        assert np.array_equal(keep, argsort_keep_mask(scores, n)), n
        assert (keep.sum(axis=-1) == n).all()


def test_activation_canonical_points():
    assert nm.tanh(Tensor(0.0)).item() == 0.0
    assert nm.sigmoid_array(np.float64(0.0)) == 0.5
    assert nm.relu(Tensor(-1.0)).item() == 0.0
    assert nm.exp(Tensor(0.0)).item() == 1.0


def test_exp_of_tanh_range_bound():
    x = np.linspace(-50, 50, 401)
    out = nm.exp(nm.tanh(Tensor(x))).data
    assert (out >= math.exp(-1.0) - 1e-12).all()
    assert (out <= math.exp(1.0) + 1e-12).all()


@pytest.mark.parametrize("fn", [nm.relu, nm.tanh, nm.exp])
def test_activation_gradients_match_fd(fn):
    report = grad_check(lambda t: nm.sum_(fn(t)), Tensor(np.array([0.3])), h=1e-6)
    assert report.max_abs_err < 1e-6


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    nm.sum_(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    nm.sum_(x * x).backward()
    assert x.grad.tolist() == [2.0, 4.0]


def test_backward_accumulates_without_reset():
    x = Tensor([1.0, 2.0], requires_grad=True)
    nm.sum_(x * x).backward()
    nm.sum_(x * x).backward()
    assert x.grad.tolist() == [4.0, 8.0]


def test_stored_gradient_is_read_only():
    # a leaf used once keeps the producer's array, one used twice a sum
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0], requires_grad=True)
    nm.sum_(x * x + y).backward()
    for t in (x, y):
        assert not t.grad.flags.writeable
        with pytest.raises(ValueError):
            t.grad[0] = 0.0


def test_second_accumulation_leaves_the_first_gradient_array_alone():
    # the first gradient is kept as a view of the producer's array, so a
    # later one must make a new sum, never add into it
    x = Tensor(np.zeros(3), requires_grad=True)
    first = np.array([1.0, 2.0, 3.0])
    x._accumulate(first)
    stored = x.grad
    x._accumulate(np.array([10.0, 20.0, 30.0]))
    assert stored.tolist() == [1.0, 2.0, 3.0] and first.tolist() == [1.0, 2.0, 3.0]
    assert x.grad.tolist() == [11.0, 22.0, 33.0]


def _accumulate_by_copy(self, g):
    # the earlier buffer policy: a zeroed buffer per tensor, added into
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


FAN_IN_CASES = {
    "x_plus_x": lambda x, w: nm.sum_(nm.matmul(x + x, w)),
    "two_consumers": lambda x, w: (lambda h: nm.sum_(h * h) + nm.sum_(h))(nm.tanh(nm.matmul(x, w))),
    "leaf_used_twice": lambda x, w: nm.sum_(nm.matmul(x, w) * nm.matmul(nm.tanh(x), w)),
}


@pytest.mark.parametrize("case", sorted(FAN_IN_CASES))
def test_fan_in_gradients_match_the_copying_buffer(monkeypatch, case):
    rng = np.random.default_rng(15)
    x_data, w_data = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 4))

    def grads():
        x, w = Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True)
        FAN_IN_CASES[case](x, w).backward()
        return x.grad, w.grad

    got = grads()
    monkeypatch.setattr(Tensor, "_accumulate", _accumulate_by_copy)
    want = grads()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_two_backward_passes_into_the_same_leaves_sum_exactly():
    # as with accum_days=2: two fresh graphs, one accumulation into each leaf
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    scales = [Tensor(rng.standard_normal((2, 3, 2))) for _ in range(2)]

    def pass_(c):
        nm.sum_(nm.tanh(nm.matmul(x, w)) * c).backward()

    single = []
    for c in scales:
        pass_(c)
        single.append((x.grad, w.grad))
        x.zero_grad()
        w.zero_grad()
    for c in scales:
        pass_(c)
    assert np.array_equal(x.grad, single[0][0] + single[1][0])
    assert np.array_equal(w.grad, single[0][1] + single[1][1])


def test_gradient_of_the_wrong_shape_raises():
    # a (3,) gradient would broadcast into a (2, 3) buffer without a check
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    out = nm.fused(x.data * 2.0, (x,), lambda g: (g[0] * 2.0,))
    with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 3\)"):
        nm.sum_(out).backward()


def test_keep_heap_resident_without_libc_returns_quietly(monkeypatch):
    def no_libc(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(nm.ctypes, "CDLL", no_libc)
    assert nm.keep_heap_resident() is None


def test_backward_releases_interior_nodes():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    h = nm.tanh(nm.matmul(x, w))
    loss = nm.sum_(h * h)
    kept = op_nodes(loss)
    assert len(kept) >= 4 and h in kept
    loss.backward()
    for node in kept:
        assert node.grad is None and node._parents == ()
    assert x.grad is not None and w.grad is not None


def test_backward_leaf_grads_accumulate_across_fresh_graphs():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    nm.sum_(nm.tanh(nm.matmul(x, w))).backward()
    once = w.grad.copy(), x.grad.copy()
    nm.sum_(nm.tanh(nm.matmul(x, w))).backward()
    assert np.allclose(w.grad, 2 * once[0], rtol=0, atol=1e-12)
    assert np.allclose(x.grad, 2 * once[1], rtol=0, atol=1e-12)


def test_backward_twice_through_released_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = nm.sum_(x * x)
    loss.backward()
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    assert x.grad.tolist() == [2.0, 4.0]


def test_backward_through_shared_released_subgraph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    h = x * x
    nm.sum_(h).backward()
    with pytest.raises(RuntimeError, match="released"):
        nm.sum_(h * 3.0).backward()


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        (x * x).backward()


def test_fused_node_adds_gradients_only_to_parents_that_record_them():
    # f(a, b, c) = a * b + c as one node; b is a constant and gets None
    rng = np.random.default_rng(14)
    a = Tensor(rng.standard_normal(3), requires_grad=True)
    b = Tensor(rng.standard_normal(3))
    c = Tensor(rng.standard_normal(3), requires_grad=True)
    out = nm.fused(a.data * b.data + c.data, (a, b, c), lambda g: (g * b.data, None, g))
    assert out.requires_grad and out._parents == (a, b, c)
    nm.sum_(out).backward()
    assert np.array_equal(a.grad, b.data) and b.grad is None and np.array_equal(c.grad, np.ones(3))
    report = grad_check(lambda t: nm.sum_(nm.fused(t.data * b.data, (t,), lambda g: (g * b.data,))), a)
    assert report.max_rel_err < 1e-6


def test_fused_node_over_constants_records_nothing():
    x = Tensor(np.ones(2))
    out = nm.fused(x.data * 2.0, (x,), lambda g: (g * 2.0,))
    assert not out.requires_grad and out._backward is None and out._parents == ()


def test_transpose_involution_bitwise():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((3, 4, 5)))
    back = nm.transpose_last2(nm.transpose_last2(x))
    assert np.array_equal(back.data, x.data)


def test_grad_check_sum_of_squares():
    report = grad_check(lambda t: nm.sum_(t * t), Tensor(np.array([1.0, -2.0, 0.5])))
    assert report.max_rel_err < 1e-6
    assert report.param_count == 3


def test_grad_check_softmax_first_component():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal(4))

    e0 = np.eye(4)[0]

    def f(t):
        return nm.sum_(nm.softmax_lastaxis(t) * e0)

    report = grad_check(f, x)
    assert report.max_rel_err < 1e-5


def test_grad_check_rejects_bad_step():
    with pytest.raises(ParameterError):
        grad_check(lambda t: nm.sum_(t), Tensor([1.0]), h=0.0)


# every differentiable op, as (build, operand shapes); `_op_grads` feeds
# it positive operands, so sqrt and div stay finite
OPS = {
    "add": (lambda a, b: a + b, [(3, 4), (4,)]),
    "sub": (lambda a, b: a - b, [(3, 4), (3, 1)]),
    "mul": (lambda a, b: a * b, [(3, 4), (3, 4)]),
    "div": (lambda a, b: a / b, [(3, 4), (1, 4)]),
    "matmul_weight": (nm.matmul, [(2, 3, 4), (4, 5)]),
    "matmul_broadcast": (nm.matmul, [(3, 4), (2, 4, 5)]),
    "reshape": (lambda a: nm.reshape(a, (4, 3)), [(3, 4)]),
    "permute": (lambda a: nm.permute(a, (1, 0, 2)), [(2, 3, 4)]),
    "concat": (lambda *ts: nm.concat(ts, axis=-1), [(3, 2), (3, 4), (3, 1)]),
    "sum_": (lambda a: nm.sum_(a, axis=1), [(3, 4)]),
    "mean": (lambda a: nm.mean(a, axis=0, keepdims=True), [(3, 4)]),
    "relu": (nm.relu, [(3, 4)]),
    "tanh": (nm.tanh, [(3, 4)]),
    "exp": (nm.exp, [(3, 4)]),
    "sqrt": (nm.sqrt, [(3, 4)]),
    "softmax": (nm.softmax_lastaxis, [(3, 4)]),
    "layer_norm": (nm.layer_norm, [(3, 4), (4,), (4,)]),
}


def _op_grads(name, records):
    """Gradients of sum(op(...) * w) at each operand; operand i records gradients where records[i]."""
    build, shapes = OPS[name]
    rng = np.random.default_rng(24)
    operands = [Tensor(rng.random(shape) + 0.5, requires_grad=r) for shape, r in zip(shapes, records)]
    out = build(*operands)
    nm.sum_(out * rng.standard_normal(out.shape)).backward()
    return [t.grad for t in operands]


@pytest.mark.parametrize("name", OPS)
def test_op_gives_constant_operands_no_gradient(name):
    arity = len(OPS[name][1])
    every = _op_grads(name, [True] * arity)
    for i in range(arity):
        alone = _op_grads(name, [j == i for j in range(arity)])
        assert all(g is None for j, g in enumerate(alone) if j != i)
        assert np.array_equal(alone[i], every[i])


@pytest.mark.parametrize("name", OPS)
def test_op_over_constants_records_nothing(name):
    build, shapes = OPS[name]
    out = build(*[Tensor(np.ones(shape)) for shape in shapes])
    assert not out.requires_grad and out._parents == () and out._backward is None


_ACTIVATIONS = np.random.default_rng(25).standard_normal((3, 4, 4))


@pytest.mark.parametrize(
    "name,f",
    [
        ("matmul", lambda t: nm.sum_(nm.matmul(t, t) * nm.matmul(t, t))),
        ("softmax", lambda t: nm.sum_(nm.softmax_lastaxis(t) * nm.softmax_lastaxis(t))),
        (
            "layer_norm",
            lambda t: nm.sum_(
                (y := nm.layer_norm(t, Tensor(np.ones(4)), Tensor(np.zeros(4)))) * y
            ),
        ),
        ("relu", lambda t: nm.sum_(nm.relu(t) * t)),
        ("tanh", lambda t: nm.sum_(nm.tanh(t) * t)),
        ("exp", lambda t: nm.sum_(nm.exp(t))),
        ("sqrt_of_squares", lambda t: nm.sum_(nm.sqrt(t * t + 1.0))),
        ("div", lambda t: nm.sum_(t / (t * t + 2.0))),
        ("mean", lambda t: nm.mean(t * t * t)),
        ("sub", lambda t: nm.sum_((nm.tanh(t) - t * t) * t)),
        ("reshape", lambda t: nm.sum_(nm.reshape(t, (2, 8)) * nm.reshape(t * t, (2, 8)))),
        ("sum_axis", lambda t: nm.sum_(nm.sum_(t * t, axis=0) * nm.sum_(t, axis=1))),
        ("mean_axis", lambda t: nm.sum_(nm.mean(t, axis=1) * nm.mean(t * t, axis=0))),
        ("mean_keepdims", lambda t: nm.sum_((t - nm.mean(t, axis=-1, keepdims=True)) * t * t)),
        ("bias_add", lambda t: nm.sum_(nm.tanh(nm.matmul(Tensor(_ACTIVATIONS), t) + nm.sum_(t, axis=0)))),
        ("concat", lambda t: nm.sum_((y := nm.concat([t, t * t], axis=-1)) * y)),
        ("permute", lambda t: nm.sum_(nm.transpose_last2(t) * nm.transpose_last2(t))),
        (
            "masked_softmax",
            lambda t: nm.sum_(_topn_softmax(t, 2) * t),
        ),
    ],
)
def test_grad_check_every_op(name, f):
    # random 1e0-scale inputs; every differentiable op agrees with FD
    # a fixed seed per case (str hashes are salted per process), so a failure reproduces
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = Tensor(rng.standard_normal((4, 4)))
    report = grad_check(f, x)
    assert report.max_rel_err < 1e-5, name


def test_operations_deterministic():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 6))
    a = _topn_softmax(Tensor(x), 3).data
    b = _topn_softmax(Tensor(x.copy()), 3).data
    assert np.array_equal(a, b)


def test_all_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((5, 5)) * 3)
    outs = [
        nm.softmax_lastaxis(x),
        nm.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5))),
        _topn_softmax(x, 2),
        nm.relu(x),
        nm.tanh(x),
        Tensor(nm.sigmoid_array(x.data)),
        nm.exp(x),
    ]
    for out in outs:
        assert np.isfinite(out.data).all()
