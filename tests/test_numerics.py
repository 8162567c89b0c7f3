import math

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


def _topn_softmax(x, n):
    # the top-n masked softmax that ncorr_attention composes
    return nm.masked_softmax(x, nm.topn_keep_mask(x.data, n))


def _argsort_keep_mask(scores, n):
    # reference: the n largest per row by stable descending argsort
    order = np.argsort(-scores, axis=-1, kind="stable")
    keep = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(keep, order[..., :n], True, axis=-1)
    return keep


def _reference_masked_softmax(x, keep):
    # reference: dropped entries filled with -1e30 before a plain softmax;
    # x * keep + fill passes kept values and their gradient through exactly
    fill = np.where(keep, 0.0, -1e30)
    return nm.softmax_lastaxis(x * np.broadcast_to(keep, x.shape) + fill)


@pytest.mark.parametrize("module", [dualpath, nm], ids=["dualpath", "dualpath.numerics"])
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


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


def test_softmax_empty_axis_rejected():
    with pytest.raises(ShapeError):
        nm.softmax_lastaxis(Tensor(np.zeros((3, 0))))


def test_layer_norm_constant_vector():
    gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
    out = nm.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), gamma, beta, eps=1e-5)
    assert np.abs(out.data).max() < 1e-9


def test_layer_norm_two_point():
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = nm.layer_norm(Tensor([1.0, 3.0]), gamma, beta, eps=1e-12)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)


def test_layer_norm_statistics():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal(5) * 4 + 2)
    out = nm.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)), eps=1e-10)
    assert abs(out.data.mean()) < 1e-9
    assert abs(out.data.var() - 1.0) < 1e-6


def test_layer_norm_bad_eps():
    with pytest.raises(ParameterError):
        nm.layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)


def test_layer_norm_affine_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-5)


def test_topn_direct():
    keep = nm.topn_keep_mask(np.array([[3.0, 1.0, 2.0]]), 2)
    assert keep[0].tolist() == [True, False, True]


def test_topn_full_retention_is_identity():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 5)))
    keep = nm.topn_keep_mask(x.data, 5)
    assert keep.all()
    assert np.array_equal(nm.masked_softmax(x, keep).data, nm.softmax_lastaxis(x).data)


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
        assert np.array_equal(keep, _argsort_keep_mask(scores, n)), n
        assert (keep.sum(axis=-1) == n).all()


@pytest.mark.parametrize(
    "x_shape,keep_shape",
    [((6, 6), (6, 6)), ((3, 6, 6), (6, 6)), ((3, 6, 6), (3, 6, 6)), ((2, 5), (5,))],
)
def test_masked_softmax_equals_filled_softmax_bitwise(x_shape, keep_shape):
    rng = np.random.default_rng(22)
    x_data = rng.standard_normal(x_shape) * 4
    keep = rng.random(keep_shape) < 0.4
    keep[..., 1] = True  # every row keeps at least one entry
    x = Tensor(x_data, requires_grad=True)
    ref_x = Tensor(x_data, requires_grad=True)
    got = nm.masked_softmax(x, keep)
    want = _reference_masked_softmax(ref_x, keep)
    assert np.array_equal(got.data, want.data)
    assert (got.data[~np.broadcast_to(keep, x_shape)] == 0.0).all()
    w = rng.standard_normal(x_shape)
    nm.sum_(got * w).backward()
    nm.sum_(want * w).backward()
    assert np.array_equal(x.grad, ref_x.grad)


def test_masked_softmax_rejects_mask_of_wrong_shape():
    x = Tensor(np.zeros((2, 4, 4)))
    for shape in [(4, 3), (3, 4, 4), (2, 2, 4, 4), (3,)]:
        with pytest.raises(ShapeError):
            nm.masked_softmax(x, np.ones(shape, dtype=bool))


def test_masked_softmax_rejects_empty_row():
    keep = np.ones((3, 3), dtype=bool)
    keep[1] = False
    with pytest.raises(ParameterError):
        nm.masked_softmax(Tensor(np.zeros((3, 3))), keep)


def test_activation_canonical_points():
    assert nm.tanh(Tensor(0.0)).item() == 0.0
    assert nm.sigmoid(Tensor(0.0)).item() == 0.5
    assert nm.relu(Tensor(-1.0)).item() == 0.0
    assert nm.exp(Tensor(0.0)).item() == 1.0


def test_exp_of_tanh_range_bound():
    x = np.linspace(-50, 50, 401)
    out = nm.exp(nm.tanh(Tensor(x))).data
    assert (out >= math.exp(-1.0) - 1e-12).all()
    assert (out <= math.exp(1.0) + 1e-12).all()


@pytest.mark.parametrize("fn", [nm.relu, nm.tanh, nm.sigmoid, nm.exp])
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


def _interior_nodes(root):
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            out.append(node)
        stack.extend(node._parents)
    return out


def test_backward_releases_interior_nodes():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    h = nm.tanh(nm.matmul(x, w))
    loss = nm.sum_(h * h)
    kept = _interior_nodes(loss)
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


@pytest.mark.parametrize(
    "name,f",
    [
        ("matmul", lambda t: nm.sum_(nm.matmul(t, t) * nm.matmul(t, t))),
        ("softmax", lambda t: nm.sum_(nm.softmax_lastaxis(t) * nm.softmax_lastaxis(t))),
        (
            "layer_norm",
            lambda t: nm.sum_(
                (y := nm.layer_norm(t, Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)) * y
            ),
        ),
        ("relu", lambda t: nm.sum_(nm.relu(t) * t)),
        ("tanh", lambda t: nm.sum_(nm.tanh(t) * t)),
        ("sigmoid", lambda t: nm.sum_(nm.sigmoid(t) * t)),
        ("exp", lambda t: nm.sum_(nm.exp(t))),
        ("sqrt_of_squares", lambda t: nm.sum_(nm.sqrt(t * t + 1.0))),
        ("div", lambda t: nm.sum_(t / (t * t + 2.0))),
        ("mean", lambda t: nm.mean(t * t * t)),
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
    rng = np.random.default_rng(hash(name) % 2**32)
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
        nm.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)), 1e-5),
        _topn_softmax(x, 2),
        nm.relu(x),
        nm.tanh(x),
        nm.sigmoid(x),
        nm.exp(x),
    ]
    for out in outs:
        assert np.isfinite(out.data).all()
