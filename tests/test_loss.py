import numpy as np
import pytest

from dualpath import numerics as nm
from dualpath.loss import LossConfig, mse, pearson_loss, total_loss
from dualpath.numerics import ParameterError, ShapeError, Tensor


def test_mse_zero_when_equal():
    y = np.random.default_rng(0).standard_normal((3, 2))
    assert mse(Tensor(y), Tensor(y.copy())).item() == 0.0


def test_mse_unit_offset():
    y = np.random.default_rng(1).standard_normal((3, 2))
    assert abs(mse(Tensor(y + 1.0), Tensor(y)).item() - 1.0) < 1e-12


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(2)
    y_hat = rng.standard_normal((3, 2))
    y = rng.standard_normal((3, 2))
    expected = 0.0
    for i in range(3):
        for j in range(2):
            expected += (y_hat[i, j] - y[i, j]) ** 2
    expected /= 6.0
    assert abs(mse(Tensor(y_hat), Tensor(y)).item() - expected) < 1e-12


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse(Tensor(np.zeros((3, 1))), Tensor(np.zeros((3, 2))))


def test_pearson_perfect_correlation():
    y = np.random.default_rng(3).standard_normal((5, 1))
    assert abs(pearson_loss(Tensor(y), Tensor(y.copy())).item() + 1.0) < 1e-12


def test_pearson_perfect_anticorrelation():
    y = np.random.default_rng(4).standard_normal((5, 1))
    assert abs(pearson_loss(Tensor(-y), Tensor(y)).item() - 1.0) < 1e-12


def test_pearson_affine_invariance():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((6, 2))
    for a, b in [(2.0, 3.0), (0.5, -1.0), (10.0, 0.0)]:
        assert abs(pearson_loss(Tensor(a * y + b), Tensor(y)).item() + 1.0) < 1e-12


def test_pearson_bounded():
    rng = np.random.default_rng(6)
    for _ in range(50):
        value = pearson_loss(
            Tensor(rng.standard_normal((7, 3))), Tensor(rng.standard_normal((7, 3)))
        ).item()
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_pearson_needs_two_nodes():
    with pytest.raises(ParameterError):
        pearson_loss(Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1))))


def test_pearson_zero_variance_step_contributes_zero():
    y_hat = np.array([[1.0, 0.5], [1.0, 0.2], [1.0, 0.9]])  # step 0 constant
    y = np.array([[0.1, 0.5], [0.3, 0.2], [0.2, 0.9]])
    value = pearson_loss(Tensor(y_hat), Tensor(y)).item()
    assert abs(value + 0.5) < 1e-12  # only step 1 contributes, perfectly correlated


def test_total_loss_perfect_prediction():
    y = np.random.default_rng(7).standard_normal((5, 1))
    assert abs(total_loss(Tensor(y), Tensor(y.copy())).item() + 1.0) < 1e-12


def test_total_loss_lambda_zero_is_pearson():
    rng = np.random.default_rng(8)
    y_hat = rng.standard_normal((5, 1))
    y = rng.standard_normal((5, 1))
    cfg = LossConfig(lambda_m=0.0)
    assert (
        abs(total_loss(Tensor(y_hat), Tensor(y), cfg).item() - pearson_loss(Tensor(y_hat), Tensor(y)).item())
        < 1e-15
    )


def test_total_loss_matches_composed_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        y_hat = rng.standard_normal((5, 1))
        y = rng.standard_normal((5, 1))

        err = float(np.mean((y_hat - y) ** 2))
        a = y_hat[:, 0] - y_hat[:, 0].mean()
        b = y[:, 0] - y[:, 0].mean()
        corr = float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))
        expected = 0.1 * err - corr

        got = total_loss(Tensor(y_hat), Tensor(y), LossConfig(lambda_m=0.1)).item()
        assert abs(got - expected) < 1e-12


def test_total_loss_gradient_matches_fd():
    rng = np.random.default_rng(10)
    y = Tensor(rng.standard_normal((6, 2)))

    def f(t):
        return total_loss(t, y, LossConfig(lambda_m=0.3))

    report = nm.grad_check(f, Tensor(rng.standard_normal((6, 2))))
    assert report.max_rel_err < 1e-5


def _day_stack(seed):
    rng = np.random.default_rng(seed)
    y_hat = rng.standard_normal((3, 6, 2))
    y = rng.standard_normal((3, 6, 2))
    y_hat[1, :, 0] = 0.0  # one (day, step) row with exactly zero variance
    return y_hat, y


@pytest.mark.parametrize("loss", [pearson_loss, total_loss, mse])
def test_day_stack_is_mean_of_per_day_values(loss):
    y_hat, y = _day_stack(11)
    stacked = loss(Tensor(y_hat), Tensor(y)).item()
    per_day = [loss(Tensor(y_hat[d]), Tensor(y[d])).item() for d in range(3)]
    assert abs(stacked - np.mean(per_day)) < 1e-12


def test_total_loss_day_stack_gradient_matches_fd():
    y_hat, y = _day_stack(12)
    target = Tensor(y)
    report = nm.grad_check(lambda t: total_loss(t, target), Tensor(y_hat))
    assert report.max_rel_err < 1e-5


def test_zero_variance_row_gradient_is_mse_only():
    y_hat, y = _day_stack(13)
    leaf = Tensor(y_hat, requires_grad=True)
    total_loss(leaf, Tensor(y)).backward()
    assert np.isfinite(leaf.grad).all()
    mse_grad = 0.1 * 2.0 * (y_hat - y) / y_hat.size
    assert np.allclose(leaf.grad[1, :, 0], mse_grad[1, :, 0], rtol=0.0, atol=1e-15)


def test_pearson_rejects_other_ranks():
    with pytest.raises(ShapeError):
        pearson_loss(Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        pearson_loss(Tensor(np.zeros((2, 2, 3, 1))), Tensor(np.zeros((2, 2, 3, 1))))


def test_loss_config_validation():
    with pytest.raises(ParameterError):
        LossConfig(lambda_m=-0.1)
    with pytest.raises(ParameterError):
        LossConfig(eps=0.0)
