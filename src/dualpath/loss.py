"""Training objective: weighted MSE plus cross-sectional correlation loss.

The correlation term is the negative Pearson coefficient computed across
the N nodes within each horizon step, averaged over steps, so the model
is rewarded for ranking the cross-section correctly rather than for
matching absolute levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ParameterError, ShapeError, Tensor, mean, sqrt, sum_, transpose_last2


@dataclass(frozen=True)
class LossConfig:
    lambda_m: float = 0.1
    eps: float = 1e-8

    def __post_init__(self):
        if self.lambda_m < 0:
            raise ParameterError(f"lambda_m must be non-negative, got {self.lambda_m}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")


def _pair(y_hat, y) -> tuple[Tensor, Tensor]:
    y_hat = y_hat if isinstance(y_hat, Tensor) else Tensor(y_hat)
    y = y if isinstance(y, Tensor) else Tensor(y)
    if y_hat.shape != y.shape:
        raise ShapeError(f"prediction shape {y_hat.shape} does not match target {y.shape}")
    return y_hat, y


def mse(y_hat, y) -> Tensor:
    """Mean squared error over every element of an N x t or days x N x t panel."""
    y_hat, y = _pair(y_hat, y)
    diff = y_hat - y
    return mean(diff * diff)


def pearson_loss(y_hat, y, eps: float = 1e-8) -> Tensor:
    """Negative Pearson correlation across nodes, averaged over horizon steps
    (and over days, for a days x N x t stack).

    A step where either side's variance falls below `eps` contributes 0
    instead of dividing by (near) zero.
    """
    y_hat, y = _pair(y_hat, y)
    if y_hat.ndim not in (2, 3):
        raise ShapeError(f"expected N x t or days x N x t inputs, got shape {y_hat.shape}")
    n = y_hat.shape[-2]
    if n < 2:
        raise ParameterError(f"Pearson loss needs at least 2 nodes, got {n}")

    # nodes last, so each (day, step) pair reduces one contiguous row
    a = transpose_last2(y_hat)
    b = transpose_last2(y)
    keep = (np.var(a.data, axis=-1) >= eps) & (np.var(b.data, axis=-1) >= eps)
    # a dropped row's ratio is discarded; the +1 keeps it and its gradient finite
    drop = (~keep).astype(np.float64)
    ac = a - mean(a, axis=-1, keepdims=True)
    bc = b - mean(b, axis=-1, keepdims=True)
    r = sum_(ac * bc, axis=-1) / (sqrt(sum_(ac * ac, axis=-1) + drop) * sqrt(sum_(bc * bc, axis=-1) + drop))
    return sum_(r * keep) * (-1.0 / r.size)


def total_loss(y_hat, y, cfg: LossConfig = LossConfig()) -> Tensor:
    """lambda_m * MSE + negative cross-sectional Pearson correlation."""
    return mse(y_hat, y) * cfg.lambda_m + pearson_loss(y_hat, y, cfg.eps)
