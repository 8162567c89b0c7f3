"""Optimization loop, evaluation, ablation suite and hyper-parameter sweep.

Training steps on one trading day at a time (the whole cross-section of
nodes jointly, since node attention needs the full panel) using adaptive
moment estimation. The best-validation-IC parameter state is retained
and everything is deterministic given the seed.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import WindowSample
from .loss import LossConfig, total_loss
from .metrics import BacktestReport, DailyScores, information_coefficient, run_backtest
from .model import ABLATION_FLAGS, ModelConfig, ModelParams, forward
from .numerics import NumericError, ParameterError, Tensor, keep_heap_resident


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    patience: int = 10
    accum_days: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        # 0 is tolerated so a no-op run can prove the update path is inert
        if self.learning_rate < 0:
            raise ParameterError(f"learning_rate must be non-negative, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ParameterError(f"moment decays must lie in [0, 1): {self.beta1}, {self.beta2}")
        if self.adam_eps <= 0:
            raise ParameterError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.patience < 1:
            raise ParameterError(f"patience must be >= 1, got {self.patience}")
        if self.accum_days < 1:
            raise ParameterError(f"accum_days must be >= 1, got {self.accum_days}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float | None
    val_ic: float | None
    wall_clock: float


@dataclass
class RunLog:
    config: dict
    records: list[EpochRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"config": self.config}, sort_keys=True)]
        lines += [json.dumps(asdict(rec), sort_keys=True) for rec in self.records]
        return "\n".join(lines) + "\n"


class Adam:
    """Adaptive moment estimation over a named parameter set.

    `m`, `v` and the weights are updated in place, in the operation order
    of the textbook out-of-place update, so they match it bit for bit;
    gradients are only read. This saves time only on the resident heap
    `train_model` sets up: under glibc's default trimming, the memory an
    in-place update no longer churns is returned to the system, and the
    next forward faults it back in.
    """

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.named().items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.named().items()}

    def step(self) -> None:
        """Apply one update; a non-finite gradient aborts it before any weight moves."""
        named = self.params.named()
        for name, t in named.items():
            if t.grad is not None and not np.isfinite(t.grad).all():
                raise NumericError(
                    f"non-finite gradient for parameter {name} at optimizer step {self.step_count + 1}"
                )
        self.step_count += 1
        cfg = self.cfg
        correction1 = 1.0 - cfg.beta1**self.step_count
        correction2 = 1.0 - cfg.beta2**self.step_count
        for name, t in named.items():
            if t.grad is None:
                continue
            g = t.grad
            m, v = self.m[name], self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            t.data -= cfg.learning_rate * (m / correction1) / (np.sqrt(v / correction2) + cfg.adam_eps)


def predict(params: ModelParams, config: ModelConfig, samples: list[WindowSample]) -> np.ndarray:
    """Forward every sample without recording gradients; days x nodes x horizon."""
    if not samples:
        return np.empty((0, config.n_nodes, config.horizon))
    frozen = params.detached()
    return np.stack([forward(sample.x, frozen, config)[0].data for sample in samples])


def predict_scores(params: ModelParams, config: ModelConfig, samples: list[WindowSample]) -> list[DailyScores]:
    """First-step scores and realized returns of every sample."""
    return _first_step_scores(samples, predict(params, config, samples))


def _first_step_scores(samples: list[WindowSample], y_hat: np.ndarray) -> list[DailyScores]:
    return [DailyScores(s.day_index, p[:, 0].copy(), s.y[:, 0].copy()) for s, p in zip(samples, y_hat)]


def evaluate(
    params: ModelParams,
    config: ModelConfig,
    samples: list[WindowSample],
    top_frac: float = 0.1,
) -> BacktestReport:
    """Score each test day and feed the cross-sections to the backtest engine."""
    if not samples:
        raise ParameterError("evaluate needs at least one sample")
    return run_backtest(predict_scores(params, config, samples), top_frac)


def _mean_val_metrics(
    params: ModelParams,
    config: ModelConfig,
    samples: list[WindowSample],
    loss_cfg: LossConfig,
) -> tuple[float, float]:
    y_hat = predict(params, config, samples)
    loss = total_loss(y_hat, np.stack([sample.y for sample in samples]), loss_cfg).item()
    return loss, information_coefficient(_first_step_scores(samples, y_hat))


@contextlib.contextmanager
def _floating_point_faults(where: str):
    """Raise a floating-point overflow or invalid operation in the block as a NumericError naming `where`."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as err:
        raise NumericError(f"{err} at {where}") from None


def train_model(
    train_samples: list[WindowSample],
    val_samples: list[WindowSample],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig = TrainConfig(),
    loss_cfg: LossConfig = LossConfig(),
) -> tuple[ModelParams, RunLog]:
    """Fit the model on day-samples, keeping the best-validation-IC state.

    The parameters are copied only when the validation IC improves, and a
    non-finite validation IC raises NumericError. Stops early when the
    validation IC has not improved for `patience` epochs. Aborts with a
    NumericError naming the epoch, step and day if the loss goes
    non-finite or a floating-point overflow or invalid operation happens
    in a day-step, and naming the epoch if one happens in validation.
    """
    if not train_samples:
        raise ParameterError("train_model needs a non-empty training split")
    keep_heap_resident()
    params = ModelParams.init(model_cfg, seed=train_cfg.seed)
    optimizer = Adam(params, train_cfg)
    shuffle_rng = np.random.default_rng([train_cfg.seed, 1])

    log = RunLog(
        config={
            "model": _config_dict(model_cfg),
            "train": asdict(train_cfg),
            "loss": asdict(loss_cfg),
        }
    )
    best_ic = -np.inf
    best_state = None
    stale = 0
    start = time.perf_counter()

    for epoch in range(train_cfg.epochs):
        order = shuffle_rng.permutation(len(train_samples))
        epoch_losses = []
        pending = 0
        params.zero_grads()
        for pos, idx in enumerate(order):
            sample = train_samples[idx]
            where = f"epoch {epoch}, step {pos}, day {sample.day_index}"
            with _floating_point_faults(where):
                y_hat, _ = forward(sample.x, params, model_cfg)
                loss = total_loss(y_hat, Tensor(sample.y), loss_cfg)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(f"non-finite loss at {where}")
                loss.backward()
                epoch_losses.append(value)
                pending += 1
                if pending == train_cfg.accum_days or pos == len(order) - 1:
                    optimizer.step()
                    params.zero_grads()
                    pending = 0

        val_loss = val_ic = None
        if val_samples:
            with _floating_point_faults(f"validation after epoch {epoch}"):
                val_loss, val_ic = _mean_val_metrics(params, model_cfg, val_samples, loss_cfg)
            if not np.isfinite(val_ic):
                raise NumericError(f"non-finite validation IC {val_ic} after epoch {epoch}")
            if val_ic > best_ic:
                best_ic = val_ic
                best_state = params.state_copy()
                stale = 0
            else:
                stale += 1
        log.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)),
                val_loss=val_loss,
                val_ic=val_ic,
                wall_clock=time.perf_counter() - start,
            )
        )
        if val_samples and stale >= train_cfg.patience:
            break

    if val_samples:
        params.load_state(best_state)
    return params, log


def _config_dict(cfg: ModelConfig) -> dict:
    out = asdict(cfg)
    out["ablation"] = sorted(cfg.ablation)
    return out


# row labels of the ablation table; every label but "full" is the one flag it sets
ABLATION_ROWS = ("full", *ABLATION_FLAGS)


def _train_and_test(
    splits: tuple[list[WindowSample], list[WindowSample], list[WindowSample]],
    runs: list[tuple[dict, ModelConfig]],
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
    top_frac: float,
) -> list[dict]:
    """Train and test-evaluate each (row label, config) on the same splits and seed."""
    train_samples, val_samples, test_samples = splits
    rows = []
    for label, cfg in runs:
        params, _ = train_model(train_samples, val_samples, cfg, train_cfg, loss_cfg)
        report = evaluate(params, cfg, test_samples, top_frac)
        rows.append({**label, "IC": report.ic, "A_RET": report.ar, "SHARPE": report.sharpe})
    return rows


def ablation_suite(
    splits: tuple[list[WindowSample], list[WindowSample], list[WindowSample]],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig = TrainConfig(),
    loss_cfg: LossConfig = LossConfig(),
    top_frac: float = 0.1,
) -> list[dict]:
    """Train/evaluate the full model and each of the five ablations.

    Every row shares the data, seed and budget of the base run and
    differs from it only in the single named flag.
    """
    runs = [
        ({"label": label}, replace(model_cfg, ablation=set() if label == "full" else {label}))
        for label in ABLATION_ROWS
    ]
    return _train_and_test(splits, runs, train_cfg, loss_cfg, top_frac)


def sweep(
    splits: tuple[list[WindowSample], list[WindowSample], list[WindowSample]],
    model_cfg: ModelConfig,
    layer_grid: list[int],
    head_grid: list[int],
    dim_grid: list[int],
    train_cfg: TrainConfig = TrainConfig(),
    loss_cfg: LossConfig = LossConfig(),
    top_frac: float = 0.1,
) -> list[dict]:
    """One run per (n_layers, n_heads, d_model) grid point, same data and seed."""
    runs = [
        (
            {"n_layers": n_layers, "n_heads": n_heads, "d_model": d_model},
            replace(model_cfg, n_layers=n_layers, n_heads=n_heads, d_model=d_model, ffd_hidden=None),
        )
        for n_layers in layer_grid
        for n_heads in head_grid
        for d_model in dim_grid
    ]
    return _train_and_test(splits, runs, train_cfg, loss_cfg, top_frac)

