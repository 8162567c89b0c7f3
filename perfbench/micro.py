"""Isolated measurements of single model stages and numerics kernels.

Each stage's `dualpath.model` function is called on leaf inputs (fresh
random tensors that record gradients) with layer-0 parameters of the
workload's model configuration. Its backward is seeded with a fixed
upstream gradient G through `sum(out * G)`; the seeding adds one
elementwise product and one sum to each backward, small next to the
stage itself. A measurement repeats until its time budget is spent
(at least `MIN_REPS` times) and reports the median.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from dualpath import model as dp_model
from dualpath.loss import LossConfig, total_loss
from dualpath.metrics import DailyScores, run_backtest
from dualpath.model import ModelConfig, ModelParams, load_checkpoint, save_checkpoint
from dualpath.numerics import Tensor, backward, matmul, sum_
from dualpath.train import Adam, TrainConfig

from spans import BenchError

MIN_REPS = 3
MAX_REPS = 200
BACKTEST_DAYS = 100
STAGES = ("importance", "mha", "ffd1", "fusion", "ncorr_feat", "ncorr_temp", "gate", "ffd2", "decode")


def _repeat(step, budget_s: float) -> list:
    """Call `step()` at least MIN_REPS times and until the budget is spent."""
    out = []
    deadline = time.perf_counter() + budget_s
    while len(out) < MIN_REPS or (time.perf_counter() < deadline and len(out) < MAX_REPS):
        out.append(step())
    return out


def _median_ms(samples: list, index: int) -> float:
    return statistics.median(s[index] for s in samples) * 1e3


def _seeded_loss(out, grads: list[Tensor]) -> Tensor:
    outs = out if isinstance(out, tuple) else (out,)
    total = None
    for o, g in zip(outs, grads):
        term = sum_(o * g)
        total = term if total is None else total + term
    return total


def _time_fwd_bwd(build, leaves: list[Tensor], budget_s: float, rng) -> tuple[float, float]:
    """Median forward and backward milliseconds of `build()` over fresh graphs."""
    probe = build()
    outs = probe if isinstance(probe, tuple) else (probe,)
    grads = [Tensor(rng.standard_normal(o.shape)) for o in outs]

    def step():
        for leaf in leaves:
            leaf.zero_grad()
        t0 = time.perf_counter()
        out = build()
        t1 = time.perf_counter()
        loss = _seeded_loss(out, grads)
        t2 = time.perf_counter()
        backward(loss)
        return t1 - t0, time.perf_counter() - t2

    samples = _repeat(step, budget_s)
    return _median_ms(samples, 0), _median_ms(samples, 1)


def stage_timings(cfg: ModelConfig, seed: int, budget_s: float) -> dict[str, float]:
    """`model.stage.<s>.fwd_ms` / `.bwd_ms` for every stage, layer 0."""
    rng = np.random.default_rng([seed, 7])
    params = ModelParams.init(cfg, seed=seed)
    lp = params.layers[0]
    n, f, t, d = cfg.n_nodes, cfg.n_features, cfg.lookback, cfg.d_model

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    x_inv, x_aug, tokens = leaf(n, f, t), leaf(n, f, cfg.layer_input_width(0)), leaf(n, f, d)
    h_feat, h_temp = leaf(n, f), leaf(n, d)
    o_feat, o_temp = leaf(n, f, d), leaf(n, f, d)
    builds = {
        "importance": lambda: dp_model.importance_weights(x_inv, lp)[1],
        "mha": lambda: dp_model.temporal_self_attention(x_aug, lp, cfg.n_heads),
        "ffd1": lambda: dp_model._ffd(tokens, lp.ffd1_w1, lp.ffd1_b1, lp.ffd1_w2, lp.ffd1_b2),
        "fusion": lambda: dp_model.double_direction_fusion(tokens, lp),
        "ncorr_feat": lambda: dp_model.ncorr_attention(
            h_feat, tokens, lp.qg_feat, lp.kg_feat, lp.vg, cfg.n_keep, cfg.n_heads
        )[0],
        "ncorr_temp": lambda: dp_model.ncorr_attention(
            h_temp, tokens, lp.qg_temp, lp.kg_temp, lp.vg, cfg.n_keep, cfg.n_heads
        )[0],
        "gate": lambda: dp_model.dp_gate(o_feat, o_temp, lp, cfg.ablation),
        "ffd2": lambda: dp_model._ffd(tokens, lp.ffd2_w1, lp.ffd2_b1, lp.ffd2_w2, lp.ffd2_b2),
        "decode": lambda: dp_model.decode(tokens, params.decoder)[0],
    }
    leaves = [x_inv, x_aug, tokens, h_feat, h_temp, o_feat, o_temp, *params.tensors()]
    out = {}
    for stage in STAGES:
        fwd, bwd = _time_fwd_bwd(builds[stage], leaves, budget_s, rng)
        out[f"model.stage.{stage}.fwd_ms"] = fwd
        out[f"model.stage.{stage}.bwd_ms"] = bwd
    return out


def matmul_wgrad(cfg: ModelConfig, seed: int, budget_s: float) -> dict[str, float]:
    """Backward of a 2-D d x d weight applied to an N x F x d activation.

    FLOPs and bytes are computed from the shapes, not counted by hardware:
    2*N*F*d*d multiply-adds, and the activation, the upstream gradient and
    a read-modify-write of the d x d gradient moved once each.
    """
    rng = np.random.default_rng([seed, 11])
    n, f, d = cfg.n_nodes, cfg.n_features, cfg.d_model
    act = Tensor(rng.standard_normal((n, f, d)))
    weight = Tensor(rng.standard_normal((d, d)) / np.sqrt(d), requires_grad=True)
    _, ms = _time_fwd_bwd(lambda: matmul(act, weight), [weight], budget_s, rng)
    flops = 2.0 * n * f * d * d
    moved = 8.0 * (2 * n * f * d + 2 * d * d)
    return {
        "numerics.matmul_wgrad_ms": ms,
        "numerics.matmul_wgrad_gflops": flops / ms / 1e6,
        "numerics.matmul_wgrad_mb": moved / 1e6,
    }


def loss_backward_ms(cfg: ModelConfig, seed: int, budget_s: float) -> float:
    """Backward of the training loss alone, from predictions to the loss."""
    rng = np.random.default_rng([seed, 13])
    y_hat = Tensor(rng.standard_normal((cfg.n_nodes, cfg.horizon)), requires_grad=True)
    y = Tensor(rng.standard_normal((cfg.n_nodes, cfg.horizon)))

    def step():
        y_hat.zero_grad()
        loss = total_loss(y_hat, y, LossConfig())
        t0 = time.perf_counter()
        backward(loss)
        return (time.perf_counter() - t0,)

    return _median_ms(_repeat(step, budget_s), 0)


def day_step(cfg: ModelConfig, seed: int, budget_s: float) -> dict[str, float]:
    """One training day-step taken apart on random inputs at the workload's
    scale: grad-recording forward, loss, backward of the whole graph, Adam."""
    rng = np.random.default_rng([seed, 19])
    params = ModelParams.init(cfg, seed=seed)
    optimizer = Adam(params, TrainConfig())
    x = rng.standard_normal((cfg.n_nodes, cfg.lookback, cfg.n_features))
    y = Tensor(rng.standard_normal((cfg.n_nodes, cfg.horizon)))

    def step():
        params.zero_grads()
        t0 = time.perf_counter()
        y_hat, _ = dp_model.forward(x, params, cfg)
        t1 = time.perf_counter()
        loss = total_loss(y_hat, y, LossConfig())
        t2 = time.perf_counter()
        backward(loss)
        t3 = time.perf_counter()
        optimizer.step()
        return t1 - t0, t2 - t1, t3 - t2, time.perf_counter() - t3

    samples = _repeat(step, budget_s)
    names = ("model.forward_ms", "loss.forward_ms", "numerics.backward_ms", "train.adam_ms")
    return {name: _median_ms(samples, i) for i, name in enumerate(names)}


def checkpoint_ms(cfg: ModelConfig, seed: int, path: str, budget_s: float) -> dict[str, float]:
    """Write and read back a checkpoint of the workload's model."""
    params = ModelParams.init(cfg, seed=seed)

    def step():
        t0 = time.perf_counter()
        save_checkpoint(path, params)
        t1 = time.perf_counter()
        load_checkpoint(path, cfg)
        return t1 - t0, time.perf_counter() - t1

    samples = _repeat(step, budget_s)
    os.remove(path)
    return {"model.ckpt_write_ms": _median_ms(samples, 0), "model.ckpt_read_ms": _median_ms(samples, 1)}


def backtest_ms(cfg: ModelConfig, seed: int, budget_s: float) -> float:
    """`run_backtest` over BACKTEST_DAYS random cross-sections of the workload's width."""
    rng = np.random.default_rng([seed, 23])
    days = [
        DailyScores(i, rng.standard_normal(cfg.n_nodes), rng.standard_normal(cfg.n_nodes))
        for i in range(BACKTEST_DAYS)
    ]

    def step():
        t0 = time.perf_counter()
        run_backtest(days)
        return (time.perf_counter() - t0,)

    return _median_ms(_repeat(step, budget_s), 0)


def _op_nodes(root: Tensor) -> int:
    """Graph nodes whose backward closure runs (op results, not leaves)."""
    seen: set[int] = set()
    stack = [root]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(node._parents)
    return count


def graph_nodes(cfg: ModelConfig, seed: int) -> int:
    """Op nodes in one training day-step's loss graph; must repeat exactly."""
    rng = np.random.default_rng([seed, 17])
    params = ModelParams.init(cfg, seed=seed)
    x = rng.standard_normal((cfg.n_nodes, cfg.lookback, cfg.n_features))
    y = Tensor(rng.standard_normal((cfg.n_nodes, cfg.horizon)))
    counts = set()
    for _ in range(2):
        y_hat, _ = dp_model.forward(x, params, cfg)
        counts.add(_op_nodes(total_loss(y_hat, y, LossConfig())))
    if len(counts) != 1:
        raise BenchError(f"graph node count does not repeat: {sorted(counts)}")
    return counts.pop()
