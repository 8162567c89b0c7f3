"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavier criteria (learning smoke test, ablation ordering, cluster
recovery) share module-scoped trained runs so the whole suite stays
inside a desk-scale time budget. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from dualpath.cli import cluster_attention_mass, main
from dualpath.data import SplitSpec, cluster_labels, make_windows, normalize_features, synth_market
from dualpath.loss import LossConfig, pearson_loss, total_loss
from dualpath.metrics import (
    DailyScores,
    aggregate_metrics,
    information_coefficient,
)
from dualpath.model import ModelConfig, ModelParams, decode, forward
from dualpath.numerics import Tensor
from dualpath.train import TrainConfig, evaluate, train_model

from oracles import model_grad_check

RESULTS = []


def record(number: int, name: str, passed: bool, detail: str = ""):
    line = f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    RESULTS.append(line)
    assert passed, line


# ---------------------------------------------------------------- setup


ACCEPT_DATA = dict(n_nodes=50, n_days=600, n_features=8, n_clusters=5, seed=0)
ACCEPT_SPLIT = SplitSpec(0.7, 0.15, 0.15)


def accept_model_config(**overrides):
    base = dict(
        n_nodes=50,
        n_features=8,
        lookback=30,
        horizon=1,
        d_model=32,
        n_heads=4,
        n_layers=1,
        ffd_hidden=32,
        topn_ratio=0.1,
    )
    base.update(overrides)
    return ModelConfig(**base)


ACCEPT_TRAIN = TrainConfig(epochs=30, learning_rate=1e-3, seed=0, patience=5)


@pytest.fixture(scope="module")
def market_splits():
    ds = synth_market(**ACCEPT_DATA)
    n_train, _, _ = ACCEPT_SPLIT.resolve(ds.n_days)
    ds_norm = normalize_features(ds, n_train)
    splits = make_windows(ds_norm, 30, 1, ACCEPT_SPLIT)
    return ds, splits


@pytest.fixture(scope="module")
def trained_default(market_splits):
    """The default synthetic run shared by the smoke, ablation and cluster checks."""
    _, splits = market_splits
    start = time.perf_counter()
    params, log = train_model(splits[0], splits[1], accept_model_config(), ACCEPT_TRAIN)
    return params, log, time.perf_counter() - start


# ---------------------------------------------------------------- criteria


def test_criterion_01_gradient_fidelity():
    cfg = ModelConfig(
        n_nodes=4, n_features=3, lookback=6, horizon=1, d_model=8, n_heads=4,
        n_layers=1, ffd_hidden=8, topn_ratio=0.5,
    )
    params = ModelParams.init(cfg, seed=0)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 6, 3))
    y = rng.standard_normal((4, 1))
    start = time.perf_counter()
    report = model_grad_check(cfg, params, x, y)
    elapsed = time.perf_counter() - start
    record(
        1,
        "end-to-end gradients match finite differences",
        report.max_rel_err < 1e-4 and elapsed < 60.0,
        f"max_rel_err={report.max_rel_err:.2e} over {report.param_count} coords in {elapsed:.1f}s",
    )


def test_criterion_02_attention_contracts():
    cfg = ModelConfig(
        n_nodes=20, n_features=6, lookback=8, horizon=1, d_model=16, n_heads=4,
        n_layers=2, topn_ratio=0.1,
    )
    assert cfg.n_keep == 2
    params = ModelParams.init(cfg, seed=1)
    rng = np.random.default_rng(11)
    worst_sum = 0.0
    ok = True
    for _ in range(5):
        _, maps = forward(rng.standard_normal((20, 8, 6)), params, cfg)
        for matrix in maps.feature + maps.temporal:
            ok &= bool(((matrix > 0).sum(axis=1) == 2).all())
            worst_sum = max(worst_sum, float(np.abs(matrix.sum(axis=1) - 1.0).max()))
    ok &= worst_sum < 1e-6
    record(
        2,
        "node-attention rows have exactly ceil(0.1*20)=2 nonzeros summing to 1",
        ok,
        f"worst row-sum error {worst_sum:.1e}",
    )


def test_criterion_03_decoder_bound():
    cfg = accept_model_config(n_nodes=10, n_features=4)
    params = ModelParams.init(cfg, seed=2)
    rng = np.random.default_rng(13)
    lo, hi = math.exp(-1.0), math.exp(1.0)
    violations = 0
    checked = 0
    for _ in range(250):  # 250 panels x 10 nodes x 4 horizons... 10k scalar outputs
        m = Tensor(rng.standard_normal((10, 4, 32)) * 3.0)
        y_hat, mean_part, _ = decode(m, params.decoder)
        gap = y_hat.data - mean_part.data
        checked += gap.size
        violations += int(((gap < lo - 1e-12) | (gap > hi + 1e-12)).sum())
    while checked < 10_000:
        m = Tensor(rng.standard_normal((10, 4, 32)) * 3.0)
        y_hat, mean_part, _ = decode(m, params.decoder)
        gap = y_hat.data - mean_part.data
        checked += gap.size
        violations += int(((gap < lo - 1e-12) | (gap > hi + 1e-12)).sum())
    record(
        3,
        "prediction minus mean stays in [1/e, e]",
        violations == 0,
        f"{checked} outputs checked, {violations} violations",
    )


def test_criterion_04_permutation_equivariance():
    cfg = ModelConfig(
        n_nodes=6, n_features=4, lookback=7, horizon=1, d_model=8, n_heads=2,
        n_layers=1, topn_ratio=0.34,
    )
    params = ModelParams.init(cfg, seed=3)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((6, 7, 4))
    base, _ = forward(x, params, cfg)
    worst = 0.0
    for _ in range(20):
        perm = rng.permutation(6)
        permuted, _ = forward(x[perm], params, cfg)
        worst = max(worst, float(np.abs(permuted.data - base.data[perm]).max()))
    record(4, "node-permutation equivariance", worst < 1e-9, f"max deviation {worst:.1e}")


def test_criterion_05_loss_oracle():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(100):
        y_hat = rng.standard_normal((5, 1))
        y = rng.standard_normal((5, 1))
        err = float(np.mean((y_hat - y) ** 2))
        a = y_hat[:, 0] - y_hat[:, 0].mean()
        b = y[:, 0] - y[:, 0].mean()
        corr = float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))
        expected = 0.1 * err - corr
        got = total_loss(Tensor(y_hat), Tensor(y), LossConfig(lambda_m=0.1)).item()
        worst = max(worst, abs(got - expected))
    y = rng.standard_normal((6, 1))
    self_corr = abs(pearson_loss(Tensor(y), Tensor(y.copy())).item() + 1.0)
    record(
        5,
        "total loss equals independently composed oracle",
        worst < 1e-12 and self_corr < 1e-12,
        f"worst diff {worst:.1e}, |pearson(y,y)+1| = {self_corr:.1e}",
    )


def test_criterion_06_metrics_oracle():
    report = aggregate_metrics(np.array([0.1, -0.2, 0.05]))
    checks = {
        "pnl": abs(report.pnl - (-0.05)) < 1e-12,
        "mdd": abs(report.mdd - 0.2) < 1e-12,
        "winr": abs(report.winr - 2 / 3) < 1e-12,
        "pl": abs(report.pl_ratio - 0.375) < 1e-12,
    }
    days = [
        DailyScores(i, np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.2, 0.3])) for i in range(3)
    ]
    checks["ic"] = abs(information_coefficient(days) - 1.0) < 1e-12
    record(
        6,
        "aggregate metrics match hand-walked values; oracle scores give IC 1",
        all(checks.values()),
        ", ".join(k for k, v in checks.items() if not v) or "all exact",
    )


def test_criterion_07_learning_smoke(market_splits, trained_default):
    _, splits = market_splits
    params, _, train_seconds = trained_default
    report = evaluate(params, accept_model_config(), splits[2], top_frac=0.1)

    rng = np.random.default_rng(123)
    baseline_days = [
        DailyScores(s.day_index, rng.standard_normal(50), s.y[:, 0].copy()) for s in splits[2]
    ]
    baseline_ic = information_coefficient(baseline_days)

    ok = report.ic >= 0.05 and abs(baseline_ic) < 0.03 and train_seconds <= 15 * 60
    record(
        7,
        "trained model beats random baseline on held-out span",
        ok,
        f"test IC {report.ic:.3f} vs baseline {baseline_ic:.3f}, trained in {train_seconds:.0f}s",
    )


def test_criterion_08_ablation_direction():
    wins = 0
    lines = []
    for seed in (0, 1, 2):
        data = dict(ACCEPT_DATA)
        data["seed"] = seed
        ds = synth_market(**data)
        n_train, _, _ = ACCEPT_SPLIT.resolve(ds.n_days)
        splits = make_windows(normalize_features(ds, n_train), 30, 1, ACCEPT_SPLIT)
        tcfg = TrainConfig(
            epochs=ACCEPT_TRAIN.epochs,
            learning_rate=ACCEPT_TRAIN.learning_rate,
            seed=seed,
            patience=ACCEPT_TRAIN.patience,
        )
        ics = {}
        for label, flags in (
            ("full", frozenset()),
            ("no_temporal_path", frozenset({"no_temporal_path"})),
            ("no_feature_path", frozenset({"no_feature_path"})),
        ):
            cfg = accept_model_config(ablation=flags)
            params, _ = train_model(splits[0], splits[1], cfg, tcfg)
            ics[label] = evaluate(params, cfg, splits[2], top_frac=0.1).ic
        ordered = ics["full"] >= ics["no_temporal_path"] and ics["full"] >= ics["no_feature_path"]
        wins += int(ordered)
        lines.append(
            f"seed {seed}: full {ics['full']:.3f} vs no_temp {ics['no_temporal_path']:.3f}"
            f" / no_feat {ics['no_feature_path']:.3f} -> {'ok' if ordered else 'x'}"
        )
    print("\n".join(lines), flush=True)
    record(8, "full model IC >= single-path ablations on >= 2 of 3 seeds", wins >= 2, f"{wins}/3 seeds")


def test_criterion_09_cluster_recovery(market_splits, trained_default):
    ds, splits = market_splits
    params, _, _ = trained_default
    labels = cluster_labels(ds.node_ids)
    frozen = params.detached()
    cfg = accept_model_config()
    feats = []
    temps = []
    for sample in splits[2][-5:]:
        _, maps = forward(sample.x, frozen, cfg)
        feats.append(maps.feature[-1])
        temps.append(maps.temporal[-1])
    feat = np.mean(feats, axis=0)
    temp = np.mean(temps, axis=0)
    pooled = 0.5 * (feat + temp)
    intra, inter = cluster_attention_mass(pooled, labels)
    ratio = intra / inter if inter > 0 else float("inf")
    f_i, f_e = cluster_attention_mass(feat, labels)
    t_i, t_e = cluster_attention_mass(temp, labels)
    record(
        9,
        "attention mass concentrates inside planted clusters",
        ratio >= 1.5,
        f"pooled {ratio:.2f}x (intra {intra:.4f} / inter {inter:.4f}); "
        f"feature path {f_i / f_e:.2f}x, temporal path {t_i / t_e:.2f}x",
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    def pipeline(tag):
        base = tmp_path / tag
        data_dir, run_dir, bt_dir = base / "data", base / "run", base / "bt"
        fast = [
            "--set", "model.lookback=8", "--set", "model.d_model=8",
            "--set", "model.ffd_hidden=8", "--set", "model.n_heads=2",
            "--set", "model.topn_ratio=0.3", "--set", "train.epochs=3",
        ]
        assert main(["gen-data", "--out", str(data_dir), "--nodes", "10", "--days", "100",
                     "--clusters", "2", "--seed", "5"]) == 0
        assert main(["train", "--config", str(data_dir / "manifest.ini"),
                     "--out", str(run_dir)] + fast) == 0
        assert main(["backtest", "--run", str(run_dir), "--out", str(bt_dir)]) == 0
        return (
            (data_dir / "panel.csv").read_bytes(),
            (run_dir / "checkpoint.bin").read_bytes(),
            (bt_dir / "report.txt").read_bytes(),
            (bt_dir / "daily_returns.csv").read_bytes(),
        )

    first = pipeline("a")
    second = pipeline("b")
    same = all(x == y for x, y in zip(first, second))
    record(
        10,
        "gen-data -> train -> backtest is byte-identical under a fixed seed",
        same,
        "panel, checkpoint, report and daily returns all match",
    )
