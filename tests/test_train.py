import numpy as np
import pytest

from dualpath.data import SplitSpec, make_windows, normalize_features, synth_market
from dualpath.metrics import DailyScores, information_coefficient
from dualpath.model import ModelConfig, ModelParams, load_checkpoint, save_checkpoint
from dualpath.numerics import NumericError, ParameterError, Tensor
from dualpath.train import (
    Adam,
    TrainConfig,
    ablation_suite,
    evaluate,
    predict_scores,
    sweep,
    train_model,
)


def tiny_pipeline(n_nodes=10, n_days=120, seed=0, **model_overrides):
    ds = synth_market(n_nodes=n_nodes, n_days=n_days, n_clusters=2, seed=seed)
    split = SplitSpec(0.6, 0.2, 0.2)
    n_tr, _, _ = split.resolve(ds.n_days)
    dsn = normalize_features(ds, n_tr)
    model_kw = dict(
        n_nodes=n_nodes,
        n_features=ds.n_features,
        lookback=10,
        horizon=1,
        d_model=8,
        n_heads=2,
        n_layers=1,
        ffd_hidden=8,
        topn_ratio=0.3,
    )
    model_kw.update(model_overrides)
    cfg = ModelConfig(**model_kw)
    splits = make_windows(dsn, cfg.lookback, cfg.horizon, split)
    return cfg, splits


def records_without_clock(log):
    return [
        (r.epoch, r.train_loss, r.val_loss, r.val_ic) for r in log.records
    ]


def test_training_loss_decreases_over_first_epochs():
    ds = synth_market(n_nodes=20, n_days=200, n_clusters=4, seed=1)
    split = SplitSpec(0.8, 0.1, 0.1)
    n_tr, _, _ = split.resolve(ds.n_days)
    dsn = normalize_features(ds, n_tr)
    cfg = ModelConfig(
        n_nodes=20, n_features=ds.n_features, lookback=12, horizon=1,
        d_model=32, n_heads=4, n_layers=1, ffd_hidden=32, topn_ratio=0.15,
    )
    splits = make_windows(dsn, cfg.lookback, cfg.horizon, split)
    _, log = train_model(splits[0], [], cfg, TrainConfig(epochs=5, seed=1))
    losses = [r.train_loss for r in log.records]
    assert len(losses) == 5
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_zero_learning_rate_keeps_parameters():
    cfg, splits = tiny_pipeline()
    tcfg = TrainConfig(epochs=1, learning_rate=0.0, seed=2)
    params, _ = train_model(splits[0], [], cfg, tcfg)
    fresh = ModelParams.init(cfg, seed=tcfg.seed)
    for name, t in params.named().items():
        assert np.array_equal(t.data, fresh.named()[name].data), name


def test_identical_seeds_identical_runs():
    cfg, splits = tiny_pipeline()
    tcfg = TrainConfig(epochs=3, seed=3)
    params_a, log_a = train_model(splits[0], splits[1], cfg, tcfg)
    params_b, log_b = train_model(splits[0], splits[1], cfg, tcfg)
    assert records_without_clock(log_a) == records_without_clock(log_b)
    for name, t in params_a.named().items():
        assert np.array_equal(t.data, params_b.named()[name].data)


def test_different_seeds_differ():
    cfg, splits = tiny_pipeline()
    _, log_a = train_model(splits[0], splits[1], cfg, TrainConfig(epochs=2, seed=4))
    _, log_b = train_model(splits[0], splits[1], cfg, TrainConfig(epochs=2, seed=5))
    assert records_without_clock(log_a) != records_without_clock(log_b)


def test_best_validation_state_retained():
    cfg, splits = tiny_pipeline(n_days=160)
    tcfg = TrainConfig(epochs=6, seed=6)
    params, log = train_model(splits[0], splits[1], cfg, tcfg)
    best_epoch = max(log.records, key=lambda r: r.val_ic).epoch
    # retrain up to the best epoch only; parameters must coincide
    replay, _ = train_model(splits[0], splits[1], cfg, TrainConfig(epochs=best_epoch + 1, seed=6))
    for name, t in params.named().items():
        assert np.array_equal(t.data, replay.named()[name].data), name


def test_early_stopping_respects_patience():
    cfg, splits = tiny_pipeline()
    tcfg = TrainConfig(epochs=40, seed=7, patience=2)
    _, log = train_model(splits[0], splits[1], cfg, tcfg)
    assert len(log.records) < 40
    ics = [r.val_ic for r in log.records]
    best = max(ics)
    assert all(ic < best for ic in ics[-2:])  # final stretch never improved


def test_runlog_snapshot_contains_config():
    cfg, splits = tiny_pipeline()
    _, log = train_model(splits[0], [], cfg, TrainConfig(epochs=1, seed=8))
    assert log.config["model"]["d_model"] == 8
    assert log.config["train"]["seed"] == 8
    text = log.to_jsonl()
    assert text.count("\n") == 2  # config line + one epoch record
    assert '"epoch": 0' in text


def test_evaluate_oracle_scores_reach_ic_one():
    cfg, splits = tiny_pipeline()
    test_samples = splits[2]
    days = [
        DailyScores(s.day_index, s.y[:, 0].copy(), s.y[:, 0].copy()) for s in test_samples
    ]
    assert abs(information_coefficient(days) - 1.0) < 1e-12


def test_evaluate_random_scores_near_zero_ic():
    ds = synth_market(seed=0)
    split = SplitSpec(0.7, 0.15, 0.15)
    dsn = normalize_features(ds, split.resolve(ds.n_days)[0])
    _, _, test_samples = make_windows(dsn, 30, 1, split)
    rng = np.random.default_rng(321)
    days = [
        DailyScores(s.day_index, rng.standard_normal(50), s.y[:, 0].copy())
        for s in test_samples
    ]
    assert abs(information_coefficient(days)) < 0.05


def test_evaluate_report_internals_consistent():
    cfg, splits = tiny_pipeline()
    params, _ = train_model(splits[0], [], cfg, TrainConfig(epochs=1, seed=9))
    report = evaluate(params, cfg, splits[2], top_frac=0.3)
    assert abs(report.pnl - report.daily_returns.sum()) < 1e-9
    assert len(report.daily_returns) == len(splits[2])


def test_evaluate_matches_scores_pipeline():
    cfg, splits = tiny_pipeline()
    params, _ = train_model(splits[0], [], cfg, TrainConfig(epochs=1, seed=10))
    days = predict_scores(params, cfg, splits[2])
    report = evaluate(params, cfg, splits[2], top_frac=0.3)
    assert abs(report.ic - information_coefficient(days)) < 1e-15


def test_checkpoint_round_trip_evaluation_identical(tmp_path):
    cfg, splits = tiny_pipeline()
    params, _ = train_model(splits[0], splits[1], cfg, TrainConfig(epochs=2, seed=11))
    before = evaluate(params, cfg, splits[2], top_frac=0.3)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, params)
    loaded = load_checkpoint(path, cfg)
    after = evaluate(loaded, cfg, splits[2], top_frac=0.3)
    assert np.array_equal(before.daily_returns, after.daily_returns)
    assert before.ic == after.ic and before.sharpe == after.sharpe


def test_adam_moves_every_parameter_with_gradient():
    cfg, splits = tiny_pipeline()
    params = ModelParams.init(cfg, seed=12)
    before = params.state_copy()
    opt = Adam(params, TrainConfig(epochs=1, learning_rate=1e-3))
    from dualpath.loss import total_loss
    from dualpath.model import forward

    sample = splits[0][0]
    y_hat, _ = forward(sample.x, params, cfg)
    total_loss(y_hat, Tensor(sample.y)).backward()
    opt.step()
    moved = [name for name, t in params.named().items() if not np.array_equal(t.data, before[name])]
    assert len(moved) == len(before)


def test_adam_rejects_non_finite_gradient_before_any_update():
    cfg, _ = tiny_pipeline()
    params = ModelParams.init(cfg, seed=14)
    opt = Adam(params, TrainConfig(epochs=1, learning_rate=1e-3))
    named = params.named()
    names = list(named)
    for t in named.values():
        t.grad = np.ones_like(t.data)
    named[names[-1]].grad[...] = np.nan
    before = params.state_copy()
    with pytest.raises(NumericError, match=rf"{names[-1]}.*step 1"):
        opt.step()
    for name, t in params.named().items():
        assert np.array_equal(t.data, before[name]), name
    assert opt.step_count == 0


def test_gradients_confined_to_allocated_parameters():
    # ablated layouts simply have no excluded tensors, so nothing to update
    cfg, splits = tiny_pipeline(ablation={"no_dpgate"})
    params = ModelParams.init(cfg, seed=13)
    from dualpath.loss import total_loss
    from dualpath.model import forward

    sample = splits[0][0]
    y_hat, _ = forward(sample.x, params, cfg)
    total_loss(y_hat, Tensor(sample.y)).backward()
    for name, t in params.named().items():
        assert t.grad is not None, name
    assert not any("wm" in n or "ws_" in n for n in params.named())


def test_divergence_aborts_with_diagnostic():
    from dualpath.numerics import NumericError

    cfg, splits = tiny_pipeline()
    # squared error overflows float64, so the very first loss is non-finite
    bad = [
        type(splits[0][0])(x=s.x, y=s.y + 1e200, day_index=s.day_index) for s in splits[0][:3]
    ]
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError) as err:
            train_model(bad, [], cfg, TrainConfig(epochs=1, seed=14))
    assert "epoch 0" in str(err.value)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(epochs=0)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(ParameterError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ParameterError):
        TrainConfig(patience=0)


def test_ablation_suite_rows_and_isolation():
    cfg, splits = tiny_pipeline(n_days=100)
    rows = ablation_suite(splits, cfg, TrainConfig(epochs=1, seed=15))
    labels = [r["label"] for r in rows]
    assert labels == [
        "full",
        "no_dpgate",
        "no_temporal_path",
        "no_feature_path",
        "no_itblock",
        "no_importance",
    ]
    for row in rows:
        assert set(row) == {"label", "IC", "A_RET", "SHARPE"}
        assert np.isfinite(row["IC"])


def test_ablation_invalid_combination_rejected():
    with pytest.raises(ParameterError):
        ModelConfig(
            n_nodes=5, n_features=3, lookback=6, d_model=8, n_heads=2, n_layers=1,
            ablation={"no_temporal_path", "no_feature_path"},
        )


def test_sweep_grid_cardinality_and_determinism():
    cfg, splits = tiny_pipeline(n_days=100)
    kwargs = dict(
        layer_grid=[1, 2], head_grid=[2], dim_grid=[8, 16],
        train_cfg=TrainConfig(epochs=1, seed=16),
    )
    rows = sweep(splits, cfg, **kwargs)
    assert len(rows) == 4
    assert {(r["n_layers"], r["n_heads"], r["d_model"]) for r in rows} == {
        (1, 2, 8), (1, 2, 16), (2, 2, 8), (2, 2, 16),
    }
    rows_again = sweep(splits, cfg, **kwargs)
    assert rows == rows_again


def test_default_model_config_matches_reference_settings():
    cfg = ModelConfig(n_nodes=500, n_features=45)
    assert cfg.lookback == 30
    assert cfg.d_model == 256
    assert cfg.n_heads == 4
    assert cfg.n_layers == 3
    assert cfg.topn_ratio == 0.1
    assert cfg.n_keep == 50
