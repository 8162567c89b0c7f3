import ctypes
import math
import tracemalloc

import numpy as np
import pytest

from dualpath.data import SplitSpec, make_windows, normalize_features, synth_market
from dualpath.loss import total_loss
from dualpath.metrics import DailyScores, information_coefficient
from dualpath.model import (
    ABLATION_FLAGS,
    ModelConfig,
    ModelParams,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from dualpath.numerics import NumericError, ParameterError, Tensor, keep_heap_resident
from dualpath.train import (
    Adam,
    TrainConfig,
    ablation_suite,
    evaluate,
    predict,
    predict_scores,
    sweep,
    train_model,
)

from oracles import model_grad_check


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


@pytest.mark.parametrize(
    "ic, message",
    [
        (lambda: math.nan, "non-finite validation IC nan after epoch 0"),
        (lambda: float(np.exp(np.float64(1000.0))), "overflow encountered in exp at validation after epoch 0"),
    ],
    ids=["nan_ic", "overflow"],
)
def test_non_finite_validation_raises(monkeypatch, ic, message):
    cfg, splits = tiny_pipeline()
    monkeypatch.setattr("dualpath.train.information_coefficient", lambda days: ic())
    with pytest.raises(NumericError, match=f"^{message}$"):
        train_model(splits[0][:2], splits[1][:2], cfg, TrainConfig(epochs=2, seed=4))


def test_train_model_peak_holds_no_dead_parameter_copy():
    # at d_model 64 and 10 nodes the parameters outweigh one day's graph; one
    # epoch peaks at 6.3 parameter sets (weights, Adam's two moments, one
    # gradient set and the graph), and a copy of the weights held through it
    # reads 7.3
    cfg, splits = tiny_pipeline(d_model=64, ffd_hidden=64)
    param_bytes = sum(t.data.nbytes for t in ModelParams.init(cfg).tensors())
    tracemalloc.start()
    try:
        train_model(splits[0][:3], splits[1][:2], cfg, TrainConfig(epochs=1, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.8 * param_bytes


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


def test_predict_stacks_per_day_forward_bitwise():
    cfg, splits = tiny_pipeline(horizon=2)
    params = ModelParams.init(cfg, seed=15)
    stacked = predict(params, cfg, splits[2])
    assert stacked.shape == (len(splits[2]), cfg.n_nodes, 2)
    for day, sample in zip(stacked, splits[2]):
        assert np.array_equal(day, forward(sample.x, params, cfg)[0].data)


def test_predict_of_no_samples_is_empty():
    cfg, _ = tiny_pipeline()
    params = ModelParams.init(cfg, seed=16)
    assert predict(params, cfg, []).shape == (0, cfg.n_nodes, cfg.horizon)
    assert predict_scores(params, cfg, []) == []


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
    moments = {name: (opt.m[name].copy(), opt.v[name].copy()) for name in names}
    with pytest.raises(NumericError, match=rf"{names[-1]}.*step 1"):
        opt.step()
    for name, t in params.named().items():
        assert np.array_equal(t.data, before[name]), name
        assert np.array_equal(opt.m[name], moments[name][0]), name
        assert np.array_equal(opt.v[name], moments[name][1]), name
    assert opt.step_count == 0


DESK_CFG = ModelConfig(n_nodes=50, n_features=8, lookback=30, horizon=1, d_model=32, n_heads=4, n_layers=1)


def _desk_days(count, seed):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((50, 30, 8)), rng.standard_normal((50, 1))) for _ in range(count)]


def _oracle_adam_step(state, grads, step_count, cfg):
    # the out-of-place update the in-place one must reproduce bit for bit
    correction1 = 1.0 - cfg.beta1**step_count
    correction2 = 1.0 - cfg.beta2**step_count
    for name, g in grads.items():
        if g is None:
            continue
        w, m, v = state[name]
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        state[name] = (w - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps), m, v)


def test_adam_in_place_update_is_bit_identical_to_the_out_of_place_formula():
    tcfg = TrainConfig(learning_rate=1e-2, accum_days=2)
    params = ModelParams.init(DESK_CFG, seed=16)
    opt = Adam(params, tcfg)
    named = params.named()
    state = {name: (t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data)) for name, t in named.items()}
    frozen = "dec.b_dev"  # never gets a gradient: its weights and moments must not move
    days = _desk_days(2, seed=17)
    for step in range(1, 101):
        params.zero_grads()
        for x, y in days:
            y_hat, _ = forward(x * (1.0 + 0.01 * step), params, DESK_CFG)
            total_loss(y_hat, Tensor(y)).backward()
        named[frozen].zero_grad()
        grads = {name: t.grad for name, t in named.items()}
        held = {name: g.copy() for name, g in grads.items() if g is not None}
        opt.step()
        _oracle_adam_step(state, grads, step, tcfg)
        for name, g in held.items():
            assert named[name].grad is grads[name] and np.array_equal(grads[name], g), name
    assert not opt.m[frozen].any() and not opt.v[frozen].any()
    for name, t in named.items():
        w, m, v = state[name]
        assert t.data.tobytes() == w.tobytes(), name
        assert opt.m[name].tobytes() == m.tobytes(), name
        assert opt.v[name].tobytes() == v.tobytes(), name


def _glibc_mallopt():
    try:
        return ctypes.CDLL("libc.so.6").mallopt is not None
    except (OSError, AttributeError):
        return False


@pytest.mark.skipif(not _glibc_mallopt(), reason="needs glibc mallopt")
def test_day_steps_on_a_resident_heap_take_no_page_faults():
    resource = pytest.importorskip("resource")
    keep_heap_resident()
    params = ModelParams.init(DESK_CFG, seed=18)
    opt = Adam(params, TrainConfig())
    days = _desk_days(13, seed=19)

    def day_step(x, y):
        params.zero_grads()
        y_hat, _ = forward(x, params, DESK_CFG)
        total_loss(y_hat, Tensor(y)).backward()
        opt.step()

    for x, y in days[:3]:
        day_step(x, y)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for x, y in days[3:]:
        day_step(x, y)
    # glibc's default trimming makes each of these steps fault in hundreds of pages
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


@pytest.mark.parametrize("k", [2, 3])
def test_accum_days_steps_once_per_window(monkeypatch, k):
    cfg, splits = tiny_pipeline()
    days = splits[0][:7]
    steps = []
    adam_step = Adam.step

    def counted(self):
        steps.append(self.step_count)
        adam_step(self)

    monkeypatch.setattr(Adam, "step", counted)
    train_model(days, [], cfg, TrainConfig(epochs=2, accum_days=k))
    assert len(steps) == 2 * math.ceil(len(days) / k)


def test_accum_days_window_is_one_adam_step_on_summed_gradients():
    # windows of 3 and 2 days: a mean instead of a sum would rescale them unequally
    cfg, splits = tiny_pipeline()
    days = splits[0][:5]
    tcfg = TrainConfig(epochs=1, learning_rate=1e-2, seed=3, accum_days=3)
    trained, _ = train_model(days, [], cfg, tcfg)

    params = ModelParams.init(cfg, seed=tcfg.seed)
    opt = Adam(params, tcfg)
    order = np.random.default_rng([tcfg.seed, 1]).permutation(len(days))  # train_model's shuffle
    for window in (order[:3], order[3:]):
        summed = {}
        for idx in window:
            params.zero_grads()
            y_hat, _ = forward(days[idx].x, params, cfg)
            total_loss(y_hat, Tensor(days[idx].y)).backward()
            for name, t in params.named().items():
                summed[name] = summed.get(name, 0.0) + t.grad
        for name, t in params.named().items():
            t.grad = summed[name]
        opt.step()
    assert opt.step_count == 2
    for name, t in trained.named().items():
        np.testing.assert_allclose(t.data, params.named()[name].data, rtol=0, atol=1e-12, err_msg=name)


def test_gradients_confined_to_allocated_parameters():
    # ablated layouts simply have no excluded tensors, so nothing to update
    cfg, splits = tiny_pipeline(ablation={"no_dpgate"})
    params = ModelParams.init(cfg, seed=13)
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
    with pytest.raises(ParameterError, match="adam_eps must be positive, got 0.0"):
        TrainConfig(adam_eps=0.0)
    with pytest.raises(ParameterError, match="accum_days must be >= 1, got 0"):
        TrainConfig(accum_days=0)


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


@pytest.mark.parametrize("flag", [None, *ABLATION_FLAGS])
def test_model_grad_check_full_model_and_each_ablation(flag):
    # end to end through every fused stage: the lone-path gate, no_itblock's
    # affine block and the importance-free first layer included
    cfg = ModelConfig(
        n_nodes=3, n_features=2, lookback=4, horizon=1, d_model=4, n_heads=2,
        n_layers=1, ffd_hidden=4, topn_ratio=0.5, ablation={flag} if flag else set(),
    )
    params = ModelParams.init(cfg, seed=70)
    rng = np.random.default_rng(70)
    report = model_grad_check(cfg, params, rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 1)))
    assert report.max_rel_err < 1e-4, report
