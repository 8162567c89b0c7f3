import builtins
import dataclasses
import gc
import os
import shutil
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dualpath.cli import (
    ConfigError,
    build_model_config,
    build_settings,
    build_split,
    cluster_attention_mass,
    heatmap_svg,
    load_config,
    main,
    write_config_snapshot,
)
from dualpath.loss import LossConfig
from dualpath.model import ModelConfig, ModelParams, read_named_tensors, save_checkpoint, write_named_tensors
from dualpath.numerics import Tensor
from dualpath.train import Adam, TrainConfig

FAST_OVERRIDES = [
    "data.nodes=8",
    "data.days=80",
    "data.clusters=2",
    "model.lookback=8",
    "model.d_model=8",
    "model.ffd_hidden=8",
    "model.n_heads=2",
    "model.topn_ratio=0.3",
    "train.epochs=2",
]


def run(args):
    return main(args)


def set_args(extra=()):
    out = []
    for item in (*FAST_OVERRIDES, *extra):
        out += ["--set", item]
    return out


# -- config layer --------------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config(None, [])
    assert cfg["model"]["d_model"] == "32"
    assert cfg["train"]["epochs"] == "30"


def test_load_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nwidth=64\n")
    with pytest.raises(ConfigError):
        load_config(str(path), [])


def test_load_config_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[modeling]\nd_model=64\n")
    with pytest.raises(ConfigError):
        load_config(str(path), [])


def test_load_config_override_precedence(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[model]\nd_model=64\n")
    cfg = load_config(str(path), ["model.d_model=128"])
    assert cfg["model"]["d_model"] == "128"


def test_load_config_bad_override():
    with pytest.raises(ConfigError):
        load_config(None, ["no_dots"])
    with pytest.raises(ConfigError):
        load_config(None, ["model.width=64"])


PANEL = SimpleNamespace(n_nodes=50, n_features=8)


def test_config_sections_are_the_dataclass_fields():
    cfg = load_config(None, [])
    model_fields = [f.name for f in dataclasses.fields(ModelConfig)]
    assert list(cfg["model"]) == [name for name in model_fields if name not in ("n_nodes", "n_features")]
    assert list(cfg["train"]) == [f.name for f in dataclasses.fields(TrainConfig)]
    assert list(cfg["loss"]) == [f.name for f in dataclasses.fields(LossConfig)]


def test_config_snapshot_reloads_into_equal_configs(tmp_path):
    cfg = load_config(None, ["model.ablation=no_dpgate", "model.ffd_hidden=16", "train.accum_days=3"])
    write_config_snapshot(cfg, str(tmp_path / "config.ini"))
    reloaded = load_config(str(tmp_path / "config.ini"), [])
    assert build_model_config(reloaded, PANEL) == build_model_config(cfg, PANEL)
    assert build_settings(reloaded, "train") == build_settings(cfg, "train") == TrainConfig(accum_days=3)
    assert build_settings(reloaded, "loss") == build_settings(cfg, "loss") == LossConfig()
    assert build_split(reloaded) == build_split(cfg)


@pytest.mark.parametrize("value, expected", [("auto", None), ("16", 16)])
def test_ffd_hidden_reads_auto_or_an_integer(value, expected):
    model = build_model_config(load_config(None, [f"model.ffd_hidden={value}"]), PANEL)
    assert model.ffd_hidden == expected


def test_ablation_list_skips_blanks_and_spaces():
    model = build_model_config(load_config(None, ["model.ablation= no_dpgate, ,no_importance"]), PANEL)
    assert model.ablation == {"no_dpgate", "no_importance"}


@pytest.mark.parametrize(
    "override, message",
    [
        ("model.d_model=wide", "[model] d_model='wide' is not an integer"),
        ("train.learning_rate=fast", "[train] learning_rate='fast' is not a number"),
    ],
)
def test_train_rejects_unparsable_value(tmp_path, capsys, override, message):
    assert run(["train", "--out", str(tmp_path / "run"), "--set", override]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


MALFORMED_CONFIGS = {
    "no_section_header": b"epochs=3\n",
    "duplicate_key": b"[train]\nepochs=3\nepochs=4\n",
    "non_utf8": b"[train]\nepochs=3\n# caf\xe9\n",
}


@pytest.mark.parametrize("body", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_train_malformed_config_file_exits_2(tmp_path, capsys, body):
    path = tmp_path / "bad.ini"
    path.write_bytes(body)
    assert run(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err


MALFORMED_CSVS = {
    "non_utf8": b"date,node_id,f1,target\n0,caf\xe9,1.0,0.01\n",
    "oversized_field": b"date,node_id,f1,target\n0,aa," + b"1" * 131_073 + b",0.01\n",
    "repeated_column": b"date,node_id,f,f,target\n0,aa,1.0,2.0,0.01\n",
}


@pytest.mark.parametrize("body", MALFORMED_CSVS.values(), ids=MALFORMED_CSVS.keys())
def test_train_malformed_csv_exits_2(tmp_path, capsys, body):
    path = tmp_path / "panel.csv"
    path.write_bytes(body)
    argv = ["train", "--out", str(tmp_path / "run"), "--set", "data.source=csv", "--set", f"data.csv={path}"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err


# -- gen-data -------------------------------------------------------------------


def test_gen_data_writes_panel_and_manifest(tmp_path):
    out = tmp_path / "data"
    assert run(["gen-data", "--out", str(out), "--nodes", "10", "--days", "100", "--seed", "3"]) == 0
    csv_path = out / "panel.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 10 * 100
    assert len(lines[0].split(",")) == 2 + 8 + 1
    assert (out / "manifest.ini").exists()


def test_gen_data_idempotent_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gen-data", "--out", str(out), "--nodes", "6", "--days", "50", "--seed", "9"]) == 0
    assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()
    assert (a / "manifest.ini").read_bytes() == (b / "manifest.ini").read_bytes()


def test_manifest_round_trips_into_train(tmp_path):
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"
    assert run(["gen-data", "--out", str(data_dir), "--nodes", "8", "--days", "80", "--clusters", "2"]) == 0
    code = run(
        ["train", "--config", str(data_dir / "manifest.ini"), "--out", str(run_dir)]
        + set_args()
    )
    assert code == 0
    assert (run_dir / "checkpoint.bin").exists()
    assert (run_dir / "runlog.jsonl").exists()
    assert (run_dir / "config.ini").exists()


def test_percent_in_paths_round_trips_through_train_and_backtest(tmp_path):
    # configparser interpolation would read "%" as a reference
    root = tmp_path / "da%ta"
    data_dir, run_dir, bt_dir = root / "data%1", root / "run", root / "bt"
    assert run(["gen-data", "--out", str(data_dir), "--nodes", "8", "--days", "80", "--clusters", "2"]) == 0
    code = run(["train", "--config", str(data_dir / "manifest.ini"), "--out", str(run_dir)] + set_args())
    assert code == 0
    snapshot = load_config(str(run_dir / "config.ini"), [])
    assert snapshot["data"]["csv"] == str(data_dir / "panel.csv")
    assert (run_dir / "runlog.jsonl").exists()
    assert run(["backtest", "--run", str(run_dir), "--out", str(bt_dir)]) == 0
    assert (bt_dir / "report.txt").exists()


# -- train ----------------------------------------------------------------------


def test_train_emits_artifacts_and_snapshot_records_ablation(tmp_path):
    run_dir = tmp_path / "run"
    code = run(["train", "--out", str(run_dir)] + set_args(["model.ablation=no_dpgate"]))
    assert code == 0
    snapshot = (run_dir / "config.ini").read_text()
    assert "ablation = no_dpgate" in snapshot
    log = (run_dir / "runlog.jsonl").read_text().strip().splitlines()
    assert '"no_dpgate"' in log[0]
    assert len(log) == 1 + 2  # config line + one record per epoch


def _file_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_failed_artifact_writes_leave_the_previous_files(tmp_path, monkeypatch, trained_run):
    # a disk that fills up mid-write must not truncate an earlier run's files
    cfg = ModelConfig(n_nodes=4, n_features=3, lookback=5, d_model=8, n_heads=2)
    checkpoint, config = tmp_path / "checkpoint.bin", tmp_path / "config.ini"
    save_checkpoint(str(checkpoint), ModelParams.init(cfg, seed=1))
    write_config_snapshot(load_config(None, []), str(config))
    # the table commands' training is not under test here: they tabulate these rows
    scores = {"IC": 0.1, "A_RET": None, "SHARPE": 1.5}
    monkeypatch.setattr("dualpath.cli.ablation_suite", lambda *a, **k: [{"label": "full", **scores}])
    monkeypatch.setattr(
        "dualpath.cli.sweep", lambda *a, **k: [{"n_layers": 1, "n_heads": 2, "d_model": 8, **scores}]
    )
    commands = {
        "export-attention": ["--run", str(trained_run), "--out", str(tmp_path / "attn")],
        "ablate": ["--out", str(tmp_path / "abl"), *set_args()],
        "sweep": ["--out", str(tmp_path / "sweep"), "--layers", "1", "--heads", "2", "--dims", "8", *set_args()],
    }
    for command, argv in commands.items():
        assert run([command, *argv]) == 0
    before = _file_bytes(tmp_path)
    real_open = builtins.open

    def full_disk_open(marker=""):
        """An `open` under which a file named with `marker`, opened for writing,
        takes half of its first write and then fails like a full disk."""

        def open_(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "r" not in mode and marker in os.path.basename(file):
                real_write = fh.write

                def write(data):
                    real_write(data[: len(data) // 2])
                    raise OSError(28, "No space left on device")

                fh.write = write
            return fh

        return open_

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", full_disk_open())
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(str(checkpoint), ModelParams.init(cfg, seed=2))
        with pytest.raises(OSError, match="No space"):
            write_config_snapshot(load_config(None, ["model.d_model=16"]), str(config))
    # each artifact of a command in turn meets the full disk; the command exits 2
    for command, marker in [
        ("export-attention", "layer0_feature.csv"),
        ("export-attention", "layer0_temporal.svg"),
        ("export-attention", "cluster_mass.txt"),
        ("ablate", "ablation.csv"),
        ("sweep", "sweep.csv"),
    ]:
        with monkeypatch.context() as m:
            m.setattr(builtins, "open", full_disk_open(marker))
            assert run([command, *commands[command]]) == 2, marker
    assert _file_bytes(tmp_path) == before


@pytest.mark.parametrize("layers", [1, 2])
def test_ungated_single_path_trains_and_backtests(tmp_path, layers):
    # without the gate a lone path passes through; it used to reach the merge as NaN
    run_dir, bt_dir = tmp_path / "run", tmp_path / "bt"
    extra = ["model.ablation=no_dpgate,no_temporal_path", f"model.n_layers={layers}"]
    assert run(["train", "--out", str(run_dir)] + set_args(extra)) == 0
    assert run(["backtest", "--run", str(run_dir), "--out", str(bt_dir)]) == 0
    assert (bt_dir / "report.txt").exists()


def test_train_rejects_invalid_flag_combination(tmp_path, capsys):
    code = run(
        ["train", "--out", str(tmp_path / "run")]
        + set_args(["model.ablation=no_temporal_path,no_feature_path"])
    )
    assert code == 2
    assert "path" in capsys.readouterr().err


def test_train_rejects_unknown_ablation_flag(tmp_path, capsys):
    code = run(["train", "--out", str(tmp_path / "run")] + set_args(["model.ablation=no_such_flag"]))
    assert code == 2
    assert "unknown ablation flags: ['no_such_flag']" in capsys.readouterr().err


def test_train_rejects_split_fractions_not_summing_to_one(tmp_path, capsys):
    code = run(["train", "--out", str(tmp_path / "run")] + set_args(["data.train_frac=0.5"]))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "sum to 1" in err


def _config_error_case(name, tmp_path, trained_run):
    """(argv, message) of one documented configuration error."""
    out = ["--out", str(tmp_path / "out")]
    if name == "unreadable_config":
        path = tmp_path / "missing.ini"
        return ["train", "--config", str(path), *out], f"cannot read config file {path}"
    if name == "csv_source_without_path":
        return ["train", *out, *set_args(["data.source=csv"])], "[data] source=csv requires a csv path"
    if name == "unknown_source":
        return (["train", *out, *set_args(["data.source=parquet"])],
                "[data] source must be 'synthetic' or 'csv', got 'parquet'")
    if name == "ablate_from_an_ablation":
        return (["ablate", *out, *set_args(["model.ablation=no_dpgate"])],
                "ablate starts from the full model; clear [model] ablation")
    if name == "empty_sweep_grid":
        return ["sweep", *out, "--layers", ",", *set_args()], "--layers must name at least one value"
    if name in NON_FINITE_SETTINGS:
        section, key = NON_FINITE_SETTINGS[name].split(".")
        return ["train", *out, *set_args([f"{section}.{key}=nan"])], f"[{section}] {key}='nan' is not finite"
    if name == "no_training_window":
        # 80 days: 64 validation, 12 test, and 4 training days, fewer than the lookback of 8
        return (["train", *out, *set_args(["data.train_frac=0.05", "data.val_frac=0.8"])],
                "training split is empty; increase days or train_frac")
    # backtest_without_test_days: the trained run, re-split with no test days
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    cfg = load_config(str(run_dir / "config.ini"), ["data.val_frac=0.3", "data.test_frac=0"])
    write_config_snapshot(cfg, str(run_dir / "config.ini"))
    return ["backtest", "--run", str(run_dir), *out], "test split is empty; nothing to backtest"


# a NaN setting that ended in a traceback (val_frac, adam_eps) or was used
# silently: a NaN train_frac trained on 0.7, a NaN loss eps dropped the Pearson term
NON_FINITE_SETTINGS = {
    "nan_train_frac": "data.train_frac",
    "nan_val_frac": "data.val_frac",
    "nan_adam_eps": "train.adam_eps",
    "nan_loss_eps": "loss.eps",
}
CONFIG_ERRORS = [
    "unreadable_config", "csv_source_without_path", "unknown_source", "ablate_from_an_ablation",
    "empty_sweep_grid", "no_training_window", "backtest_without_test_days", *NON_FINITE_SETTINGS,
]


@pytest.mark.parametrize("name", CONFIG_ERRORS)
def test_documented_config_error_exits_2(tmp_path, capsys, trained_run, name):
    argv, message = _config_error_case(name, tmp_path, trained_run)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_non_finite_training_loss_exits_3(tmp_path, monkeypatch, capsys):
    # a real overflow would raise a RuntimeWarning, an error under this suite's settings
    monkeypatch.setattr("dualpath.train.total_loss", lambda *args: Tensor(np.nan))
    assert run(["train", "--out", str(tmp_path / "run")] + set_args()) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: non-finite loss at epoch 0, step 0, day ")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_nan_attention_scores_in_training_exit_3(tmp_path, monkeypatch, capsys):
    # a NaN weight, as an overflowing update leaves one, makes every temporal
    # path score NaN on the next day-step; NaN arithmetic raises no warning
    step = Adam.step

    def step_then_spoil(self):
        step(self)
        self.params.named()["enc0.qg_temp"].data[0, 0] = np.nan

    monkeypatch.setattr("dualpath.train.Adam.step", step_then_spoil)
    assert run(["train", "--out", str(tmp_path / "run")] + set_args()) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: node attention scores are not finite: 0 of 24 kept\n"
    assert not (tmp_path / "run").exists()


def test_overflowing_weights_exit_3_naming_the_day_step(tmp_path, capsys):
    # the first update takes the weights near 1e200, finite; the next
    # forward overflows, and that is reported as a numeric failure, not warned
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["train", "--out", str(tmp_path / "run")] + set_args(["train.learning_rate=1e200"]))
    assert code == 3 and not caught
    assert capsys.readouterr().err == "numeric failure: overflow encountered in matmul at epoch 0, step 1, day 33\n"
    assert not (tmp_path / "run").exists()


def test_train_rejects_unknown_config_key(tmp_path):
    code = run(["train", "--out", str(tmp_path / "run")] + ["--set", "model.widht=8"])
    assert code == 2


def test_unknown_flag_is_hard_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["train", "--frobnicate"])
    assert err.value.code == 2


def test_every_subcommand_documents_flags(capsys):
    for command, flags in [
        ("gen-data", ["--out", "--nodes", "--days", "--seed"]),
        ("train", ["--config", "--set", "--out"]),
        ("backtest", ["--run", "--out"]),
        ("ablate", ["--out"]),
        ("sweep", ["--layers", "--heads", "--dims"]),
        ("export-attention", ["--run", "--day"]),
    ]:
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, (command, flag)


# -- backtest ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    code = main(["train", "--out", str(run_dir)] + set_args())
    assert code == 0
    return run_dir


def test_backtest_report_keys_and_rows(trained_run, tmp_path, capsys):
    out = tmp_path / "bt"
    assert run(["backtest", "--run", str(trained_run), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text().strip().splitlines()
    assert [line.split("=")[0] for line in report] == [
        "IC", "PNL", "A_RET", "A_VOL", "MAXD", "SHARPE", "CALMAR", "WINR", "PL",
    ]
    returns = (out / "daily_returns.csv").read_text().strip().splitlines()
    # 80 days, test frac 0.15 -> 12 test days, horizon 1 -> 11 eligible anchors
    assert len(returns) == 1 + 11


def test_backtest_idempotent_bytes(trained_run, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["backtest", "--run", str(trained_run), "--out", str(out)]) == 0
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
    assert (a / "daily_returns.csv").read_bytes() == (b / "daily_returns.csv").read_bytes()


def test_repeated_backtests_hold_no_python_memory(trained_run, tmp_path):
    # Repeated in-process backtests grow RSS by pinning pymalloc arenas, not by
    # keeping Python objects: what is live after the third call stays within
    # a few caches' worth of what was live after the first. Keeping one
    # call's 80 x 8 x 8 feature array alive (40 KB) would already exceed it.
    traced = []
    tracemalloc.start()
    try:
        for i in range(3):
            assert run(["backtest", "--run", str(trained_run), "--out", str(tmp_path / str(i))]) == 0
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert traced[2] - traced[0] < 64 * 1024, traced


def test_backtest_missing_run_dir(tmp_path):
    assert run(["backtest", "--run", str(tmp_path / "nope")]) == 2


def _with_byte(raw, at, value):
    return raw[:at] + bytes([value]) + raw[at + 1 :]


# a checkpoint's header is magic (8 bytes), version, count (u32 each), then the
# first tensor's u16 name length, its name and its dtype tag
CHECKPOINT_DAMAGE = {
    "truncated": (lambda raw: raw[:-100], "checkpoint truncated at byte"),
    "version": (lambda raw: raw[:8] + struct.pack("<I", 2) + raw[12:], "unsupported checkpoint version 2"),
    "dtype_tag": (lambda raw: _with_byte(raw, 18 + struct.unpack_from("<H", raw, 16)[0], 2), "unknown dtype tag 2"),
    "non_utf8_name": (lambda raw: _with_byte(raw, 18, 0xFF), "tensor 0 name is not utf-8"),
}


@pytest.mark.parametrize("damage, message", CHECKPOINT_DAMAGE.values(), ids=CHECKPOINT_DAMAGE.keys())
def test_backtest_truncated_checkpoint_exits_2(trained_run, tmp_path, capsys, damage, message):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    ckpt = run_dir / "checkpoint.bin"
    ckpt.write_bytes(damage(ckpt.read_bytes()))
    assert run(["backtest", "--run", str(run_dir), "--out", str(tmp_path / "bt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_backtest_non_finite_checkpoint_weight_exits_3(trained_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    ckpt = str(run_dir / "checkpoint.bin")
    named = read_named_tensors(ckpt)
    named["enc0.w_q"][0, 0] = np.inf
    write_named_tensors(ckpt, named)
    assert run(["backtest", "--run", str(run_dir), "--out", str(tmp_path / "bt")]) == 3
    assert capsys.readouterr().err == "numeric failure: parameter enc0.w_q contains non-finite values\n"
    assert not (tmp_path / "bt").exists()


def test_backtest_malformed_run_config_exits_2(trained_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    (run_dir / "config.ini").write_text("[train]\nepochs=3\nepochs=4\n")
    assert run(["backtest", "--run", str(run_dir), "--out", str(tmp_path / "bt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "config.ini" in err


# -- export-attention ---------------------------------------------------------------


def test_export_attention_contracts(trained_run, tmp_path):
    out = tmp_path / "attn"
    assert run(["export-attention", "--run", str(trained_run), "--out", str(out)]) == 0
    feat = np.loadtxt(out / "layer0_feature.csv", delimiter=",")
    temp = np.loadtxt(out / "layer0_temporal.csv", delimiter=",")
    for matrix in (feat, temp):
        assert matrix.shape == (8, 8)
        assert np.abs(matrix.sum(axis=1) - 1.0).max() < 1e-6
        assert ((matrix > 0).sum(axis=1) == 3).all()  # ceil(0.3 * 8)
    assert (out / "layer0_feature.svg").read_text().startswith("<svg")
    assert (out / "cluster_mass.txt").exists()


def test_export_attention_specific_day(trained_run, tmp_path):
    out = tmp_path / "attn_day"
    # train split anchors start at lookback-1 = 7
    assert run(["export-attention", "--run", str(trained_run), "--out", str(out), "--day", "7"]) == 0
    assert run(
        ["export-attention", "--run", str(trained_run), "--out", str(tmp_path / "x"), "--day", "9999"]
    ) == 2


def test_export_attention_with_one_cluster_writes_n_a_for_the_empty_side(tmp_path):
    run_dir, out = tmp_path / "run", tmp_path / "attn"
    assert run(["train", "--out", str(run_dir)] + set_args(["data.clusters=1", "train.epochs=1"])) == 0
    assert run(["export-attention", "--run", str(run_dir), "--out", str(out)]) == 0
    lines = (out / "cluster_mass.txt").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert " inter=n/a ratio=n/a" in line and "nan" not in line, line


def test_export_attention_under_a_one_path_ablation_writes_that_path_only(tmp_path):
    run_dir, out = tmp_path / "run", tmp_path / "attn"
    extra = ["model.ablation=no_temporal_path", "train.epochs=1"]
    assert run(["train", "--out", str(run_dir)] + set_args(extra)) == 0
    assert run(["export-attention", "--run", str(run_dir), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["cluster_mass.txt", "layer0_feature.csv", "layer0_feature.svg"]
    lines = (out / "cluster_mass.txt").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("layer0_feature: ")


# -- ablate / sweep ------------------------------------------------------------------


def test_ablate_table(tmp_path):
    out = tmp_path / "abl"
    code = run(["ablate", "--out", str(out)] + set_args(["train.epochs=1", "data.days=60"]))
    assert code == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "label,IC,A_RET,SHARPE"
    assert len(lines) == 1 + 6
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == [
        "full", "no_dpgate", "no_temporal_path", "no_feature_path", "no_itblock", "no_importance",
    ]


def test_sweep_table(tmp_path):
    out = tmp_path / "sweep"
    code = run(
        ["sweep", "--out", str(out), "--layers", "1", "--heads", "2", "--dims", "8,16"]
        + set_args(["train.epochs=1", "data.days=60"])
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "n_layers,n_heads,d_model,IC,A_RET,SHARPE"
    assert len(lines) == 1 + 2


def test_sweep_bad_grid(tmp_path):
    assert run(["sweep", "--out", str(tmp_path), "--layers", "one"]) == 2


# -- helpers ------------------------------------------------------------------------


def test_heatmap_svg_well_formed():
    matrix = np.array([[0.5, 0.0], [0.25, 0.25]])
    svg = heatmap_svg(matrix, "demo")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") == 4
    assert 'fill="#ffffff"' in svg  # exact zeros stay white


def test_cluster_attention_mass_separates_block_structure():
    labels = np.array([0, 0, 1, 1])
    block = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    intra, inter = cluster_attention_mass(block, labels)
    assert intra == 0.5 and inter == 0.0
    # a side with no pairs (every cluster one node, or one cluster) has no mean
    uniform = np.full((3, 3), 1.0 / 3.0)
    assert cluster_attention_mass(uniform, np.array([0, 1, 2])) == (None, pytest.approx(1.0 / 3.0))
    assert cluster_attention_mass(uniform, np.array([0, 0, 0])) == (pytest.approx(1.0 / 3.0), None)
