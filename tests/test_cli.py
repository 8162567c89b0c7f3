import shutil

import numpy as np
import pytest

from dualpath.cli import (
    ConfigError,
    cluster_attention_mass,
    heatmap_svg,
    load_config,
    main,
)

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


def test_backtest_missing_run_dir(tmp_path):
    assert run(["backtest", "--run", str(tmp_path / "nope")]) == 2


def test_backtest_truncated_checkpoint_exits_2(trained_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    ckpt = run_dir / "checkpoint.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    assert run(["backtest", "--run", str(run_dir), "--out", str(tmp_path / "bt")]) == 2


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
