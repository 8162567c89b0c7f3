"""Command-line pipeline: data generation, training, backtest, analysis exports.

Subcommands: gen-data, train, backtest, ablate, sweep, export-attention.
Configuration is a flat INI file with one section per module ([data],
[model], [train], [loss], [backtest]); command-line --set section.key=value
overrides win over the file, which wins over built-in desk-scale defaults.
Unknown sections, keys or flags are hard errors. Exit codes: 0 success,
2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
import numpy as np

from .data import (
    CsvSchema,
    PanelDataset,
    SplitSpec,
    cluster_labels,
    load_panel_csv,
    make_windows,
    normalize_features,
    synth_market,
    write_panel_csv,
)
from .loss import LossConfig
from .metrics import format_report
from .model import ModelConfig, forward, load_checkpoint, save_checkpoint
from .numerics import NumericError, ParameterError, ShapeError
from .train import TrainConfig, ablation_suite, evaluate, sweep, train_model


class ConfigError(ParameterError):
    """Bad configuration file, key or value."""


# Desk-scale defaults; the reference full-scale settings (d_model 256,
# 3 layers, 4 heads, window 30) remain reachable through the config file.
DEFAULTS: dict[str, dict[str, str]] = {
    "data": {
        "source": "synthetic",
        "csv": "",
        "nodes": "50",
        "days": "600",
        "features": "8",
        "clusters": "5",
        "seed": "0",
        "train_frac": "0.7",
        "val_frac": "0.15",
        "test_frac": "0.15",
    },
    "model": {
        "lookback": "30",
        "horizon": "1",
        "d_model": "32",
        "n_heads": "4",
        "n_layers": "1",
        "ffd_hidden": "auto",
        "topn_ratio": "0.1",
        "ablation": "",
    },
    "train": {
        "epochs": "30",
        "learning_rate": "0.001",
        "beta1": "0.9",
        "beta2": "0.999",
        "adam_eps": "1e-8",
        "seed": "0",
        "patience": "10",
        "accum_days": "1",
    },
    "loss": {"lambda_m": "0.1", "eps": "1e-8"},
    "backtest": {"top_frac": "0.1"},
}


def load_config(path: str | None, overrides: list[str]) -> dict[str, dict[str, str]]:
    """Merge defaults <- config file <- --set overrides, rejecting unknown keys."""
    merged = {section: dict(values) for section, values in DEFAULTS.items()}
    base_dir = "."
    if path:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
            if not read:
                raise ConfigError(f"cannot read config file {path}")
            base_dir = os.path.dirname(os.path.abspath(path))
            for section in parser.sections():
                if section not in merged:
                    raise ConfigError(f"{path}: unknown config section [{section}]")
                for key, value in parser.items(section):
                    if key not in merged[section]:
                        raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
                    merged[section][key] = value
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
        except configparser.Error as err:
            raise ConfigError(f"malformed config file {path}: {' '.join(str(err).split())}") from None
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in merged or key not in merged[section]:
            raise ConfigError(f"unknown override target {target!r}")
        merged[section][key] = value
    # materialize csv paths so config snapshots keep working from other directories
    if merged["data"]["csv"] and not os.path.isabs(merged["data"]["csv"]):
        merged["data"]["csv"] = os.path.abspath(os.path.join(base_dir, merged["data"]["csv"]))
    return merged


def _as_int(section: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}={value!r} is not an integer") from None


def _as_float(section: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}={value!r} is not a number") from None


def _parse_ablation(value: str) -> frozenset:
    """Split the comma list; ModelConfig rejects unknown flags."""
    return frozenset(f.strip() for f in value.split(",") if f.strip())


def build_dataset(cfg: dict[str, dict[str, str]]) -> PanelDataset:
    data = cfg["data"]
    source = data["source"]
    if source == "synthetic":
        return synth_market(
            n_nodes=_as_int("data", "nodes", data["nodes"]),
            n_days=_as_int("data", "days", data["days"]),
            n_features=_as_int("data", "features", data["features"]),
            n_clusters=_as_int("data", "clusters", data["clusters"]),
            seed=_as_int("data", "seed", data["seed"]),
        )
    if source == "csv":
        if not data["csv"]:
            raise ConfigError("[data] source=csv requires a csv path")
        return load_panel_csv(data["csv"], CsvSchema())
    raise ConfigError(f"[data] source must be 'synthetic' or 'csv', got {source!r}")


def build_split(cfg: dict[str, dict[str, str]]) -> SplitSpec:
    data = cfg["data"]
    return SplitSpec(
        train=_as_float("data", "train_frac", data["train_frac"]),
        val=_as_float("data", "val_frac", data["val_frac"]),
        test=_as_float("data", "test_frac", data["test_frac"]),
    )


def build_model_config(cfg: dict[str, dict[str, str]], ds: PanelDataset) -> ModelConfig:
    model = cfg["model"]
    ffd = None if model["ffd_hidden"] == "auto" else _as_int("model", "ffd_hidden", model["ffd_hidden"])
    return ModelConfig(
        n_nodes=ds.n_nodes,
        n_features=ds.n_features,
        lookback=_as_int("model", "lookback", model["lookback"]),
        horizon=_as_int("model", "horizon", model["horizon"]),
        d_model=_as_int("model", "d_model", model["d_model"]),
        n_heads=_as_int("model", "n_heads", model["n_heads"]),
        n_layers=_as_int("model", "n_layers", model["n_layers"]),
        ffd_hidden=ffd,
        topn_ratio=_as_float("model", "topn_ratio", model["topn_ratio"]),
        ablation=_parse_ablation(model["ablation"]),
    )


def build_train_config(cfg: dict[str, dict[str, str]]) -> TrainConfig:
    train = cfg["train"]
    return TrainConfig(
        epochs=_as_int("train", "epochs", train["epochs"]),
        learning_rate=_as_float("train", "learning_rate", train["learning_rate"]),
        beta1=_as_float("train", "beta1", train["beta1"]),
        beta2=_as_float("train", "beta2", train["beta2"]),
        adam_eps=_as_float("train", "adam_eps", train["adam_eps"]),
        seed=_as_int("train", "seed", train["seed"]),
        patience=_as_int("train", "patience", train["patience"]),
        accum_days=_as_int("train", "accum_days", train["accum_days"]),
    )


def build_loss_config(cfg: dict[str, dict[str, str]]) -> LossConfig:
    loss = cfg["loss"]
    return LossConfig(
        lambda_m=_as_float("loss", "lambda_m", loss["lambda_m"]),
        eps=_as_float("loss", "eps", loss["eps"]),
    )


def prepare_pipeline(cfg: dict[str, dict[str, str]]):
    """Dataset -> normalization on the train span -> chronological windows."""
    ds = build_dataset(cfg)
    split = build_split(cfg)
    n_train, _, _ = split.resolve(ds.n_days)
    ds_norm = normalize_features(ds, max(n_train, 1))
    model_cfg = build_model_config(cfg, ds_norm)
    splits = make_windows(ds_norm, model_cfg.lookback, model_cfg.horizon, split)
    return ds_norm, splits, model_cfg


def write_config_snapshot(cfg: dict[str, dict[str, str]], path: str) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    for section, values in cfg.items():
        parser.add_section(section)
        for key, value in values.items():
            parser.set(section, key, str(value))
    with open(path, "w") as fh:
        parser.write(fh)


# -- svg heatmap ---------------------------------------------------------

_RAMP = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]


def _ramp_color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    pos = v * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    frac = pos - i
    r, g, b = (
        round(a + (b_ - a) * frac) for a, b_ in zip(_RAMP[i], _RAMP[i + 1])
    )
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap_svg(matrix: np.ndarray, title: str) -> str:
    """Self-contained SVG heatmap; zero cells stay white so sparsity reads."""
    n_rows, n_cols = matrix.shape
    cell = max(4, min(14, 560 // max(n_rows, n_cols)))
    margin = 24
    width = n_cols * cell + 2 * margin
    height = n_rows * cell + 2 * margin + 12
    vmax = float(matrix.max()) if matrix.size else 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{margin}" y="16" font-family="monospace" font-size="12">{title}</text>',
    ]
    for i in range(n_rows):
        for j in range(n_cols):
            v = float(matrix[i, j])
            color = "#ffffff" if v <= 0.0 else _ramp_color(v / vmax if vmax > 0 else 0.0)
            x = margin + j * cell
            y = margin + 12 + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_matrix_csv(matrix: np.ndarray, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


def cluster_attention_mass(matrix: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean off-diagonal attention weight on same-cluster vs other-cluster pairs."""
    n = matrix.shape[0]
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    intra = matrix[same & off_diag]
    inter = matrix[~same & off_diag]
    return float(intra.mean()), float(inter.mean())


# -- subcommands ---------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.set or [])
    for key, value in (
        ("nodes", args.nodes),
        ("days", args.days),
        ("features", args.features),
        ("clusters", args.clusters),
        ("seed", args.seed),
    ):
        if value is not None:
            cfg["data"][key] = str(value)
    cfg["data"]["source"] = "synthetic"
    ds = build_dataset(cfg)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "panel.csv")
    write_panel_csv(ds, csv_path)
    manifest = {section: dict(values) for section, values in cfg.items()}
    manifest["data"]["source"] = "csv"
    manifest["data"]["csv"] = "panel.csv"
    write_config_snapshot(manifest, os.path.join(args.out, "manifest.ini"))
    print(f"wrote {csv_path} ({ds.n_days} days x {ds.n_nodes} nodes x {ds.n_features} features)")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set or [])
    ds, splits, model_cfg = prepare_pipeline(cfg)
    train_cfg = build_train_config(cfg)
    loss_cfg = build_loss_config(cfg)
    train_samples, val_samples, _ = splits
    if not train_samples:
        raise ConfigError("training split is empty; increase days or train_frac")
    params, log = train_model(train_samples, val_samples, model_cfg, train_cfg, loss_cfg)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "checkpoint.bin"), params)
    write_config_snapshot(cfg, os.path.join(args.out, "config.ini"))
    with open(os.path.join(args.out, "runlog.jsonl"), "w") as fh:
        fh.write(log.to_jsonl())
    last = log.records[-1]
    ic = "n/a" if last.val_ic is None else f"{last.val_ic:.4f}"
    print(
        f"trained {len(log.records)} epochs on {len(train_samples)} day-samples; "
        f"final train loss {last.train_loss:.4f}, val IC {ic}"
    )
    print(f"checkpoint: {os.path.join(args.out, 'checkpoint.bin')}")
    return 0


def _load_run(run_dir: str):
    config_path = os.path.join(run_dir, "config.ini")
    checkpoint_path = os.path.join(run_dir, "checkpoint.bin")
    if not os.path.exists(config_path) or not os.path.exists(checkpoint_path):
        raise ConfigError(f"{run_dir} must contain config.ini and checkpoint.bin")
    cfg = load_config(config_path, [])
    ds, splits, model_cfg = prepare_pipeline(cfg)
    params = load_checkpoint(checkpoint_path, model_cfg)
    return cfg, ds, splits, model_cfg, params


def cmd_backtest(args) -> int:
    cfg, _, splits, model_cfg, params = _load_run(args.run)
    _, _, test_samples = splits
    if not test_samples:
        raise ConfigError("test split is empty; nothing to backtest")
    top_frac = _as_float("backtest", "top_frac", cfg["backtest"]["top_frac"])
    report = evaluate(params, model_cfg, test_samples, top_frac)
    out_dir = args.out or args.run
    os.makedirs(out_dir, exist_ok=True)
    text = format_report(report)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(text)
    with open(os.path.join(out_dir, "daily_returns.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["day_index", "return"])
        for sample, value in zip(test_samples, report.daily_returns):
            writer.writerow([sample.day_index, repr(float(value))])
    sys.stdout.write(text)
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.set or [])
    _, splits, model_cfg = prepare_pipeline(cfg)
    if model_cfg.ablation:
        raise ConfigError("ablate starts from the full model; clear [model] ablation")
    rows = ablation_suite(
        splits,
        model_cfg,
        build_train_config(cfg),
        build_loss_config(cfg),
        top_frac=_as_float("backtest", "top_frac", cfg["backtest"]["top_frac"]),
    )
    _write_table(os.path.join(args.out, "ablation.csv"), rows, ["label", "IC", "A_RET", "SHARPE"])
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set or [])
    _, splits, model_cfg = prepare_pipeline(cfg)
    rows = sweep(
        splits,
        model_cfg,
        layer_grid=_parse_grid(args.layers, "layers"),
        head_grid=_parse_grid(args.heads, "heads"),
        dim_grid=_parse_grid(args.dims, "dims"),
        train_cfg=build_train_config(cfg),
        loss_cfg=build_loss_config(cfg),
        top_frac=_as_float("backtest", "top_frac", cfg["backtest"]["top_frac"]),
    )
    columns = ["n_layers", "n_heads", "d_model", "IC", "A_RET", "SHARPE"]
    _write_table(os.path.join(args.out, "sweep.csv"), rows, columns)
    return 0


def cmd_export_attention(args) -> int:
    cfg, ds, splits, model_cfg, params = _load_run(args.run)
    samples = [s for part in splits for s in part]
    if not samples:
        raise ConfigError("no eligible sample days to export attention for")
    if args.day is not None:
        matching = [s for s in samples if s.day_index == args.day]
        if not matching:
            raise ConfigError(f"no sample anchored at day {args.day}")
        sample = matching[0]
    else:
        sample = samples[-1]
    _, maps = forward(sample.x, params.detached(), model_cfg)

    os.makedirs(args.out, exist_ok=True)
    exported = []
    for layer, (feat, temp) in enumerate(zip(maps.feature, maps.temporal)):
        for path_name, matrix in (("feature", feat), ("temporal", temp)):
            if matrix is None:
                continue
            stem = os.path.join(args.out, f"layer{layer}_{path_name}")
            write_matrix_csv(matrix, stem + ".csv")
            with open(stem + ".svg", "w") as fh:
                fh.write(heatmap_svg(matrix, f"layer {layer} {path_name} path (day {sample.day_index})"))
            exported.append((layer, path_name, matrix))
    print(f"exported {len(exported)} attention matrices for day {sample.day_index}")

    labels = cluster_labels(ds.node_ids)
    if labels is not None:
        lines = []
        for layer, path_name, matrix in exported:
            intra, inter = cluster_attention_mass(matrix, labels)
            ratio = intra / inter if inter > 0 else float("inf")
            lines.append(
                f"layer{layer}_{path_name}: intra={intra!r} inter={inter!r} ratio={ratio:.3f}"
            )
        summary = "\n".join(lines) + "\n"
        with open(os.path.join(args.out, "cluster_mass.txt"), "w") as fh:
            fh.write(summary)
        sys.stdout.write(summary)
    return 0


def _parse_grid(text: str, name: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--{name} must be a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ConfigError(f"--{name} must name at least one value")
    return values


def _write_table(path: str, rows: list[dict], columns: list[str]) -> None:
    """Write the result rows as CSV to `path` and print them as a table."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
    _print_table(rows, columns)


def _cell(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _print_table(rows: list[dict], columns: list[str]) -> None:
    def fmt(value):
        if value is None:
            return "n/a"
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    widths = [
        max(len(c), max((len(fmt(row[c])) for row in rows), default=0)) for c in columns
    ]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for row in rows:
        print("  ".join(fmt(row[c]).ljust(w) for c, w in zip(columns, widths)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualpath",
        description="Dual-path inverted-transformer stock panel forecaster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file (sections per module)")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override a config value; repeatable",
        )

    p = sub.add_parser("gen-data", help="generate a synthetic panel CSV plus manifest")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--nodes", type=int, help="number of nodes")
    p.add_argument("--days", type=int, help="number of days")
    p.add_argument("--features", type=int, help="number of features")
    p.add_argument("--clusters", type=int, help="number of latent clusters")
    p.add_argument("--seed", type=int, help="generator seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write checkpoint + run log")
    common(p)
    p.add_argument("--out", required=True, help="output directory for run artifacts")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backtest", help="evaluate a trained run on its test span")
    p.add_argument("--run", required=True, help="directory with checkpoint.bin and config.ini")
    p.add_argument("--out", help="output directory (defaults to the run directory)")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("ablate", help="train/evaluate the full model and all ablations")
    common(p)
    p.add_argument("--out", required=True, help="output directory for the comparison table")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="grid sweep over layers, heads and model width")
    common(p)
    p.add_argument("--out", required=True, help="output directory for the results table")
    p.add_argument("--layers", default="1,2,3", help="comma list of layer counts")
    p.add_argument("--heads", default="2,4", help="comma list of head counts")
    p.add_argument("--dims", default="32,64", help="comma list of model widths")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-attention", help="dump per-layer attention matrices and heatmaps")
    p.add_argument("--run", required=True, help="directory with checkpoint.bin and config.ini")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--day", type=int, help="anchor day to visualize (default: last sample)")
    p.set_defaults(func=cmd_export_attention)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, ShapeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
