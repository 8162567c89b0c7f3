"""Fixed-seed reference values that catch a changed model.

Each workload has a small reference computation at its own model
configuration: a seed-0 synthetic panel (written to CSV and read back
for `csv_backtest`), a fixed number of training day-steps (none for
`csv_backtest`, which only scores), then no-grad scores on a few test
days. Its loss, score statistics and IC are compared with the values
recorded in `golden.json`. The tolerances admit a change in rounding
order; a different model, loss or parser moves these values by far
more.

Re-record after an intended model change, and say so in the change:

    python3 perfbench/golden.py --write
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 0
GOLDEN_DAYS = 100
LOSS_RTOL = 1e-6
SCORE_RTOL = 1e-6
IC_ATOL = 1e-3


def compute(wl, size, work_dir: Path) -> dict:
    """Reference values of workload `wl` at `size` (see module docstring)."""
    import numpy as np
    from dualpath import data, train
    from dualpath.metrics import information_coefficient
    from dualpath.model import ModelParams

    ds = data.synth_market(
        n_nodes=size.nodes, n_days=GOLDEN_DAYS, n_features=size.features, seed=GOLDEN_SEED
    )
    if wl.golden_csv:
        work_dir.mkdir(parents=True, exist_ok=True)
        path = str(work_dir / "golden.csv")
        data.write_panel_csv(ds, path)
        loaded = data.load_panel_csv(path)
        os.remove(path)
        if not (
            np.array_equal(loaded.features, ds.features)
            and np.array_equal(loaded.targets, ds.targets, equal_nan=True)
        ):
            raise ValueError("CSV round trip changed the panel")
        ds = loaded
    split = data.SplitSpec()
    dn = data.normalize_features(ds, split.resolve(ds.n_days)[0])
    cfg = size.model_config()
    train_samples, _, test_samples = data.make_windows(dn, cfg.lookback, cfg.horizon, split)
    loss = None
    if wl.golden_steps:
        params, log = train.train_model(
            train_samples[: wl.golden_steps], [], cfg, train.TrainConfig(epochs=1, seed=GOLDEN_SEED)
        )
        loss = log.records[-1].train_loss
    else:
        params = ModelParams.init(cfg, seed=GOLDEN_SEED)
    days = train.predict_scores(params, cfg, test_samples[: wl.golden_days])
    scores = np.concatenate([d.scores for d in days])
    return {
        "loss": loss,
        "score_mean": float(scores.mean()),
        "score_std": float(scores.std()),
        "ic": information_coefficient(days),
    }


def check(wl, size_key: str, size, work_dir: Path) -> list[str]:
    """Problems found comparing a fresh computation with the recorded values."""
    recorded = json.loads(GOLDEN_PATH.read_text()).get(f"{wl.name}/{size_key}")
    if recorded is None:
        return [f"no golden values recorded for {wl.name}/{size_key}"]
    try:
        got = compute(wl, size, work_dir)
    except Exception as err:  # the check reports any failure as a failed operation
        return [f"reference computation raised {err!r}"]
    problems = []
    if (recorded["loss"] is None) != (got["loss"] is None) or (
        got["loss"] is not None
        and not math.isclose(got["loss"], recorded["loss"], rel_tol=LOSS_RTOL)
    ):
        problems.append(f"loss {got['loss']!r} != recorded {recorded['loss']!r}")
    scale = abs(recorded["score_mean"]) + recorded["score_std"]
    for key in ("score_mean", "score_std"):
        if not abs(got[key] - recorded[key]) <= SCORE_RTOL * scale:
            problems.append(f"{key} {got[key]!r} != recorded {recorded[key]!r}")
    if not abs(got["ic"] - recorded["ic"]) <= IC_ATOL:
        problems.append(f"ic {got['ic']!r} != recorded {recorded['ic']!r}")
    return problems


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: python3 perfbench/golden.py --write", file=sys.stderr)
        return 2
    import env

    env.pin_threads()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import workloads

    values = {}
    for wl in workloads.WORKLOADS.values():
        for size_key, size in wl.sizes.items():
            values[f"{wl.name}/{size_key}"] = compute(wl, size, root / ".perfbench" / "golden")
    GOLDEN_PATH.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH.name} with {len(values)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
