"""The benchmark's workloads and the harness that times them.

All workloads are closed loops: one caller, one operation at a time, no
extra threads. Each has a set-up and a timed iteration. The iteration
repeats until the run's seconds are spent (at least `MIN_ITERATIONS`
times). The set-up is timed in `SETUP_SLOTS` slots spread over the run,
before the first iteration and after the next ones, because the speed of
a shared machine drifts over seconds; a set-up cheaper than
`SETUP_SLOT_S` repeats within its slot.

- desk_epoch: `gen-data` in set-up; the iteration is the CLI chain
  `train` (one epoch plus the validation pass) then `backtest`, at desk
  scale. Bound by Python and autograd dispatch; BLAS does little.
- ref_steps: reference-scale model (d=256, 3 layers, 4 heads) through
  `train_model` for a fixed number of day-steps and a fixed validation
  slice. Bound by GEMMs, mostly weight-gradient matmul backward.
- csv_backtest: a 200-node x 750-day panel CSV, its `config.ini` and an
  initialised `checkpoint.bin` are written in set-up; the iteration is
  `dualpath backtest` on that run. The read-only path: CSV parsing in
  `data` and no-grad inference in `model`; no backward, no optimizer.

Every day-step, scored day, CLI command and output check is one
operation; `Ops` counts those attempted and failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualpath import cli, data, train
from dualpath.model import ModelConfig, ModelParams, save_checkpoint

import golden
import micro
from spans import BenchError, Recorder, SpanTable, median_or_zero

SETUP_SLOTS = 3
SETUP_SLOT_S = 0.3
SETUP_MAX_REPS_PER_SLOT = 10
MIN_ITERATIONS = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
MICRO_BUDGET_S = {"full": 0.1, "tiny": 0.005}
REPORT_KEYS = ["IC", "PNL", "A_RET", "A_VOL", "MAXD", "SHARPE", "CALMAR", "WINR", "PL"]

# Sites wrapped only in a traced run: (import site, span name).
TRACE_SITES = (
    ("dualpath.cli:cmd_train", "cli.train"),
    ("dualpath.cli:cmd_backtest", "cli.backtest"),
    ("dualpath.cli:train_model", "train.train_model"),
    ("dualpath.cli:synth_market", "data.synth"),
    ("dualpath.cli:write_panel_csv", "data.csv_write"),
    ("dualpath.cli:load_panel_csv", "data.csv_ingest"),
    ("dualpath.cli:normalize_features", "data.normalize"),
    ("dualpath.cli:make_windows", "data.windows"),
    ("dualpath.cli:save_checkpoint", "model.ckpt_write"),
    ("dualpath.cli:load_checkpoint", "model.ckpt_read"),
    ("dualpath.train:total_loss", "loss.forward"),
    ("dualpath.train:_mean_val_metrics", "train.val"),
    ("dualpath.train:predict_scores", "train.predict_scores"),
    ("dualpath.train:run_backtest", "metrics.backtest"),
    ("dualpath.train:information_coefficient", "metrics.ic"),
    ("dualpath.metrics:information_coefficient", "metrics.ic"),
    ("dualpath.numerics:Tensor.backward", "numerics.backward"),
)


@dataclass(frozen=True)
class Size:
    nodes: int
    days: int
    features: int
    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 1
    train_steps: int = 0
    val_days: int = 0

    def model_settings(self) -> dict[str, str]:
        """The `[model]` config values the CLI runs with, pinned here so a
        change of the CLI's defaults cannot change a workload."""
        return {"lookback": "30", "horizon": "1", "d_model": str(self.d_model),
                "n_heads": str(self.n_heads), "n_layers": str(self.n_layers)}

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            n_nodes=self.nodes,
            n_features=self.features,
            lookback=30,
            horizon=1,
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_layers=self.n_layers,
        )


class Ops:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {detail}")


class DayProbe:
    """Output checks and the prediction digest, fed by the always-on sites."""

    def __init__(self, ops: Ops):
        self.ops = ops
        self.hasher = hashlib.sha256()

    def install(self, rec: Recorder) -> None:
        rec.wrap(
            "dualpath.train:forward",
            "model.forward",
            rename=lambda out: "model.forward" if out[0].requires_grad else "model.infer",
            after=self._after_forward,
        )
        rec.wrap("dualpath.train:Adam.step", "train.adam", after=self._after_step)

    def _after_forward(self, args, out) -> None:
        y_hat = out[0]
        if y_hat.requires_grad:
            return
        self.ops.record("scored day", bool(np.isfinite(y_hat.data).all()), "non-finite score")
        self.hasher.update(y_hat.data.tobytes())

    def _after_step(self, args, _) -> None:
        optimizer = args[0]
        bad = [
            name
            for name, t in optimizer.params.named().items()
            if t.grad is not None and not np.isfinite(t.grad).all()
        ]
        self.ops.record("day-step", not bad, f"non-finite gradient in {bad[:3]}")


@dataclass
class Ctx:
    work: Path
    seed: int
    size: Size
    rec: Recorder
    ops: Ops


def _cli(ctx: Ctx, label: str, argv: list) -> bool:
    """Run one `dualpath` command in-process; one operation."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
    except Exception:  # any escape from the CLI is a failed command, not a crash
        ctx.ops.record(label, False, traceback.format_exc(limit=2))
        return False
    ctx.ops.record(label, code == 0, f"exit code {code}")
    return code == 0


def _finite(value) -> bool:
    try:
        return value is not None and math.isfinite(float(value))
    except ValueError:
        return False


def _check_backtest_outputs(ctx: Ctx, run_dir: Path) -> tuple[str, float | None]:
    """report.txt keys and values, daily_returns.csv rows; returns (text, IC)."""
    text = (run_dir / "report.txt").read_text()
    pairs = [line.split("=", 1) for line in text.splitlines()]
    keys = [p[0] for p in pairs]
    ctx.ops.record("report keys", keys == REPORT_KEYS, f"got {keys}")
    values = {p[0]: p[1] for p in pairs if len(p) == 2}
    finite = all(v == "n/a" or _finite(v) for v in values.values())
    ctx.ops.record("report values finite", finite, text.replace("\n", " "))
    with open(run_dir / "daily_returns.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    ok = rows[:1] == [["day_index", "return"]] and len(rows) > 1
    ok = ok and all(len(r) == 2 and _finite(r[1]) for r in rows[1:])
    ctx.ops.record("daily returns", ok, f"{len(rows) - 1} rows")
    ic = values.get("IC")
    return text, (float(ic) if _finite(ic) else None)


class Workload:
    name: str
    sizes: dict[str, Size]
    step_kind: str  # "train": a day-step trains; "infer": a day-step scores
    golden_steps: int
    golden_days: int
    golden_csv: bool = False
    expected_spans: tuple[str, ...]
    absent_spans: tuple[str, ...] = ()

    def setup(self, ctx: Ctx):
        raise NotImplementedError

    def iterate(self, ctx: Ctx, state) -> dict:
        """One timed iteration; returns text to digest and extra outputs."""
        raise NotImplementedError


class DeskEpoch(Workload):
    name = "desk_epoch"
    sizes = {"full": Size(nodes=50, days=600, features=8), "tiny": Size(nodes=12, days=150, features=4)}
    step_kind = "train"
    golden_steps = 20
    golden_days = 10
    expected_spans = (
        "data.synth", "data.csv_write", "cli.train", "cli.backtest", "train.train_model",
        "data.csv_ingest", "data.normalize", "data.windows", "model.forward", "model.infer",
        "loss.forward", "numerics.backward", "train.adam", "train.val", "train.predict_scores",
        "metrics.backtest", "metrics.ic", "model.ckpt_write", "model.ckpt_read",
    )

    def setup(self, ctx):
        s = ctx.size
        out = ctx.work / "data"
        argv = ["gen-data", "--out", out, "--seed", ctx.seed,
                "--nodes", s.nodes, "--days", s.days, "--features", s.features]
        if not _cli(ctx, "cli gen-data", argv):
            raise BenchError(f"set-up failed: {ctx.ops.problems[-1]}")
        return out / "manifest.ini"

    def iterate(self, ctx, manifest):
        run_dir = ctx.work / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        argv = ["train", "--config", manifest, "--out", run_dir,
                "--set", "train.epochs=1", "--set", f"train.seed={ctx.seed}"]
        for key, value in ctx.size.model_settings().items():
            argv += ["--set", f"model.{key}={value}"]
        trained = _cli(ctx, "cli train", argv)
        if trained:
            records = [json.loads(line) for line in (run_dir / "runlog.jsonl").read_text().splitlines()[1:]]
            values = [r[k] for r in records for k in ("train_loss", "val_loss", "val_ic")]
            finite = len(records) == 1 and all(_finite(v) for v in values)
            ctx.ops.record("run log finite", finite, repr(values))
        if not (trained and _cli(ctx, "cli backtest", ["backtest", "--run", run_dir])):
            return {"text": "", "test_ic": None}
        text, ic = _check_backtest_outputs(ctx, run_dir)
        return {"text": text, "test_ic": ic}


class RefSteps(Workload):
    name = "ref_steps"
    sizes = {
        "full": Size(nodes=50, days=120, features=8, d_model=256, n_heads=4, n_layers=3,
                     train_steps=10, val_days=6),
        "tiny": Size(nodes=10, days=120, features=4, d_model=16, n_heads=2, n_layers=2,
                     train_steps=3, val_days=2),
    }
    step_kind = "train"
    golden_steps = 2
    golden_days = 2
    expected_spans = (
        "data.synth", "data.normalize", "data.windows", "train.train_model", "model.forward",
        "model.infer", "loss.forward", "numerics.backward", "train.adam", "train.val", "metrics.ic",
    )

    def setup(self, ctx):
        s, rec = ctx.size, ctx.rec
        with rec.span("data.synth"):
            ds = data.synth_market(n_nodes=s.nodes, n_days=s.days, n_features=s.features, seed=ctx.seed)
        split = data.SplitSpec()
        with rec.span("data.normalize"):
            dn = data.normalize_features(ds, split.resolve(ds.n_days)[0])
        cfg = s.model_config()
        with rec.span("data.windows"):
            train_samples, val_samples, _ = data.make_windows(dn, cfg.lookback, cfg.horizon, split)
        if len(train_samples) < s.train_steps or len(val_samples) < s.val_days:
            raise BenchError(f"{self.name}: panel too short for {s.train_steps}/{s.val_days} days")
        return train_samples[: s.train_steps], val_samples[: s.val_days], cfg

    def iterate(self, ctx, state):
        train_samples, val_samples, cfg = state
        try:
            with ctx.rec.span("train.train_model"):
                _, log = train.train_model(
                    train_samples, val_samples, cfg, train.TrainConfig(epochs=1, seed=ctx.seed)
                )
        except Exception:  # a failed run is counted, and the benchmark goes on
            ctx.ops.record("train_model", False, traceback.format_exc(limit=2))
            return {"text": ""}
        ctx.ops.record("train_model", True)
        last = log.records[-1]
        values = (last.train_loss, last.val_loss, last.val_ic)
        ctx.ops.record("losses finite", all(_finite(v) for v in values), repr(values))
        return {"text": repr(values)}


class CsvBacktest(Workload):
    name = "csv_backtest"
    sizes = {"full": Size(nodes=200, days=750, features=8), "tiny": Size(nodes=20, days=150, features=4)}
    step_kind = "infer"
    golden_steps = 0
    golden_days = 5
    golden_csv = True
    expected_spans = (
        "data.synth", "data.csv_write", "model.ckpt_write", "cli.backtest", "data.csv_ingest",
        "data.normalize", "data.windows", "model.ckpt_read", "model.infer", "train.predict_scores",
        "metrics.backtest", "metrics.ic",
    )
    absent_spans = ("numerics.backward", "train.adam", "model.forward", "loss.forward")

    def setup(self, ctx):
        s, rec = ctx.size, ctx.rec
        with rec.span("data.synth"):
            ds = data.synth_market(n_nodes=s.nodes, n_days=s.days, n_features=s.features, seed=ctx.seed)
        (ctx.work / "data").mkdir()
        with rec.span("data.csv_write"):
            data.write_panel_csv(ds, str(ctx.work / "data" / "panel.csv"))
        cfg = cli.load_config(None, [])
        cfg["data"].update(source="csv", csv="../data/panel.csv")
        cfg["model"].update(s.model_settings())
        run_dir = ctx.work / "run"
        run_dir.mkdir()
        cli.write_config_snapshot(cfg, str(run_dir / "config.ini"))
        params = ModelParams.init(cli.build_model_config(cfg, ds), seed=ctx.seed)
        with rec.span("model.ckpt_write"):
            save_checkpoint(str(run_dir / "checkpoint.bin"), params)
        return run_dir

    def iterate(self, ctx, run_dir):
        if not _cli(ctx, "cli backtest", ["backtest", "--run", run_dir]):
            return {"text": ""}
        text, _ = _check_backtest_outputs(ctx, run_dir)
        return {"text": text}


WORKLOADS = {wl.name: wl for wl in (DeskEpoch(), RefSteps(), CsvBacktest())}


@dataclass
class Iteration:
    root: int
    traced: bool
    wall_s: float
    digest: str
    outputs: dict = field(default_factory=dict)


def _install_trace(rec: Recorder) -> None:
    for site, name in TRACE_SITES:
        rec.wrap(site, name)

    def timed_matmul(original):
        # times the backward closure of every matmul of an N-d activation by a
        # 2-d weight: the GEMM pattern whose weight gradient ROADMAP item 2a folds
        def shim(a, b):
            out = original(a, b)
            inner = out._backward
            if inner is not None and b.ndim == 2 and a.ndim >= 3 and b.requires_grad:
                def timed(g):
                    with rec.span("numerics.matmul_wbwd"):
                        inner(g)

                out._backward = timed
            return out

        return shim

    rec.patch("dualpath.model:matmul", timed_matmul)


def _tail(per_iteration: list[list[float]]) -> tuple[float, float]:
    """Highest ladder percentile with at least 10 day-steps beyond it, and its value.

    Taken in each iteration and reported as the median over iterations,
    so one iteration hit by a burst of outside load does not set it; when
    an iteration is too short for any ladder percentile, over all steps.
    """
    def pick(n):
        return next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND), None)

    p = pick(min(map(len, per_iteration)))
    if p is not None:
        return p, statistics.median(float(np.percentile(xs, p)) for xs in per_iteration)
    pooled = [x for xs in per_iteration for x in xs]
    p = pick(len(pooled))
    return (p, float(np.percentile(pooled, p))) if p is not None else (100.0, max(pooled))


def _train_steps_s(table: SpanTable, roots: list[int]) -> list[float]:
    """Day-step durations: first grad-recording forward to the optimizer step's end."""
    roots_set = set(roots)
    events = sorted(
        table.in_roots(roots_set, "model.forward") + table.in_roots(roots_set, "train.adam"),
        key=lambda s: s[0],
    )
    out, start = [], None
    for _, _, name, t0, t1 in events:
        if name == "model.forward":
            start = t0 if start is None else start
        elif start is not None:
            out.append(t1 - start)
            start = None
    return out


def _day_steps(wl, table: SpanTable, roots: list[int]) -> list[float]:
    if wl.step_kind == "train":
        return _train_steps_s(table, roots)
    return _durations(table, roots, "model.infer")


def _durations(table: SpanTable, roots: list[int], name: str) -> list[float]:
    return [s[4] - s[3] for s in table.in_roots(set(roots), name)]


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool, out_dir: Path) -> dict:
    """Set up, time and check one workload; returns the full result record."""
    wl = WORKLOADS[name]
    size_key = "tiny" if tiny else "full"
    size = wl.sizes[size_key]
    tag = f"{name}-{size_key}-seed{seed}-trace{int(trace)}"
    work = out_dir / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    rec = Recorder(run_id=f"{tag}-{os.getpid()}-{time.time_ns()}")
    ops = Ops()
    ctx = Ctx(work=work, seed=seed, size=size, rec=rec, ops=ops)

    problems = golden.check(wl, size_key, size, work / "golden")
    ops.record("golden reference", not problems, "; ".join(problems))

    setup_s: list[float] = []
    setup_roots: list[int] = []
    traced_setup_roots: list[int] = []
    tracing = False
    reps_per_slot = SETUP_MAX_REPS_PER_SLOT

    def setup_slot(slot: int):
        """Time the set-up in its own directory; the first slot's state is used."""
        nonlocal reps_per_slot
        ctx.work = work / f"setup{slot}"
        rep = 0
        while rep < reps_per_slot:
            shutil.rmtree(ctx.work, ignore_errors=True)
            ctx.work.mkdir(parents=True)
            t0 = time.perf_counter()
            with rec.span("setup") as root:
                state = wl.setup(ctx)
            setup_s.append(time.perf_counter() - t0)
            setup_roots.append(root[0])
            if tracing:
                traced_setup_roots.append(root[0])
            if len(setup_s) == 1:
                reps_per_slot = min(reps_per_slot, math.ceil(SETUP_SLOT_S / setup_s[0]))
            rep += 1
        return state

    if trace:
        _install_trace(rec)
        tracing = True
    state = setup_slot(0)
    state_dir = ctx.work
    rec.uninstall()
    tracing = False

    probe = DayProbe(ops)
    probe.install(rec)
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(iterations) >= 1
        if traced and len(iterations) == 1:
            _install_trace(rec)
            tracing = True
        probe.hasher = hashlib.sha256()
        t0 = time.perf_counter()
        with rec.span("iteration") as root:
            outputs = wl.iterate(ctx, state)
        wall = time.perf_counter() - t0
        probe.hasher.update(outputs.pop("text").encode())
        iterations.append(Iteration(root[0], traced, wall, probe.hasher.hexdigest(), outputs))
        if len(iterations) < SETUP_SLOTS:
            setup_slot(len(iterations))
            shutil.rmtree(ctx.work)
            ctx.work = state_dir
        elapsed = time.perf_counter() - start
        if len(iterations) >= MIN_ITERATIONS and elapsed + elapsed / len(iterations) > seconds:
            break
    for slot in range(len(iterations) + 1, SETUP_SLOTS):
        setup_slot(slot)
    rec.uninstall()
    digests = sorted({it.digest for it in iterations})
    ops.record("identical predictions across iterations", len(digests) == 1, f"{len(digests)} digests")

    table = SpanTable(rec.spans)
    plain = [it for it in iterations if not it.traced]
    steps = [_day_steps(wl, table, [it.root]) for it in plain]
    infer = [_durations(table, [it.root], "model.infer") for it in plain]
    if not all(steps) or not all(infer):
        raise BenchError(f"{name}: an iteration recorded no day-steps or no scored days")
    tail_p, tail_s = _tail(steps)
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(it.wall_s for it in plain),
        "step_ms_p50": statistics.median(x for xs in steps for x in xs) * 1e3,
        "step_ms_tail": tail_s * 1e3,
        "infer_days_per_s": sum(map(len, infer)) / sum(map(sum, infer)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "failed_frac": ops.failed / ops.attempted,
        "step_tail_percentile": tail_p,
        "step_samples": sum(map(len, steps)),
        "scored_days": sum(map(len, infer)),
        "iterations": len(iterations),
        "setup_s_each": setup_s,
        "wall_s_each": [it.wall_s for it in iterations],
        "step_ms_each": [[round(x * 1e3, 4) for x in xs] for xs in steps],
    }
    if wl.step_kind == "train":
        extra["train_days_per_s"] = statistics.median(len(xs) / sum(xs) for xs in steps)
    if name == "desk_epoch":
        extra["test_ic"] = plain[0].outputs.get("test_ic")

    result = {
        "workload": name,
        "size": size_key,
        "seed": seed,
        "trace": int(trace),
        "run_id": rec.run_id,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": ops.problems,
        "digest": digests[0] if len(digests) == 1 else digests,
        "end_to_end": end_to_end,
        "extra": extra,
    }
    if trace:
        result["per_layer"] = _per_layer(
            wl, size, seed, table, iterations, traced_setup_roots, size_key, work
        )
        rec.write(str(out_dir / f"{tag}-spans.jsonl"))
    shutil.rmtree(work, ignore_errors=True)
    return result


def _per_layer(wl, size, seed, table, iterations, setup_roots, size_key, scratch: Path) -> dict:
    """Per-module figures: isolated timings at the workload's scale, and the
    traced iterations' split of wall time across modules as shares."""
    traced = [it for it in iterations if it.traced]
    roots = [it.root for it in traced]
    for span_name in wl.expected_spans:
        if table.count(roots + setup_roots, span_name) == 0:
            raise BenchError(f"{wl.name}: expected span {span_name} recorded no calls")
    for span_name in wl.absent_spans:
        if table.count(roots, span_name):
            raise BenchError(f"{wl.name}: span {span_name} should record no calls")

    def share(*names, self_only=False):
        """Median over traced iterations of the time in `names` per second of wall."""
        per_name = [table.per_root(roots, name, self_only) for name in names]
        return statistics.median(sum(t) / it.wall_s for it, t in zip(traced, zip(*per_name)))

    step_s = median_or_zero(_train_steps_s(table, roots))
    # in-place weight-matmul backward time, summed per backward pass
    per_backward: dict[int, float] = {s[0]: 0.0 for s in table.in_roots(set(roots), "numerics.backward")}
    for s in table.in_roots(set(roots), "numerics.matmul_wbwd"):
        if s[1] in per_backward:
            per_backward[s[1]] += s[4] - s[3]
    wbwd_s = median_or_zero(per_backward.values())
    ingest = _durations(table, roots, "data.csv_ingest")
    setup_wall = _durations(table, setup_roots, "setup")
    cfg = size.model_config()
    budget = MICRO_BUDGET_S[size_key]
    day = micro.day_step(cfg, seed, budget)

    return {
        "numerics.backward_ms": day["numerics.backward_ms"],
        "numerics.backward_share": share("numerics.backward"),
        "numerics.graph_nodes": micro.graph_nodes(cfg, seed),
        "numerics.matmul_wbwd_share": wbwd_s / step_s if step_s else 0.0,
        **micro.matmul_wgrad(cfg, seed, budget),
        "model.forward_ms": day["model.forward_ms"],
        "model.forward_share": share("model.forward"),
        "model.infer_ms": median_or_zero(_durations(table, roots, "model.infer")) * 1e3,
        "model.infer_share": share("model.infer"),
        **micro.stage_timings(cfg, seed, budget),
        **micro.checkpoint_ms(cfg, seed, str(scratch / "micro.bin"), budget),
        "loss.forward_ms": day["loss.forward_ms"],
        "loss.backward_ms": micro.loss_backward_ms(cfg, seed, budget),
        "loss.forward_share": share("loss.forward"),
        "train.adam_ms": day["train.adam_ms"],
        "train.adam_share": share("train.adam"),
        "train.val_share": share("train.val"),
        "train.self_share": share("train.train_model", self_only=True),
        "train.steps": median_or_zero(table.count([r], "train.adam") for r in roots),
        "data.synth_s": median_or_zero(table.per_root(setup_roots, "data.synth")),
        "data.csv_write_share": median_or_zero(
            t / w for t, w in zip(table.per_root(setup_roots, "data.csv_write"), setup_wall)
        ),
        "data.csv_ingest_share": share("data.csv_ingest"),
        "data.csv_rows_per_s": len(ingest) * size.nodes * size.days / sum(ingest) if ingest else 0.0,
        "data.normalize_share": share("data.normalize"),
        "data.windows_share": share("data.windows"),
        "metrics.backtest_ms": micro.backtest_ms(cfg, seed, budget),
        "metrics.ic_ms": median_or_zero(_durations(table, roots, "metrics.ic")) * 1e3,
        "metrics.share": share("metrics.backtest", "metrics.ic", self_only=True),
        "cli.train_share": share("cli.train"),
        "cli.backtest_share": share("cli.backtest"),
        "cli.self_share": share("cli.train", "cli.backtest", self_only=True),
        "trace.wall_s": statistics.median(it.wall_s for it in traced),
        "trace.overhead_s": statistics.median(it.wall_s for it in traced)
        - statistics.median(it.wall_s for it in iterations if not it.traced),
    }
