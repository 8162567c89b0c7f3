"""Entry point of the dualpath benchmark.

    python3 perfbench/run.py --workload desk_epoch --seed 1 --seconds 30 --trace 0

Runs one workload (see `workloads.py`) in this process with BLAS and
OpenMP pinned to one thread, prints a human-readable summary and, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` metrics of
BENCHMARK.json; with `--trace 1` they are its `per_layer` metrics. The
full record (environment, extra figures, failures) is written to
`.perfbench/<workload>-<size>-seed<n>-trace<t>.json` at the checkout
root. `--workload all` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import env
from spans import BenchError

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("desk_epoch", "ref_steps", "csv_backtest")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process; stream their output, fail if any does."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dualpath" / "__init__.py").is_file():
        print(f"error: no dualpath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    threads = env.pin_threads()  # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[group]}

    environment = env.describe()
    if environment["blas_threads_runtime"] not in (None, threads):
        raise BenchError(f"BLAS runs {environment['blas_threads_runtime']} threads, pinned {threads}")
    OUT_DIR.mkdir(exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, OUT_DIR)
    result["env"] = environment
    values = result["per_layer" if args.trace else "end_to_end"]
    if values.keys() != units.keys():
        raise BenchError(
            f"metrics differ from BENCHMARK.json {group}: "
            f"missing {sorted(units.keys() - values.keys())}, extra {sorted(values.keys() - units.keys())}"
        )
    path = OUT_DIR / f"{args.workload}-{result['size']}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} ({result['size']}) seed {args.seed} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment.items()))
    for name, value in values.items():
        note = ""
        if name == "step_ms_tail":
            extra = result["extra"]
            note = f"  (p{extra['step_tail_percentile']:g} of {extra['step_samples']} day-steps)"
        print(f"  {name:34s} {_fmt(value):>14s} {units[name]}{note}")
    if not args.trace:
        extra = result["extra"]
        print(f"  {'failed_frac':34s} {_fmt(extra['failed_frac']):>14s} "
              f"(of {result['attempted']} operations)")
        for name, unit in (("train_days_per_s", "days/s"), ("test_ic", "IC")):
            if name in extra:
                print(f"  {name:34s} {_fmt(extra[name]):>14s} {unit}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
