"""Compare benchmark records of two commits, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files written by run.py, or directories of
them. Records are grouped by workload, size and trace mode, and each
side's median is printed with the relative change. Records whose BLAS
thread count or CPU count differ are refused, because their timings are
not comparable. Where both sides ran the same workload and seed, their
prediction digests and `test_ic` are compared too: equal digests mean
the same outputs, and a `test_ic` that moves by more than
`TEST_IC_ATOL` means the model changed, not only its rounding.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

TEST_IC_ATOL = 0.02
ENV_KEYS = ("blas_threads", "nproc")


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def env_mismatch(base: list[dict], new: list[dict]) -> list[str]:
    seen = defaultdict(set)
    for rec in base + new:
        for key in ENV_KEYS:
            seen[key].add(rec["env"][key])
    return [f"{key} differs: {sorted(values)}" for key, values in seen.items() if len(values) > 1]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = (load(Path(p)) for p in argv)
    if not base or not new:
        print("error: no records found", file=sys.stderr)
        return 2
    problems = env_mismatch(base, new)
    if problems:
        print("refusing to compare: " + "; ".join(problems), file=sys.stderr)
        return 2

    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    groups: dict[tuple, tuple[list, list]] = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, new)):
        for rec in records:
            groups[(rec["workload"], rec["size"], rec["trace"])][side].append(rec)

    for (workload, size, trace), (a, b) in sorted(groups.items()):
        if not a or not b:
            continue
        key = "per_layer" if trace else "end_to_end"
        print(f"{workload} ({size}, trace {trace}): {len(a)} base runs, {len(b)} new runs")
        for name in a[0][key]:
            va = statistics.median(r[key][name] for r in a)
            vb = statistics.median(r[key][name] for r in b)
            change = f"{(vb - va) / va:+.1%}" if va else "n/a"
            unit, better = meta[name]["unit"], meta[name]["better"]
            print(f"  {name:34s} {va:12.6g} -> {vb:12.6g} {unit:8s} {change:>8s} ({better} is better)")
        by_seed = {r["seed"]: r for r in a}
        for rec in b:
            old = by_seed.get(rec["seed"])
            if old is None:
                continue
            if old["digest"] != rec["digest"]:
                print(f"  seed {rec['seed']}: prediction digests differ")
            ic_a, ic_b = old["extra"].get("test_ic"), rec["extra"].get("test_ic")
            if ic_a is not None and ic_b is not None and abs(ic_a - ic_b) > TEST_IC_ATOL:
                print(f"  seed {rec['seed']}: test_ic {ic_a:.4f} -> {ic_b:.4f}, the model changed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
