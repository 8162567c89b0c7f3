"""Smoke tests for the benchmark itself: tiny runs and the result schema.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import BenchError, Recorder, SpanTable  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_benchmark_json_follows_its_schema():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(DECLARED["workloads"]) <= 8
    names = [w["name"] for w in DECLARED["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in DECLARED[group]]
        for metric in DECLARED[group]:
            assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in DECLARED["end_to_end"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    group = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for metric in group:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        # a time must be measured on every workload, never a constant 0
        if metric["unit"] in ("s", "ms") and metric["name"] != "trace.overhead_s":
            assert got["value"] > 0, metric["name"]


def test_tiny_runs_repeat_their_predictions():
    digests = []
    for _ in range(2):
        assert _run("--workload", "ref_steps", "--seed", "4", "--seconds", "0.1", "--tiny").returncode == 0
        record = json.loads((ROOT / ".perfbench" / "ref_steps-tiny-seed4-trace0.json").read_text())
        digests.append(record["digest"])
    assert digests[0] == digests[1]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "desk_epoch", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_compare_refuses_different_cpu_counts(tmp_path):
    record = {"workload": "desk_epoch", "size": "tiny", "seed": 1, "trace": 0,
              "env": {"blas_threads": 1, "nproc": 2}, "end_to_end": {"wall_s": 1.0}}
    (tmp_path / "a.json").write_text(json.dumps(record))
    record["env"]["nproc"] = 4
    (tmp_path / "b.json").write_text(json.dumps(record))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(tmp_path / "a.json"), str(tmp_path / "b.json")],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 2 and "nproc" in proc.stderr


def test_self_time_subtracts_direct_children():
    spans = [
        [0, -1, "iteration", 0.0, 10.0],
        [1, 0, "cli.train", 1.0, 7.0],
        [2, 1, "train.train_model", 2.0, 6.0],
        [3, 2, "model.forward", 2.5, 3.0],
        [4, -1, "iteration", 20.0, 25.0],
    ]
    table = SpanTable(spans)
    assert table.self_time[1] == pytest.approx(2.0)
    assert table.self_time[2] == pytest.approx(3.5)
    assert table.per_root([0, 4], "cli.train", self_only=True) == [pytest.approx(2.0), 0.0]
    assert table.count([4], "model.forward") == 0


def test_missing_site_fails_loudly():
    with pytest.raises(BenchError, match="no longer exists"):
        Recorder("t").wrap("dualpath.train:no_such_function", "x")
