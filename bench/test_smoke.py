"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q bench/test_smoke.py

Every workload runs once untraced and twice traced with `--tiny`. Each run
must emit exactly the metrics BENCHMARK.json names, answer every question
correctly (failed_frac = 1 - ok_frac = 0), and two traced runs of one seed
must give identical work counts. A copy holding only the benchmark files
must refuse to run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import WORKLOADS  # noqa: E402
from tracer import WORK_COUNTS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    res = _result(_run(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert res["metrics"]["ok_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_work_counts(workload):
    first, second = _result(_run(workload, 1)), _result(_run(workload, 1))
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    counts = [{k: r["metrics"][k]["value"] for k in WORK_COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
