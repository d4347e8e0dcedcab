"""Tiny-size smoke runs of every workload, end to end.

Each run trains on the ``small`` corpus preset, serves it and drives it
for two seconds, so the whole file takes well under a minute.  Run with
``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers, workloads  # noqa: E402


def _run(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--scale", "small"],
        cwd=root, capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result(_run(workload, 0))
    assert set(result["metrics"]) == set(workloads.E2E_METRICS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == workloads.E2E_METRICS[name][0]
        assert metric["value"] > 0, name
    assert result["failed"] == 0


def test_per_layer_metrics():
    result = _result(_run("classify-repeat", 1))
    assert set(result["metrics"]) == set(layers.LAYER_METRICS)
    assert result["metrics"]["serving.trace_join_ratio"]["value"] == 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in spec["end_to_end"]}
    assert e2e == workloads.E2E_METRICS
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in spec["per_layer"]}
    assert per_layer == {name: spec[:2]
                         for name, spec in layers.LAYER_METRICS.items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("classify-unique", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
