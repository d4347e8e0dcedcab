"""Tier-1 perf smoke for the tracing layer.

Runs ``benchmarks/bench_tracing.py`` at reduced cost so a regression
that breaks served-decision identity under tracing, stops sampling,
drops canonical stages from the attribution, or double-counts a stage
fails the default test run, not just a manually-invoked benchmark.
The 5% overhead ceiling itself is enforced by the CI benchmark job;
the smoke run uses a conservative bar so a loaded single-core CI
machine cannot flake it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / \
    "bench_tracing.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_tracing", module)
    spec.loader.exec_module(module)
    return module


def test_quick_benchmark_identity_and_attribution(bench):
    result = bench.run(n_estimators=40, n_requests=24, n_clients=4,
                       repeats=2)
    assert result.decisions_match, \
        "decisions diverged between tracing modes and direct classify_bytes"
    # Full sampling: every request (plus the warmup) must be traced.
    assert result.traces_sampled >= 24
    assert result.traces_in_ring >= 24
    assert set(bench.REQUIRED_STAGES) <= set(result.stages_observed)
    assert result.stage_sums_within_wall, \
        "a trace's stage sum exceeded its wall time (double counting)"
    # The acceptance ceiling is 5% (CI benchmark job, median of 10
    # rounds); the smoke bar is loose so scheduler noise on a busy
    # runner cannot flake tier 1 — a real hot-path regression blows
    # well past it.
    assert result.overhead <= 0.5, \
        f"tracing overhead {result.overhead * 100:.1f}% even for smoke"


def test_benchmark_cli_mode(bench, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUTPUT_DIR", tmp_path)
    code = bench.main(["--quick", "--estimators", "40", "--requests", "16",
                       "--clients", "4", "--repeats", "1",
                       "--max-overhead", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tracing throughput overhead" in out
    assert (tmp_path / "bench_tracing.txt").is_file()
    assert (tmp_path / "BENCH_tracing.json").is_file()
