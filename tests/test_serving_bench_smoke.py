"""Tier-1 perf smoke for the serving tier.

Runs ``benchmarks/bench_serving.py`` at reduced cost so a regression
that breaks served-decision identity — or erodes the request-coalescing
advantage — fails the default test run, not just a manually-invoked
benchmark.  The acceptance-floor configuration (16 clients, >=2x) is
marked ``slow`` (``pytest -m slow`` opts in).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / \
    "bench_serving.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_serving",
                                                  _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_serving", module)
    spec.loader.exec_module(module)
    return module


def test_quick_benchmark_identity_and_coalescing_speedup(bench):
    result = bench.run(n_estimators=40, n_requests=32, n_clients=8)
    assert result.decisions_match, \
        "served decisions diverged from direct classify_bytes"
    # Both serving runs (sequential + coalesced) plus the warmup hit
    # the latency histogram, and its quantiles must be ordered.
    assert result.latency_count >= 64
    assert result.latency_p50 <= result.latency_p95 <= result.latency_p99
    # One client waits for each answer, so every request is its own
    # model pass; the pass ratio counts what coalescing shares.
    assert result.sequential_passes == 32
    # The full benchmark enforces the >=2x acceptance floor at 16
    # clients; the smoke run uses 8 clients and a lower bar.
    assert result.pass_ratio >= 1.3, \
        f"coalescing shared only {result.pass_ratio:.2f}x fewer model passes"


def test_benchmark_cli_mode(bench, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUTPUT_DIR", tmp_path)
    code = bench.main(["--quick", "--estimators", "40", "--requests", "24",
                       "--clients", "8", "--min-pass-ratio", "1.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "coalesced pass ratio" in out
    assert "coalesced throughput speedup" in out
    assert (tmp_path / "bench_serving.txt").is_file()
    assert (tmp_path / "BENCH_serving.json").is_file()


def test_quick_benchmark_worker_mode_identity(bench):
    """score_workers decisions are bit-identical, whatever the cores."""

    result = bench.run(n_estimators=40, n_requests=24, n_clients=4,
                       score_workers=2)
    assert result.decisions_match
    assert result.worker_decisions_match, \
        "multi-worker decisions diverged from direct classify_bytes"
    assert result.worker_batches >= 1, \
        "the scoring worker pool drained no micro-batches"


@pytest.mark.slow
def test_full_benchmark_meets_acceptance_floor(bench):
    """The acceptance-criterion configuration: 16 clients, >=2x."""

    result = bench.run(n_estimators=60, n_requests=96, n_clients=16)
    assert result.decisions_match
    assert result.pass_ratio >= 2.0


@pytest.mark.slow
@pytest.mark.skipif((__import__("os").cpu_count() or 1) < 4,
                    reason="the >=2x multi-worker floor needs >=4 cores "
                           "(scoring is CPU-bound)")
def test_full_worker_benchmark_meets_acceptance_floor(bench):
    """The multi-process acceptance configuration: 4 workers, 16
    clients, >=2x the single-process coalesced throughput."""

    result = bench.run(n_estimators=60, n_requests=96, n_clients=16,
                       score_workers=4)
    assert result.worker_decisions_match
    assert result.worker_speedup >= 2.0
