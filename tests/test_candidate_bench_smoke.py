"""Tier-1 smoke for the candidate-generation benchmark.

Runs ``benchmarks/bench_candidate_gen.py`` at a small scale so a
regression that breaks the array-postings/legacy result identity fails
the default test run.  Tier 1 asserts no timing: the quick corpus times
a few milliseconds, which a loaded machine cannot measure reliably.
The ≥3x candidate-generation / ≥1.5x top_k floors are the benchmark's
own defaults, checked by its CI step and by the ``slow`` test
(``pytest -m slow`` opts in).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / \
    "bench_candidate_gen.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_candidate_gen",
                                                  _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_candidate_gen", module)
    spec.loader.exec_module(module)
    return module


def test_quick_benchmark_results_are_bit_identical(bench):
    result = bench.run(500, 6)
    assert result.results_match, \
        "array-postings results diverged from the legacy reference"


def test_benchmark_cli_quick_mode(bench, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUTPUT_DIR", tmp_path)
    code = bench.main(["--quick", "--corpus", "300", "--queries", "4",
                       "--min-candidate-speedup", "0",
                       "--min-topk-speedup", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bit-identical" in out
    assert (tmp_path / "bench_candidate_gen.txt").is_file()
    assert (tmp_path / "BENCH_candidate_gen.json").is_file()


def test_benchmark_trajectory_records_ratios(bench, tmp_path, monkeypatch):
    import json

    monkeypatch.setattr(bench, "OUTPUT_DIR", tmp_path)
    code = bench.main(["--quick", "--corpus", "300", "--queries", "3",
                       "--min-candidate-speedup", "0",
                       "--min-topk-speedup", "0"])
    assert code == 0
    trajectory = json.loads(
        (tmp_path / "BENCH_candidate_gen.json").read_text(encoding="utf-8"))
    for key in ("collect_speedup", "topk_speedup", "peak_memory_ratio",
                "resident_memory_ratio", "results_match"):
        assert key in trajectory
    assert trajectory["results_match"] is True


@pytest.mark.slow
def test_full_benchmark_meets_acceptance_floors(bench):
    """The acceptance configuration: >=3x candidate gen, >=1.5x top_k,
    bit-identical results, and a peak-memory reduction."""

    result = bench.run(8000, 30)
    assert result.results_match
    assert result.collect_speedup >= 3.0
    assert result.topk_speedup >= 1.5
    assert result.peak_memory_ratio > 1.0
    assert result.resident_memory_ratio > 1.0
