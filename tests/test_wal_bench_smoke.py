"""Tier-1 durability smoke for the write-ahead log.

Runs ``benchmarks/bench_wal.py`` at reduced cost so a regression that
loses an acknowledged ingest across a SIGKILL or duplicates one on
replay fails the default test run, not just a manually-invoked
benchmark.  The group-commit speedup floor needs the full-cost
configuration to be stable, so it is checked there: in the ``slow``
test below (``pytest -m slow`` opts in) and by CI's
``scripts/smoke_wal_bench.sh --min-speedup 3`` step.
"""

import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest

_BENCH_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / \
    "bench_wal.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_wal", _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_wal", module)
    spec.loader.exec_module(module)
    return module


def test_group_commit_beats_per_record_fsync(bench):
    with tempfile.TemporaryDirectory() as tmp:
        per_record_seconds, group_seconds = bench.run_append_phases(
            192, 16, tmp)
    # No speedup floor here: 192 records take ~30 ms, short enough for
    # a loaded machine to push the ratio under any useful floor.
    assert group_seconds > 0 and per_record_seconds > 0


def test_crash_after_ack_loses_nothing(bench):
    with tempfile.TemporaryDirectory() as tmp:
        acked, recovered, duplicates = bench.run_crash_after_ack(
            3, tmp, seed=7)
    assert acked > 0
    assert recovered == acked, \
        f"SIGKILL after ack lost {acked - recovered} of {acked} ingests"
    assert duplicates == 0, \
        f"recovery duplicated {duplicates} acked ingests"


def test_benchmark_cli_mode(bench, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUTPUT_DIR", tmp_path)
    code = bench.main(["--quick", "--records", "96", "--min-speedup", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "group-commit speedup" in out
    assert (tmp_path / "bench_wal.txt").is_file()
    assert (tmp_path / "BENCH_wal.json").is_file()


@pytest.mark.slow
def test_full_benchmark_meets_speedup_floor(bench):
    """The full configuration: 768 records plus the crash check, and
    group commit >=3x faster than per-record fsync."""

    result = bench.run(768, 16, 4, True)
    assert result.speedup >= 3.0, \
        f"group commit only {result.speedup:.2f}x faster than per-record fsync"
    assert result.crash_durable
