"""Tests for the parallel execution helpers."""

import pytest

from repro.exceptions import ValidationError
from repro.parallel.backend import available_cpus
from repro.parallel.partition import partition_evenly
from repro.parallel.pool import effective_n_jobs, parallel_map
from repro.parallel.timing import Stopwatch


def _square(x):
    return x * x


def test_effective_n_jobs_semantics():
    cpus = available_cpus()
    assert effective_n_jobs(None) == 1
    assert effective_n_jobs(1) == 1
    assert effective_n_jobs(0) == 1
    assert effective_n_jobs(-1) == cpus
    assert effective_n_jobs(10_000) == cpus
    assert effective_n_jobs(2) == min(2, cpus)


def test_parallel_map_serial_path_preserves_order():
    items = list(range(50))
    assert parallel_map(_square, items, n_jobs=1) == [x * x for x in items]


def test_parallel_map_process_path_preserves_order():
    items = list(range(64))
    result = parallel_map(_square, items, n_jobs=2, min_items_per_worker=1)
    assert result == [x * x for x in items]


def test_parallel_map_small_workload_stays_serial():
    # With a high min_items_per_worker the pool should not be used; the
    # result must still be correct.
    items = [1, 2, 3]
    assert parallel_map(_square, items, n_jobs=8, min_items_per_worker=100) == [1, 4, 9]


def test_parallel_map_empty_input():
    assert parallel_map(_square, [], n_jobs=4) == []


def test_partition_evenly():
    parts = partition_evenly(list(range(10)), 3)
    assert len(parts) == 3
    assert sum(len(p) for p in parts) == 10
    assert max(len(p) for p in parts) - min(len(p) for p in parts) <= 1
    flat = [x for part in parts for x in part]
    assert flat == list(range(10))
    with pytest.raises(ValidationError):
        partition_evenly([1], 0)


def test_partition_more_parts_than_items():
    parts = partition_evenly([1, 2], 5)
    assert sum(len(p) for p in parts) == 2
    assert len(parts) == 5


def test_stopwatch_accumulates_laps():
    watch = Stopwatch()
    watch.start("a")
    watch.start("b")       # implicitly stops "a"
    watch.stop()
    laps = watch.laps
    assert set(laps) == {"a", "b"}
    assert all(v >= 0 for v in laps.values())
    assert watch.total() == pytest.approx(sum(laps.values()))
    assert "total" in watch.report()
