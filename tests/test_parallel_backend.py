"""Tests for the process pool and the ``parallel_map`` fallback semantics
(the silent-fallback bugfix: pool failure must emit a user-visible
warning, and ``strict=True`` must raise instead)."""

import inspect
import os
import warnings

import pytest

import repro.parallel
from repro.exceptions import ParallelExecutionError, ValidationError
from repro.parallel import parallel_map
from repro.parallel.backend import ProcessBackend, available_cpus
from repro.parallel.pool import effective_n_jobs


def _square(x):
    return x * x


def _pretend_cpus(monkeypatch, n):
    """Make :func:`available_cpus` report ``n`` CPUs on any platform."""

    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


# ------------------------------------------------------------- the one pool
def test_process_backend_map_preserves_order():
    backend = ProcessBackend(2)
    try:
        assert backend.map(_square, range(40)) == [x * x for x in range(40)]
    finally:
        backend.close()


def test_process_backend_pool_is_lazy_persistent_and_closes():
    backend = ProcessBackend(2)
    assert backend._pool is None            # nothing forked until first map
    assert backend.map(_square, [1, 2]) == [1, 4]
    pool = backend._pool
    assert pool is not None
    assert backend.map(_square, [3]) == [9]
    assert backend._pool is pool            # reused, not rebuilt
    backend.close()
    assert backend._pool is None
    backend.close()                         # idempotent


@pytest.mark.parametrize("workers", [0, -1])
def test_process_backend_rejects_non_positive_worker_counts(workers):
    with pytest.raises(ValidationError):
        ProcessBackend(workers)


def test_executor_spec_layer_is_gone():
    for name in ("ExecutionBackend", "SerialBackend", "ThreadBackend",
                 "resolve_backend", "BACKEND_NAMES", "chunk_indices",
                 "ThroughputReport"):
        assert not hasattr(repro.parallel, name), name
    params = inspect.signature(parallel_map).parameters
    assert "executor" not in params and "strict" not in params


# ------------------------------------------------- CPUs this process may use
def test_pools_are_sized_by_cpu_affinity_not_host_cpu_count(monkeypatch):
    # A cpuset (Slurm, taskset) confines the process to fewer CPUs than
    # the host has; -1 and the default pool size must follow the mask.
    monkeypatch.setattr(os, "cpu_count", lambda: 128)
    _pretend_cpus(monkeypatch, 3)
    assert available_cpus() == 3
    assert effective_n_jobs(-1) == 3
    assert effective_n_jobs(-2) == 2
    assert effective_n_jobs(64) == 3
    assert ProcessBackend().n_workers == 3


def test_available_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert available_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cpus() == 1


# ----------------------------------------------- fallback warning + strict
def _broken_pool(monkeypatch):
    class BrokenExecutor:
        def __init__(self, max_workers=None):
            raise OSError("no processes for you")

    import repro.parallel.backend as backend_module

    monkeypatch.setattr(backend_module, "ProcessPoolExecutor", BrokenExecutor)
    # effective_n_jobs clamps to the CPUs this process may use; pretend
    # there are four so the n_jobs path actually reaches the (broken)
    # pool even on a single-core test machine.
    _pretend_cpus(monkeypatch, 4)


def test_pool_failure_emits_visible_warning_and_falls_back(monkeypatch):
    _broken_pool(monkeypatch)
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        result = parallel_map(_square, list(range(16)), n_jobs=2,
                              min_items_per_worker=1)
    assert result == [x * x for x in range(16)]


def test_parallel_map_small_workload_never_creates_a_pool(monkeypatch):
    # Below min_items_per_worker the map must not touch the pool at all:
    # the broken pool would warn if it were ever constructed.
    _broken_pool(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parallel_map(_square, list(range(7)), n_jobs=2,
                            min_items_per_worker=4) == \
            [x * x for x in range(7)]


def test_degraded_backend_warns_once_then_stays_serial(monkeypatch):
    _broken_pool(monkeypatch)
    backend = ProcessBackend(2)
    with pytest.warns(RuntimeWarning):
        assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert backend.n_workers == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # a second warning would raise
        assert backend.map(_square, [4]) == [16]


def test_strict_pool_failure_raises(monkeypatch):
    _broken_pool(monkeypatch)
    backend = ProcessBackend(2, strict=True)
    with pytest.raises(ParallelExecutionError, match="unavailable"):
        backend.map(_square, list(range(16)))
