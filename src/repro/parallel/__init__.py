"""Parallel execution helpers.

HPC-style throughput matters in several places of the pipeline:
fuzzy-hash feature extraction over thousands of executables, and
fitting the many trees / grid-search candidates of the Random Forest.
Both are embarrassingly parallel, so a small, dependency-free execution
layer is enough:

* :mod:`repro.parallel.backend` — the pluggable
  :class:`~repro.parallel.backend.ExecutionBackend` abstraction
  (``serial`` / ``thread`` / ``process``, selected by an executor spec
  such as ``"process:4"`` via
  :func:`~repro.parallel.backend.resolve_backend`),
* :func:`parallel_map` — ordered map over an iterable, a thin wrapper
  selecting a backend from ``n_jobs`` or an ``executor=`` spec and
  falling back to serial execution for tiny workloads,
* :func:`effective_n_jobs` — resolve ``n_jobs``/-1 semantics,
* :mod:`repro.parallel.partition` — chunking helpers,
* :mod:`repro.parallel.timing` — lightweight throughput timers used by
  the benchmarks.
"""

from .backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from .partition import chunk_indices, partition_evenly
from .pool import effective_n_jobs, parallel_map
from .timing import Stopwatch, ThroughputReport

__all__ = [
    "parallel_map",
    "effective_n_jobs",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "BACKEND_NAMES",
    "chunk_indices",
    "partition_evenly",
    "Stopwatch",
    "ThroughputReport",
]
