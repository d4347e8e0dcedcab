"""Parallel execution helpers.

HPC-style throughput matters in several places of the pipeline:
fuzzy-hash feature extraction over thousands of executables, and
fitting the many trees / grid-search candidates of the Random Forest.
Both are embarrassingly parallel, so a small, dependency-free execution
layer is enough, with one knob: a worker count, ``n_jobs`` (the CLI's
``--jobs N``).

* :func:`parallel_map` — ordered map over an iterable on ``n_jobs``
  worker processes, running serially for ``n_jobs=1`` and for tiny
  workloads,
* :func:`effective_n_jobs` — resolve ``n_jobs``/-1 semantics against
  the CPUs this process may run on,
* :class:`ProcessBackend` — the persistent process pool underneath,
  with a one-warning serial fallback (:mod:`repro.parallel.backend`),
* :func:`partition_evenly` — contiguous near-equal work splits,
* :class:`Stopwatch` — the named-lap timer behind stage timings.
"""

from .backend import ProcessBackend
from .partition import partition_evenly
from .pool import effective_n_jobs, parallel_map
from .timing import Stopwatch

__all__ = [
    "parallel_map",
    "effective_n_jobs",
    "ProcessBackend",
    "partition_evenly",
    "Stopwatch",
]
