"""Ordered map over a process pool, sized by ``n_jobs``.

:func:`parallel_map` is the one way the library asks for parallelism,
and it keeps the conservative semantics every internal caller relies
on:

* results are returned in input order regardless of completion order,
* ``n_jobs=1`` (the default everywhere) never spawns workers, so
  library users only pay for parallelism when they ask for it,
* workloads smaller than ``min_items_per_worker`` per worker run
  serially — for small inputs worker start-up costs more than it saves
  (a point the scientific-Python optimisation guides make repeatedly:
  measure, and do not parallelise tiny work).

Larger workloads run on a :class:`~repro.parallel.backend.ProcessBackend`
created for the call and closed after it.  When that pool cannot be
created the map falls back to serial execution with a single
user-visible :class:`RuntimeWarning`.

Functions must be picklable (module-level functions), which every
internal caller honours.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from ..logging_utils import get_logger
from .backend import ProcessBackend, available_cpus

__all__ = ["effective_n_jobs", "parallel_map"]

_LOG = get_logger("parallel.pool")

T = TypeVar("T")
R = TypeVar("R")


def effective_n_jobs(n_jobs: int | None) -> int:
    """Resolve an ``n_jobs`` request to a concrete worker count.

    ``None`` and ``1`` mean serial execution; ``-1`` means one worker
    per CPU this process may run on (:func:`available_cpus`); other
    negative values follow the joblib convention
    ``cpus + 1 + n_jobs``.  Requests are capped at that CPU count.
    """

    cpus = available_cpus()
    if n_jobs is None or n_jobs == 0 or n_jobs == 1:
        return 1
    if n_jobs < 0:
        return max(1, cpus + 1 + n_jobs)
    return min(int(n_jobs), cpus)


def parallel_map(func: Callable[[T], R], items: Iterable[T], *,
                 n_jobs: int | None = 1, chunksize: int | None = None,
                 min_items_per_worker: int = 2) -> list[R]:
    """Apply ``func`` to every item, preserving order.

    Parameters
    ----------
    func:
        A picklable callable.
    items:
        The work items (materialised to a list).
    n_jobs:
        Worker processes; see :func:`effective_n_jobs`.
    chunksize:
        Items sent to a worker per task; defaults to an even split.
    min_items_per_worker:
        Run serially unless every worker would receive at least this
        many items.
    """

    items = list(items)
    workers = effective_n_jobs(n_jobs)
    if workers <= 1 or len(items) < workers * min_items_per_worker:
        return [func(item) for item in items]
    _LOG.debug("parallel_map: %d items on %d workers", len(items), workers)
    backend = ProcessBackend(workers)
    try:
        return backend.map(func, items, chunksize=chunksize)
    finally:
        backend.close()
