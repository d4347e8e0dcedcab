"""The process pool behind every fan-out in the library.

Feature extraction over a corpus, forest fitting and the serving
tier's scoring workers all run on :class:`ProcessBackend`, a
persistent :class:`~concurrent.futures.ProcessPoolExecutor` for
CPU-bound, picklable work.  Callers ask for parallelism with a worker
count (``n_jobs`` through :func:`~repro.parallel.parallel_map`); the
default sizes the pool by :func:`available_cpus`.

The pool is created lazily on the first :meth:`ProcessBackend.map` and
kept alive until :meth:`ProcessBackend.close`, so a long-lived owner —
the serving scoring pool — pays start-up once, not per call.

When the pool cannot be created or dies (``OSError`` /
``RuntimeError``), the backend falls back to serial execution with a
single user-visible :class:`RuntimeWarning` and stays serial for its
remaining lifetime; constructing it with ``strict=True`` raises
:class:`~repro.exceptions.ParallelExecutionError` instead, for callers
that must not silently lose their parallelism.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

from ..exceptions import ParallelExecutionError, ValidationError
from ..logging_utils import get_logger

__all__ = ["ProcessBackend", "available_cpus"]

_LOG = get_logger("parallel.backend")

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs this process may run on.

    The process's CPU affinity where the platform reports it, so a job
    confined to a cpuset (a Slurm allocation, ``taskset``) sizes its
    pools by its share of the node rather than by every core on it;
    elsewhere the host's CPU count.
    """

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ProcessBackend:
    """Persistent process pool for CPU-bound, picklable work.

    Parameters
    ----------
    max_workers:
        Worker processes (default: :func:`available_cpus`).
    strict:
        When the pool cannot be created or dies, raise
        :class:`~repro.exceptions.ParallelExecutionError` instead of
        falling back to serial execution with a warning.
    initializer / initargs:
        Forwarded to :class:`concurrent.futures.ProcessPoolExecutor`:
        ``initializer(*initargs)`` runs once in every worker process
        when it starts — the hook long-lived owners (the serving
        scoring pool) use to load shared state before the first task.
    """

    def __init__(self, max_workers: int | None = None, *,
                 strict: bool = False,
                 initializer: Callable[..., None] | None = None,
                 initargs: tuple = ()) -> None:
        self._n_workers = _check_workers(max_workers)
        self.strict = bool(strict)
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._pool: ProcessPoolExecutor | None = None
        self._degraded = False

    @property
    def n_workers(self) -> int:
        """Concurrent workers (1 once degraded to serial)."""

        return 1 if self._degraded else self._n_workers

    def map(self, func: Callable[[T], R], items: Iterable[T], *,
            chunksize: int | None = None) -> list[R]:
        """Apply ``func`` to every item, returning results in input order."""

        items = list(items)
        if self._degraded:
            return [func(item) for item in items]
        if chunksize is None:
            chunksize = max(1, len(items) // (self._n_workers * 4))
        try:
            if self._pool is None:
                kwargs = {}
                if self._initializer is not None:
                    kwargs["initializer"] = self._initializer
                    kwargs["initargs"] = self._initargs
                self._pool = ProcessPoolExecutor(
                    max_workers=self._n_workers, **kwargs)
            return list(self._pool.map(func, items, chunksize=chunksize))
        except (OSError, RuntimeError) as exc:
            self._abandon_pool()
            if self.strict:
                raise ParallelExecutionError(
                    f"process pool with {self._n_workers} workers is "
                    f"unavailable: {exc}") from exc
            # One visible warning per backend: after this the backend is
            # permanently degraded to serial, so the message cannot spam.
            self._degraded = True
            warnings.warn(
                f"process pool unavailable ({exc}); running "
                f"{len(items)} items serially instead of on "
                f"{self._n_workers} workers", RuntimeWarning, stacklevel=2)
            _LOG.warning("process pool unavailable (%s); degraded to serial",
                         exc)
            return [func(item) for item in items]

    def close(self) -> None:
        """Release the pooled workers (idempotent)."""

        self._abandon_pool()

    def _abandon_pool(self) -> None:
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - shutdown is best-effort
                pass
            self._pool = None


def _check_workers(max_workers: int | None) -> int:
    if max_workers is None:
        return available_cpus()
    workers = int(max_workers)
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    return workers
