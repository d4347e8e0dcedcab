"""Pluggable execution backends.

Every fan-out in the library — feature extraction over a corpus,
forest fitting, batched classification — runs through one
:class:`ExecutionBackend`:

* :class:`SerialBackend` — in-process, zero overhead (the default
  everywhere; library users only pay for parallelism they asked for);
* :class:`ThreadBackend` — a persistent :class:`ThreadPoolExecutor`;
  useful when the workload releases the GIL (NumPy inner loops, I/O);
* :class:`ProcessBackend` — a persistent :class:`ProcessPoolExecutor`
  for CPU-bound Python work; functions and items must be picklable.

Backends are selected by an *executor spec* string —
``"serial"``, ``"thread"``, ``"thread:4"``, ``"process"``,
``"process:8"`` — via :func:`resolve_backend`, which also accepts an
already-constructed backend (returned as-is) and ``None`` (serial).
A bare ``thread``/``process`` spec sizes the pool to the CPU count; an
explicit ``:N`` is honoured as requested.

Pools are created lazily on first :meth:`ExecutionBackend.map` and kept
alive until :meth:`ExecutionBackend.close` (backends are context
managers), so a long-lived owner — e.g. a classification service
extracting many batches — pays pool start-up once, not per call.

When a process pool cannot be created or dies (``OSError`` /
``RuntimeError``), :class:`ProcessBackend` falls back to serial
execution with a single user-visible :class:`RuntimeWarning` and stays
serial for its remaining lifetime; constructing it with ``strict=True``
raises :class:`~repro.exceptions.ParallelExecutionError` instead, for
callers that must not silently lose their parallelism.
"""

from __future__ import annotations

import os
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

from ..exceptions import ParallelExecutionError, ValidationError
from ..logging_utils import get_logger

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "BACKEND_NAMES",
]

_LOG = get_logger("parallel.backend")

T = TypeVar("T")
R = TypeVar("R")

#: Executor spec names understood by :func:`resolve_backend`.
BACKEND_NAMES = ("serial", "thread", "process")


class ExecutionBackend(ABC):
    """Ordered map over items, with a pluggable execution strategy."""

    #: Spec name of the backend family (``serial``/``thread``/``process``).
    name: str = "abstract"

    @property
    @abstractmethod
    def n_workers(self) -> int:
        """Concurrent workers this backend runs (1 for serial)."""

    @abstractmethod
    def map(self, func: Callable[[T], R], items: Iterable[T], *,
            chunksize: int | None = None) -> list[R]:
        """Apply ``func`` to every item, returning results in input order."""

    def close(self) -> None:
        """Release any pooled workers (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self.n_workers}>"


class SerialBackend(ExecutionBackend):
    """In-process execution; the default and the fallback."""

    name = "serial"

    @property
    def n_workers(self) -> int:
        return 1

    def map(self, func, items, *, chunksize=None):
        return [func(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """Persistent thread pool; best for GIL-releasing workloads."""

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        self._n_workers = _check_workers(max_workers)
        self._pool: ThreadPoolExecutor | None = None

    @property
    def n_workers(self) -> int:
        return self._n_workers

    def map(self, func, items, *, chunksize=None):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self._n_workers)
        return list(self._pool.map(func, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessBackend(ExecutionBackend):
    """Persistent process pool for CPU-bound, picklable work.

    Parameters
    ----------
    max_workers:
        Worker processes (default: the CPU count).
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

    name = "process"

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
        return 1 if self._degraded else self._n_workers

    def map(self, func, items, *, chunksize=None):
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
        return os.cpu_count() or 1
    workers = int(max_workers)
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    return workers


def resolve_backend(spec: "str | ExecutionBackend | None", *,
                    strict: bool = False) -> ExecutionBackend:
    """Resolve an executor spec to an :class:`ExecutionBackend`.

    ``None`` means serial; an existing backend instance is returned
    unchanged (its owner keeps responsibility for closing it); a string
    is parsed as ``name`` or ``name:N`` with ``name`` one of
    :data:`BACKEND_NAMES`.  ``strict`` is forwarded to
    :class:`ProcessBackend`.
    """

    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    if not isinstance(spec, str):
        raise ValidationError(
            f"executor must be a spec string, an ExecutionBackend or None, "
            f"got {type(spec).__name__}")
    name, _, count = spec.partition(":")
    name = name.strip().lower()
    workers: int | None = None
    if count:
        try:
            workers = int(count)
        except ValueError:
            raise ValidationError(
                f"invalid executor spec {spec!r}: worker count "
                f"{count!r} is not an integer") from None
    if name == "serial":
        if count:
            raise ValidationError(
                f"invalid executor spec {spec!r}: serial takes no "
                "worker count")
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(workers)
    if name == "process":
        return ProcessBackend(workers, strict=strict)
    raise ValidationError(
        f"unknown executor {name!r}; expected one of {list(BACKEND_NAMES)} "
        "(optionally with ':N' workers, e.g. 'process:4')")
