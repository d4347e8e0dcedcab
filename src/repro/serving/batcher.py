"""Request coalescing: a bounded queue drained into micro-batches.

The server's whole performance story is here: N concurrent clients each
submit a handful of executables, and instead of paying one candidate
generation pass and one forest pass *per request*, worker threads drain
the queue into micro-batches that share those passes across requests —
the same amortisation :meth:`ClassificationService.classify_stream`
applies within a single caller, lifted across independent callers.

Admission control is all-or-nothing per request: when the bounded queue
cannot take every item of a request, :class:`ServerOverloadedError` is
raised immediately (the HTTP layer turns it into ``503 Retry-After``)
instead of blocking the client or admitting a partial request.

Batches never split a request: a worker takes whole requests until the
next one would overflow ``max_batch`` (a single request larger than
``max_batch`` still forms its own oversized batch rather than being
split), so every response is produced by exactly one classify pass —
which is what lets the server guarantee a single model generation per
response across hot-reloads.

The queue can carry more than one **kind** of work: the coalescer takes
a mapping of kind → handler (e.g. ``{"classify": ..., "ingest": ...}``).
All kinds share the one bounded queue and its depth — that *is* the
backpressure story for online ingestion: an ingest burst fills the same
queue classification uses, so it is admission-controlled by the same
503 instead of starving classification through a private unbounded
path.  Requests are drained FIFO; a batch only ever coalesces
consecutive requests of one kind, so every handler still sees
homogeneous work.

A failed pass over several requests re-runs each request alone, once,
so a bad item fails only its own request, when a re-run is safe:
always for a ``"classify"`` pass, which mutates nothing, and for any
other kind only on a :class:`~repro.exceptions.ValidationError` (bad
input, e.g. an unknown ingest class), which is refused before anything
changes.  Any other failure of a mutating pass may follow a mutation (a
WAL fsync after the apply) that a re-run would repeat, so it still
fails the whole batch.  ``batches_total`` and ``batch_size`` count
re-runs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from contextlib import nullcontext
from typing import Callable, Mapping, Sequence

from ..exceptions import (
    ServerClosedError,
    ServerOverloadedError,
    ValidationError,
)
from ..logging_utils import get_logger
from ..observability import trace as trace_mod
from .metrics import DEFAULT_BATCH_BUCKETS, MetricsRegistry

__all__ = ["RequestCoalescer"]

_LOG = get_logger("serving.batcher")


class _PendingRequest:
    """One admitted request: its work items, its kind and the future
    resolving to ``(results, generation)`` with results in item order.

    ``trace`` (optional) is the submitting request's
    :class:`~repro.observability.trace.RequestTrace`; the worker that
    drains this request records its queue wait and copies the shared
    batch-stage spans into it *before* resolving the future, so the
    handler thread never reads the span list while it is written.
    """

    __slots__ = ("items", "kind", "future", "trace", "submitted")

    def __init__(self, items: Sequence, kind: str, trace=None) -> None:
        self.items = list(items)
        self.kind = kind
        self.future: Future = Future()
        self.trace = trace
        self.submitted = time.perf_counter()


class RequestCoalescer:
    """Bounded request queue drained by worker threads into batches.

    Parameters
    ----------
    handlers:
        Mapping of kind → ``fn(items) -> (results, generation)``.
        ``items`` is the concatenation of one or more same-kind
        requests' work items and ``results`` preserves their order
        (the :meth:`ModelManager.classify_items` contract).  Only a
        ``"classify"`` handler may be re-run after any failure: it must
        mutate nothing.
    max_batch:
        Soft cap on items per assembled batch (whole requests only).
    queue_depth:
        Maximum queued items across pending requests; admission beyond
        this raises :class:`ServerOverloadedError`.
    workers:
        Draining threads.  Batch assembly is serialised by the queue
        lock either way; extra workers overlap response fan-out of one
        batch with the classify pass of the next.
    """

    def __init__(self, handlers: Mapping[str, Callable], *,
                 max_batch: int = 32, queue_depth: int = 256,
                 workers: int = 2, metrics=None, profiler=None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not handlers:
            raise ValueError("handlers must not be empty")
        self._handlers = dict(handlers)
        self.max_batch = int(max_batch)
        self.queue_depth = int(queue_depth)
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._queue: deque[_PendingRequest] = deque()
        self._queued_items = 0
        self._closing = False
        # Optional WorkerProfiler: wraps each handler call so one
        # /debug/profile window captures every coalescer worker.
        self._profiler = profiler
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue_gauge = metrics.gauge("queue_items")
        self._batches = metrics.counter("batches_total")
        self._batch_sizes = metrics.histogram(
            "batch_size", buckets=DEFAULT_BATCH_BUCKETS)
        self._coalesced = metrics.counter("coalesced_requests_total")
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-batch-{i}", daemon=True)
            for i in range(int(workers))
        ]
        for worker in self._workers:
            worker.start()

    # ---------------------------------------------------------------- submit
    def submit(self, items: Sequence, *, kind: str = "classify",
               trace=None) -> Future:
        """Admit one request; its future resolves to ``(results, gen)``.

        ``trace``, when given, receives the request's ``queue_wait``
        span and the batch-stage spans of whichever batch serves it.
        Raises :class:`ServerOverloadedError` when the queue cannot take
        the whole request and :class:`ServerClosedError` once draining
        has begun.
        """

        if not items:
            raise ValueError("cannot submit an empty request")
        if kind not in self._handlers:
            raise ValueError(f"unknown request kind {kind!r}; handlers are "
                             f"registered for {sorted(self._handlers)}")
        request = _PendingRequest(items, kind, trace)
        with self._lock:
            if self._closing:
                raise ServerClosedError("server is shutting down")
            if self._queued_items + len(request.items) > self.queue_depth:
                raise ServerOverloadedError(
                    f"request queue is full ({self._queued_items} items "
                    f"pending, depth {self.queue_depth})")
            self._queue.append(request)
            self._queued_items += len(request.items)
            self._queue_gauge.set(self._queued_items)
            self._nonempty.notify()
        return request.future

    # ----------------------------------------------------------------- drain
    def close(self, *, drain: bool = True, timeout: float | None = None
              ) -> None:
        """Stop admitting work and shut the workers down.

        With ``drain=True`` (the graceful path) queued requests are
        still classified before the workers exit; with ``drain=False``
        pending futures fail with :class:`ServerClosedError`.
        """

        with self._lock:
            self._closing = True
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
                self._queued_items = 0
                self._queue_gauge.set(0)
            self._nonempty.notify_all()
        if not drain:
            for request in abandoned:
                request.future.set_exception(
                    ServerClosedError("server shut down before this "
                                      "request was classified"))
        for worker in self._workers:
            worker.join(timeout=timeout)

    # ------------------------------------------------------------- internals
    def _take_batch(self) -> list[_PendingRequest] | None:
        """Whole requests up to ``max_batch`` items; None on shutdown."""

        with self._lock:
            while not self._queue:
                if self._closing:
                    return None
                self._nonempty.wait()
            batch = [self._queue.popleft()]
            taken = len(batch[0].items)
            while (self._queue and
                   self._queue[0].kind == batch[0].kind and
                   taken + len(self._queue[0].items) <= self.max_batch):
                request = self._queue.popleft()
                taken += len(request.items)
                batch.append(request)
            self._queued_items -= taken
            self._queue_gauge.set(self._queued_items)
            return batch

    def _worker_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            drained = time.perf_counter()
            for request in batch:
                if request.trace is not None:
                    request.trace.add("queue_wait", request.submitted,
                                      drained - request.submitted)
            failure = self._run(batch, drained)
            if failure is not None and len(batch) > 1 and (
                    batch[0].kind == "classify"
                    or isinstance(failure, ValidationError)):
                # A classify pass mutates nothing, and bad input is
                # refused before any handler changes anything, so each
                # request runs again alone and fails only on its own
                # items.
                outcomes = [(request, self._run([request],
                                                time.perf_counter()))
                            for request in batch]
            else:
                outcomes = [(request, failure) for request in batch]
            for request, exc in outcomes:
                if exc is not None and not request.future.cancelled():
                    request.future.set_exception(exc)

    def _run(self, batch: list[_PendingRequest],
             started: float) -> BaseException | None:
        """One handler pass over ``batch``: resolve each future with its
        slice of the results, or leave them pending and return the
        failure.  Traces get the pass's spans before any future
        resolves, so no handler reads a span list while it is written.
        """

        items = [item for request in batch for item in request.items]
        self._batches.inc()
        self._batch_sizes.observe(len(items))
        if len(batch) > 1:
            self._coalesced.inc(len(batch))
        # Batch-stage spans are shared across the batch's requests:
        # every member waited for the whole pass, so the shared
        # durations are each member's honest attribution.  The
        # collector doubles as the contextvar sink the model pass
        # records its stages (candidate_gen, dp_scoring, ...) into.
        traced = any(request.trace is not None for request in batch)
        collector = trace_mod.SpanCollector() if traced else None
        token = trace_mod.activate(collector) if traced else None
        failure = None
        try:
            if collector is not None:
                collector.add("batch_assembly", started,
                              time.perf_counter() - started,
                              {"batch_items": len(items),
                               "batch_requests": len(batch)})
            with (self._profiler.profile() if self._profiler is not None
                  else nullcontext()):
                results, generation = self._handlers[batch[0].kind](items)
            if len(results) != len(items):
                raise ServerClosedError(
                    f"{batch[0].kind} pass returned {len(results)} "
                    f"results for {len(items)} items")
        except BaseException as exc:  # noqa: BLE001 — handed to the caller
            _LOG.warning("batch of %d items failed: %s", len(items), exc)
            failure = exc
        finally:
            if token is not None:
                trace_mod.deactivate(token)
        offset = 0
        for request in batch:
            if request.trace is not None:
                request.trace.extend(collector.spans)
            if failure is None and not request.future.cancelled():
                request.future.set_result(
                    (results[offset:offset + len(request.items)],
                     generation))
            offset += len(request.items)
        return failure
