"""Request tracing: ids, monotonic spans and bounded trace rings.

The serving tier (PRs 5-9) can tell *that* a request was slow — the
latency histogram's p99 moves — but not *where* the time went: queue
wait, candidate generation, DP scoring, forest predict, worker
dispatch or WAL fsync.  This module is the missing attribution layer:

* every request gets a server-edge **request id** (returned as the
  ``X-Request-Id`` response header, stamped into decision-log lines
  and ingest acks) so one slow client call can be correlated with its
  server-side trace and audit line;
* sampled requests carry a :class:`RequestTrace` through the serving
  path via a :mod:`contextvars` variable — instrumented stages wrap
  themselves in ``with span("dp_scoring"):`` and never need the trace
  threaded through their signatures;
* finished traces land in bounded ring buffers (recent + slow) served
  by ``GET /debug/trace`` and feed a labeled per-stage histogram in
  the :class:`~repro.serving.metrics.MetricsRegistry`.

Cost when off: sampling a request out (or running outside a server)
leaves the context variable unset, and :func:`span` then returns a
shared no-op context manager — one contextvar read and one function
call per instrumented stage, no allocation, no clock read.

Cost when on: one :class:`Span` and two clock reads per stage, and at
finish one histogram observation per span through a cached
``(stage, worker)`` child.  The rings keep the sealed
:class:`RequestTrace` objects; a trace is rendered to a dict only when
``GET /debug/trace`` returns it or the slow-request log line needs it.
On a 2-vCPU VM (Python 3.11) a nine-span trace's whole life costs
~27 µs of CPU in a tight loop, and tracing added 70-110 µs (3-5%) to
a ~2.2 ms single-item ``/classify`` call in-process.

**Span taxonomy.**  Top-level stages partition a request's wall time
(``queue_wait``, ``batch_assembly``, ``lock_wait``,
``extract_features``, ``candidate_gen``, ``dp_scoring``,
``forest_predict``, ``worker_dispatch``, ``ingest_apply``,
``wal_fsync``, ``serialize``, ``decision_log``, ``parse``);
*detail* spans carrying a ``worker=`` label attribute the same time at
finer grain (per scoring-worker pid) and are therefore excluded from
the per-trace ``stages`` rollup so the rollup still sums to ≈ wall
time.

**Process boundaries.**  ``perf_counter`` readings are not comparable
across processes, so a scoring worker records spans against its own
clock and ships ``(name, offset, duration, meta)`` tuples back inside
the batch result payload; the parent re-bases them onto its dispatch
timestamp with :func:`record_shipped_spans` (see
:mod:`repro.serving.workers`).

**Batches.**  A coalesced batch does one shared model pass for many
requests, so the coalescer records batch-stage spans into one
:class:`SpanCollector` and copies them into every member request's
trace — each member *did* wait for the whole batch, so the shared
durations are the honest per-request attribution.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Iterable, Sequence

from ..logging_utils import get_logger

__all__ = [
    "REQUEST_ID_HEADER",
    "Span",
    "RequestTrace",
    "SpanCollector",
    "Tracer",
    "activate",
    "current_sink",
    "deactivate",
    "new_request_id",
    "record_shipped_spans",
    "span",
]

_LOG = get_logger("observability.trace")

#: Response header carrying the server-edge request id.
REQUEST_ID_HEADER = "X-Request-Id"

#: Meta keys that mark a span as attribution *detail* (a finer-grained
#: view of time already covered by a top-level stage span).
DETAIL_META_KEYS = frozenset({"worker"})

#: Default ring sizes for ``GET /debug/trace``.
DEFAULT_RING_SIZE = 128
DEFAULT_SLOW_RING_SIZE = 32


def new_request_id() -> str:
    """A 16-hex-char request id, unique enough to grep a log by."""

    return os.urandom(8).hex()


class Span:
    """One timed stage: name, absolute start, duration, optional meta."""

    __slots__ = ("name", "start", "duration", "meta")

    def __init__(self, name: str, start: float, duration: float,
                 meta: dict | None = None) -> None:
        self.name = name
        self.start = start
        self.duration = duration
        self.meta = meta

    @property
    def is_detail(self) -> bool:
        return bool(self.meta) and not DETAIL_META_KEYS.isdisjoint(self.meta)

    def as_dict(self, base: float) -> dict:
        payload = {"name": self.name,
                   "offset_ms": round((self.start - base) * 1000.0, 3),
                   "ms": round(self.duration * 1000.0, 3)}
        if self.meta:
            payload.update(self.meta)
        return payload


# ------------------------------------------------------------------ sink
# The active span sink for the current thread/context.  ``None`` (the
# default) means tracing is off for this request — span() no-ops.
_SINK: ContextVar["SpanCollector | RequestTrace | None"] = ContextVar(
    "repro_trace_sink", default=None)


def current_sink():
    """The span sink active in this context, or None."""

    return _SINK.get()


def activate(sink):
    """Install ``sink`` as the active span sink; returns a reset token."""

    return _SINK.set(sink)


def deactivate(token) -> None:
    """Restore the sink that was active before :func:`activate`."""

    _SINK.reset(token)


class _NoopSpan:
    """Shared do-nothing context manager for unsampled requests."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    __slots__ = ("_sink", "_name", "_meta", "_start")

    def __init__(self, sink, name: str, meta: dict | None) -> None:
        self._sink = sink
        self._name = name
        self._meta = meta

    def __enter__(self):
        self._start = time.perf_counter()
        return None

    def __exit__(self, *exc):
        self._sink.add(self._name, self._start,
                       time.perf_counter() - self._start, self._meta)
        return False


def span(name: str, **meta):
    """Time a stage into the active sink (no-op when none is active).

    ``with span("dp_scoring"):`` at a call site costs one contextvar
    read when tracing is off.  Keyword arguments become span meta;
    ``worker=`` marks the span as attribution detail.
    """

    sink = _SINK.get()
    if sink is None:
        return NOOP_SPAN
    return _LiveSpan(sink, name, meta or None)


def record_shipped_spans(shipped: Iterable[Sequence], base: float,
                         **extra_meta) -> None:
    """Re-base spans shipped from another process into the active sink.

    ``shipped`` holds ``(name, offset_seconds, duration_seconds, meta)``
    tuples recorded against the *remote* process's clock, offsets
    relative to its batch start; ``base`` is this process's
    ``perf_counter`` reading at dispatch.  ``extra_meta`` (typically
    ``worker=pid``) is merged into every span, which also marks them
    as detail spans so they do not double-count against the parent's
    ``worker_dispatch`` stage.
    """

    sink = _SINK.get()
    if sink is None:
        return
    for name, offset, duration, meta in shipped:
        merged = dict(meta) if meta else {}
        merged.update(extra_meta)
        sink.add(str(name), base + float(offset), float(duration),
                 merged or None)


# ----------------------------------------------------------------- sinks
class SpanCollector:
    """A bare list of spans — the batch-level and worker-side sink.

    Appends are GIL-atomic; each collector is only ever written from
    the single thread that activated it.
    """

    __slots__ = ("spans", "start")

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.start = time.perf_counter()

    def add(self, name: str, start: float, duration: float,
            meta: dict | None = None) -> None:
        self.spans.append(Span(name, start, duration, meta))

    def shipped(self) -> list[tuple]:
        """Spans as process-portable tuples, offsets from ``self.start``."""

        return [(s.name, s.start - self.start, s.duration, s.meta)
                for s in self.spans]


class RequestTrace:
    """Everything recorded about one sampled request.

    Span appends come from the handler thread (parse/serialize) and
    the coalescer worker that ran the request's batch; the two never
    overlap — the handler blocks on its future while the batch runs,
    and the coalescer copies batch spans in *before* resolving the
    future — so a plain list suffices.
    """

    __slots__ = ("request_id", "kind", "start", "unix_time", "spans",
                 "wall", "items", "status")

    def __init__(self, request_id: str, kind: str) -> None:
        self.request_id = request_id
        self.kind = kind
        self.start = time.perf_counter()
        self.unix_time = time.time()
        self.spans: list[Span] = []
        self.wall: float | None = None           # set by Tracer.finish
        self.items = 0
        self.status: int | None = None

    # A sealed trace (``wall`` set) takes no more spans: the rings
    # render it on read, and a batch that finishes after its request
    # timed out must not change what was sealed.
    def add(self, name: str, start: float, duration: float,
            meta: dict | None = None) -> None:
        if self.wall is None:
            self.spans.append(Span(name, start, duration, meta))

    def extend(self, spans: Iterable[Span]) -> None:
        if self.wall is None:
            self.spans.extend(spans)

    def stage_totals(self) -> dict[str, float]:
        """Seconds per top-level stage (detail spans excluded)."""

        totals: dict[str, float] = {}
        for item in self.spans:
            if item.is_detail:
                continue
            totals[item.name] = totals.get(item.name, 0.0) + item.duration
        return totals

    def as_dict(self) -> dict:
        wall = (self.wall if self.wall is not None
                else time.perf_counter() - self.start)
        return {
            "request_id": self.request_id,
            "kind": self.kind,
            "status": self.status,
            "items": self.items,
            "unix_time": round(self.unix_time, 3),
            "wall_ms": round(wall * 1000.0, 3),
            "stages": {name: round(seconds * 1000.0, 3)
                       for name, seconds in
                       sorted(self.stage_totals().items())},
            "spans": [item.as_dict(self.start) for item in self.spans],
        }


# ---------------------------------------------------------------- tracer
class Tracer:
    """Sampling, ring buffers and per-stage histograms for one server.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.serving.metrics.MetricsRegistry`; when
        given, finished traces feed a ``stage_latency_seconds``
        histogram family labeled ``(stage, worker)`` plus
        ``traces_sampled_total`` / ``slow_requests_total`` counters.
    sample_rate:
        Fraction of requests traced, in ``[0, 1]``.  ``0`` disables
        tracing entirely (request ids are still issued); ``1`` (the
        default) traces everything.
    slow_request_ms:
        Traces at least this slow are additionally kept in the slow
        ring and logged as a structured slow-request line with the
        full stage breakdown.  ``0`` disables slow capture.
    """

    def __init__(self, metrics=None, *, sample_rate: float = 1.0,
                 slow_request_ms: float = 1000.0,
                 ring_size: int = DEFAULT_RING_SIZE,
                 slow_ring_size: int = DEFAULT_SLOW_RING_SIZE) -> None:
        if not 0.0 <= float(sample_rate) <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if slow_request_ms < 0:
            raise ValueError("slow_request_ms must be >= 0")
        if ring_size < 1 or slow_ring_size < 1:
            raise ValueError("ring sizes must be >= 1")
        self.sample_rate = float(sample_rate)
        self.slow_request_ms = float(slow_request_ms)
        self.ring_size = int(ring_size)
        # The rings hold sealed traces; rendering waits for a reader.
        self._recent: deque[RequestTrace] = deque(maxlen=int(ring_size))
        self._slow: deque[RequestTrace] = deque(maxlen=int(slow_ring_size))
        self._lock = threading.Lock()
        self._random = random.Random()
        # (stage, worker) -> histogram child, so a finish skips the
        # family's label validation and lock after first use.
        self._stage_children: dict[tuple, object] = {}
        self._stage_hist = None
        self._sampled = None
        self._slow_counter = None
        if metrics is not None:
            self._stage_hist = metrics.histogram(
                "stage_latency_seconds",
                labels=("stage", "worker"))
            self._sampled = metrics.counter("traces_sampled_total")
            self._slow_counter = metrics.counter("slow_requests_total")

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    # -------------------------------------------------------------- begin
    def begin(self, request_id: str, kind: str) -> RequestTrace | None:
        """A new trace for this request, or None when sampled out."""

        if self.sample_rate <= 0.0:
            return None
        if (self.sample_rate < 1.0 and
                self._random.random() >= self.sample_rate):
            return None
        return RequestTrace(request_id, kind)

    # ------------------------------------------------------------- finish
    def finish(self, trace: RequestTrace | None, *, items: int = 0,
               status: int | None = None) -> None:
        """Seal a trace: stamp wall time, feed histograms and rings."""

        if trace is None:
            return
        trace.wall = time.perf_counter() - trace.start
        trace.items = int(items)
        trace.status = status
        if self._stage_hist is not None:
            children = self._stage_children
            for item in trace.spans:
                key = (item.name,
                       str(item.meta.get("worker", "")) if item.meta else "")
                child = children.get(key)
                if child is None:
                    child = children[key] = self._stage_hist.labels(
                        stage=key[0], worker=key[1])
                child.observe(item.duration)
        if self._sampled is not None:
            self._sampled.inc()
        slow = (self.slow_request_ms > 0 and
                round(trace.wall * 1000.0, 3) >= self.slow_request_ms)
        with self._lock:
            self._recent.append(trace)
            if slow:
                self._slow.append(trace)
        if slow:
            if self._slow_counter is not None:
                self._slow_counter.inc()
            _LOG.warning("slow request %s", json.dumps(
                trace.as_dict(), sort_keys=True, default=str))

    # ------------------------------------------------------------ payloads
    def config_payload(self) -> dict:
        """The ``tracing`` block of ``GET /healthz``."""

        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            "slow_request_ms": self.slow_request_ms,
            "ring_size": self.ring_size,
        }

    def trace_payload(self, limit: int | None = None) -> dict:
        """The body of ``GET /debug/trace``."""

        with self._lock:
            recent = list(self._recent)
            slow = list(self._slow)
        if limit is not None and limit >= 0:
            recent = recent[-limit:]
            slow = slow[-limit:]
        # A slow trace sits in both rings; render it once.
        distinct = {id(trace): trace for trace in (*recent, *slow)}
        rendered = {key: trace.as_dict() for key, trace in distinct.items()}
        return {"config": self.config_payload(),
                "recent": [rendered[id(trace)] for trace in recent],
                "slow": [rendered[id(trace)] for trace in slow]}
