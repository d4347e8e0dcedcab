"""The long-running classification server (stdlib HTTP, threads).

``ClassificationServer`` is the resident serving tier the paper's
continuous-monitoring deployment needs: load the model artifact once
(the expensive cold start PR 2 optimised), keep the sealed index hot in
memory, and answer classification requests over plain HTTP until told
to stop.  Its endpoints:

``POST /classify``
    Classify executables (JSON protocol, see
    :mod:`repro.serving.protocol`).  Requests are admitted into the
    bounded :class:`~repro.serving.batcher.RequestCoalescer` queue and
    drained into shared micro-batches; a full queue answers ``503``
    with a ``Retry-After`` header instead of queueing unboundedly.
``GET /healthz``
    Liveness: status, live model generation, uptime, drain state,
    tracing configuration, and (in ingest mode) live corpus
    membership.
``GET /metrics``
    JSON snapshot of the
    :class:`~repro.serving.metrics.MetricsRegistry` (request counters,
    latency histogram with p50/p95/p99, batch sizes, queue depth,
    reload counts) plus the service's digest-cache counters.  With
    ``?format=prometheus`` the same registry renders as Prometheus
    text exposition (format 0.0.4) instead.
``GET /debug/trace``
    The tracer's ring buffers: the last-N sampled request traces plus
    the traces that exceeded ``--slow-request-ms``, each with its
    per-stage breakdown (see :mod:`repro.observability.trace`).
``GET /debug/profile?seconds=N``
    Open a cProfile window over the coalescer workers and answer with
    merged pstats text.  Refused (403) unless the server was started
    with ``--enable-profiling``.

Every response carries an ``X-Request-Id`` header; classified
decisions repeat the id in their decision-log lines and ingest acks
carry it in the body, so one client call correlates across the audit
trail, ``/debug/trace`` and the slow-request log.

With ``enable_ingest=True`` (and a mutable
:class:`~repro.serving.model_manager.ModelManager`) two more verbs turn
the server into a live metastore:

``POST /ingest``
    Add labelled samples to the in-process corpus (JSON protocol, see
    :mod:`repro.serving.protocol`).  Ingest requests flow through the
    *same* bounded coalescer queue as classification — an ingest burst
    is admission-controlled by the same 503/Retry-After backpressure
    and can never starve classification through a private path.
``DELETE /samples/<id>``
    Tombstone every corpus member registered under the (URL-encoded)
    sample id.  Answers 404 for an unknown id and 409 when the purge
    would leave a class without anchors.

Shutdown is graceful by default: stop accepting connections, drain the
queued requests so every admitted client gets its answer, flush and
fsync the decision log, then exit — wired to SIGTERM/SIGINT by
:meth:`run_until_signalled` (the CLI path).
"""

from __future__ import annotations

import json
import signal
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..exceptions import (
    ProtocolError,
    ReproError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
    ValidationError,
)
from ..logging_utils import get_logger
from ..observability import promtext
from ..observability import trace as trace_mod
from ..observability.profiler import ProfilerBusyError, WorkerProfiler
from ..observability.trace import REQUEST_ID_HEADER, Tracer, span
from . import protocol
from .batcher import RequestCoalescer
from .metrics import MetricsRegistry

__all__ = ["ServerConfig", "ClassificationServer"]

_LOG = get_logger("serving.server")


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`ClassificationServer`."""

    host: str = "127.0.0.1"
    port: int = 8080                      # 0 = pick an ephemeral port
    workers: int = 2                      # coalescer drain threads
    max_batch: int = 32                   # items per coalesced batch
    queue_depth: int = 256                # admission cap, in queued items
    max_items_per_request: int = protocol.DEFAULT_MAX_ITEMS
    max_item_bytes: int = protocol.DEFAULT_MAX_ITEM_BYTES
    max_request_bytes: int = protocol.DEFAULT_MAX_REQUEST_BYTES
    retry_after_seconds: float = 1.0      # hint sent with every 503
    request_timeout_seconds: float = 120.0
    enable_ingest: bool = False           # POST /ingest + DELETE /samples
    max_ingest_items: int = protocol.DEFAULT_MAX_INGEST_ITEMS
    trace_sample: float = 1.0             # fraction of requests traced
    slow_request_ms: float = 1000.0       # slow-ring + warn threshold
    trace_ring: int = trace_mod.DEFAULT_RING_SIZE
    enable_profiling: bool = False        # GET /debug/profile


class _HTTPServer(ThreadingHTTPServer):
    """One handler thread per connection.

    Handler threads stay daemonic — an idle keep-alive connection parks
    its handler in a blocking read, and joining that on close would
    hang shutdown forever.  Graceful drain is guaranteed by the app's
    in-flight request counter instead (see
    :meth:`ClassificationServer.shutdown`).
    """

    daemon_threads = True
    # Job launches arrive in bursts; socketserver's default listen
    # backlog of 5 resets the connections of a burst beyond it.
    request_queue_size = 128
    app: "ClassificationServer" = None


class ClassificationServer:
    """HTTP front end over a :class:`ModelManager` and a coalescer.

    ``manager`` only needs the :meth:`ModelManager.classify_items`
    contract (``items -> (decisions, generation)``) plus a
    ``generation`` property — tests substitute stubs to exercise the
    overload and failure paths deterministically.
    """

    def __init__(self, manager, config: ServerConfig | None = None, *,
                 metrics: MetricsRegistry | None = None,
                 decision_log=None, lifecycle=None) -> None:
        self.manager = manager
        self.config = config or ServerConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.decision_log = decision_log
        self.lifecycle = lifecycle
        self._requests = self.metrics.counter("http_requests_total")
        self._ok = self.metrics.counter("http_responses_ok")
        self._bad = self.metrics.counter("http_responses_bad_request")
        self._overloaded = self.metrics.counter("http_responses_overloaded")
        self._errors = self.metrics.counter("http_responses_error")
        self._items = self.metrics.counter("items_classified_total")
        self._latency = self.metrics.histogram("request_latency_seconds")
        self.tracer = Tracer(
            self.metrics,
            sample_rate=self.config.trace_sample,
            slow_request_ms=self.config.slow_request_ms,
            ring_size=self.config.trace_ring)
        self.profiler = (WorkerProfiler()
                         if self.config.enable_profiling else None)
        handlers = {"classify": self._classify_batch}
        if self.config.enable_ingest:
            handlers["ingest"] = self._ingest_batch
            self._items_ingested = self.metrics.counter(
                "items_ingested_total")
        self._coalescer = RequestCoalescer(
            handlers,
            max_batch=self.config.max_batch,
            queue_depth=self.config.queue_depth,
            workers=self.config.workers,
            metrics=self.metrics,
            profiler=self.profiler)
        self._batch_latency = self.metrics.histogram("batch_latency_seconds")
        self._httpd: _HTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._started = threading.Event()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._started_at = time.monotonic()
        # Requests inside _request(), which shutdown waits out.
        self._inflight = 0
        self._idle = threading.Condition()

    # ------------------------------------------------------------ lifecycle
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""

        if self._httpd is None:
            raise ServingError("server is not started")
        return self._httpd.server_address[1]

    def start(self) -> "ClassificationServer":
        """Bind the socket and serve in a background thread."""

        if self._httpd is not None:
            raise ServingError("server already started")
        self._httpd = _HTTPServer((self.config.host, self.config.port),
                                  _Handler)
        self._httpd.app = self
        self._started_at = time.monotonic()
        if hasattr(self.manager, "start_watching"):
            self.manager.start_watching()
        if self.lifecycle is not None:
            self.lifecycle.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve",
            kwargs={"poll_interval": 0.1}, daemon=True)
        self._serve_thread.start()
        self._started.set()
        _LOG.info("serving on http://%s:%d (workers=%d, max_batch=%d, "
                  "queue_depth=%d)", self.config.host, self.port,
                  self.config.workers, self.config.max_batch,
                  self.config.queue_depth)
        return self

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop serving; with ``drain`` every admitted request finishes.

        Idempotent.  Order matters: stop accepting first, then drain the
        coalescer so blocked handler threads resolve, then join the
        handler threads and durably flush the decision log.
        """

        if self._stopped.is_set():
            return
        self._draining.set()
        if self.lifecycle is not None:
            self.lifecycle.stop()
        if hasattr(self.manager, "stop"):
            self.manager.stop()
        if self._httpd is not None:
            self._httpd.shutdown()            # stop the accept loop
        self._coalescer.close(drain=drain)
        # The coalescer has resolved (or abandoned) every future, so
        # the remaining in-flight handlers only need to write their
        # responses and decision-log lines; wait for that, bounded so a
        # wedged client socket cannot hold shutdown hostage.
        with self._idle:
            self._idle.wait_for(lambda: self._inflight == 0, timeout=30)
        if self._httpd is not None:
            self._httpd.server_close()
        if self.decision_log is not None:
            self.decision_log.close()
        self._stopped.set()
        _LOG.info("server stopped (drained=%s)", drain)

    def run_until_signalled(self,
                            signals=(signal.SIGTERM, signal.SIGINT)) -> int:
        """Block until SIGTERM/SIGINT, drain gracefully, return 0.

        Must run on the main thread (signal handler requirement); the
        accept loop runs on a background thread either way.
        """

        if self._httpd is None:
            self.start()
        stop = threading.Event()
        previous = {}

        def _on_signal(signum, _frame):
            _LOG.info("received signal %d; draining", signum)
            stop.set()

        for signum in signals:
            previous[signum] = signal.signal(signum, _on_signal)
        try:
            stop.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.shutdown(drain=True)
        return 0

    # ------------------------------------------------------------- requests
    @contextmanager
    def _request(self):
        """Count one request in flight, issue its ``X-Request-Id`` and
        yield the response headers.  Handler threads are never joined
        (see :class:`_HTTPServer`), so shutdown waits on this count
        before it closes the decision log."""

        with self._idle:
            self._inflight += 1
        try:
            self._requests.inc()
            yield {REQUEST_ID_HEADER: trace_mod.new_request_id()}
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    def _ingest_disabled(self, headers: dict) -> tuple[int, dict, bytes]:
        self._bad.inc()
        return 403, headers, _error_body(
            "ingestion is disabled on this server (start it with --ingest)")

    def _classify_batch(self, items):
        start = time.perf_counter()
        decisions, generation = self.manager.classify_items(
            [(item.sample_id, item.data) for item in items])
        self._batch_latency.observe(time.perf_counter() - start)
        return decisions, generation

    def _ingest_batch(self, items):
        reports, generation = self.manager.ingest_items(
            [(item.sample_id, item.data, item.class_name) for item in items])
        if self.lifecycle is not None:
            self.lifecycle.note_ingested(reports)
        return reports, generation

    def handle(self, kind: str, body: bytes) -> tuple[int, dict, bytes]:
        """Run one ``/classify`` or ``/ingest`` body (``kind`` is
        ``"classify"`` or ``"ingest"``); ``(status, headers, response)``.
        """

        with self._request() as headers:
            if kind == "ingest" and not self.config.enable_ingest:
                return self._ingest_disabled(headers)
            return self._handle(kind, body, headers)

    def _handle(self, kind: str, body: bytes,
                headers: dict) -> tuple[int, dict, bytes]:
        started = time.perf_counter()
        request_id = headers[REQUEST_ID_HEADER]
        trace = self.tracer.begin(request_id, kind)
        # Activating the trace as the contextvar sink lets the
        # handler-thread stages (parse, serialize, decision_log) record
        # without plumbing.
        token = trace_mod.activate(trace) if trace is not None else None
        labelled = kind == "ingest"
        items = ()
        status = 500
        try:
            try:
                with span("parse"):
                    items = protocol.parse_items(
                        body, labelled=labelled,
                        max_items=(self.config.max_ingest_items if labelled
                                   else self.config.max_items_per_request),
                        max_item_bytes=self.config.max_item_bytes)
                future = self._coalescer.submit(items, kind=kind, trace=trace)
                results, generation = future.result(
                    timeout=self.config.request_timeout_seconds)
            except (ProtocolError, ValidationError) as exc:
                # ValidationError is the library's bad-input error: an
                # unknown class or unlabelled sample in an ingest pass.
                self._bad.inc()
                status = 400
                return 400, headers, _error_body(str(exc))
            except (ServerOverloadedError, ServerClosedError, TimeoutError,
                    FutureTimeoutError) as exc:
                self._overloaded.inc()
                status = 503
                headers["Retry-After"] = str(
                    max(1, round(self.config.retry_after_seconds)))
                return 503, headers, _error_body(str(exc))
            except Exception as exc:  # noqa: BLE001 — must answer the client
                self._errors.inc()
                _LOG.exception("%s request failed", kind)
                return 500, headers, _error_body(f"internal error: {exc}")
            self._ok.inc()
            status = 200
            self._latency.observe(time.perf_counter() - started)
            if labelled:
                self._items_ingested.inc(len(results))
                members = self.manager._corpus_counts()[0]
                with span("serialize"):
                    response = protocol.encode_ingest_report(
                        results, generation, members,
                        durable=self._wal_active(), request_id=request_id)
                return 200, headers, response
            self._items.inc(len(results))
            if self.decision_log is not None:
                with span("decision_log"):
                    now = time.time()
                    for decision in results:
                        record = protocol.decision_to_dict(decision)
                        record["model_generation"] = generation
                        record["unix_time"] = round(now, 3)
                        record["request_id"] = request_id
                        self.decision_log.append(record)
            with span("serialize"):
                response = protocol.encode_decisions(results, generation)
            return 200, headers, response
        finally:
            if token is not None:
                trace_mod.deactivate(token)
            self.tracer.finish(trace, items=len(items), status=status)

    def handle_purge(self, path: str) -> tuple[int, dict, bytes]:
        """Run one ``DELETE /samples/<id>``; ``(status, hdrs, body)``.

        Purges run directly (not through the coalescer): they carry no
        payload to batch, and the manager's mutation path serialises
        them against model passes anyway.
        """

        with self._request() as headers:
            if not self.config.enable_ingest:
                return self._ingest_disabled(headers)
            try:
                sample_id = protocol.parse_purge_path(path)
                removed, generation = self.manager.purge(sample_id)
            except ProtocolError as exc:
                self._bad.inc()
                return 400, headers, _error_body(str(exc))
            except ValidationError as exc:
                # Refused because the purge would strand a class without
                # anchors: a conflict with the corpus state, not a bad
                # request shape.
                self._bad.inc()
                return 409, headers, _error_body(str(exc))
            except Exception as exc:  # noqa: BLE001 — must answer the client
                self._errors.inc()
                _LOG.exception("purge request failed")
                return 500, headers, _error_body(f"internal error: {exc}")
            if not removed:
                self._bad.inc()
                return 404, headers, _error_body(
                    f"no corpus member is registered under {sample_id!r}")
            self._ok.inc()
            return 200, headers, json.dumps({
                "purged": int(removed), "sample_id": sample_id,
                "model_generation": int(generation),
            }, sort_keys=True).encode("utf-8")

    def _wal_active(self) -> bool:
        """Whether the manager acks mutations through a write-ahead log."""

        info = getattr(self.manager, "durability_info", None)
        return callable(info) and info() is not None

    def health_payload(self) -> dict:
        payload = {
            "status": "draining" if self._draining.is_set() else "ok",
            "model_generation": int(self.manager.generation),
            "model_path": str(getattr(self.manager, "model_path", "")),
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "ingest_enabled": bool(self.config.enable_ingest),
        }
        classifier = getattr(getattr(self.manager, "service", None),
                             "classifier", None)
        family = getattr(classifier, "family", None)
        if family is not None:
            payload["model_family"] = str(family)
        load_mode = getattr(self.manager, "load_mode", None)
        if load_mode is not None:
            payload["load_mode"] = str(load_mode)
        payload["score_workers"] = int(
            getattr(self.manager, "score_workers", 0) or 0)
        corpus_info = getattr(self.manager, "corpus_info", None)
        if self.config.enable_ingest and callable(corpus_info):
            try:
                payload["corpus"] = corpus_info()
            except ReproError:   # pragma: no cover — health must answer
                pass
        durability_info = getattr(self.manager, "durability_info", None)
        if callable(durability_info):
            try:
                durability = durability_info()
            except ReproError:   # pragma: no cover — health must answer
                durability = None
            if durability is not None:
                payload["durability"] = durability
        payload["tracing"] = {
            **self.tracer.config_payload(),
            "profiling_enabled": self.profiler is not None,
        }
        return payload

    def metrics_payload(self) -> dict:
        payload = dict(self.metrics.snapshot())
        service = getattr(self.manager, "service", None)
        cache_info = getattr(service, "cache_info", None)
        if callable(cache_info):
            payload["service_cache"] = cache_info()
        extraction_cache_info = getattr(service, "extraction_cache_info",
                                        None)
        if callable(extraction_cache_info):
            payload["extraction_cache"] = extraction_cache_info()
        from ..features.extractors import malformed_elf_total

        # Process-wide count of extractions of ELF-magic uploads that
        # did not parse and were read as non-ELF input; a re-upload the
        # extraction cache answers is not parsed, so not counted again.
        payload["malformed_elf_total"] = malformed_elf_total()
        load_mode = getattr(self.manager, "load_mode", None)
        if load_mode is not None:
            payload["load_mode"] = str(load_mode)
        worker_stats = getattr(self.manager, "worker_stats", None)
        if callable(worker_stats):
            stats = worker_stats()
            if stats is not None:
                # Per-worker batch counters: {"workers": N,
                # "batches_total": ..., "batches_by_worker": {pid: n}}.
                payload["scoring_workers"] = stats
        return payload


def _error_body(message: str) -> bytes:
    return json.dumps({"error": message}, sort_keys=True).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: a response larger than one
    # segment must not have its last partial segment held back by
    # Nagle's algorithm until the client ACKs the ones before it.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------- plumbing
    @property
    def app(self) -> ClassificationServer:
        return self.server.app

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        _LOG.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, body: bytes,
                   headers: dict | None = None) -> None:
        self._send_body(status, body, "application/json", headers)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8",
                   headers: dict | None = None) -> None:
        self._send_body(status, text.encode("utf-8"), content_type, headers)

    def _send_body(self, status: int, body: bytes, content_type: str,
                   headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # One write per response.  end_headers() would send the header
        # block on its own, and on a keep-alive connection the body
        # then waits for the client's delayed ACK (~40 ms).  wfile stays
        # unbuffered: the stdlib's 100-continue reply must reach the
        # client before the handler blocks reading the request body.
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
            body = b"".join(self._headers_buffer) + body
            self._headers_buffer = []
        self.wfile.write(body)

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        parsed = urlsplit(self.path)
        query = parse_qs(parsed.query)
        if parsed.path == "/healthz":
            payload = self.app.health_payload()
            status = 200 if payload["status"] == "ok" else 503
            self._send_json(status,
                            json.dumps(payload, sort_keys=True).encode())
        elif parsed.path == "/metrics":
            wire_format = (query.get("format") or ["json"])[-1]
            if wire_format == "prometheus":
                self._send_text(200, promtext.render_prometheus(
                    self.app.metrics), content_type=promtext.CONTENT_TYPE)
            elif wire_format == "json":
                self._send_json(200, json.dumps(self.app.metrics_payload(),
                                                sort_keys=True).encode())
            else:
                self._send_json(400, _error_body(
                    f"unknown metrics format {wire_format!r} (expected "
                    f"json or prometheus)"))
        elif parsed.path == "/debug/trace":
            try:
                limit = int((query.get("limit") or [-1])[-1])
            except ValueError:
                self._send_json(400, _error_body("limit must be an integer"))
                return
            payload = self.app.tracer.trace_payload(
                None if limit < 0 else limit)
            self._send_json(200,
                            json.dumps(payload, sort_keys=True).encode())
        elif parsed.path == "/debug/profile":
            self._handle_profile(query)
        else:
            self._send_json(404, _error_body(f"no such endpoint: "
                                             f"{self.path}"))

    def _handle_profile(self, query: dict) -> None:
        if self.app.profiler is None:
            self._send_json(403, _error_body(
                "profiling is disabled on this server (start it with "
                "--enable-profiling)"))
            return
        try:
            seconds = float((query.get("seconds") or ["2"])[-1])
        except ValueError:
            self._send_json(400, _error_body("seconds must be a number"))
            return
        try:
            # Blocks this handler thread for the window — that is the
            # point: the response carries what ran *during* it.
            text = self.app.profiler.run(seconds)
        except ProfilerBusyError as exc:
            self._send_json(409, _error_body(str(exc)))
            return
        except ValueError as exc:
            self._send_json(400, _error_body(str(exc)))
            return
        self._send_text(200, text)

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        if self.path not in ("/classify", "/ingest"):
            self._send_json(404, _error_body(f"no such endpoint: "
                                             f"{self.path}"))
            return
        body = self._read_body()
        if body is None:
            return
        status, headers, response = self.app.handle(self.path[1:], body)
        self._send_json(status, response, headers)

    def do_DELETE(self) -> None:  # noqa: N802 — stdlib naming
        if not self.path.startswith(protocol.PURGE_PREFIX):
            self._send_json(404, _error_body(f"no such endpoint: "
                                             f"{self.path}"))
            return
        status, headers, response = self.app.handle_purge(self.path)
        self._send_json(status, response, headers)

    def _read_body(self) -> bytes | None:
        """The request body, or None after answering with an error."""

        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            self._send_json(411, _error_body("Content-Length required"))
            return None
        if length < 0:
            # rfile.read(-1) would block until EOF, parking this
            # handler thread for as long as the client holds the
            # connection open.
            self._send_json(400, _error_body("Content-Length must be "
                                             "non-negative"))
            return None
        if length > self.app.config.max_request_bytes:
            self._send_json(413, _error_body(
                f"request body of {length} bytes exceeds the "
                f"{self.app.config.max_request_bytes}-byte cap"))
            return None
        return self.rfile.read(length)
