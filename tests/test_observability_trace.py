"""Unit tests for the tracing layer (``repro.observability.trace``):
the no-op fast path, contextvar sink plumbing, detail-span exclusion
from stage rollups, cross-process span re-basing, tracer sampling,
ring-buffer bounds, rendering the rings on read, and the slow-request
capture path.
"""

import json
import logging
import sys
import threading

import pytest

from repro.observability.trace import (
    DEFAULT_RING_SIZE,
    NOOP_SPAN,
    REQUEST_ID_HEADER,
    RequestTrace,
    Span,
    SpanCollector,
    Tracer,
    activate,
    current_sink,
    deactivate,
    new_request_id,
    record_shipped_spans,
    span,
)
from repro.serving.metrics import MetricsRegistry


# ------------------------------------------------------------ request ids
def test_request_ids_are_distinct_hex():
    ids = {new_request_id() for _ in range(64)}
    assert len(ids) == 64
    for request_id in ids:
        assert len(request_id) == 16
        int(request_id, 16)                       # parses as hex
    assert REQUEST_ID_HEADER == "X-Request-Id"


# ------------------------------------------------------------- span sink
def test_span_without_sink_is_the_shared_noop_singleton():
    assert current_sink() is None
    # No allocation on the unsampled path: the exact same object every
    # time, and entering it records nothing anywhere.
    assert span("dp_scoring") is NOOP_SPAN
    assert span("dp_scoring", worker=3) is NOOP_SPAN
    with span("dp_scoring"):
        pass


def test_span_records_into_the_active_sink():
    collector = SpanCollector()
    token = activate(collector)
    try:
        assert current_sink() is collector
        with span("candidate_gen"):
            pass
        with span("dp_scoring", batch_items=2):
            pass
    finally:
        deactivate(token)
    assert current_sink() is None
    names = [s.name for s in collector.spans]
    assert names == ["candidate_gen", "dp_scoring"]
    assert all(s.duration >= 0.0 for s in collector.spans)
    assert collector.spans[0].meta is None
    assert collector.spans[1].meta == {"batch_items": 2}


def test_span_records_even_when_the_stage_raises():
    collector = SpanCollector()
    token = activate(collector)
    try:
        with pytest.raises(RuntimeError):
            with span("forest_predict"):
                raise RuntimeError("boom")
    finally:
        deactivate(token)
    assert [s.name for s in collector.spans] == ["forest_predict"]


def test_deactivate_restores_the_previous_sink():
    outer, inner = SpanCollector(), SpanCollector()
    outer_token = activate(outer)
    inner_token = activate(inner)
    with span("inner_stage"):
        pass
    deactivate(inner_token)
    with span("outer_stage"):
        pass
    deactivate(outer_token)
    assert [s.name for s in inner.spans] == ["inner_stage"]
    assert [s.name for s in outer.spans] == ["outer_stage"]


# ---------------------------------------------------------- detail spans
def test_worker_meta_marks_detail_spans():
    assert not Span("dp_scoring", 0.0, 1.0).is_detail
    assert not Span("dp_scoring", 0.0, 1.0, {"batch_items": 4}).is_detail
    assert Span("candidate_gen", 0.0, 1.0, {"worker": 123}).is_detail


def test_stage_totals_exclude_detail_and_sum_repeats():
    trace = RequestTrace("abcd", "classify")
    trace.add("candidate_gen", 0.0, 0.5)
    trace.add("candidate_gen", 0.5, 0.25)          # same stage twice
    trace.add("candidate_gen", 0.0, 0.4, {"worker": 11})   # detail: excluded
    trace.add("candidate_gen", 0.4, 0.35, {"worker": 12})  # detail: excluded
    trace.add("forest_predict", 0.75, 0.1)
    totals = trace.stage_totals()
    assert totals == {"candidate_gen": pytest.approx(0.75),
                      "forest_predict": pytest.approx(0.1)}


def test_trace_as_dict_shape():
    trace = RequestTrace("feedbeef", "ingest")
    trace.add("wal_fsync", trace.start, 0.002)
    trace.add("dp_scoring", trace.start, 0.001, {"worker": 1})
    trace.wall = 0.004
    trace.items = 3
    trace.status = 200
    payload = trace.as_dict()
    assert payload["request_id"] == "feedbeef"
    assert payload["kind"] == "ingest"
    assert payload["status"] == 200
    assert payload["items"] == 3
    assert payload["wall_ms"] == pytest.approx(4.0)
    assert payload["stages"] == {"wal_fsync": pytest.approx(2.0)}
    assert len(payload["spans"]) == 2
    detail = payload["spans"][1]
    assert detail["worker"] == 1                   # meta merged into span
    assert detail["ms"] == pytest.approx(1.0)
    json.dumps(payload)                            # JSON-serialisable


# -------------------------------------------------- cross-process re-base
def test_shipped_spans_rebase_onto_the_parent_clock():
    # "Worker side": record against the collector's own clock.
    worker_side = SpanCollector()
    worker_side.add("candidate_gen", worker_side.start + 0.01, 0.5)
    worker_side.add("dp_scoring", worker_side.start + 0.51, 0.25,
                    {"batch_items": 2})
    shipped = worker_side.shipped()
    assert shipped[0][1] == pytest.approx(0.01)    # offset, not absolute

    # "Parent side": re-base onto the dispatch timestamp.
    parent = RequestTrace("cafe", "classify")
    base = 1000.0
    token = activate(parent)
    try:
        record_shipped_spans(shipped, base, worker=42)
    finally:
        deactivate(token)
    first, second = parent.spans
    assert first.start == pytest.approx(base + 0.01)
    assert first.meta == {"worker": 42}
    assert second.meta == {"batch_items": 2, "worker": 42}
    # worker= marks them all as detail: they attribute time inside the
    # parent's worker_dispatch stage instead of double-counting it.
    assert parent.stage_totals() == {}


def test_shipped_spans_without_a_sink_are_dropped():
    record_shipped_spans([("x", 0.0, 1.0, None)], 0.0, worker=1)
    assert current_sink() is None


# ----------------------------------------------------------------- tracer
def test_tracer_sampling_boundaries():
    always = Tracer(sample_rate=1.0)
    assert always.enabled
    assert isinstance(always.begin("aa", "classify"), RequestTrace)
    never = Tracer(sample_rate=0.0)
    assert not never.enabled
    assert never.begin("bb", "classify") is None
    never.finish(None)                              # no-op, no crash


def test_tracer_partial_sampling_is_a_bernoulli_draw():
    tracer = Tracer(sample_rate=0.5)
    tracer._random.seed(7)                          # deterministic draws
    outcomes = [tracer.begin("id", "classify") is not None
                for _ in range(200)]
    assert 40 < sum(outcomes) < 160                 # both outcomes occur


def test_tracer_validation():
    with pytest.raises(ValueError):
        Tracer(sample_rate=1.5)
    with pytest.raises(ValueError):
        Tracer(sample_rate=-0.1)
    with pytest.raises(ValueError):
        Tracer(slow_request_ms=-1)
    with pytest.raises(ValueError):
        Tracer(ring_size=0)


def test_tracer_feeds_stage_histogram_with_attribution_labels():
    registry = MetricsRegistry()
    tracer = Tracer(registry, slow_request_ms=0)
    trace = tracer.begin("0123", "classify")
    trace.add("dp_scoring", trace.start, 0.01)
    trace.add("candidate_gen", trace.start, 0.002, {"worker": 77})
    tracer.finish(trace, items=2, status=200)

    family = registry.histogram("stage_latency_seconds",
                                labels=("stage", "worker"))
    top = family.labels(stage="dp_scoring")
    worker = family.labels(stage="candidate_gen", worker="77")
    assert top.state()["count"] == 1
    assert worker.state()["count"] == 1
    assert registry.counter("traces_sampled_total").value == 1
    assert registry.counter("slow_requests_total").value == 0


def test_concurrent_finishes_lose_no_stage_observations():
    # The tracer caches histogram children across threads; eight
    # threads finishing at once must not lose an observation.
    registry = MetricsRegistry()
    tracer = Tracer(registry, slow_request_ms=0)

    def finish_many(n):
        for k in range(200):
            trace = tracer.begin(f"{n:08x}{k:08x}", "classify")
            trace.add("parse", trace.start, 0.001)
            trace.add("dp_scoring", trace.start, 0.001, {"worker": k % 3})
            tracer.finish(trace, items=1, status=200)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=finish_many, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    family = registry.histogram("stage_latency_seconds",
                                labels=("stage", "worker"))
    assert family.labels(stage="parse").state()["count"] == 1600
    assert [family.labels(stage="dp_scoring", worker=str(w))
            .state()["count"] for w in range(3)] == [536, 536, 528]
    assert registry.counter("traces_sampled_total").value == 1600


def test_recent_ring_is_bounded_and_ordered():
    tracer = Tracer(ring_size=4, slow_request_ms=0)
    for n in range(10):
        trace = tracer.begin(f"{n:016x}", "classify")
        tracer.finish(trace, items=1, status=200)
    payload = tracer.trace_payload()
    assert [t["request_id"] for t in payload["recent"]] == \
        [f"{n:016x}" for n in range(6, 10)]         # newest 4, oldest first
    assert payload["slow"] == []
    limited = tracer.trace_payload(limit=2)
    assert len(limited["recent"]) == 2
    assert limited["recent"][-1]["request_id"] == payload["recent"][-1][
        "request_id"]


def test_slow_requests_land_in_the_slow_ring_and_log(caplog):
    registry = MetricsRegistry()
    tracer = Tracer(registry, slow_request_ms=500.0)
    trace = tracer.begin("deadbeefdeadbeef", "classify")
    trace.start -= 1.0                              # fake a 1 s request
    with caplog.at_level(logging.WARNING, logger="repro.observability.trace"):
        tracer.finish(trace, items=1, status=200)
    payload = tracer.trace_payload()
    assert len(payload["slow"]) == 1
    assert payload["slow"][0]["request_id"] == "deadbeefdeadbeef"
    assert payload["slow"][0]["wall_ms"] >= 500.0
    assert registry.counter("slow_requests_total").value == 1
    slow_lines = [r for r in caplog.records if "slow request" in r.message]
    assert len(slow_lines) == 1
    # The log line carries the machine-readable stage breakdown.
    logged = json.loads(slow_lines[0].getMessage()
                        .split("slow request ", 1)[1])
    assert logged["request_id"] == "deadbeefdeadbeef"


def _count_renders(monkeypatch) -> tuple[list, object]:
    """Patch ``RequestTrace.as_dict`` to log each render's request id."""

    calls = []
    eager = RequestTrace.as_dict

    def counting(self):
        calls.append(self.request_id)
        return eager(self)

    monkeypatch.setattr(RequestTrace, "as_dict", counting)
    return calls, eager


def test_finish_renders_nothing_and_payload_renders_each_trace_once(
        monkeypatch):
    calls, eager = _count_renders(monkeypatch)
    tracer = Tracer(MetricsRegistry(), ring_size=8)
    traces = []
    for n in range(12):
        trace = tracer.begin(f"{n:016x}", "classify")
        trace.add("parse", trace.start, 0.001)
        trace.add("candidate_gen", trace.start + 0.001, 0.002,
                  {"worker": 7})
        tracer.finish(trace, items=1, status=200)
        traces.append(trace)
    assert calls == []                              # none was slow
    payload = tracer.trace_payload(limit=5)
    assert calls == [f"{n:016x}" for n in range(7, 12)]
    assert payload["recent"] == [eager(trace) for trace in traces[7:]]
    assert payload["slow"] == []


def test_slow_trace_renders_for_its_log_line_and_once_per_payload(
        monkeypatch):
    calls, _ = _count_renders(monkeypatch)
    tracer = Tracer(slow_request_ms=500.0)
    fast = tracer.begin("fast", "classify")
    tracer.finish(fast, items=1, status=200)
    slow = tracer.begin("slow", "classify")
    slow.start -= 1.0                               # fake a 1 s request
    tracer.finish(slow, items=1, status=200)
    assert calls == ["slow"]                        # the log line
    payload = tracer.trace_payload()
    assert calls == ["slow", "fast", "slow"]        # once, in both rings
    assert payload["slow"] == [payload["recent"][1]]


def test_sealed_trace_takes_no_more_spans():
    tracer = Tracer(slow_request_ms=0)
    trace = tracer.begin("00ff00ff00ff00ff", "classify")
    trace.add("parse", trace.start, 0.001)
    tracer.finish(trace, items=1, status=503)
    sealed = tracer.trace_payload()["recent"][0]
    # A batch that outlives its timed-out request copies spans in late.
    trace.extend([Span("forest_predict", trace.start, 0.002)])
    trace.add("serialize", trace.start, 0.001)
    assert tracer.trace_payload()["recent"][0] == sealed
    assert [s["name"] for s in sealed["spans"]] == ["parse"]


def test_config_payload_shape():
    tracer = Tracer(sample_rate=0.25, slow_request_ms=750.0, ring_size=16)
    assert tracer.config_payload() == {
        "enabled": True,
        "sample_rate": 0.25,
        "slow_request_ms": 750.0,
        "ring_size": 16,
    }
    assert Tracer().ring_size == DEFAULT_RING_SIZE
