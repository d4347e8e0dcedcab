"""Unit tests for the request coalescer (``repro.serving.batcher``):
batch assembly across requests, per-request ordering, whole-request
batches, bounded-queue admission control, which failures are re-run
per request, and the drain/abandon shutdown paths.
"""

import threading
import time

import pytest

from repro.exceptions import (
    ServerClosedError,
    ServerOverloadedError,
    ValidationError,
)
from repro.observability.trace import RequestTrace
from repro.serving.batcher import RequestCoalescer
from repro.serving.metrics import MetricsRegistry


class RecordingClassifier:
    """classify_fn stub: echoes items, records batch compositions."""

    def __init__(self, generation=7):
        self.batches = []
        self.generation = generation
        self.gate = None                 # optional throttling event
        self.entered = threading.Event()

    def __call__(self, items):
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=10)
        self.batches.append(list(items))
        return [f"scored:{item}" for item in items], self.generation


def make_coalescer(classify, *, kind="classify", **kwargs):
    kwargs.setdefault("workers", 1)
    return RequestCoalescer({kind: classify}, **kwargs)


def test_single_request_round_trip_preserves_order():
    classify = RecordingClassifier()
    coalescer = make_coalescer(classify, max_batch=8)
    results, generation = coalescer.submit(["a", "b", "c"]).result(timeout=10)
    coalescer.close()
    assert results == ["scored:a", "scored:b", "scored:c"]
    assert generation == 7
    assert classify.batches == [["a", "b", "c"]]


def test_concurrent_requests_coalesce_into_one_batch():
    classify = RecordingClassifier()
    classify.gate = threading.Event()
    coalescer = make_coalescer(classify, max_batch=16, queue_depth=64)
    # First request occupies the single worker; the next three queue up
    # and must be drained as ONE batch once the gate opens.
    first = coalescer.submit(["warm"])
    assert classify.entered.wait(timeout=10)
    futures = [coalescer.submit([f"r{i}-a", f"r{i}-b"]) for i in range(3)]
    time.sleep(0.05)                       # let the submissions queue
    classify.gate.set()
    assert first.result(timeout=10)[0] == ["scored:warm"]
    for i, future in enumerate(futures):
        results, generation = future.result(timeout=10)
        assert results == [f"scored:r{i}-a", f"scored:r{i}-b"]
        assert generation == 7
    coalescer.close()
    assert classify.batches[0] == ["warm"]
    assert classify.batches[1] == ["r0-a", "r0-b", "r1-a", "r1-b",
                                   "r2-a", "r2-b"]


def test_batches_take_whole_requests_only():
    classify = RecordingClassifier()
    classify.gate = threading.Event()
    coalescer = make_coalescer(classify, max_batch=4, queue_depth=64)
    warm = coalescer.submit(["warm"])
    assert classify.entered.wait(timeout=10)
    a = coalescer.submit(["a1", "a2", "a3"])
    b = coalescer.submit(["b1", "b2"])
    time.sleep(0.05)
    classify.gate.set()
    for future in (warm, a, b):
        future.result(timeout=10)
    coalescer.close()
    # a (3 items) + b (2 items) exceed max_batch=4, so b must wait for
    # the next batch rather than being split or partially taken.
    assert classify.batches[1:] == [["a1", "a2", "a3"], ["b1", "b2"]]


def test_oversized_request_forms_its_own_batch():
    classify = RecordingClassifier()
    coalescer = make_coalescer(classify, max_batch=2)
    results, _ = coalescer.submit(["x1", "x2", "x3", "x4"]).result(timeout=10)
    coalescer.close()
    assert len(results) == 4
    assert classify.batches == [["x1", "x2", "x3", "x4"]]


def test_full_queue_rejects_with_overload_error():
    classify = RecordingClassifier()
    classify.gate = threading.Event()
    coalescer = make_coalescer(classify, max_batch=1, queue_depth=2)
    in_flight = coalescer.submit(["busy"])     # dequeued, worker blocked
    assert classify.entered.wait(timeout=10)
    queued = coalescer.submit(["q1", "q2"])    # fills the queue exactly
    with pytest.raises(ServerOverloadedError):
        coalescer.submit(["overflow"])
    classify.gate.set()
    assert in_flight.result(timeout=10)
    assert queued.result(timeout=10)
    coalescer.close()


def test_close_drains_queued_requests():
    classify = RecordingClassifier()
    classify.gate = threading.Event()
    coalescer = make_coalescer(classify, max_batch=1, queue_depth=16)
    futures = [coalescer.submit([f"item-{i}"]) for i in range(4)]
    classify.gate.set()
    coalescer.close(drain=True)
    for i, future in enumerate(futures):
        assert future.result(timeout=1)[0] == [f"scored:item-{i}"]
    with pytest.raises(ServerClosedError):
        coalescer.submit(["late"])


def test_close_without_drain_abandons_queued_requests():
    classify = RecordingClassifier()
    classify.gate = threading.Event()
    coalescer = make_coalescer(classify, max_batch=1, queue_depth=16)
    running = coalescer.submit(["running"])
    assert classify.entered.wait(timeout=10)
    queued = coalescer.submit(["queued"])
    # The worker is parked on the gate, so close() abandons "queued"
    # deterministically; the timer then releases the in-flight batch so
    # the worker join inside close() can complete.
    threading.Timer(0.1, classify.gate.set).start()
    coalescer.close(drain=False)
    assert running.result(timeout=10)          # in-flight batch finishes
    with pytest.raises(ServerClosedError):
        queued.result(timeout=1)


def test_classify_failure_fans_out_to_every_request_in_the_batch():
    boom = RuntimeError("forest fell over")

    def classify(items):
        raise boom

    coalescer = make_coalescer(classify)
    future = coalescer.submit(["a"])
    with pytest.raises(RuntimeError, match="forest fell over"):
        future.result(timeout=10)
    # The worker survives a failing batch and keeps serving.
    ok = RecordingClassifier()
    coalescer._handlers["classify"] = ok
    assert coalescer.submit(["b"]).result(timeout=10)[0] == ["scored:b"]
    coalescer.close()


class GatedHandler:
    """Handler stub: parks on its first call until released, then
    raises ``failure`` for any batch that carries the item ``"bad"``."""

    def __init__(self, failure):
        self.failure = failure
        self.calls = []
        self.gate = threading.Event()
        self.entered = threading.Event()

    def __call__(self, items):
        self.calls.append(list(items))
        if not self.entered.is_set():
            self.entered.set()
            assert self.gate.wait(timeout=10)
        if "bad" in items:
            raise self.failure
        return [f"ok:{item}" for item in items], 3


def coalesce_good_and_bad(handler, kind):
    """Queue a good and a bad request of one kind behind a gated warm-up
    request, so the two drain as one batch; returns the three futures."""

    coalescer = make_coalescer(handler, kind=kind, max_batch=8)
    warm = coalescer.submit(["warm"], kind=kind)
    assert handler.entered.wait(timeout=10)
    good_trace = RequestTrace("good", kind)
    good = coalescer.submit(["good"], kind=kind, trace=good_trace)
    bad = coalescer.submit(["bad"], kind=kind)
    handler.gate.set()
    assert warm.result(timeout=10) == (["ok:warm"], 3)
    return coalescer, good, bad, good_trace


def test_bad_input_fails_only_its_own_coalesced_request():
    handler = GatedHandler(ValidationError("unknown class 'nope'"))
    coalescer, good, bad, good_trace = coalesce_good_and_bad(handler,
                                                             "ingest")
    assert good.result(timeout=10) == (["ok:good"], 3)
    with pytest.raises(ValidationError, match="unknown class"):
        bad.result(timeout=10)
    coalescer.close()
    # One coalesced pass, then each request alone, once.
    assert handler.calls == [["warm"], ["good", "bad"], ["good"], ["bad"]]
    # The failed pass's spans stay in the trace; the re-run adds its
    # own pass but no second queue wait.
    assert [s.name for s in good_trace.spans] == \
        ["queue_wait", "batch_assembly", "batch_assembly"]


def test_other_failures_still_fail_every_coalesced_request():
    # An ingest pass re-runs only on bad input: another failure may
    # follow a mutation (a WAL fsync after the apply), and a re-run
    # could apply it twice.
    handler = GatedHandler(RuntimeError("fsync failed"))
    coalescer, good, bad, _ = coalesce_good_and_bad(handler, "ingest")
    for future in (good, bad):
        with pytest.raises(RuntimeError, match="fsync failed"):
            future.result(timeout=10)
    coalescer.close()
    assert handler.calls == [["warm"], ["good", "bad"]]


def test_any_classify_failure_fails_only_its_own_coalesced_request():
    # A classify pass mutates nothing, so whatever it raises, each
    # request runs again alone, once.
    handler = GatedHandler(RuntimeError("forest fell over"))
    coalescer, good, bad, _ = coalesce_good_and_bad(handler, "classify")
    assert good.result(timeout=10) == (["ok:good"], 3)
    with pytest.raises(RuntimeError, match="forest fell over"):
        bad.result(timeout=10)
    coalescer.close()
    assert handler.calls == [["warm"], ["good", "bad"], ["good"], ["bad"]]


def test_result_count_mismatch_is_an_error_not_a_hang():
    coalescer = make_coalescer(lambda items: ([], 1))
    future = coalescer.submit(["a", "b"])
    with pytest.raises(ServerClosedError, match="returned 0 results"):
        future.result(timeout=10)
    coalescer.close()


def test_metrics_track_queue_and_batches():
    registry = MetricsRegistry()
    classify = RecordingClassifier()
    coalescer = make_coalescer(classify, metrics=registry)
    coalescer.submit(["a"]).result(timeout=10)
    coalescer.close()
    snapshot = registry.snapshot()
    assert snapshot["batches_total"] == 1
    assert snapshot["queue_items"] == 0
    assert snapshot["batch_size"]["count"] == 1


def test_constructor_validation():
    handlers = {"classify": lambda items: ([], 1)}
    with pytest.raises(ValueError):
        RequestCoalescer(handlers, max_batch=0)
    with pytest.raises(ValueError):
        RequestCoalescer(handlers, queue_depth=0)
    with pytest.raises(ValueError):
        RequestCoalescer(handlers, workers=0)
    with pytest.raises(ValueError):
        RequestCoalescer({})
    coalescer = RequestCoalescer(handlers)
    with pytest.raises(ValueError):
        coalescer.submit([])
    coalescer.close()
