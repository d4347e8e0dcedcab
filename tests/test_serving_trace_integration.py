"""End-to-end tracing tests over a live server: the ``X-Request-Id``
lifecycle (response header → decision-log lines → ingest acks), the
``GET /debug/trace`` per-stage breakdown with span sum ≈ wall time —
across the in-process, ``--score-workers`` and ``--ingest --wal-dir``
serving modes — the ``/healthz`` schema, Prometheus exposition of
``GET /metrics`` and the ``/debug/profile`` gate.
"""

import base64
import json
import threading
from http.client import HTTPConnection

import pytest

from repro.api.service import ClassificationService
from repro.observability.promtext import parse_prometheus
from repro.serving import ClassificationServer, DecisionLog, ServerConfig
from repro.serving.model_manager import ModelManager

from test_api_artifact import make_records
from test_serving_server import classify_item, payloads, request_json

#: Stages every in-process classify trace must attribute.
CLASSIFY_STAGES = {"parse", "queue_wait", "batch_assembly", "lock_wait",
                   "extract_features", "candidate_gen", "dp_scoring",
                   "forest_predict", "serialize"}


# ------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def model_artifact(tmp_path_factory):
    directory = tmp_path_factory.mktemp("trace-models")
    records = make_records(30, seed=21, n_families=3)
    artifact = directory / "model.rpm"
    ClassificationService.train(
        records, feature_types=["ssdeep-file"], n_estimators=10,
        random_state=1, confidence_threshold=0.1).save(artifact)
    return artifact


def make_server(model_artifact, tmp_path, *, config=None, decision_log=None,
                **manager_kwargs):
    live = tmp_path / "model.rpm"
    live.write_bytes(model_artifact.read_bytes())
    manager = ModelManager(live, poll_interval=0, cache_size=0,
                           **manager_kwargs)
    return ClassificationServer(
        manager, config or ServerConfig(port=0, workers=2, max_batch=16),
        decision_log=decision_log).start()


def request_text(port, method, path, timeout=30):
    """Like ``request_json`` but for non-JSON bodies (exposition text)."""

    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, None)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read().decode("utf-8")
    finally:
        conn.close()


def classify(server, items):
    status, headers, body = request_json(
        server.port, "POST", "/classify",
        {"items": [classify_item(sid, data) for sid, data in items]})
    assert status == 200, body
    return headers, body


def trace_by_id(server, request_id):
    status, _, body = request_json(server.port, "GET", "/debug/trace")
    assert status == 200
    matches = [t for t in body["recent"] if t["request_id"] == request_id]
    assert matches, f"request {request_id} not in the trace ring"
    return matches[0]


def assert_stage_sum_approximates_wall(trace, required_stages):
    assert required_stages <= set(trace["stages"]), trace["stages"]
    assert all(ms >= 0.0 for ms in trace["stages"].values())
    stage_sum = sum(trace["stages"].values())
    # Top-level stages partition the request: their sum must not exceed
    # the wall (beyond rounding) and must account for most of it — the
    # slack is HTTP dispatch and future hand-off, not a missing stage.
    assert stage_sum <= trace["wall_ms"] * 1.05 + 1.0
    assert stage_sum >= trace["wall_ms"] * 0.5


# ----------------------------------------------------- request-id lifecycle
def test_request_id_header_matches_decision_log_lines(model_artifact,
                                                      tmp_path):
    log_path = tmp_path / "decisions.jsonl"
    server = make_server(model_artifact, tmp_path,
                         decision_log=DecisionLog(log_path))
    try:
        first_headers, _ = classify(server, payloads(3, tag="rid-a"))
        second_headers, _ = classify(server, payloads(2, tag="rid-b"))
    finally:
        server.shutdown()
    first_id = first_headers["X-Request-Id"]
    second_id = second_headers["X-Request-Id"]
    assert first_id != second_id
    int(first_id, 16)                              # 16-hex-char id
    assert len(first_id) == 16
    lines = [json.loads(line) for line in
             log_path.read_text().splitlines()]
    assert len(lines) == 5
    # Regression: every decision-log line carries the id of the request
    # that produced it — the audit trail is greppable by response header.
    assert [line["request_id"] for line in lines] == \
        [first_id] * 3 + [second_id] * 2


def test_every_response_carries_a_request_id(model_artifact, tmp_path):
    server = make_server(model_artifact, tmp_path)
    try:
        status, headers, _ = request_json(
            server.port, "POST", "/classify", {"items": []})
        assert status == 400                       # protocol error
        assert len(headers["X-Request-Id"]) == 16
        status, headers, _ = request_json(
            server.port, "POST", "/ingest", {"items": []})
        assert status == 403                       # ingest disabled
        assert len(headers["X-Request-Id"]) == 16
    finally:
        server.shutdown()


# ------------------------------------------------------------ /debug/trace
def test_debug_trace_breaks_a_request_into_stages(model_artifact, tmp_path):
    server = make_server(model_artifact, tmp_path,
                         decision_log=DecisionLog(tmp_path / "d.jsonl"))
    try:
        headers, _ = classify(server, payloads(4, tag="stages"))
        trace = trace_by_id(server, headers["X-Request-Id"])
    finally:
        server.shutdown()
    assert trace["kind"] == "classify"
    assert trace["status"] == 200
    assert trace["items"] == 4
    assert_stage_sum_approximates_wall(
        trace, CLASSIFY_STAGES | {"decision_log"})
    # Spans carry offsets within the request and batch metadata.
    by_name = {s["name"]: s for s in trace["spans"]}
    assert by_name["batch_assembly"]["batch_items"] == 4
    assert all(s["offset_ms"] >= -1.0 for s in trace["spans"])


def test_debug_trace_limit_and_validation(model_artifact, tmp_path):
    server = make_server(model_artifact, tmp_path)
    try:
        for n in range(3):
            classify(server, payloads(1, tag=f"lim-{n}"))
        status, _, body = request_json(server.port, "GET",
                                       "/debug/trace?limit=1")
        assert status == 200
        assert len(body["recent"]) == 1
        assert body["config"]["sample_rate"] == 1.0
        status, _, body = request_json(server.port, "GET",
                                       "/debug/trace?limit=banana")
        assert status == 400
    finally:
        server.shutdown()


def test_sampling_off_still_issues_request_ids(model_artifact, tmp_path):
    config = ServerConfig(port=0, workers=2, trace_sample=0.0)
    server = make_server(model_artifact, tmp_path, config=config)
    try:
        headers, _ = classify(server, payloads(2, tag="off"))
        assert len(headers["X-Request-Id"]) == 16
        status, _, body = request_json(server.port, "GET", "/debug/trace")
        assert status == 200
        assert body["recent"] == []                # nothing sampled
        assert body["config"]["enabled"] is False
        status, _, health = request_json(server.port, "GET", "/healthz")
        assert health["tracing"]["enabled"] is False
    finally:
        server.shutdown()


# ------------------------------------------------------- score-worker mode
def test_worker_mode_traces_ship_spans_across_processes(model_artifact,
                                                        tmp_path):
    server = make_server(model_artifact, tmp_path, mmap=True,
                         score_workers=2)
    try:
        headers, body = classify(server, payloads(4, tag="workers"))
        trace = trace_by_id(server, headers["X-Request-Id"])
    finally:
        server.shutdown()
    # The model pass ran in worker processes: the parent's stage rollup
    # shows worker_dispatch, and the workers' own stages come back as
    # worker-labeled detail spans re-based onto the parent clock.
    assert_stage_sum_approximates_wall(
        trace, {"parse", "queue_wait", "batch_assembly", "worker_dispatch",
                "serialize"})
    worker_spans = [s for s in trace["spans"] if "worker" in s]
    assert worker_spans, trace["spans"]
    assert {s["name"] for s in worker_spans} >= {"extract_features",
                                                 "candidate_gen",
                                                 "dp_scoring"}
    dispatch = next(s for s in trace["spans"]
                    if s["name"] == "worker_dispatch")
    for span_ in worker_spans:
        assert span_["ms"] <= dispatch["ms"] * 1.05 + 1.0


# --------------------------------------------------------- ingest+WAL mode
def test_ingest_wal_mode_traces_fsync_and_acks_request_id(model_artifact,
                                                          tmp_path):
    wal_dir = tmp_path / "wal"
    config = ServerConfig(port=0, workers=2, enable_ingest=True)
    server = make_server(model_artifact, tmp_path, config=config,
                         mutable=True, wal_dir=wal_dir)
    try:
        alien = b"\x7fALIEN" + bytes((11 * k) % 241
                                     for k in range(4096)) * 4
        status, headers, ack = request_json(
            server.port, "POST", "/ingest",
            {"items": [{"id": "online-1", "class": "fam1",
                        "data": base64.b64encode(alien).decode("ascii")}]})
        assert status == 200, ack
        request_id = headers["X-Request-Id"]
        assert ack["request_id"] == request_id     # ack ↔ header ↔ trace
        assert ack["durable"] is True
        trace = trace_by_id(server, request_id)
        status, _, health = request_json(server.port, "GET", "/healthz")
    finally:
        server.shutdown()
    assert trace["kind"] == "ingest"
    assert trace["items"] == 1
    assert_stage_sum_approximates_wall(
        trace, {"parse", "queue_wait", "batch_assembly", "lock_wait",
                "extract_features", "ingest_apply", "wal_fsync",
                "serialize"})
    assert health["durability"]["wal_records"] >= 1


# ---------------------------------------------------------------- /healthz
def check_tracing_block(tracing):
    assert isinstance(tracing["enabled"], bool)
    assert isinstance(tracing["sample_rate"], float)
    assert isinstance(tracing["slow_request_ms"], float)
    assert isinstance(tracing["ring_size"], int)
    assert isinstance(tracing["profiling_enabled"], bool)


def test_healthz_schema_default_mode(model_artifact, tmp_path):
    server = make_server(model_artifact, tmp_path)
    try:
        status, _, health = request_json(server.port, "GET", "/healthz")
    finally:
        server.shutdown()
    assert status == 200
    assert health["status"] == "ok"
    assert isinstance(health["model_generation"], int)
    assert isinstance(health["uptime_seconds"], float)
    assert health["ingest_enabled"] is False
    assert isinstance(health["load_mode"], str)
    assert isinstance(health["score_workers"], int)
    assert "corpus" not in health                  # ingest-mode only
    check_tracing_block(health["tracing"])
    assert health["tracing"]["profiling_enabled"] is False


def test_healthz_schema_ingest_wal_mode(model_artifact, tmp_path):
    config = ServerConfig(port=0, workers=2, enable_ingest=True,
                          trace_sample=0.5, slow_request_ms=250.0,
                          enable_profiling=True)
    server = make_server(model_artifact, tmp_path, config=config,
                         mutable=True, wal_dir=tmp_path / "wal")
    try:
        status, _, health = request_json(server.port, "GET", "/healthz")
    finally:
        server.shutdown()
    assert status == 200
    assert health["ingest_enabled"] is True
    assert isinstance(health["corpus"]["members"], int)
    assert health["corpus"]["total_members"] == health["corpus"]["members"]
    assert health["corpus"]["tombstones"] == 0
    assert health["corpus"]["tombstone_ratio"] == 0.0
    assert isinstance(health["durability"], dict)
    check_tracing_block(health["tracing"])
    assert health["tracing"] == {"enabled": True, "sample_rate": 0.5,
                                 "slow_request_ms": 250.0,
                                 "ring_size": 128,
                                 "profiling_enabled": True}


# ----------------------------------------------------------------- /metrics
def test_metrics_prometheus_exposition_parses(model_artifact, tmp_path):
    server = make_server(model_artifact, tmp_path)
    try:
        classify(server, payloads(3, tag="prom"))
        status, headers, text = request_text(
            server.port, "GET", "/metrics?format=prometheus")
        status_json, _, snapshot = request_json(server.port, "GET",
                                                "/metrics")
        status_bad, _, _ = request_json(server.port, "GET",
                                        "/metrics?format=xml")
    finally:
        server.shutdown()
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    families = parse_prometheus(text)              # raises on bad format
    assert families["http_requests_total"]["type"] == "counter"
    assert families["request_latency_seconds"]["type"] == "histogram"
    stage_samples = families["stage_latency_seconds"]["samples"]
    stages = {labels["stage"] for _, labels, _ in stage_samples
              if "stage" in labels}
    assert CLASSIFY_STAGES <= stages
    # The JSON snapshot keeps its pre-existing shape alongside.
    assert status_json == 200
    assert snapshot["http_requests_total"] >= 1
    assert snapshot["stage_latency_seconds"]["labels"] == \
        ["stage", "worker"]
    assert status_bad == 400


# ------------------------------------------------------------ /debug/profile
def test_debug_profile_is_gated_by_flag(model_artifact, tmp_path):
    server = make_server(model_artifact, tmp_path)
    try:
        status, _, body = request_json(server.port, "GET", "/debug/profile")
        assert status == 403
        assert "--enable-profiling" in body["error"]
    finally:
        server.shutdown()


def test_debug_profile_captures_batches_in_window(model_artifact, tmp_path):
    config = ServerConfig(port=0, workers=2, enable_profiling=True)
    server = make_server(model_artifact, tmp_path, config=config)
    stop = threading.Event()

    def traffic():
        n = 0
        while not stop.is_set():
            classify(server, payloads(1, tag=f"prof-{n}"))
            n += 1

    thread = threading.Thread(target=traffic)
    thread.start()
    try:
        status, _, text = request_text(
            server.port, "GET", "/debug/profile?seconds=0.5")
        status_bad, _, _ = request_text(
            server.port, "GET", "/debug/profile?seconds=banana")
        status_zero, _, _ = request_text(
            server.port, "GET", "/debug/profile?seconds=0")
    finally:
        stop.set()
        thread.join()
        server.shutdown()
    assert status == 200
    assert "profiled" in text and "worker thread" in text
    assert "cumtime" in text                       # pstats table rendered
    assert status_bad == 400
    assert status_zero == 400
