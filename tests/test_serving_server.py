"""Integration tests for the classification server
(``repro.serving.server``): a live HTTP server driven over
``http.client`` by concurrent client threads, with decisions checked
bit-identical to direct ``ClassificationService.classify_bytes``, the
503 backpressure path, model hot-reload under live traffic, and the
observability endpoints.
"""

import base64
import json
import os
import socket
import statistics
import threading
import time
from dataclasses import replace
from http.client import HTTPConnection, HTTPResponse

import pytest

from repro.api.service import ClassificationService, Decision
from repro.serving import ClassificationServer, DecisionLog, ServerConfig
from repro.serving.model_manager import ModelManager
from repro.serving.protocol import decision_to_dict

from test_api_artifact import make_records


# ------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def model_artifacts(tmp_path_factory):
    """Generation-A and (renamed-classes) generation-B artifacts."""

    directory = tmp_path_factory.mktemp("server-models")
    records = make_records(30, seed=21, n_families=3)
    renamed = [replace(r, class_name=f"v2-{r.class_name}") for r in records]
    params = dict(feature_types=["ssdeep-file"], n_estimators=10,
                  random_state=1, confidence_threshold=0.1)
    gen_a = directory / "gen-a.rpm"
    gen_b = directory / "gen-b.rpm"
    ClassificationService.train(records, **params).save(gen_a)
    ClassificationService.train(renamed, **params).save(gen_b)
    return gen_a, gen_b


@pytest.fixture()
def live_server(model_artifacts, tmp_path):
    """A server over generation A, plus its live artifact path."""

    gen_a, _ = model_artifacts
    live = tmp_path / "model.rpm"
    live.write_bytes(gen_a.read_bytes())
    manager = ModelManager(live, poll_interval=0.05, cache_size=256)
    log = DecisionLog(tmp_path / "decisions.jsonl")
    server = ClassificationServer(
        manager, ServerConfig(port=0, workers=2, max_batch=16),
        decision_log=log).start()
    try:
        yield server, live
    finally:
        server.shutdown()


def request_json(port, method, path, payload=None, timeout=30):
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            json.loads(response.read())
    finally:
        conn.close()


def classify_item(sample_id, data: bytes) -> dict:
    return {"id": sample_id, "data": base64.b64encode(data).decode("ascii")}


def payloads(count, *, tag="exe", size=1024):
    # Distinct deterministic payloads: distinct digests, no cache alias.
    return [(f"{tag}-{n}", (f"{tag}-{n}|".encode() +
                            bytes((n * 31 + k) % 256 for k in range(size))))
            for n in range(count)]


# ------------------------------------------------------ bit-identity
def test_concurrent_clients_get_bit_identical_decisions(live_server,
                                                        model_artifacts):
    server, _ = live_server
    gen_a, _ = model_artifacts
    pool = payloads(48)
    per_client = 3                                  # 16 clients x 3 items
    reference = ClassificationService.load(gen_a, cache_size=0)
    expected = {sid: decision_to_dict(d) for (sid, data), d in zip(
        pool, reference.classify_bytes(pool))}

    results: dict[str, dict] = {}
    errors: list = []

    def client(worker):
        try:
            mine = pool[worker * per_client:(worker + 1) * per_client]
            status, _, body = request_json(
                server.port, "POST", "/classify",
                {"items": [classify_item(sid, data) for sid, data in mine]})
            assert status == 200, body
            assert body["model_generation"] == 1
            # Response order mirrors request order.
            assert [d["sample_id"] for d in body["decisions"]] == \
                [sid for sid, _ in mine]
            for decision in body["decisions"]:
                results[decision["sample_id"]] = decision
        except Exception as exc:  # noqa: BLE001 — surface in main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(w,)) for w in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert results == expected                     # bit-identical decisions


def test_served_decisions_match_for_path_and_inline_submission(live_server,
                                                               tmp_path):
    server, _ = live_server
    data = payloads(1, tag="dual")[0][1]
    on_disk = tmp_path / "dual.bin"
    on_disk.write_bytes(data)
    status, _, body = request_json(server.port, "POST", "/classify", {
        "items": [{"id": "inline", "data":
                   base64.b64encode(data).decode("ascii")},
                  {"id": "local", "path": str(on_disk)}]})
    assert status == 200
    inline, local = body["decisions"]
    assert (inline["predicted_class"], inline["confidence"]) == \
        (local["predicted_class"], local["confidence"])


# ----------------------------------------------------- observability
def test_healthz_and_metrics_endpoints(live_server):
    server, _ = live_server
    status, _, health = request_json(server.port, "GET", "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["model_generation"] == 1
    sid, data = payloads(1, tag="obs")[0]
    request_json(server.port, "POST", "/classify",
                 {"items": [classify_item(sid, data)]})
    status, _, metrics = request_json(server.port, "GET", "/metrics")
    assert status == 200
    assert metrics["http_responses_ok"] >= 1
    assert metrics["items_classified_total"] >= 1
    latency = metrics["request_latency_seconds"]
    assert latency["count"] >= 1
    assert latency["p50"] <= latency["p95"] <= latency["p99"]
    assert metrics["service_cache"]["capacity"] == 256
    extraction = metrics["extraction_cache"]
    assert set(extraction) == {"hits", "misses", "size", "capacity"}
    assert extraction["capacity"] == 256
    assert extraction["misses"] >= 1


def test_shared_registry_exposes_manager_metrics(model_artifacts, tmp_path):
    # The CLI wires one registry through manager, decision log and
    # server, so /metrics must carry the reload gauge/counters too.
    from repro.serving import MetricsRegistry

    gen_a, _ = model_artifacts
    live = tmp_path / "model.rpm"
    live.write_bytes(gen_a.read_bytes())
    registry = MetricsRegistry()
    manager = ModelManager(live, poll_interval=0, metrics=registry,
                           cache_size=0)
    server = ClassificationServer(manager, ServerConfig(port=0),
                                  metrics=registry).start()
    try:
        _, _, metrics = request_json(server.port, "GET", "/metrics")
        assert metrics["model_generation"] == 1.0
        assert metrics["model_reloads_total"] == 0
        assert metrics["model_reload_failures_total"] == 0
    finally:
        server.shutdown()


def test_unknown_routes_and_malformed_requests(live_server):
    server, _ = live_server
    status, _, _ = request_json(server.port, "GET", "/nope")
    assert status == 404
    status, _, body = request_json(server.port, "POST", "/classify",
                                   {"items": []})
    assert status == 400 and "error" in body
    status, _, body = request_json(server.port, "POST", "/classify",
                                   {"items": [{"id": "x",
                                               "data": "!!bad!!"}]})
    assert status == 400 and "base64" in body["error"]


@pytest.mark.parametrize("kind", ["classify", "ingest"])
def test_deeply_nested_json_body_answers_400_not_500(kind):
    """JSON nested past the decoder's recursion limit is a bad request,
    never a server error: 100 KB of "[", and a 10,000-deep array inside
    "items"."""

    server = ClassificationServer(
        GatedManager(), ServerConfig(port=0, workers=1, enable_ingest=True))
    bodies = (b"[" * 100_000,
              b'{"items": ' + b"[" * 10_000 + b"]" * 10_000 + b"}")
    try:
        for body in bodies:
            status, _headers, response = server.handle(kind, body)
            assert status == 400
            assert "nests JSON too deeply" in json.loads(response)["error"]
        assert server.metrics.counter("http_responses_error").value == 0
        assert server.metrics.counter("http_responses_bad_request").value \
            == len(bodies)
    finally:
        server.shutdown()


def test_negative_content_length_is_rejected_not_read(live_server):
    # rfile.read(-1) would block until the client hangs up, parking a
    # handler thread forever; the server must reject it up front.
    server, _ = live_server
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("POST", "/classify", body=None,
                     headers={"Content-Length": "-1"})
        response = conn.getresponse()
        assert response.status == 400
        assert "non-negative" in json.loads(response.read())["error"]
    finally:
        conn.close()


# ------------------------------------------------------------ transport
def test_keep_alive_round_trip_pays_no_delayed_ack_stall(live_server):
    """A response leaves in one write.  Sent as headers and then body
    with Nagle's algorithm on, the body waits for the client's delayed
    ACK, ~40 ms per keep-alive request on Linux loopback."""

    server, _ = live_server
    # A default client: one connection, its own Nagle left on.
    conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
    round_trip_ms = {}
    try:
        for sample_id, data in payloads(24, tag="keep-alive"):
            body = json.dumps({"items": [classify_item(sample_id, data)]})
            start = time.perf_counter()
            conn.request("POST", "/classify", body)
            response = conn.getresponse()
            response.read()
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert response.status == 200
            round_trip_ms[response.getheader("X-Request-Id")] = elapsed_ms
    finally:
        conn.close()
    _, _, traces = request_json(server.port, "GET", "/debug/trace")
    wall_ms = {t["request_id"]: t["wall_ms"] for t in traces["recent"]}
    outside_server = [round_trip_ms[rid] - wall_ms[rid]
                      for rid in round_trip_ms]
    assert statistics.median(outside_server) < 10.0, outside_server


def test_expect_100_continue_reaches_the_client_before_the_body(
        live_server):
    # The stdlib answers "Expect: 100-continue" through end_headers()
    # and then blocks reading the body, so the interim reply must not
    # sit in a write buffer.
    server, _ = live_server
    sample_id, data = payloads(1, tag="expect")[0]
    body = json.dumps({"items": [classify_item(sample_id, data)]}).encode()
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=1.0) as sock:
        sock.sendall(b"POST /classify HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: %d\r\n"
                     b"Expect: 100-continue\r\n\r\n" % len(body))
        interim = b""
        while b"\r\n\r\n" not in interim:
            chunk = sock.recv(4096)             # socket.timeout after 1 s
            assert chunk, "connection closed before the interim reply"
            interim += chunk
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.settimeout(30)
        sock.sendall(body)
        response = HTTPResponse(sock)
        response.begin()
        assert response.status == 200
        decisions = json.loads(response.read())["decisions"]
        assert [d["sample_id"] for d in decisions] == [sample_id]


def test_accepted_sockets_have_nagle_off(live_server):
    # On loopback the single write alone avoids the stall, so the
    # round-trip test cannot see TCP_NODELAY; check the option itself.
    server, _ = live_server
    httpd = server._httpd
    accepted = []
    accept = httpd.get_request

    def recording_accept():
        request = accept()
        accepted.append(request[0])
        return request

    httpd.get_request = recording_accept
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        conn.getresponse().read()
        assert len(accepted) == 1
        assert accepted[0].getsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY)
    finally:
        conn.close()


def test_oversized_request_body_is_rejected_with_413(model_artifacts,
                                                     tmp_path):
    gen_a, _ = model_artifacts
    live = tmp_path / "model.rpm"
    live.write_bytes(gen_a.read_bytes())
    manager = ModelManager(live, poll_interval=0, cache_size=0)
    server = ClassificationServer(
        manager, ServerConfig(port=0, max_request_bytes=2048)).start()
    try:
        sid, data = payloads(1, tag="big", size=4096)[0]
        status, _, body = request_json(server.port, "POST", "/classify",
                                       {"items": [classify_item(sid, data)]})
        assert status == 413
        assert "cap" in body["error"]
    finally:
        server.shutdown()


# ------------------------------------------------------- backpressure
class GatedManager:
    """Duck-typed manager whose classify pass blocks on an event."""

    generation = 1
    model_path = "gated-stub"

    def __init__(self):
        self.gate = threading.Event()
        self.entered = threading.Event()

    def classify_items(self, items):
        self.entered.set()
        assert self.gate.wait(timeout=30)
        return [Decision(sample_id=sid, predicted_class="stub",
                         confidence=1.0, decision="within-allocation")
                for sid, _data in items], self.generation


def test_full_queue_answers_503_with_retry_after():
    manager = GatedManager()
    server = ClassificationServer(
        manager, ServerConfig(port=0, workers=1, max_batch=1,
                              queue_depth=1, retry_after_seconds=2)).start()
    statuses: list[tuple[str, int]] = []
    lock = threading.Lock()

    def client(sid):
        status, headers, _ = request_json(
            server.port, "POST", "/classify",
            {"items": [classify_item(sid, b"payload-" + sid.encode())]},
            timeout=60)
        with lock:
            statuses.append((sid, status, headers))

    try:
        # First request occupies the single worker...
        first = threading.Thread(target=client, args=("in-flight",))
        first.start()
        assert manager.entered.wait(timeout=30)
        # ...second fills the 1-item queue...
        second = threading.Thread(target=client, args=("queued",))
        second.start()
        deadline = threading.Event()
        for _ in range(200):
            _, _, metrics = request_json(server.port, "GET", "/metrics")
            if metrics["queue_items"] >= 1:
                break
            deadline.wait(0.02)
        # ...and the third is rejected immediately with Retry-After.
        status, headers, body = request_json(
            server.port, "POST", "/classify",
            {"items": [classify_item("rejected", b"payload-rejected")]})
        assert status == 503
        assert headers.get("Retry-After") == "2"
        assert "queue" in body["error"]
        manager.gate.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert {s[1] for s in statuses} == {200}
    finally:
        manager.gate.set()
        server.shutdown()


# --------------------------------------------------------- hot reload
def test_hot_reload_under_live_traffic_never_mixes_generations(
        live_server, model_artifacts):
    server, live = live_server
    gen_a, gen_b = model_artifacts
    pool = payloads(12, tag="reload")
    reference_a = ClassificationService.load(gen_a, cache_size=0)
    reference_b = ClassificationService.load(gen_b, cache_size=0)
    expected = {
        1: [decision_to_dict(d) for d in reference_a.classify_bytes(pool)],
        2: [decision_to_dict(d) for d in reference_b.classify_bytes(pool)],
    }

    stop = threading.Event()
    responses: list = []
    errors: list = []
    lock = threading.Lock()

    def client():
        while not stop.is_set():
            try:
                status, _, body = request_json(
                    server.port, "POST", "/classify",
                    {"items": [classify_item(sid, data)
                               for sid, data in pool]})
                assert status == 200, body
                with lock:
                    responses.append(body)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
                return

    threads = [threading.Thread(target=client) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        # Publish generation B atomically under live traffic.
        staging = live.with_name("staging.rpm")
        staging.write_bytes(gen_b.read_bytes())
        os.replace(staging, live)
        deadline = threading.Event()
        for _ in range(400):                       # up to ~20 s
            with lock:
                seen = {r["model_generation"] for r in responses}
            if 2 in seen or errors:
                break
            deadline.wait(0.05)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)

    assert not errors
    with lock:
        seen = {r["model_generation"] for r in responses}
    assert seen == {1, 2}, f"generations observed: {seen}"
    # Every response was produced wholly by one generation: its
    # decisions must equal that generation's direct classify_bytes
    # output — a mixed response could match neither.
    for response in responses:
        assert response["decisions"] == \
            expected[response["model_generation"]]


# ---------------------------------------------------- graceful drain
def test_shutdown_drains_and_flushes_decision_log(model_artifacts, tmp_path):
    gen_a, _ = model_artifacts
    live = tmp_path / "model.rpm"
    live.write_bytes(gen_a.read_bytes())
    manager = ModelManager(live, poll_interval=0, cache_size=0)
    log_path = tmp_path / "decisions.jsonl"
    server = ClassificationServer(
        manager, ServerConfig(port=0, workers=1),
        decision_log=DecisionLog(log_path)).start()
    pool = payloads(5, tag="drain")
    status, _, body = request_json(
        server.port, "POST", "/classify",
        {"items": [classify_item(sid, data) for sid, data in pool]})
    assert status == 200
    server.shutdown()
    server.shutdown()                              # idempotent
    records = [json.loads(line)
               for line in log_path.read_text().splitlines()]
    assert [r["sample_id"] for r in records] == [sid for sid, _ in pool]
    assert all(r["model_generation"] == 1 for r in records)
    assert all("unix_time" in r for r in records)


# ------------------------------------------------ server-local path reads
@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_device_path_answers_400_on_classify_and_ingest(model_artifacts,
                                                        tmp_path):
    # A real `repro-classify serve` child under a 768 MiB address-space
    # limit: a server that read /dev/zero to its (absent) end would die
    # of MemoryError there rather than grow this process.
    import re
    import resource
    import subprocess
    import sys

    gen_a, _ = model_artifacts
    live = tmp_path / "model.rpm"
    live.write_bytes(gen_a.read_bytes())
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep +
               os.environ.get("PYTHONPATH", ""))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))

    with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--model", str(live),
             "--port", "0", "--ingest", "--reload-interval", "0",
             "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, preexec_fn=limit_memory) as proc:
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"server did not start: {banner}"
            port = int(match.group(1))
            for path, item in (
                    ("/classify", {"id": "z", "path": "/dev/zero"}),
                    ("/ingest", {"id": "z", "class": "fam0",
                                 "path": "/dev/zero"})):
                started = time.monotonic()
                status, _, body = request_json(port, "POST", path,
                                               {"items": [item]}, timeout=5)
                assert status == 400, body
                assert "not a regular file" in body["error"]
                assert time.monotonic() - started < 5
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
