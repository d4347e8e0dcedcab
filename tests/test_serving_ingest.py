"""Online ingestion tests: the ``/ingest`` wire protocol, the mutable
:class:`ClassificationService` corpus API, :class:`ModelManager`
mutation/publish, the live HTTP endpoints (``POST /ingest``,
``DELETE /samples/<id>``) and the ``repro-classify ingest`` client.
"""

import base64
import json

import pytest

from repro.api.service import ClassificationService
from repro.exceptions import ProtocolError, ValidationError
from repro.serving import ClassificationServer, ServerConfig
from repro.serving.protocol import (
    DEFAULT_MAX_INGEST_ITEMS,
    encode_ingest_report,
    parse_items,
    parse_purge_path,
)
from repro.serving.metrics import MetricsRegistry
from repro.serving.model_manager import ModelManager

from test_api_artifact import make_records
from test_serving_server import payloads, request_json


def ingest_item(sample_id, data: bytes, class_name: str) -> dict:
    return {"id": sample_id, "class": class_name,
            "data": base64.b64encode(data).decode("ascii")}


def body(items) -> bytes:
    return json.dumps({"items": items}).encode("utf-8")


def parse_ingest(payload: bytes, **caps):
    caps.setdefault("max_items", DEFAULT_MAX_INGEST_ITEMS)
    return parse_items(payload, labelled=True, **caps)


# ------------------------------------------------------------ wire protocol
def test_parse_ingest_request_decodes_labelled_items(tmp_path):
    local = tmp_path / "exe"
    local.write_bytes(b"local-bytes")
    items = parse_ingest(body([
        ingest_item("a", b"inline-bytes", "fam0"),
        {"id": "b", "class": "fam1", "path": str(local)},
    ]))
    assert [(i.sample_id, i.class_name, i.data) for i in items] == \
        [("a", "fam0", b"inline-bytes"), ("b", "fam1", b"local-bytes")]


@pytest.mark.parametrize("payload, match", [
    (b"not json", "not valid JSON"),
    (b"[]", "JSON object"),
    (b"{}", '"items"'),
    (body(["x"]), "JSON object"),
    (body([{"class": "c", "data": "QQ=="}]), '"id"'),
    (body([{"id": "a", "data": "QQ=="}]), '"class"'),
    (body([{"id": "a", "class": "", "data": "QQ=="}]), '"class"'),
    (body([{"id": "a", "class": "c"}]), "exactly one"),
    (body([{"id": "a", "class": "c", "data": "QQ==", "path": "/x"}]),
     "exactly one"),
    (body([{"id": "a", "class": "c", "data": "@@@"}]), "base64"),
])
def test_parse_ingest_request_rejects_bad_shapes(payload, match):
    with pytest.raises(ProtocolError, match=match):
        parse_ingest(payload)


def test_parse_ingest_request_enforces_caps():
    items = [ingest_item(f"s{i}", b"x", "c")
             for i in range(DEFAULT_MAX_INGEST_ITEMS + 1)]
    with pytest.raises(ProtocolError, match="ingest cap"):
        parse_ingest(body(items))
    with pytest.raises(ProtocolError, match="cap"):
        parse_ingest(body([ingest_item("a", b"x" * 64, "c")]),
                     max_item_bytes=16)


def test_parse_purge_path_unquotes():
    assert parse_purge_path("/samples/node7%2Fjob-1%2Fa.out") == \
        "node7/job-1/a.out"
    with pytest.raises(ProtocolError):
        parse_purge_path("/samples/")
    with pytest.raises(ProtocolError):
        parse_purge_path("/other/x")


def test_encode_ingest_report_shape():
    raw = encode_ingest_report(
        [{"sample_id": "a", "class": "c", "sequence": 30}], 2, 31)
    payload = json.loads(raw)
    assert payload == {"ingested": [{"sample_id": "a", "class": "c",
                                     "sequence": 30}],
                       "model_generation": 2, "corpus_members": 31,
                       "count": 1, "durable": False}
    durable = json.loads(encode_ingest_report([], 1, 0, durable=True))
    assert durable["durable"] is True


# --------------------------------------------------------- mutable service
@pytest.fixture(scope="module")
def trained_records():
    return make_records(30, seed=21, n_families=3)


@pytest.fixture()
def mutable_service(trained_records):
    service = ClassificationService.train(
        trained_records, feature_types=["ssdeep-file"], n_estimators=10,
        random_state=1, confidence_threshold=0.1, cache_size=64)
    service.enable_mutation()
    return service


def test_enable_mutation_keeps_the_index_and_is_idempotent(mutable_service):
    index = mutable_service.similarity_index
    mutable_service.enable_mutation()            # idempotent
    assert mutable_service.similarity_index is index


def test_immutable_service_rejects_mutation(trained_records):
    service = ClassificationService.train(
        trained_records, feature_types=["ssdeep-file"], n_estimators=5,
        random_state=1)
    with pytest.raises(ValidationError, match="enable_mutation"):
        service.ingest_bytes([("a", b"x", "fam0")])
    with pytest.raises(ValidationError, match="enable_mutation"):
        service.purge("a")


def test_ingested_sample_is_classified_without_restart(mutable_service,
                                                       trained_records):
    # A payload dissimilar to the training corpus, ingested as fam1:
    # its exact bytes must afterwards classify as fam1 via the anchor
    # it just became.
    alien = b"\x7fALIEN" + bytes((7 * k) % 251 for k in range(4096)) * 4
    before = mutable_service.classify_bytes([("probe", alien)])[0]
    reports = mutable_service.ingest_bytes([("online-1", alien, "fam1")])
    assert reports == [{"sample_id": "online-1", "class": "fam1",
                        "sequence": 30}]
    assert mutable_service.similarity_index.n_members == 31
    after = mutable_service.classify_bytes([("probe", alien)])[0]
    assert after.predicted_class == "fam1"
    assert after.confidence >= before.confidence


def test_ingest_rejects_unknown_class_without_mutating(mutable_service):
    with pytest.raises(ValidationError, match="unknown class"):
        mutable_service.ingest_bytes([("ok", b"data-a" * 100, "fam0"),
                                      ("bad", b"data-b" * 100, "new-fam")])
    # All-or-nothing: the valid first item must not have been added.
    assert mutable_service.similarity_index.n_members == 30


def test_ingest_invalidates_digest_cache(mutable_service):
    probe = bytes(range(256)) * 16
    first = mutable_service.classify_bytes([("p", probe)])[0]
    assert mutable_service.cache_info()["size"] >= 1
    mutable_service.ingest_bytes([("online-1", probe, "fam2")])
    assert mutable_service.cache_info()["size"] == 0
    second = mutable_service.classify_bytes([("p", probe)])[0]
    # The probe's own bytes are now a fam2 anchor with similarity 100.
    assert second.predicted_class == "fam2"
    assert first.predicted_class != "fam2" or \
        second.confidence >= first.confidence


def test_purge_guards_last_anchor_of_a_class(mutable_service,
                                             trained_records):
    fam0 = [r.sample_id for r in trained_records
            if r.class_name == "fam0"]
    for sample_id in fam0[:-1]:
        assert mutable_service.purge(sample_id) == 1
    with pytest.raises(ValidationError, match="last"):
        mutable_service.purge(fam0[-1])
    assert mutable_service.purge("never-heard-of-it") == 0
    info = mutable_service.corpus_info()
    assert info["classes"]["fam0"] == 1
    assert info["tombstones"] == len(fam0) - 1
    assert info["total_members"] == info["members"] + len(fam0) - 1
    assert info["tombstone_ratio"] == (len(fam0) - 1) / info["total_members"]
    # The corpus sequence counts tombstoned members until compaction.
    reports = mutable_service.ingest_bytes([("online-1", b"\x05" * 2048,
                                             "fam0")])
    assert reports[0]["sequence"] == info["total_members"]
    # Compaction drops them physically; queries already ignored them.
    assert mutable_service.compact() == len(fam0) - 1
    assert mutable_service.corpus_info()["tombstones"] == 0
    reports = mutable_service.ingest_bytes([("online-2", b"\x06" * 2048,
                                             "fam0")])
    assert reports[0]["sequence"] == info["members"] + 1


def test_refresh_from_index_rejects_class_set_changes(trained_records):
    from repro.index import SimilarityIndex

    service = ClassificationService.train(
        trained_records, feature_types=["ssdeep-file"], n_estimators=5,
        random_state=1)
    service.enable_mutation()
    builder = service.classifier.builder_
    rogue = SimilarityIndex(["ssdeep-file"])
    rogue.add_many([(r.sample_id, r.digests, "mystery-class")
                    for r in trained_records[:5]])
    with pytest.raises(ValidationError, match="class set"):
        builder.refresh_from_index(rogue)


# ---------------------------------------------------------- model manager
@pytest.fixture()
def mutable_manager(trained_records, tmp_path):
    live = tmp_path / "model.rpm"
    ClassificationService.train(
        trained_records, feature_types=["ssdeep-file"], n_estimators=10,
        random_state=1, confidence_threshold=0.1).save(live)
    registry = MetricsRegistry()
    manager = ModelManager(live, poll_interval=0, metrics=registry,
                           mutable=True, cache_size=64)
    return manager, registry, live


def test_manager_ingest_purge_and_gauges(mutable_manager):
    manager, registry, _ = mutable_manager
    reports, generation = manager.ingest_items(
        [("online-1", b"\x01" * 2048, "fam0"),
         ("online-2", b"\x02" * 2048, "fam1")])
    assert generation == 1
    assert [r["sample_id"] for r in reports] == ["online-1", "online-2"]
    removed, generation = manager.purge("online-1")
    assert (removed, generation) == (1, 1)
    snapshot = registry.snapshot()
    assert snapshot["ingested_samples_total"] == 2
    assert snapshot["purged_samples_total"] == 1
    assert snapshot["corpus_members"] == 31.0
    assert snapshot["corpus_tombstones"] == 1.0
    assert manager.compact() == 1
    assert registry.snapshot()["corpus_tombstones"] == 0.0


def test_manager_publish_is_atomic_and_self_suppressing(mutable_manager):
    manager, _, live = mutable_manager
    manager.ingest_items([("online-1", b"\x03" * 4096, "fam2")])
    published = manager.publish()
    assert published == live
    assert not list(live.parent.glob("*.tmp"))     # no debris
    # The watcher must not reload the manager's own snapshot...
    assert manager.maybe_reload() is False
    assert manager.generation == 1
    # ...and a fresh load sees the identical grown corpus.
    fresh = ClassificationService.load(live)
    assert fresh.similarity_index.sample_ids == \
        manager.service.similarity_index.sample_ids
    probe = [("probe", b"\x03" * 4096)]
    live_decisions, _ = manager.classify_items(probe)
    assert fresh.classify_bytes(probe) == live_decisions


def test_manager_publish_to_side_path_keeps_watching(mutable_manager,
                                                     tmp_path):
    manager, _, _ = mutable_manager
    side = tmp_path / "replica" / "snapshot.rpm"
    side.parent.mkdir()
    manager.ingest_items([("online-1", b"\x04" * 1024, "fam0")])
    assert manager.publish(side) == side
    assert ClassificationService.load(side).similarity_index.n_members == 31


def test_purged_id_stays_gone_after_publish_and_cold_reload(
        mutable_manager, trained_records):
    manager, _, live = mutable_manager
    manager.ingest_items([("online-1", b"\x06" * 2048, "fam0")])
    victim = trained_records[0].sample_id
    assert manager.purge(victim) == (1, 1)
    assert manager.corpus_info()["tombstones"] == 1
    manager.publish()
    cold = ClassificationService.load(live)
    index = cold.similarity_index
    assert index.n_tombstones == 0
    assert index.members_for_id(victim) == frozenset()
    assert index.sample_ids == manager.service.similarity_index.sample_ids
    assert cold.corpus_info()["tombstones"] == 0
    probe = [("probe", b"\x06" * 2048)]
    assert cold.classify_bytes(probe) == manager.classify_items(probe)[0]


# ------------------------------------------------------------ HTTP server
@pytest.fixture()
def ingest_server(trained_records, tmp_path):
    live = tmp_path / "model.rpm"
    ClassificationService.train(
        trained_records, feature_types=["ssdeep-file"], n_estimators=10,
        random_state=1, confidence_threshold=0.1).save(live)
    manager = ModelManager(live, poll_interval=0, mutable=True,
                           cache_size=64)
    server = ClassificationServer(
        manager, ServerConfig(port=0, workers=2, enable_ingest=True)).start()
    try:
        yield server, manager
    finally:
        server.shutdown()


def test_http_ingest_then_classify_without_restart(ingest_server):
    server, manager = ingest_server
    alien = b"\x7fALIEN" + bytes((11 * k) % 241 for k in range(4096)) * 4
    status, _, report = request_json(
        server.port, "POST", "/ingest",
        {"items": [ingest_item("online-1", alien, "fam1")]})
    assert status == 200, report
    assert report["count"] == 1
    assert report["corpus_members"] == 31
    assert report["ingested"][0] == {"sample_id": "online-1",
                                     "class": "fam1", "sequence": 30}
    status, _, answer = request_json(
        server.port, "POST", "/classify",
        {"items": [{"id": "probe",
                    "data": base64.b64encode(alien).decode("ascii")}]})
    assert status == 200
    assert answer["decisions"][0]["predicted_class"] == "fam1"
    status, _, health = request_json(server.port, "GET", "/healthz")
    assert health["ingest_enabled"] is True
    assert health["corpus"]["members"] == 31


def test_served_ingest_counts_members_without_corpus_info(mutable_manager,
                                                          monkeypatch):
    """One served ingest reads the member count in O(1): the gauges and
    the ack's ``corpus_members`` match the index, and the per-member
    ``corpus_info`` loop never runs."""

    manager, registry, _ = mutable_manager
    service = manager.service
    calls = []
    corpus_info = service.corpus_info
    monkeypatch.setattr(service, "corpus_info",
                        lambda: calls.append(1) or corpus_info())
    server = ClassificationServer(
        manager, ServerConfig(port=0, workers=1, enable_ingest=True)).start()
    try:
        status, _, report = request_json(
            server.port, "POST", "/ingest",
            {"items": [ingest_item("online-1", b"\x05" * 2048, "fam1")]})
    finally:
        server.shutdown()
    assert status == 200, report
    assert calls == []
    index = service.similarity_index
    assert report["corpus_members"] == index.n_members == 31
    snapshot = registry.snapshot()
    assert snapshot["corpus_members"] == index.n_members
    assert snapshot["corpus_tombstones"] == index.n_tombstones == 0


def test_http_ingest_unknown_class_is_400(ingest_server):
    server, _ = ingest_server
    status, _, error = request_json(
        server.port, "POST", "/ingest",
        {"items": [ingest_item("x", b"data" * 50, "no-such-class")]})
    assert status == 400
    assert "unknown class" in error["error"]


def test_http_purge_paths(ingest_server, trained_records):
    server, manager = ingest_server
    status, _, report = request_json(
        server.port, "POST", "/ingest",
        {"items": [ingest_item("online-1", b"\x05" * 512, "fam0")]})
    assert status == 200
    status, _, purged = request_json(server.port, "DELETE",
                                     "/samples/online-1")
    assert status == 200
    assert purged == {"purged": 1, "sample_id": "online-1",
                      "model_generation": 1}
    status, _, _ = request_json(server.port, "DELETE", "/samples/online-1")
    assert status == 404                            # already gone
    # Purging a whole class's anchors ends in 409, not a broken model.
    fam2 = [r.sample_id for r in trained_records if r.class_name == "fam2"]
    for sample_id in fam2[:-1]:
        status, _, _ = request_json(
            server.port, "DELETE", "/samples/" + sample_id)
        assert status == 200
    status, _, error = request_json(
        server.port, "DELETE", "/samples/" + fam2[-1])
    assert status == 409
    assert "last" in error["error"]


def test_http_ingest_disabled_is_403(trained_records, tmp_path):
    live = tmp_path / "model.rpm"
    ClassificationService.train(
        trained_records, feature_types=["ssdeep-file"], n_estimators=5,
        random_state=1).save(live)
    manager = ModelManager(live, poll_interval=0)
    server = ClassificationServer(manager, ServerConfig(port=0)).start()
    try:
        status, _, error = request_json(
            server.port, "POST", "/ingest",
            {"items": [ingest_item("x", b"data", "fam0")]})
        assert status == 403
        assert "disabled" in error["error"]
        status, _, _ = request_json(server.port, "DELETE", "/samples/x")
        assert status == 403
    finally:
        server.shutdown()


def test_ingest_shares_classify_backpressure():
    """An ingest burst is admission-controlled by the same bounded
    queue as classification: overflow answers 503 + Retry-After, and
    the drained queue admits the identical request."""

    import threading
    import time

    from repro.api.service import Decision

    class GatedManager:
        generation = 1
        model_path = "gated-stub"
        mutable = True

        def __init__(self):
            self.gate = threading.Event()
            self.entered = threading.Event()

        def classify_items(self, items):
            self.entered.set()
            assert self.gate.wait(timeout=30)
            return [Decision(sample_id=sid, predicted_class="stub",
                             confidence=1.0, decision="within-allocation")
                    for sid, _data in items], self.generation

        def ingest_items(self, items):
            return [{"sample_id": sid, "class": cls, "sequence": 0}
                    for sid, _data, cls in items], self.generation

        def corpus_info(self):
            return {"members": 0, "classes": {}, "mutable": True}

        def _corpus_counts(self):
            return 0, 0

    manager = GatedManager()
    server = ClassificationServer(
        manager, ServerConfig(port=0, workers=1, max_batch=1, queue_depth=2,
                              enable_ingest=True)).start()
    statuses = []
    lock = threading.Lock()

    def classify_client(sample_id):
        status, _, _ = request_json(
            server.port, "POST", "/classify",
            {"items": [{"id": sample_id,
                        "data": base64.b64encode(b"x").decode("ascii")}]},
            timeout=60)
        with lock:
            statuses.append(status)

    try:
        # First classify request occupies the single worker...
        first = threading.Thread(target=classify_client, args=("in-flight",))
        first.start()
        assert manager.entered.wait(timeout=30)
        # ...the second fills half the 2-item queue...
        second = threading.Thread(target=classify_client, args=("queued",))
        second.start()
        deadline = time.monotonic() + 10
        while server._coalescer._queued_items < 1 and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._coalescer._queued_items >= 1
        # ...so a 2-item ingest burst overflows it and is bounced.
        burst = {"items": [ingest_item(f"i{n}", b"y", "fam0")
                           for n in range(2)]}
        status, headers, error = request_json(
            server.port, "POST", "/ingest", burst)
        assert status == 503
        assert "Retry-After" in headers
        assert "queue" in error["error"]
        manager.gate.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert statuses == [200, 200]
        # With the queue drained, the identical burst is admitted.
        status, _, report = request_json(
            server.port, "POST", "/ingest", burst)
        assert status == 200, report
        assert report["count"] == 2
    finally:
        manager.gate.set()
        server.shutdown()


def test_bad_ingest_fails_only_its_own_coalesced_request(trained_records,
                                                         tmp_path):
    """A valid ingest coalesced with an unknown-class ingest is applied,
    acked durably and replayed after a restart; only the bad client
    gets the 400."""

    import threading
    import time

    live = tmp_path / "model.rpm"
    ClassificationService.train(
        trained_records, feature_types=["ssdeep-file"], n_estimators=10,
        random_state=1, confidence_threshold=0.1).save(live)
    wal_dir = tmp_path / "wal"
    manager = ModelManager(live, poll_interval=0, mutable=True,
                           wal_dir=wal_dir, cache_size=64)
    gate = threading.Event()
    entered = threading.Event()
    classify = manager.classify_items

    def gated_classify(items):
        entered.set()
        assert gate.wait(timeout=30)
        return classify(items)

    manager.classify_items = gated_classify
    server = ClassificationServer(
        manager, ServerConfig(port=0, workers=1, max_batch=8,
                              enable_ingest=True)).start()
    answers = {}

    def post(name, path, payload):
        answers[name] = request_json(server.port, "POST", path, payload,
                                     timeout=60)

    probe = {"items": [{"id": "probe", "data": base64.b64encode(
        b"\x09" * 512).decode("ascii")}]}
    clients = [threading.Thread(target=post,
                                args=("probe", "/classify", probe))]
    try:
        # The classify pass holds the single coalescer worker...
        clients[0].start()
        assert entered.wait(timeout=30)
        # ...while both ingests queue behind it and drain as one batch.
        for name, class_name in (("good", "fam1"), ("bad", "nope")):
            payload = {"items": [ingest_item(
                f"online-{name}", b"\x07" * 512 + name.encode(), class_name)]}
            clients.append(threading.Thread(
                target=post, args=(name, "/ingest", payload)))
            clients[-1].start()
        deadline = time.monotonic() + 10
        while server._coalescer._queued_items < 2 and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._coalescer._queued_items == 2
        gate.set()
        for client in clients:
            client.join(timeout=60)
        members = manager.corpus_info()["members"]
    finally:
        gate.set()
        server.shutdown()
    assert answers["probe"][0] == 200
    status, _, report = answers["good"]
    assert status == 200, report
    assert report["durable"] is True
    assert [r["sample_id"] for r in report["ingested"]] == ["online-good"]
    status, _, error = answers["bad"]
    assert status == 400
    assert "unknown class" in error["error"]
    assert members == 31
    restarted = ModelManager(live, poll_interval=0, mutable=True,
                             wal_dir=wal_dir)
    try:
        assert restarted.durability_info()["replayed_at_boot"] == 1
        index = restarted.service.similarity_index
        assert len(index.members_for_id("online-good")) == 1
        assert index.n_members == 31
    finally:
        restarted.stop()


# ------------------------------------------------- repro-classify ingest
def run_cli_ingest(capsys, port, *args):
    from repro.cli import main

    code = main(["ingest", "--server", f"http://127.0.0.1:{port}",
                 "--timeout", "30", *args])
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_ingest_submits_files_and_purges(ingest_server, tmp_path, capsys):
    server, manager = ingest_server
    files = []
    for n in range(2):
        path = tmp_path / f"exe-{n}"
        path.write_bytes(b"\x0b" * 700 + bytes([n]) * 300)
        files.append(str(path))
    code, out, err = run_cli_ingest(capsys, server.port, "--class", "fam1",
                                    *files)
    assert code == 0, err
    report = json.loads(out)
    assert report["count"] == 2
    assert [r["sample_id"] for r in report["ingested"]] == files
    assert manager.corpus_info()["members"] == 32
    code, _, err = run_cli_ingest(capsys, server.port, "--class", "nope",
                                  files[0])
    assert code == 2
    assert "server answered 400: " in err and "unknown class" in err
    code, out, err = run_cli_ingest(capsys, server.port, "--purge", files[0])
    assert code == 0, err
    assert json.loads(out)["purged"] == 1
    code, _, err = run_cli_ingest(capsys, server.port, "--purge", "missing")
    assert code == 2
    assert "server answered 404: " in err
    code, _, err = run_cli_ingest(capsys, server.port, "--purge", "x",
                                  files[0])
    assert code == 2
    assert "--purge takes no files" in err


def test_cli_ingest_reports_a_read_only_or_stopped_server(trained_records,
                                                         tmp_path, capsys):
    live = tmp_path / "model.rpm"
    ClassificationService.train(
        trained_records, feature_types=["ssdeep-file"], n_estimators=5,
        random_state=1).save(live)
    exe = tmp_path / "exe"
    exe.write_bytes(b"\x0c" * 1024)
    server = ClassificationServer(ModelManager(live, poll_interval=0),
                                  ServerConfig(port=0)).start()
    port = server.port
    try:
        code, _, err = run_cli_ingest(capsys, port, "--class", "fam0",
                                      str(exe))
        assert code == 2
        assert "server answered 403: " in err and "disabled" in err
    finally:
        server.shutdown()
    code, _, err = run_cli_ingest(capsys, port, "--class", "fam0", str(exe))
    assert code == 2
    assert "cannot reach server" in err
