"""Tests for the multi-process scoring pool (``repro.serving.workers``)
and its integration with :class:`ModelManager` and the HTTP server.

The load-bearing properties: worker decisions are bit-identical to the
in-process path (items score independently, so splitting a batch into
contiguous per-worker chunks cannot change any decision), hot reloads
propagate to workers through the artifact's stat signature, a dead pool
degrades to in-process scoring instead of failing traffic, and the
``/healthz`` / ``/metrics`` endpoints surface ``load_mode`` and the
per-worker batch counters.
"""

import base64
import json
import os
from dataclasses import replace
from http.client import HTTPConnection

import pytest

from repro.api.service import ClassificationService
from repro.exceptions import ParallelExecutionError, ServingError, \
    ValidationError
from repro.serving import ClassificationServer, ScoringWorkerPool, \
    ServerConfig
from repro.serving.model_manager import ModelManager

from test_api_artifact import make_records


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Generation-A and (renamed-classes) generation-B artifacts."""

    directory = tmp_path_factory.mktemp("worker-models")
    records = make_records(30, seed=21, n_families=3)
    renamed = [replace(r, class_name=f"v2-{r.class_name}") for r in records]
    params = dict(feature_types=["ssdeep-file"], n_estimators=10,
                  random_state=1, confidence_threshold=0.1)
    gen_a = directory / "gen-a.rpm"
    gen_b = directory / "gen-b.rpm"
    ClassificationService.train(records, **params).save(gen_a)
    ClassificationService.train(renamed, **params).save(gen_b)
    return gen_a, gen_b


def publish(source, target):
    staging = target.with_suffix(".staging")
    staging.write_bytes(source.read_bytes())
    os.replace(staging, target)


def payloads(count, *, tag="exe", size=1024):
    return [(f"{tag}-{n}", (f"{tag}-{n}|".encode() +
                            bytes((n * 31 + k) % 256 for k in range(size))))
            for n in range(count)]


def request_json(port, method, path, payload=None, timeout=30):
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


# ------------------------------------------------------- pool semantics
def test_pool_decisions_bit_identical_to_in_process(artifacts, tmp_path):
    gen_a, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    items = payloads(9)
    reference = ClassificationService.load(gen_a, cache_size=0)
    expected = reference.classify_bytes(items)
    signature = (live.stat().st_mtime_ns, live.stat().st_size,
                 live.stat().st_ino)
    with ScoringWorkerPool(live, 2,
                           load_kwargs={"mmap": True,
                                        "cache_size": 0}) as pool:
        pool.warm(signature)
        assert pool.classify(items, signature) == expected
        # A second batch exercises the cached per-worker services.
        assert pool.classify(items[:3], signature) == expected[:3]
        stats = pool.stats()
    assert stats["workers"] == 2
    # 9 items over 2 workers -> 2 chunks; 3 items -> 2 more chunks.
    assert stats["batches_total"] == 4
    assert sum(stats["batches_by_worker"].values()) >= 2


def test_pool_rejects_bad_worker_count(artifacts):
    gen_a, _ = artifacts
    with pytest.raises(ValidationError):
        ScoringWorkerPool(gen_a, 0)


def test_manager_with_workers_matches_single_process(artifacts, tmp_path):
    gen_a, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    items = payloads(7, tag="mgr")
    solo = ModelManager(live, poll_interval=0, cache_size=0)
    expected, _ = solo.classify_items(items)
    manager = ModelManager(live, poll_interval=0, cache_size=0,
                           mmap=True, score_workers=2)
    try:
        assert manager.load_mode == "mmap"
        decisions, generation = manager.classify_items(items)
        assert generation == 1
        assert decisions == expected
        stats = manager.worker_stats()
        assert stats["workers"] == 2
        assert stats["batches_total"] == 2
    finally:
        manager.stop()
        solo.stop()
    assert solo.worker_stats() is None


def test_hot_reload_propagates_to_workers(artifacts, tmp_path):
    gen_a, gen_b = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    manager = ModelManager(live, poll_interval=0, cache_size=0,
                           mmap=True, score_workers=2)
    try:
        items = payloads(6, tag="reload")
        before, _ = manager.classify_items(items)
        assert all(not str(d.predicted_class).startswith("v2-")
                   for d in before)
        publish(gen_b, live)
        assert manager.maybe_reload() is True
        after, generation = manager.classify_items(items)
        assert generation == 2
        # Generation B's renamed classes prove every worker reloaded:
        # the stat signature shipped with the batch moved, so each
        # worker dropped its cached service and re-read the artifact.
        assert all(str(d.predicted_class).startswith("v2-") for d in after)
    finally:
        manager.stop()


def test_dead_pool_falls_back_to_in_process(artifacts, tmp_path):
    gen_a, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    manager = ModelManager(live, poll_interval=0, cache_size=0,
                           score_workers=1)
    try:
        items = payloads(3, tag="fallback")
        expected, _ = manager.classify_items(items)

        class DeadPool:
            def classify(self, items, signature):
                raise ParallelExecutionError("worker pool died")

            def close(self):
                pass

        manager._worker_pool = DeadPool()
        decisions, _ = manager.classify_items(items)
        assert decisions == expected
        # The pool is abandoned for good: no retry storm per batch.
        assert manager._worker_pool is None
        assert manager.worker_stats() is None
    finally:
        manager.stop()


def test_score_workers_incompatible_with_ingestion(artifacts, tmp_path):
    gen_a, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    with pytest.raises(ServingError, match="online ingestion"):
        ModelManager(live, poll_interval=0, mutable=True, score_workers=2)
    with pytest.raises(ServingError, match="score_workers"):
        ModelManager(live, poll_interval=0, score_workers=-1)


# ----------------------------------------------------- HTTP integration
def test_server_reports_load_mode_and_worker_counters(artifacts, tmp_path):
    gen_a, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    manager = ModelManager(live, poll_interval=0.05, cache_size=0,
                           mmap=True, score_workers=1)
    server = ClassificationServer(
        manager, ServerConfig(port=0, workers=2, max_batch=16)).start()
    try:
        items = payloads(4, tag="http")
        status, body = request_json(
            server.port, "POST", "/classify",
            {"items": [{"id": sid,
                        "data": base64.b64encode(data).decode("ascii")}
                       for sid, data in items]})
        assert status == 200, body
        reference = ClassificationService.load(gen_a, cache_size=0)
        assert [d["predicted_class"] for d in body["decisions"]] == \
            [str(d.predicted_class)
             for d in reference.classify_bytes(items)]

        status, health = request_json(server.port, "GET", "/healthz")
        assert status == 200
        assert health["load_mode"] == "mmap"
        assert health["score_workers"] == 1

        status, metrics = request_json(server.port, "GET", "/metrics")
        assert status == 200
        assert metrics["load_mode"] == "mmap"
        workers = metrics["scoring_workers"]
        assert workers["workers"] == 1
        assert workers["batches_total"] >= 1
        assert sum(workers["batches_by_worker"].values()) == \
            workers["batches_total"]
    finally:
        server.shutdown()
