"""Corpus lifecycle tests (``repro.serving.lifecycle``): config
validation, age-off / per-class caps / compaction / republish policies
under an injected fake clock, sweep-thread behaviour, and the
end-to-end live-server scenario: simultaneous ``/ingest`` +
``/classify`` traffic, age-off, and a hot republish that a fresh
process loads to bit-identical decisions.
"""

import base64
import threading
import time

import pytest

from repro.api.service import ClassificationService
from repro.exceptions import ReproError, ValidationError
from repro.serving import (
    ClassificationServer,
    LifecycleConfig,
    LifecycleManager,
    ServerConfig,
)
from repro.serving.metrics import MetricsRegistry
from repro.serving.model_manager import ModelManager
from repro.serving.protocol import decision_to_dict

from test_api_artifact import make_records
from test_serving_server import payloads, request_json


class FakeClock:
    """A deterministic, manually-advanced time source."""

    def __init__(self, start=1000.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += float(seconds)


@pytest.fixture(scope="module")
def trained_records():
    return make_records(30, seed=21, n_families=3)


def make_manager(trained_records, tmp_path, **kwargs):
    live = tmp_path / "model.rpm"
    ClassificationService.train(
        trained_records, feature_types=["ssdeep-file"], n_estimators=10,
        random_state=1, confidence_threshold=0.1).save(live)
    kwargs.setdefault("poll_interval", 0)
    kwargs.setdefault("mutable", True)
    kwargs.setdefault("cache_size", 64)
    return ModelManager(live, **kwargs), live


def sample(tag, n, size=2048):
    return (f"{tag}-{n}", (f"{tag}-{n}|".encode() +
                           bytes((n * 37 + k) % 256 for k in range(size))))


def ingest_online(manager, lifecycle, tag, count, class_name, *, when=None):
    """Ingest ``count`` distinct samples and track them at ``when``."""

    items = [(sid, data, class_name)
             for sid, data in (sample(tag, n) for n in range(count))]
    reports, _ = manager.ingest_items(items)
    lifecycle.note_ingested(reports, when=when)
    return [r["sample_id"] for r in reports]


# ------------------------------------------------------------ validation
@pytest.mark.parametrize("kwargs", [
    {"max_age_seconds": 0}, {"max_age_seconds": -5},
    {"max_members_per_class": 0},
    {"compact_ratio": 0.0}, {"compact_ratio": 1.5},
    {"min_compact_tombstones": 0},
    {"republish_interval": 0},
    {"sweep_interval": 0},
])
def test_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ValidationError):
        LifecycleConfig(**kwargs)


def test_lifecycle_requires_a_mutable_manager(trained_records, tmp_path):
    manager, _ = make_manager(trained_records, tmp_path, mutable=False)
    with pytest.raises(ValidationError, match="mutable"):
        LifecycleManager(manager, LifecycleConfig())


# -------------------------------------------------------------- policies
def test_age_off_purges_only_expired_tracked_samples(trained_records,
                                                     tmp_path):
    manager, _ = make_manager(trained_records, tmp_path)
    clock = FakeClock()
    registry = MetricsRegistry()
    lifecycle = LifecycleManager(
        manager, LifecycleConfig(max_age_seconds=60),
        metrics=registry, time_source=clock)
    old = ingest_online(manager, lifecycle, "old", 2, "fam0",
                        when=clock.now)
    clock.advance(40)
    young = ingest_online(manager, lifecycle, "young", 1, "fam1",
                          when=clock.now)
    clock.advance(25)                      # old: 65s > 60; young: 25s
    report = lifecycle.run_once()
    assert report["aged_off"] == old
    assert report["cap_evicted"] == []
    assert lifecycle.tracked_count == 1
    info = manager.corpus_info()
    assert info["members"] == 30 + len(young)
    assert info["tombstones"] == len(old)
    assert registry.snapshot()["lifecycle_aged_off_total"] == len(old)
    # The offline-trained corpus itself is never age-off eligible.
    clock.advance(10_000)
    lifecycle.run_once()
    assert manager.corpus_info()["members"] == 30
    assert lifecycle.tracked_count == 0


def test_caps_evict_oldest_online_members_first(trained_records, tmp_path):
    manager, _ = make_manager(trained_records, tmp_path)
    clock = FakeClock()
    registry = MetricsRegistry()
    lifecycle = LifecycleManager(
        manager, LifecycleConfig(max_members_per_class=11),
        metrics=registry, time_source=clock)
    first = ingest_online(manager, lifecycle, "early", 2, "fam2",
                          when=clock.now)
    clock.advance(5)
    later = ingest_online(manager, lifecycle, "late", 1, "fam2",
                          when=clock.now)
    # fam2 is at 13 members against a cap of 11: the two oldest online
    # samples go; the freshest one and the whole offline corpus stay.
    report = lifecycle.run_once()
    assert report["cap_evicted"] == first
    assert manager.corpus_info()["classes"]["fam2"] == 11
    assert lifecycle.tracked_count == 1
    assert registry.snapshot()["lifecycle_cap_evicted_total"] == 2
    assert lifecycle.run_once()["cap_evicted"] == []      # converged
    assert manager.corpus_info()["classes"]["fam2"] == 11
    del later


def test_compaction_waits_for_floor_and_ratio(trained_records, tmp_path):
    manager, _ = make_manager(trained_records, tmp_path)
    clock = FakeClock()
    lifecycle = LifecycleManager(
        manager, LifecycleConfig(max_age_seconds=10, compact_ratio=0.2,
                                 min_compact_tombstones=4),
        time_source=clock)
    ingest_online(manager, lifecycle, "batch", 3, "fam0", when=clock.now)
    clock.advance(60)
    report = lifecycle.run_once()
    # 3 tombstones / 33 resident: below both floor (4) and ratio (0.2).
    assert len(report["aged_off"]) == 3
    assert report["compacted"] == 0
    assert manager.corpus_info()["tombstones"] == 3
    ingest_online(manager, lifecycle, "more", 6, "fam1", when=clock.now)
    clock.advance(60)
    report = lifecycle.run_once()
    # 9 tombstones / 39 resident = 0.23: past both the 0.2 ratio and
    # the floor of 4, so this sweep compacts.
    assert len(report["aged_off"]) == 6
    assert report["compacted"] == 9
    info = manager.corpus_info()
    assert info["tombstones"] == 0
    assert info["members"] == 30


def test_republish_runs_on_interval_and_on_demand(trained_records,
                                                  tmp_path):
    manager, live = make_manager(trained_records, tmp_path)
    side = tmp_path / "replica.rpm"
    clock = FakeClock()
    registry = MetricsRegistry()
    lifecycle = LifecycleManager(
        manager, LifecycleConfig(republish_interval=300,
                                 republish_path=side),
        metrics=registry, time_source=clock)
    ingest_online(manager, lifecycle, "grown", 2, "fam0", when=clock.now)
    assert lifecycle.run_once()["published"] is None     # not due yet
    clock.advance(301)
    assert lifecycle.run_once()["published"] == str(side)
    assert ClassificationService.load(side).similarity_index.n_members == 32
    # The interval resets from the publish...
    assert lifecycle.run_once()["published"] is None
    # ...but force_publish ignores it (the shutdown hook's path).
    assert lifecycle.run_once(force_publish=True)["published"] == str(side)
    assert registry.snapshot()["lifecycle_publishes_total"] == 2


def test_failed_purge_is_dropped_from_tracking_not_retried(
        trained_records, tmp_path, monkeypatch):
    manager, _ = make_manager(trained_records, tmp_path)
    clock = FakeClock()
    lifecycle = LifecycleManager(
        manager, LifecycleConfig(max_age_seconds=10), time_source=clock)
    ingest_online(manager, lifecycle, "doomed", 1, "fam0", when=clock.now)
    calls = {"n": 0}

    def broken_purge(sample_id):
        calls["n"] += 1
        raise ReproError("purge path wedged")

    monkeypatch.setattr(manager, "purge", broken_purge)
    clock.advance(60)
    report = lifecycle.run_once()
    # The failed purge is not reported as aged off, and the sample is
    # dropped from tracking so the next sweep does not retry forever.
    assert report["aged_off"] == []
    assert lifecycle.tracked_count == 0
    lifecycle.run_once()
    assert calls["n"] == 1


def test_sweep_thread_applies_policies_and_stops(trained_records,
                                                 tmp_path):
    manager, _ = make_manager(trained_records, tmp_path)
    clock = FakeClock()
    lifecycle = LifecycleManager(
        manager, LifecycleConfig(max_age_seconds=30, sweep_interval=0.02),
        time_source=clock)
    ingest_online(manager, lifecycle, "swept", 2, "fam1", when=clock.now)
    lifecycle.start()
    lifecycle.start()                                    # idempotent
    try:
        clock.advance(60)
        deadline = time.monotonic() + 10
        while lifecycle.tracked_count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert lifecycle.tracked_count == 0
        assert manager.corpus_info()["members"] == 30
    finally:
        lifecycle.stop()
    lifecycle.stop()                                     # idempotent


# -------------------------------------------- end-to-end live scenario
def test_live_server_ingest_age_off_and_hot_republish(trained_records,
                                                      tmp_path):
    """The full lifecycle under live traffic: concurrent ``/ingest`` and
    ``/classify``, age-off of the older online batch, then a hot
    republish whose artifact a fresh process loads to bit-identical
    decisions.  No members are lost or resurrected, and every response
    carries exactly one model generation."""

    manager, live = make_manager(trained_records, tmp_path,
                                 poll_interval=0.05)
    clock = FakeClock()
    # Timeline: the old batch lands at t+0, the young batch at t+40,
    # age-off (horizon 60) catches only the old one at t+65, and the
    # republish (interval 70) comes due at t+75 — while the young
    # batch, at age 35, is still alive to be published.
    lifecycle = LifecycleManager(
        manager, LifecycleConfig(max_age_seconds=60, republish_interval=70,
                                 compact_ratio=0.01, min_compact_tombstones=1,
                                 sweep_interval=0.02),
        time_source=clock)
    server = ClassificationServer(
        manager, ServerConfig(port=0, workers=2, max_batch=8,
                              enable_ingest=True),
        lifecycle=lifecycle).start()

    def wait_for_corpus(predicate, what):
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            _, _, health = request_json(server.port, "GET", "/healthz")
            if predicate(health["corpus"]):
                return health["corpus"]
            time.sleep(0.02)
        raise AssertionError(f"corpus never reached: {what} "
                             f"(last: {health['corpus']})")

    import random

    def distinct_payloads(count, tag):
        # Mutually dissimilar blobs (unlike ``payloads``, whose shifted
        # sequences are fuzzy-similar to each other): each ingested
        # sample must anchor only its own class.
        return [(f"{tag}-{n}",
                 random.Random(f"{tag}-{n}").randbytes(4096))
                for n in range(count)]

    classes = ["fam0", "fam1", "fam2"]
    old_batch = distinct_payloads(6, "old")      # will age off
    new_batch = distinct_payloads(6, "new")      # will survive
    probes = payloads(6, tag="probe")
    generations = []
    errors = []
    lock = threading.Lock()

    def ingest_client(worker, batch):
        try:
            sid, data = batch[worker]
            status, _, report = request_json(
                server.port, "POST", "/ingest",
                {"items": [{"id": sid, "class": classes[worker % 3],
                            "data": base64.b64encode(data).decode()}]})
            assert status == 200, report
            with lock:
                generations.append(report["model_generation"])
        except Exception as exc:  # noqa: BLE001 — surface in main thread
            with lock:
                errors.append(exc)

    def classify_client(worker):
        try:
            sid, data = probes[worker]
            status, _, answer = request_json(
                server.port, "POST", "/classify",
                {"items": [{"id": sid,
                            "data": base64.b64encode(data).decode()}]})
            assert status == 200, answer
            assert len(answer["decisions"]) == 1
            with lock:
                generations.append(answer["model_generation"])
        except Exception as exc:  # noqa: BLE001 — surface in main thread
            with lock:
                errors.append(exc)

    try:
        # Phase 1: simultaneous ingest + classify traffic.
        threads = ([threading.Thread(target=ingest_client, args=(w, old_batch))
                    for w in range(6)] +
                   [threading.Thread(target=classify_client, args=(w,))
                    for w in range(6)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert manager.corpus_info()["members"] == 36    # nothing lost
        # Every response saw exactly one model generation.
        assert generations.count(1) == len(generations) == 12

        # Phase 2: a younger batch arrives 40 fake-seconds later.
        clock.advance(40)
        threads = [threading.Thread(target=ingest_client, args=(w, new_batch))
                   for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        wait_for_corpus(lambda c: c["members"] == 42, "42 members")

        # Phase 3: 25 more fake-seconds expire only the old batch
        # (65s > 60s horizon); the sweep also compacts the tombstones.
        clock.advance(25)
        corpus = wait_for_corpus(
            lambda c: c["members"] == 36 and c.get("tombstones") == 0,
            "36 members, 0 tombstones")
        # Survivors are exactly the offline corpus + the young batch:
        # aged-off ids answer 404, surviving ids still purge-able (but
        # we only probe one of each — purging would change the corpus).
        status, _, _ = request_json(server.port, "DELETE",
                                    "/samples/" + old_batch[0][0])
        assert status == 404                             # gone for good
        assert sum(corpus["classes"].values()) == 36

        # Phase 4: the republish interval elapses (young batch still
        # within its age horizon); the sweep atomically rewrites the
        # live artifact.  The server must NOT reload its own snapshot
        # (generation stays 1)...
        clock.advance(10)
        deadline = time.monotonic() + 15
        fresh = None
        while time.monotonic() < deadline:
            candidate = ClassificationService.load(live, cache_size=0)
            if candidate.similarity_index.n_members == 36:
                fresh = candidate
                break
            time.sleep(0.05)
        assert fresh is not None, "republish never landed in the artifact"
        time.sleep(0.2)                   # a few watcher polls
        _, _, health = request_json(server.port, "GET", "/healthz")
        assert health["model_generation"] == 1
        # ...and a fresh process loading the republished artifact makes
        # bit-identical decisions to the live server.
        check = payloads(8, tag="check")
        expected = [decision_to_dict(d) for d in fresh.classify_bytes(check)]
        status, _, answer = request_json(
            server.port, "POST", "/classify",
            {"items": [{"id": sid,
                        "data": base64.b64encode(data).decode()}
                       for sid, data in check]})
        assert status == 200
        assert answer["model_generation"] == 1
        assert answer["decisions"] == expected
        # The republished corpus carries the survivors, so the young
        # ingested samples classify as their labelled classes even
        # after a cold restart.
        for worker in (0, 1, 2):
            sid, data = new_batch[worker]
            decision = fresh.classify_bytes([(sid, data)])[0]
            assert decision.predicted_class == classes[worker % 3]
    finally:
        server.shutdown()


# --------------------------------------------------- republish backoff
class FlakyPublishManager:
    """A stub manager whose publish fails on demand — for exercising
    the republish backoff without a real artifact write."""

    mutable = True

    def __init__(self):
        self.publish_calls = 0
        self.fail = True

    def corpus_info(self):
        return {"members": 0, "classes": {}, "tombstones": 0,
                "tombstone_ratio": 0.0}

    def publish(self, path=None):
        self.publish_calls += 1
        if self.fail:
            raise ReproError("disk full")
        return "/published/model.rpm"


def test_republish_failure_backs_off_exponentially():
    clock = FakeClock()
    manager = FlakyPublishManager()
    registry = MetricsRegistry()
    lifecycle = LifecycleManager(
        manager,
        LifecycleConfig(republish_interval=10, sweep_interval=5,
                        republish_backoff_max=60),
        metrics=registry, time_source=clock)

    clock.advance(10)                          # due: first attempt fails
    assert lifecycle.run_once()["published"] is None
    assert manager.publish_calls == 1
    assert registry.snapshot()["lifecycle_republish_failures"] == 1

    # Still due, but inside the 5 * 2^1 = 10 s backoff window: no retry.
    assert lifecycle.run_once()["published"] is None
    clock.advance(9.5)
    lifecycle.run_once()
    assert manager.publish_calls == 1

    clock.advance(1)                           # past the window: retry
    lifecycle.run_once()
    assert manager.publish_calls == 2          # fails again; window 20 s
    clock.advance(19)
    lifecycle.run_once()
    assert manager.publish_calls == 2
    clock.advance(2)
    lifecycle.run_once()
    assert manager.publish_calls == 3          # window now 40 s
    assert registry.snapshot()["lifecycle_republish_failures"] == 3

    manager.fail = False                       # the disk comes back
    clock.advance(41)
    report = lifecycle.run_once()
    assert report["published"] == "/published/model.rpm"
    assert registry.snapshot()["lifecycle_publishes_total"] == 1

    # Success reset the consecutive-failure count: the next failure
    # starts the schedule over at the shortest window.
    manager.fail = True
    clock.advance(10)
    lifecycle.run_once()
    assert manager.publish_calls == 5
    clock.advance(9)
    lifecycle.run_once()
    assert manager.publish_calls == 5          # 10 s window again
    clock.advance(2)
    lifecycle.run_once()
    assert manager.publish_calls == 6


def test_republish_backoff_is_capped():
    clock = FakeClock()
    manager = FlakyPublishManager()
    lifecycle = LifecycleManager(
        manager,
        LifecycleConfig(republish_interval=1, sweep_interval=5,
                        republish_backoff_max=15),
        metrics=None, time_source=clock)
    for _ in range(6):                         # drive failures up
        clock.advance(1000)
        lifecycle.run_once()
    calls = manager.publish_calls
    clock.advance(15.5)                        # capped at 15 s, not 2^n
    lifecycle.run_once()
    assert manager.publish_calls == calls + 1


def test_forced_publish_bypasses_backoff_and_raises():
    clock = FakeClock()
    manager = FlakyPublishManager()
    registry = MetricsRegistry()
    lifecycle = LifecycleManager(
        manager, LifecycleConfig(republish_interval=10),
        metrics=registry, time_source=clock)
    clock.advance(10)
    lifecycle.run_once()                       # failure arms the backoff
    assert manager.publish_calls == 1
    # force_publish (the shutdown hook) ignores the backoff window and
    # surfaces the error to its caller instead of swallowing it.
    with pytest.raises(ReproError, match="disk full"):
        lifecycle.run_once(force_publish=True)
    assert manager.publish_calls == 2
    assert registry.snapshot()["lifecycle_republish_failures"] == 2


def test_config_rejects_bad_backoff():
    with pytest.raises(ValidationError):
        LifecycleConfig(republish_backoff_max=0)
