"""Unit tests for generation-tracked model hot-reload
(``repro.serving.model_manager``): atomic-publish detection, swap
semantics, failure tolerance, the watcher thread and the traced wait
for the predict lock.
"""

import os
import threading
import time

import pytest

from repro.exceptions import ModelFormatError
from repro.observability.trace import (RequestTrace, Tracer, activate,
                                       deactivate)
from repro.serving.metrics import MetricsRegistry
from repro.serving.model_manager import ModelManager

from test_api_artifact import make_records


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Two model artifacts whose predictions provably differ.

    Generation B is trained on the same digests with every class
    renamed (``v2-`` prefix), so any known-class prediction reveals
    which model produced it — deterministic, unlike threshold tricks
    that depend on forest confidence values.  The low threshold keeps
    every prediction a known class (forest max-probability over 3
    classes is always >= 1/3).
    """

    from dataclasses import replace

    from repro.api.service import ClassificationService

    directory = tmp_path_factory.mktemp("manager-models")
    records = make_records(30, seed=21, n_families=3)
    renamed = [replace(r, class_name=f"v2-{r.class_name}") for r in records]
    gen_a = ClassificationService.train(
        records, feature_types=["ssdeep-file"], n_estimators=10,
        random_state=1, confidence_threshold=0.1)
    gen_b = ClassificationService.train(
        renamed, feature_types=["ssdeep-file"], n_estimators=10,
        random_state=1, confidence_threshold=0.1)
    gen_a_path = directory / "gen-a.rpm"
    gen_b_path = directory / "gen-b.rpm"
    gen_a.save(gen_a_path)
    gen_b.save(gen_b_path)
    return gen_a_path, gen_b_path, records


def publish(source, target):
    """Atomically publish ``source`` as ``target`` (the operator move)."""

    staging = target.with_name(target.name + ".staging")
    staging.write_bytes(source.read_bytes())
    os.replace(staging, target)


def payload_batch():
    return [("probe-1", bytes(range(256)) * 8),
            ("probe-2", b"\x7fELF" + bytes(range(128)) * 16)]


def test_initial_load_is_generation_one(artifacts, tmp_path):
    gen_a, _, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    manager = ModelManager(live, poll_interval=0, cache_size=0)
    assert manager.generation == 1
    decisions, generation = manager.classify_items(payload_batch())
    assert generation == 1
    assert len(decisions) == 2
    assert manager.maybe_reload() is False         # unchanged file


def test_reload_swaps_generation_and_decisions(artifacts, tmp_path):
    gen_a, gen_b, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    registry = MetricsRegistry()
    manager = ModelManager(live, poll_interval=0, metrics=registry,
                           cache_size=0)
    before, _ = manager.classify_items(payload_batch())
    publish(gen_b, live)
    assert manager.maybe_reload() is True
    assert manager.generation == 2
    after, generation = manager.classify_items(payload_batch())
    assert generation == 2
    # Generation B's renamed classes prove which model answered.
    assert all(not str(d.predicted_class).startswith("v2-") for d in before)
    assert all(str(d.predicted_class).startswith("v2-") for d in after)
    snapshot = registry.snapshot()
    assert snapshot["model_generation"] == 2.0
    assert snapshot["model_reloads_total"] == 1


def test_corrupt_publish_keeps_old_generation(artifacts, tmp_path):
    gen_a, _, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    registry = MetricsRegistry()
    manager = ModelManager(live, poll_interval=0, metrics=registry,
                           cache_size=0)
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"NOTAMODEL" * 100)
    os.replace(garbage, live)
    assert manager.maybe_reload() is False
    assert manager.generation == 1
    decisions, generation = manager.classify_items(payload_batch())
    assert generation == 1 and len(decisions) == 2
    # The same broken file is not re-parsed on every poll...
    assert manager.maybe_reload() is False
    assert registry.snapshot()["model_reload_failures_total"] == 1
    # ...but a good publish recovers immediately.
    publish(gen_a, live)
    assert manager.maybe_reload() is True
    assert manager.generation == 2


def test_missing_file_is_tolerated(artifacts, tmp_path):
    gen_a, _, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    manager = ModelManager(live, poll_interval=0, cache_size=0)
    os.unlink(live)
    assert manager.maybe_reload() is False
    assert manager.generation == 1


def test_initial_load_failure_raises(tmp_path):
    from repro.exceptions import ReproError

    missing = tmp_path / "nope.rpm"
    # A ReproError, so the CLI's error contract (message + exit 2, no
    # traceback) covers a missing artifact too.
    with pytest.raises(ReproError, match="cannot serve"):
        ModelManager(missing, poll_interval=0)
    broken = tmp_path / "broken.rpm"
    broken.write_bytes(b"x" * 64)
    with pytest.raises(ModelFormatError):
        ModelManager(broken, poll_interval=0)


def test_reload_restats_until_signature_and_bytes_agree(artifacts, tmp_path,
                                                        monkeypatch):
    """A publish landing between the stat and the load must not leave
    the loaded bytes recorded under the stale pre-load signature.

    Pre-fix, ``maybe_reload`` stat'ed once up front: the racing publish
    below made it serve the *new* bytes under the *old* signature, so
    the follow-up poll re-loaded the same file and bumped the
    generation a second time.
    """

    from repro.api.service import ClassificationService

    gen_a, gen_b, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    manager = ModelManager(live, poll_interval=0, cache_size=0)

    real_load = ClassificationService.load
    calls = {"n": 0}

    def racing_load(path, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            # A second publish lands after the manager stat'ed the
            # artifact but before it finished reading it.
            publish(gen_b, live)
        return real_load(path, **kwargs)

    monkeypatch.setattr(ClassificationService, "load",
                        staticmethod(racing_load))
    publish(gen_b, live)
    assert manager.maybe_reload() is True
    assert calls["n"] == 2                 # the torn read was retried
    assert manager.generation == 2
    # The recorded signature matches the artifact actually served...
    assert manager._signature == manager._stat_signature()
    # ...so the next poll is a no-op instead of a double-load.
    assert manager.maybe_reload() is False
    assert manager.generation == 2


def test_concurrent_maybe_reload_loads_one_publish_once(artifacts, tmp_path,
                                                        monkeypatch):
    """The watcher racing a manual ``maybe_reload()`` must not load one
    publish twice (pre-fix, the second thread passed the signature
    check while the first was still inside ``ClassificationService.load``
    and both swapped, double-bumping the generation)."""

    import threading
    import time

    from repro.api.service import ClassificationService

    gen_a, gen_b, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    manager = ModelManager(live, poll_interval=0, cache_size=0)

    real_load = ClassificationService.load
    entered = threading.Event()
    release = threading.Event()
    counter_lock = threading.Lock()
    calls = {"n": 0}

    def slow_load(path, **kwargs):
        with counter_lock:
            calls["n"] += 1
        entered.set()
        assert release.wait(timeout=30)
        return real_load(path, **kwargs)

    monkeypatch.setattr(ClassificationService, "load",
                        staticmethod(slow_load))
    publish(gen_b, live)
    results = []
    threads = [threading.Thread(
        target=lambda: results.append(manager.maybe_reload()))
        for _ in range(2)]
    threads[0].start()
    assert entered.wait(timeout=30)
    threads[1].start()
    time.sleep(0.2)      # pre-fix window: thread 2 races the stale check
    release.set()
    for thread in threads:
        thread.join(timeout=30)
    assert calls["n"] == 1                       # one publish, one load
    assert sorted(results) == [False, True]
    assert manager.generation == 2


def test_concurrent_corrupt_publish_is_parsed_once(artifacts, tmp_path,
                                                   monkeypatch):
    """Two threads racing a *corrupt* publish must record exactly one
    failure and never clear the failure marker for the still-broken
    file (pre-fix, ``_failed_signature`` was read and written with no
    lock held)."""

    import threading
    import time

    from repro.api.service import ClassificationService
    from repro.exceptions import ModelFormatError

    gen_a, gen_b, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    registry = MetricsRegistry()
    manager = ModelManager(live, poll_interval=0, metrics=registry,
                           cache_size=0)

    entered = threading.Event()
    release = threading.Event()
    counter_lock = threading.Lock()
    calls = {"n": 0}

    def corrupt_load(path, **kwargs):
        with counter_lock:
            calls["n"] += 1
        entered.set()
        assert release.wait(timeout=30)
        raise ModelFormatError("artifact is torn")

    monkeypatch.setattr(ClassificationService, "load",
                        staticmethod(corrupt_load))
    publish(gen_b, live)
    results = []
    threads = [threading.Thread(
        target=lambda: results.append(manager.maybe_reload()))
        for _ in range(2)]
    threads[0].start()
    assert entered.wait(timeout=30)
    threads[1].start()
    time.sleep(0.2)
    release.set()
    for thread in threads:
        thread.join(timeout=30)
    assert results == [False, False]
    assert calls["n"] == 1                       # parsed exactly once
    assert registry.snapshot()["model_reload_failures_total"] == 1
    # The failure marker survived the race: further polls skip the file.
    assert manager.maybe_reload() is False
    assert calls["n"] == 1
    assert manager.generation == 1


def test_watcher_thread_picks_up_a_publish(artifacts, tmp_path):
    import time

    gen_a, gen_b, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    manager = ModelManager(live, poll_interval=0.05, cache_size=0)
    manager.start_watching()
    try:
        publish(gen_b, live)
        deadline = time.monotonic() + 10
        while manager.generation < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert manager.generation == 2
    finally:
        manager.stop()
    manager.stop()                                 # idempotent


class ObservedLock:
    """A lock that signals when a thread starts waiting for it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.waiting = threading.Event()

    def acquire(self):
        self.waiting.set()
        return self._lock.acquire()

    def release(self):
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc):
        self.release()


def test_predict_lock_wait_is_a_traced_stage(artifacts, tmp_path):
    gen_a, _, _ = artifacts
    live = tmp_path / "model.rpm"
    publish(gen_a, live)
    manager = ModelManager(live, poll_interval=0, cache_size=0)
    lock = manager._predict_lock = ObservedLock()
    trace = RequestTrace("lock-wait", "classify")
    results = []

    def traced_classify():
        token = activate(trace)
        try:
            results.append(manager.classify_items(payload_batch()))
        finally:
            deactivate(token)

    lock._lock.acquire()                  # another batch holds the lock
    classify = threading.Thread(target=traced_classify)
    classify.start()
    assert lock.waiting.wait(timeout=30)
    held_from = time.perf_counter()
    time.sleep(0.2)
    released_at = time.perf_counter()
    lock.release()
    classify.join(timeout=60)
    assert not classify.is_alive()
    assert len(results) == 1
    Tracer().finish(trace, items=2)
    payload = trace.as_dict()
    stages = payload["stages"]
    # Rounding to 3 decimals in ms is the only slack.
    assert stages["lock_wait"] >= (released_at - held_from) * 1000.0 - 0.001
    assert sum(stages.values()) <= payload["wall_ms"] + 0.001 * len(stages)
    assert {"lock_wait", "extract_features"} <= set(stages)
