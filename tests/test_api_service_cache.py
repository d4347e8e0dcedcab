"""Tests for the serving-path LRU digest→score cache and the service's
``n_jobs`` plumbing."""

import threading

import numpy as np
import pytest

from repro.api.service import ClassificationService
from repro.features.records import SampleFeatures


class CountingClassifier:
    """Duck-typed fitted classifier that counts prediction batches."""

    feature_types = ("ssdeep-file",)
    unknown_label = -1

    class _Model:
        confidence_threshold = 0.5

    model_ = _Model()

    def __init__(self, confidence=0.9):
        self.calls = 0
        self.records_seen = 0
        self.confidence = confidence

    def predict_with_confidence(self, features, confidence_threshold=None):
        self.calls += 1
        self.records_seen += len(features)
        # With the cache active the service always disables the
        # threshold here and re-applies it itself.
        assert confidence_threshold == 0.0
        labels = np.array([f.sample_id.split("/")[0] for f in features],
                          dtype=object)
        conf = np.full(len(features), self.confidence)
        return labels, conf


def record(sample_id, digest="3:abcdefghijk:xyzuvw"):
    return SampleFeatures(sample_id=sample_id, class_name="", version="",
                          executable=sample_id,
                          digests={"ssdeep-file": digest})


def test_cache_hits_skip_the_classifier():
    classifier = CountingClassifier()
    service = ClassificationService(classifier, cache_size=16)
    first = service.classify_features([record("app/a", "3:aaa:bbb"),
                                       record("app/b", "3:ccc:ddd")])
    assert classifier.records_seen == 2
    again = service.classify_features([record("app/a", "3:aaa:bbb"),
                                       record("app/b", "3:ccc:ddd")])
    assert classifier.records_seen == 2          # all served from cache
    assert service.cache_hits == 2 and service.cache_misses == 2
    assert [d.predicted_class for d in again] == \
        [d.predicted_class for d in first]
    assert [d.confidence for d in again] == [d.confidence for d in first]


def test_cache_key_is_the_digest_tuple_not_the_sample_id():
    classifier = CountingClassifier()
    service = ClassificationService(classifier, cache_size=16)
    service.classify_features([record("app/a", "3:same:digest")])
    # Same digest under a different id: a hit; the decision carries the
    # new sample id.
    decisions = service.classify_features([record("app/b", "3:same:digest")])
    assert classifier.records_seen == 1
    assert decisions[0].sample_id == "app/b"


def test_cache_respects_capacity_lru():
    classifier = CountingClassifier()
    service = ClassificationService(classifier, cache_size=2)
    service.classify_features([record("a", "3:digest-a:a")])
    service.classify_features([record("b", "3:digest-b:b")])
    service.classify_features([record("a", "3:digest-a:a")])  # refresh a
    service.classify_features([record("c", "3:digest-c:c")])  # evicts b
    assert classifier.records_seen == 3
    service.classify_features([record("b", "3:digest-b:b")])  # miss again
    assert classifier.records_seen == 4                       # (evicts a)
    service.classify_features([record("c", "3:digest-c:c")])  # still cached
    assert classifier.records_seen == 4


def test_cache_disabled_with_zero_size():
    classifier = CountingClassifier()
    service = ClassificationService(classifier, cache_size=0)

    # cache_size=0 keeps the duck-typed threshold contract too.
    def no_cache_predict(features, confidence_threshold=None):
        classifier.records_seen += len(features)
        labels = np.array(["app"] * len(features), dtype=object)
        return labels, np.full(len(features), 0.9)

    classifier.predict_with_confidence = no_cache_predict
    service.classify_features([record("x", "3:d:d")])
    service.classify_features([record("x", "3:d:d")])
    assert classifier.records_seen == 2
    assert service.cache_hits == 0


def test_threshold_change_after_caching_takes_effect():
    classifier = CountingClassifier(confidence=0.6)
    service = ClassificationService(classifier, cache_size=16)
    first = service.classify_features([record("app/a")])
    assert first[0].predicted_class == "app"     # 0.6 >= 0.5
    classifier.model_.confidence_threshold = 0.75
    second = service.classify_features([record("app/a")])
    assert classifier.records_seen == 1          # served from cache...
    assert second[0].predicted_class == -1       # ...but re-thresholded
    classifier.model_.confidence_threshold = 0.5


def test_cache_size_must_be_non_negative():
    from repro.exceptions import ValidationError

    with pytest.raises(ValidationError):
        ClassificationService(CountingClassifier(), cache_size=-1)


def test_service_n_jobs_is_forwarded_to_the_pipeline():
    service = ClassificationService(CountingClassifier(), n_jobs=2)
    assert service._pipeline.n_jobs == 2


def test_cache_info_reports_consistent_counters():
    service = ClassificationService(CountingClassifier(), cache_size=8)
    service.classify_features([record("app/a", "3:aaa:bbb")])
    service.classify_features([record("app/a", "3:aaa:bbb")])
    assert service.cache_info() == {"hits": 1, "misses": 1, "size": 1,
                                    "capacity": 8}


def test_cache_is_thread_safe_under_concurrent_classification():
    """The concurrent-server workload: many threads, overlapping keys.

    The bare OrderedDict used to be mutated without a lock, which can
    corrupt the dict or lose counter updates under free threading.  With
    the lock, every lookup is either an exact hit or an exact miss
    (hits + misses == total lookups), the LRU never exceeds capacity,
    and no thread observes an exception.
    """

    class LockedCountingClassifier(CountingClassifier):
        # The stub's own counters need a lock too, so the final
        # records_seen == misses assertion cannot race on the stub side.
        _count_lock = threading.Lock()

        def predict_with_confidence(self, features,
                                    confidence_threshold=None):
            with self._count_lock:
                self.calls += 1
                self.records_seen += len(features)
            assert confidence_threshold == 0.0
            labels = np.array([f.sample_id.split("/")[0] for f in features],
                              dtype=object)
            return labels, np.full(len(features), self.confidence)

    classifier = LockedCountingClassifier()
    service = ClassificationService(classifier, cache_size=16)
    n_threads, n_rounds, n_keys = 8, 60, 24        # keys > capacity: evicts
    errors: list = []
    barrier = threading.Barrier(n_threads)

    def hammer(worker):
        try:
            barrier.wait(timeout=30)
            for round_number in range(n_rounds):
                key = (worker * 7 + round_number) % n_keys
                service.classify_features(
                    [record(f"app/k{key}", f"3:digest-{key}:x")])
        except Exception as exc:  # noqa: BLE001 — surface in main thread
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,))
               for w in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    info = service.cache_info()
    assert info["hits"] + info["misses"] == n_threads * n_rounds
    assert info["size"] <= 16
    # Every record the classifier was actually asked about was a
    # counted miss (duplicate concurrent misses included).
    assert classifier.records_seen == info["misses"]
