"""Tests for the content-addressed extraction cache of
:class:`~repro.api.service.ClassificationService`: SHA-256 of the
uploaded bytes → :class:`SampleFeatures`, ahead of the extraction
pipeline and the digest→score cache.

A hit must equal a fresh extraction under the request's own id, share
nothing mutable with the cache, survive corpus mutations, and keep its
counters exact under concurrent callers.
"""

import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.service import ClassificationService
from repro.binfmt.strip import strip_symbols
from repro.features.extractors import malformed_elf_total
from repro.features.pipeline import FeatureExtractionPipeline

from test_malformed_elf import corrupt_elf

#: Ids a batch item may carry: empty (the record then takes the
#: content-derived id), bare names and paths.
IDS = ("", "a.out", "job-17/a.out", "node7/job-123/bin/gmx", "spool-4")


@pytest.fixture(scope="module")
def classifier(tiny_features):
    return ClassificationService.train(tiny_features, n_estimators=10,
                                       random_state=1).classifier


@pytest.fixture(scope="module")
def artifact(classifier, tmp_path_factory):
    path = tmp_path_factory.mktemp("extraction-cache") / "model.rpm"
    ClassificationService(classifier).save(path)
    return path


@pytest.fixture(scope="module")
def services(classifier):
    """One long-lived cached service, smaller than the pool, so hits,
    misses and evictions carry over between Hypothesis examples; and
    its uncached twin."""

    return (ClassificationService(classifier, cache_size=3),
            ClassificationService(classifier, cache_size=0))


@pytest.fixture(scope="module")
def pool(tiny_samples):
    """ELF and non-ELF contents, including a corrupt and a stripped ELF."""

    rng = random.Random(7)
    elves = [sample.data for sample in tiny_samples[::30][:3]]
    return elves + [corrupt_elf(elves[0]), strip_symbols(elves[1]),
                    rng.randbytes(3000), rng.randbytes(700),
                    b"#!/bin/sh\nexec srun ./a.out \"$@\"\n"]


def count_extractions(service):
    """Wrap the service's pipeline; returns the list of extracted ids."""

    extracted = []
    extract_bytes = service._pipeline.extract_bytes

    def spy(pairs):
        extracted.extend(sample_id for sample_id, _ in pairs)
        return extract_bytes(pairs)

    service._pipeline.extract_bytes = spy
    return extracted


def as_decisions(decisions):
    return [(d.sample_id, d.predicted_class, d.confidence, d.decision)
            for d in decisions]


# --------------------------------------------------------------- identity
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cached_extraction_equals_the_pipeline(services, pool, data):
    cached, uncached = services
    batch = data.draw(st.lists(
        st.tuples(st.sampled_from(IDS), st.sampled_from(pool)),
        min_size=1, max_size=6))
    expected = FeatureExtractionPipeline(
        cached._pipeline.feature_types).extract_bytes(batch)
    records = cached._extract_bytes(batch)
    # Dataclass equality is field by field, digests included.
    assert records == expected
    assert as_decisions(cached.classify_bytes(batch)) == \
        as_decisions(uncached.classify_bytes(batch))
    assert cached.extraction_cache_info()["size"] <= 3


# ------------------------------------------------------------- capacity
def test_lru_holds_at_most_cache_size_entries(classifier, pool):
    service = ClassificationService(classifier, cache_size=2)
    for round_number in range(2):
        for n, content in enumerate(pool):
            service.classify_bytes([(f"job-{round_number}-{n}", content)])
            assert service.extraction_cache_info()["size"] <= 2
    info = service.extraction_cache_info()
    assert info == {"hits": 0, "misses": 2 * len(pool), "size": 2,
                    "capacity": 2}
    # The two most recent contents are the ones kept.
    service.classify_bytes([("again", pool[-1]), ("again", pool[-2])])
    assert service.extraction_cache_info()["hits"] == 2


def test_zero_cache_size_stores_nothing(classifier, pool):
    service = ClassificationService(classifier, cache_size=0)
    extracted = count_extractions(service)
    batch = [("a", pool[0]), ("b", pool[0])]
    service.classify_bytes(batch)
    service.classify_bytes(batch)
    assert len(extracted) == 4
    assert service.extraction_cache_info() == {
        "hits": 0, "misses": 4, "size": 0, "capacity": 0}
    assert service.cache_info()["size"] == 0


# ---------------------------------------------------------- extractions
def test_batch_extracts_each_distinct_content_once(classifier, pool):
    service = ClassificationService(classifier, cache_size=16)
    extracted = count_extractions(service)
    batch = [("job-1/a.out", pool[0]), ("job-2/a.out", pool[1]),
             ("job-3/a.out", pool[0]), ("", pool[0]),
             ("job-5/b.out", pool[1])]
    decisions = service.classify_bytes(batch)
    assert extracted == ["job-1/a.out", "job-2/a.out"]
    assert [d.sample_id for d in decisions][:3] == \
        ["job-1/a.out", "job-2/a.out", "job-3/a.out"]
    assert service.extraction_cache_info()["hits"] == 3
    assert service.extraction_cache_info()["misses"] == 2
    # The next call is answered from the cache.
    service.classify_bytes([("job-9/a.out", pool[1])])
    assert len(extracted) == 2


def test_stream_and_ingest_go_through_the_cache(artifact, pool):
    service = ClassificationService.load(artifact, cache_size=16)
    service.enable_mutation()
    extracted = count_extractions(service)
    known = service.classes_[0]
    service.ingest_bytes([("ingest/a.out", pool[0], known)])
    stream = list(service.classify_stream([("s1", pool[0]), ("s2", pool[1])],
                                          batch_size=2))
    assert [d.sample_id for d in stream] == ["s1", "s2"]
    assert extracted == ["ingest/a.out", "s2"]


def test_returned_records_share_nothing_with_the_cache(classifier, pool):
    service = ClassificationService(classifier, cache_size=8)
    expected = FeatureExtractionPipeline(
        service._pipeline.feature_types).extract_bytes([("b", pool[2])])
    first, duplicate = service._extract_bytes([("a", pool[2]),
                                               ("b", pool[2])])
    first.digests["ssdeep-file"] = "3:tampered:tampered"
    assert duplicate.digests == expected[0].digests
    hit = service._extract_bytes([("b", pool[2])])
    hit[0].digests.clear()
    assert service._extract_bytes([("b", pool[2])]) == expected


def test_failed_extraction_caches_nothing(classifier, pool):
    from repro.exceptions import FeatureExtractionError

    service = ClassificationService(classifier, cache_size=8)
    with pytest.raises(FeatureExtractionError, match="'empty'"):
        service.classify_bytes([("ok", pool[0]), ("empty", b"")])
    assert service.extraction_cache_info()["size"] == 0


# ----------------------------------------------------------- mutations
def test_ingest_and_purge_keep_decisions_fresh(artifact, pool):
    probe = [("probe/a.out", pool[0]), ("probe/b.out", pool[5])]
    known = ClassificationService.load(artifact).classes_[0]
    mutations = [
        ("ingest", [("online/a.out", pool[0], known),
                    ("online/b.out", pool[5], known)]),
        ("purge", "online/a.out"),
    ]

    service = ClassificationService.load(artifact, cache_size=16)
    service.enable_mutation()
    service.classify_bytes(probe)
    applied = []
    for mutation in mutations:
        applied.append(mutation)
        kind, argument = mutation
        if kind == "ingest":
            service.ingest_bytes(argument)
        else:
            assert service.purge(argument) == 1
        fresh = ClassificationService.load(artifact, cache_size=16)
        fresh.enable_mutation()
        for fresh_kind, fresh_argument in applied:
            if fresh_kind == "ingest":
                fresh.ingest_bytes(fresh_argument)
            else:
                fresh.purge(fresh_argument)
        assert as_decisions(service.classify_bytes(probe)) == \
            as_decisions(fresh.classify_bytes(probe))
    # Only the first sight of each content was extracted.
    assert service.extraction_cache_info()["misses"] == 2


# --------------------------------------------------------- concurrency
def test_counters_stay_exact_under_eight_threads(classifier, pool):
    service = ClassificationService(classifier, cache_size=3)
    n_threads, n_rounds = 8, 12
    errors: list = []
    barrier = threading.Barrier(n_threads)

    def hammer(worker):
        try:
            barrier.wait(timeout=30)
            rng = random.Random(worker)
            for round_number in range(n_rounds):
                batch = [(f"w{worker}/r{round_number}/{k}",
                          rng.choice(pool)) for k in range(3)]
                service._extract_bytes(batch)
        except Exception as exc:  # noqa: BLE001 — surface in main thread
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,))
               for w in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    info = service.extraction_cache_info()
    assert info["hits"] + info["misses"] == n_threads * n_rounds * 3
    assert info["size"] <= 3


# ------------------------------------------------------ malformed ELFs
@pytest.mark.parametrize("cache_size, counted", [(16, 1), (0, 2)])
def test_corrupt_elf_is_counted_once_per_extraction(classifier, pool,
                                                    cache_size, counted):
    service = ClassificationService(classifier, cache_size=cache_size)
    corrupt = pool[3]
    before = malformed_elf_total()
    service.classify_bytes([("upload-1", corrupt)])
    service.classify_bytes([("upload-2", corrupt)])
    assert malformed_elf_total() == before + counted
