"""Tests for model-artifact format v2: artifacts whose anchor index was
written sharded load as one index over its survivors and decide exactly
as the sharded code did, and v1 artifacts keep loading."""

import dataclasses

import pytest

from repro.api.artifact import (
    MODEL_CONTAINER,
    MODEL_FORMAT_VERSION,
    inspect_model,
    load_model,
    save_model,
    validate_model,
)
from repro.api.service import ClassificationService
from repro.exceptions import ModelFormatError
from repro.features.records import SampleFeatures
from repro.index import load_index
from repro.index.storage import read_container, write_container

from legacy_fixtures import LEGACY_DIR, LEGACY_MODEL, expected, rows
from test_index_core import make_corpus

FT = "ssdeep-file"


@pytest.fixture(scope="module")
def records():
    return [SampleFeatures(sample_id=sid, class_name=cls, version="1",
                           executable=sid, digests=digests)
            for sid, digests, cls in make_corpus(48, seed=21)]


@pytest.fixture(scope="module")
def service(records):
    return ClassificationService.train(records, feature_types=(FT,),
                                       n_estimators=15, random_state=4)


def _legacy_queries():
    return [SampleFeatures(sample_id=sid, class_name="", version="",
                           executable=sid, digests=digests)
            for sid, digests in expected()["model"]["queries"]]


def test_format_version_is_four():
    assert MODEL_FORMAT_VERSION == 4


def test_sharded_artifact_round_trips_bit_identically(tmp_path):
    """The legacy artifact decides exactly as the sharded code recorded,
    eager and mapped, and keeps doing so once re-saved."""

    recorded = expected()["model"]
    queries = _legacy_queries()
    loads = [ClassificationService.load(LEGACY_MODEL),
             ClassificationService.load(LEGACY_MODEL, mmap=True)]
    loads.append(ClassificationService.load(loads[0].save(
        tmp_path / "resaved.rpm")))
    for loaded in loads:
        anchor = loaded.similarity_index
        assert anchor.n_tombstones == 0
        assert list(anchor.sample_ids) == recorded["survivor_ids"]
        assert recorded["purged"] not in anchor.sample_ids
        assert [[d.sample_id, d.predicted_class, d.confidence, d.decision]
                for d in loaded.classify_features(queries)] == \
            recorded["decisions"]
        assert [rows(anchor.top_k(digests[FT], 5, min_score=0))
                for _, digests in recorded["queries"]] == \
            recorded["anchor_top_k"]
    for mmap_mode in (None, "r"):
        classifier = load_model(LEGACY_MODEL, mmap_mode=mmap_mode)
        assert list(classifier.predict(queries)) == \
            [d[1] for d in recorded["decisions"]]


def test_sharded_artifact_inspect_and_validate():
    info = inspect_model(LEGACY_MODEL)
    assert info["format_version"] == MODEL_FORMAT_VERSION
    assert info["index_members"] == expected()["model"]["index_members"]
    assert "index_sharded" not in info and "index_shards" not in info
    assert validate_model(LEGACY_MODEL)["index_members"] == \
        info["index_members"]


def test_headless_artifact_accepts_sharded_index_path(tmp_path):
    anchors = load_index(LEGACY_DIR)
    records = [SampleFeatures(sample_id=sid, class_name=cls, version="1",
                              executable=sid, digests=digests)
               for sid, digests, cls in expected()["directory"]["members"]]
    trained = ClassificationService.train(records, feature_types=(FT,),
                                          n_estimators=10, random_state=2,
                                          index=anchors)
    model_path = tmp_path / "headless.rpm"
    save_model(trained.classifier, model_path, include_index=False)
    with pytest.raises(ModelFormatError, match="without its anchor index"):
        load_model(model_path)
    loaded = load_model(model_path, index=LEGACY_DIR)
    assert list(loaded.predict(records)) == \
        list(trained.classifier.predict(records))


def test_v1_artifact_still_loads_and_predicts_identically(tmp_path, records,
                                                         service):
    # A v1 artifact is byte-for-byte a v2 single-index artifact with the
    # old container version stamped; simulate an old writer by reusing
    # the current payload under a version-1 container format.
    modern = tmp_path / "modern.rpm"
    save_model(service.classifier, modern)
    header, arrays = read_container(modern, fmt=MODEL_CONTAINER)
    header.pop("arrays")
    header.pop("format_version")
    v1_format = dataclasses.replace(MODEL_CONTAINER, version=1)
    legacy = tmp_path / "legacy.rpm"
    write_container(legacy, header, arrays, fmt=v1_format)

    loaded = ClassificationService.load(legacy)
    assert inspect_model(legacy)["format_version"] == 1
    assert loaded.classify_features(records) == \
        service.classify_features(records)


def test_future_artifact_version_is_rejected(tmp_path, service):
    modern = tmp_path / "modern.rpm"
    save_model(service.classifier, modern)
    header, arrays = read_container(modern, fmt=MODEL_CONTAINER)
    header.pop("arrays")
    header.pop("format_version")
    future = dataclasses.replace(MODEL_CONTAINER, version=99)
    path = tmp_path / "future.rpm"
    write_container(path, header, arrays, fmt=future)
    with pytest.raises(ModelFormatError, match="version 99"):
        load_model(path)
