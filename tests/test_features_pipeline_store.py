"""Tests for batch feature extraction and the feature JSON format."""

import pytest

from repro.exceptions import FeatureExtractionError
from repro.features.extractors import FEATURE_TYPES
from repro.features.pipeline import FeatureExtractionPipeline
from repro.features.records import SampleFeatures, features_from_json, features_to_json


def test_extract_generated_covers_all_samples(tiny_samples, tiny_features):
    assert len(tiny_features) == len(tiny_samples)
    assert all(set(f.digests) == set(FEATURE_TYPES) for f in tiny_features)
    # Labels propagate from the corpus.
    assert {f.class_name for f in tiny_features} == {s.class_name for s in tiny_samples}


def test_extract_dataset_from_disk(disk_tree):
    _, dataset = disk_tree
    features = FeatureExtractionPipeline().extract_dataset(dataset)
    assert len(features) == len(dataset)
    by_id = {f.sample_id: f for f in features}
    for record in dataset:
        assert record.sample_id in by_id
        assert by_id[record.sample_id].class_name == record.class_name


def test_in_memory_and_on_disk_extraction_agree(disk_tree, tiny_samples):
    _, dataset = disk_tree
    disk_features = {f.sample_id: f for f in
                     FeatureExtractionPipeline().extract_dataset(dataset)}
    memory_features = {f.sample_id: f for f in
                       FeatureExtractionPipeline().extract_generated(tiny_samples)}
    shared = set(disk_features) & set(memory_features)
    assert shared
    for sample_id in shared:
        assert disk_features[sample_id].digests == memory_features[sample_id].digests


def test_parallel_extraction_matches_serial(tiny_samples):
    serial = FeatureExtractionPipeline(n_jobs=1).extract_generated(tiny_samples)
    parallel = FeatureExtractionPipeline(n_jobs=2).extract_generated(tiny_samples)
    assert [f.sample_id for f in serial] == [f.sample_id for f in parallel]
    assert all(a.digests == b.digests for a, b in zip(serial, parallel))


def test_extract_paths_without_labels(disk_tree):
    root, dataset = disk_tree
    paths = dataset.paths[:4]
    features = FeatureExtractionPipeline().extract_paths(paths)
    assert len(features) == 4
    assert all(f.class_name == "" for f in features)


def test_empty_input_rejected():
    with pytest.raises(FeatureExtractionError):
        FeatureExtractionPipeline().extract_generated([])


def test_feature_json_roundtrip(tiny_features):
    text = features_to_json(tiny_features[:10])
    loaded = features_from_json(text)
    assert len(loaded) == 10
    assert loaded[0] == tiny_features[0]


def test_feature_json_rejects_garbage():
    with pytest.raises(FeatureExtractionError):
        features_from_json("{not json")
    with pytest.raises(FeatureExtractionError):
        features_from_json('{"samples": [{"sample_id": "x"}]}')


def test_pipeline_extract_bytes(tiny_samples):
    pipeline = FeatureExtractionPipeline(["ssdeep-file"])
    items = [(s.relative_path, s.data) for s in tiny_samples[:3]]
    records = pipeline.extract_bytes(items)
    assert [r.sample_id for r in records] == [i[0] for i in items]
    assert all(r.digest("ssdeep-file") for r in records)
    # Same bytes as extract_generated -> same digests.
    generated = pipeline.extract_generated(tiny_samples[:3])
    assert [r.digests for r in records] == [g.digests for g in generated]
