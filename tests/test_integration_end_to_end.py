"""Integration tests spanning the whole pipeline.

These tests follow the paper's storyline end to end on the tiny corpus:
scrape a software tree from disk, extract fuzzy-hash features, train
the Fuzzy Hash Classifier, evaluate with the two-phase split, and use
the production workflow to spot out-of-allocation software.
"""

import numpy as np
import pytest

from repro import (
    ClassificationService,
    CorpusScanner,
    FeatureExtractionPipeline,
    FuzzyHashClassifier,
    classification_report,
    two_phase_split,
)
from repro.analysis.misclassification import confused_pairs
from repro.binfmt.strip import strip_symbols
from repro.features.extractors import FeatureExtractor


def test_full_pipeline_from_disk(disk_tree):
    root, _ = disk_tree

    # 1. collection (paper Section 3, "Data Collection")
    scan = CorpusScanner(root).scan()
    assert len(scan.dataset) > 40

    # 2. feature extraction
    features = FeatureExtractionPipeline().extract_dataset(scan.dataset)

    # 3. two-phase split and training
    labels = scan.dataset.labels
    split = two_phase_split(labels, mode="paper", random_state=17)
    train = [features[i] for i in split.train_indices]
    test = [features[i] for i in split.test_indices]
    clf = FuzzyHashClassifier(n_estimators=60, confidence_threshold=0.5,
                              random_state=0).fit(train)

    # 4. evaluation
    predictions = clf.predict(test)
    report = classification_report(split.expected_test_labels, predictions)
    assert report.macro_f1 > 0.6
    assert report.micro_f1 > 0.6

    # 5. the dominant feature is the symbol hash, like the paper found
    grouped = clf.feature_importances_by_type()
    assert grouped["ssdeep-symbols"] == max(grouped.values())


def test_unknown_application_detection_scenario(tiny_features, tiny_labels):
    """A user suddenly runs software from classes the model never saw."""

    split = two_phase_split(tiny_labels, mode="paper", random_state=23)
    train = [tiny_features[i] for i in split.train_indices]
    clf = FuzzyHashClassifier(n_estimators=40, confidence_threshold=0.4,
                              random_state=1).fit(train)

    unknown_samples = [f for f in tiny_features
                       if f.class_name in split.unknown_classes]
    known_samples = [tiny_features[i] for i in split.test_indices
                     if tiny_features[i].class_name in split.known_classes]

    unknown_predictions = clf.predict(unknown_samples)
    known_predictions = clf.predict(known_samples)
    unknown_detection_rate = float(np.mean(unknown_predictions == -1))
    false_unknown_rate = float(np.mean(known_predictions == -1))
    assert unknown_detection_rate > 0.6
    assert false_unknown_rate < 0.4
    assert unknown_detection_rate > false_unknown_rate


def test_version_change_is_bridged_but_strip_breaks_symbols(tiny_samples):
    """Fuzzy hashes bridge version changes (unlike exact hashes); stripped
    binaries lose the dominant feature — both paper claims."""

    extractor = FeatureExtractor()
    by_key = {}
    for sample in tiny_samples:
        by_key.setdefault((sample.class_name, sample.executable), []).append(sample)
    # Find one executable present in several versions.
    (class_name, executable), versions = next(
        (key, items) for key, items in by_key.items() if len(items) >= 3)
    features = [extractor.extract(s.data, sample_id=s.relative_path)
                for s in versions[:2]]

    from repro.hashing.compare import compare_digests

    assert features[0].sha256 != features[1].sha256          # exact hash fails
    symbol_sim = compare_digests(features[0].digest("ssdeep-symbols"),
                                 features[1].digest("ssdeep-symbols"))
    assert symbol_sim > 50                                    # fuzzy hash bridges it

    stripped = extractor.extract(strip_symbols(versions[0].data), sample_id="stripped")
    assert stripped.stripped
    stripped_sim = compare_digests(stripped.digest("ssdeep-symbols"),
                                   features[1].digest("ssdeep-symbols"))
    assert stripped_sim == 0                                  # limitation reproduced


def test_workflow_end_to_end_with_allocation_policy(disk_tree, tiny_features,
                                                    tiny_labels):
    root, _ = disk_tree
    split = two_phase_split(tiny_labels, mode="paper", random_state=29)
    train = [tiny_features[i] for i in split.train_indices]
    clf = FuzzyHashClassifier(n_estimators=30, confidence_threshold=0.35,
                              random_state=2).fit(train)

    allocation_app = split.known_classes[0]
    service = ClassificationService(clf, allowed_classes=[allocation_app])
    all_results = service.classify_directory(root)
    assert len(all_results) == sum(1 for _ in root.rglob("*") if _.is_file())
    suspicious = [r for r in all_results if r.is_suspicious()]
    expected_ok = [r for r in all_results if not r.is_suspicious()]
    # Executables of the allowed application are mostly accepted, the rest
    # is mostly flagged.
    assert suspicious and expected_ok
    accepted_paths = {r.sample_id for r in expected_ok}
    assert any(f"/{allocation_app}/" in path for path in accepted_paths)


def test_alias_classes_confuse_the_classifier(tiny_features, tiny_labels):
    """Sanity check of the analysis tooling on a deliberately confusable
    configuration (mirrors the CellRanger / Cell-Ranger discussion)."""

    predictions = ["CellRanger" if label == "Cell-Ranger" else label
                   for label in tiny_labels]
    pairs = confused_pairs(tiny_labels, predictions)
    if any(label == "Cell-Ranger" for label in tiny_labels):
        assert pairs[0].true_class == "Cell-Ranger"
    else:
        assert pairs == [] or pairs[0].count >= 1
