"""Tests for the production workflow (Figure 1) and report rendering.

The workflow is :class:`~repro.api.service.ClassificationService`:
collect → hash → classify → decide, summarised by ``render_report``.
"""

import numpy as np
import pytest

from repro.api.service import (
    DECISION_EXPECTED,
    DECISION_UNEXPECTED,
    DECISION_UNKNOWN,
    ClassificationService,
    render_report,
)
from repro.core.classifier import FuzzyHashClassifier
from repro.core.reporting import (
    class_size_table,
    classification_report_table,
    feature_importance_table,
    hash_similarity_example,
    render_table,
    threshold_sweep_table,
    unknown_class_table,
    velvet_style_table,
)
from repro.core.splits import two_phase_split
from repro.core.thresholds import ThresholdPoint, ThresholdSweep
from repro.exceptions import EvaluationError
from repro.ml.metrics import classification_report


@pytest.fixture(scope="module")
def workflow_setup(tiny_features, tiny_labels, disk_tree):
    split = two_phase_split(tiny_labels, mode="paper", random_state=2)
    train = [tiny_features[i] for i in split.train_indices]
    # The threshold is in the range the paper's grid search lands in; with
    # the small number of known classes of the test corpus a lower value
    # would accept too many unknown applications.
    clf = FuzzyHashClassifier(n_estimators=60, confidence_threshold=0.55,
                              random_state=0).fit(train)
    return clf, split


def test_workflow_classifies_directory(workflow_setup, disk_tree):
    clf, split = workflow_setup
    root, dataset = disk_tree
    known_class = split.known_classes[0]
    service = ClassificationService(clf)
    results = service.classify_directory(root / known_class)
    assert results
    # Most executables of a known class are recognised as that class.
    recognised = sum(1 for r in results if r.predicted_class == known_class)
    assert recognised / len(results) > 0.5
    assert all(r.decision in (DECISION_EXPECTED, DECISION_UNKNOWN,
                              DECISION_UNEXPECTED) for r in results)


def test_workflow_flags_out_of_allocation_software(workflow_setup, disk_tree):
    clf, split = workflow_setup
    root, _ = disk_tree
    known_class = split.known_classes[0]
    other_known = split.known_classes[1]
    service = ClassificationService(clf, allowed_classes=[other_known])
    results = service.classify_directory(root / known_class)
    # The allocation only allows a different application, so anything
    # recognised as `known_class` must be flagged as unexpected.
    flagged = [r for r in results if r.decision == DECISION_UNEXPECTED]
    assert flagged
    assert all(r.is_suspicious() for r in flagged)


def test_workflow_marks_unknown_applications(workflow_setup, disk_tree):
    clf, split = workflow_setup
    root, _ = disk_tree
    unknown_class = split.unknown_classes[0]
    service = ClassificationService(clf)
    results = service.classify_directory(root / unknown_class)
    unknown_decisions = [r for r in results if r.decision == DECISION_UNKNOWN]
    assert len(unknown_decisions) / len(results) > 0.5


def test_workflow_report_and_empty_paths(workflow_setup):
    clf, _ = workflow_setup
    service = ClassificationService(clf)
    assert service.classify_paths([]) == []
    with pytest.raises(EvaluationError):
        service.classify_directory("/definitely/not/a/directory")


def test_workflow_classify_features_directly(workflow_setup, tiny_features):
    clf, _ = workflow_setup
    service = ClassificationService(clf)
    results = service.classify_features(tiny_features[:5])
    assert len(results) == 5
    report = render_report(results)
    assert "decision" in report


# ------------------------------------------------------------------- reporting
def test_render_table_alignment():
    text = render_table(["a", "bb"], [["x", 1], ["yy", 22]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]


def test_class_size_table_from_counts():
    text = class_size_table({"Big": 100, "Small": 2})
    assert text.index("Big") < text.index("Small")
    top_only = class_size_table({"Big": 100, "Small": 2}, top=1)
    assert "Small" not in top_only


def test_velvet_style_table(disk_tree):
    _, dataset = disk_tree
    text = velvet_style_table(dataset, class_name="VelvetLike")
    assert "VelvetLike" in text
    assert "velh" in text and "velg" in text


def test_hash_similarity_example_reports_scores(tiny_features):
    same_class = [f for f in tiny_features if f.class_name == tiny_features[0].class_name][:2]
    entries = [(f.version, f.digest("ssdeep-symbols")) for f in same_class]
    text = hash_similarity_example(same_class[0].class_name, entries)
    assert "similarity(" in text
    assert same_class[0].class_name in text


def test_unknown_class_table(tiny_labels):
    split = two_phase_split(tiny_labels, mode="paper", random_state=0)
    text = unknown_class_table(split)
    assert "total" in text
    for name in split.unknown_classes:
        assert name in text


def test_feature_importance_and_threshold_tables():
    text = feature_importance_table({"ssdeep-symbols": 0.7, "ssdeep-file": 0.3})
    assert "ssdeep-symbols" in text
    sweep = ThresholdSweep(points=[ThresholdPoint(0.0, 0.9, 0.8, 0.85),
                                   ThresholdPoint(0.5, 0.91, 0.82, 0.86)])
    sweep_text = threshold_sweep_table(sweep)
    assert "0.50" in sweep_text


def test_classification_report_table():
    report = classification_report(["a", "b", "a"], ["a", "b", "b"])
    assert "Table 4" in classification_report_table(report)
