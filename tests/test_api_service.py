"""Tests for the batched classification service (``repro.api.service``):
its decision logic, report rendering and model persistence.

The decision-path tests use a stub classifier whose predictions are
scripted, so each of the three decisions (within-allocation /
unexpected-application / unknown-application) is exercised exactly,
independent of real model quality.
"""

import numpy as np
import pytest

from repro.api.service import (
    DECISION_EXPECTED,
    DECISION_UNEXPECTED,
    DECISION_UNKNOWN,
    ClassificationService,
    Decision,
    render_report,
)
from repro.core.classifier import FuzzyHashClassifier
from repro.exceptions import (
    EvaluationError,
    NotFittedError,
    ReproError,
    ValidationError,
)
from repro.features.records import SampleFeatures

from test_api_artifact import make_records


class ScriptedClassifier:
    """Duck-typed fitted classifier with scripted predictions."""

    feature_types = ("ssdeep-file",)
    unknown_label = -1
    model_ = object()          # satisfies the is-fitted check

    def __init__(self, script):
        # sample_id -> (label, confidence)
        self.script = script

    def predict_with_confidence(self, features, confidence_threshold=None):
        labels = np.array([self.script[f.sample_id][0] for f in features],
                          dtype=object)
        conf = np.array([self.script[f.sample_id][1] for f in features])
        return labels, conf


def record(sample_id):
    return SampleFeatures(sample_id=sample_id, class_name="", version="",
                          executable=sample_id, digests={"ssdeep-file": ""})


@pytest.fixture()
def scripted_service():
    script = {
        "job-a": ("GROMACS", 0.93),
        "job-b": ("LAMMPS", 0.80),
        "job-c": (-1, 0.31),
    }
    return ClassificationService(ScriptedClassifier(script),
                                 allowed_classes=["GROMACS"]), script


# --------------------------------------------------------- decision paths
def test_decision_paths_cover_all_three_outcomes(scripted_service):
    service, _ = scripted_service
    decisions = service.classify_features(
        [record("job-a"), record("job-b"), record("job-c")])
    assert [d.decision for d in decisions] == \
        [DECISION_EXPECTED, DECISION_UNEXPECTED, DECISION_UNKNOWN]
    assert [d.is_suspicious() for d in decisions] == [False, True, True]
    assert decisions[0].predicted_class == "GROMACS"
    assert decisions[2].predicted_class == -1
    assert decisions[2].confidence == pytest.approx(0.31)


def test_no_allowed_classes_means_every_known_class_is_expected():
    script = {"job-a": ("GROMACS", 0.9), "job-b": (-1, 0.2)}
    service = ClassificationService(ScriptedClassifier(script))
    decisions = service.classify_features([record("job-a"), record("job-b")])
    assert [d.decision for d in decisions] == \
        [DECISION_EXPECTED, DECISION_UNKNOWN]


def test_workflow_decision_paths_match_service(scripted_service):
    service, _ = scripted_service
    results = service.classify_features(
        [record("job-a"), record("job-b"), record("job-c")])
    assert all(isinstance(r, Decision) for r in results)
    assert [r.decision for r in results] == \
        [DECISION_EXPECTED, DECISION_UNEXPECTED, DECISION_UNKNOWN]
    # The report renders every decision row.
    report = render_report(results)
    for token in (DECISION_EXPECTED, DECISION_UNEXPECTED, DECISION_UNKNOWN,
                  "job-a", "job-b", "job-c"):
        assert token in report


def test_service_requires_fitted_classifier():
    with pytest.raises(NotFittedError):
        ClassificationService(FuzzyHashClassifier())


# ----------------------------------------------------------- real model
@pytest.fixture(scope="module")
def trained_service():
    records = make_records(30, seed=21, n_families=3)
    service = ClassificationService.train(
        records, feature_types=["ssdeep-file"], n_estimators=10,
        random_state=1)
    return service, records


def test_train_save_load_round_trip(trained_service, tmp_path):
    service, records = trained_service
    path = service.save(tmp_path / "svc.rpm")
    loaded = ClassificationService.load(path)
    assert [d.predicted_class for d in loaded.classify_features(records)] == \
        [d.predicted_class for d in service.classify_features(records)]
    assert sorted(loaded.classes_) == sorted(service.classes_)


def test_classify_stream_preserves_input_order_and_batches(trained_service):
    service, records = trained_service
    batched = list(service.classify_stream(iter(records), batch_size=7))
    whole = service.classify_features(records)
    assert batched == whole
    assert [d.sample_id for d in batched] == [r.sample_id for r in records]


def test_classify_stream_mixes_item_kinds(trained_service, tmp_path):
    service, records = trained_service
    blob = tmp_path / "exe.bin"
    blob.write_bytes(b"\x7fELF-not-really" + bytes(range(256)) * 8)
    items = [records[0], ("in-memory", blob.read_bytes()), str(blob)]
    decisions = list(service.classify_stream(items, batch_size=2))
    assert [d.sample_id for d in decisions] == \
        [records[0].sample_id, "in-memory", str(blob)]
    # Same bytes, same features -> same prediction for items 2 and 3.
    assert decisions[1].predicted_class == decisions[2].predicted_class


def test_classify_stream_rejects_unknown_items(trained_service):
    service, _ = trained_service
    with pytest.raises(ValidationError, match="classify_stream items"):
        list(service.classify_stream([42]))
    with pytest.raises(ValidationError):
        list(service.classify_stream([], batch_size=0))


def test_classify_bytes_accepts_mapping_and_pairs(trained_service):
    service, _ = trained_service
    payload = bytes(range(256)) * 4
    from_mapping = service.classify_bytes({"sample-x": payload})
    from_pairs = service.classify_bytes([("sample-x", payload)])
    assert from_mapping == from_pairs
    assert from_mapping[0].sample_id == "sample-x"
    assert service.classify_bytes([]) == []


def test_classify_paths_and_directory(trained_service, tmp_path):
    service, _ = trained_service
    for i in range(3):
        (tmp_path / f"exe-{i}").write_bytes(bytes(range(256)) * (i + 2))
    by_dir = service.classify_directory(tmp_path)
    by_paths = service.classify_paths(sorted(str(p)
                                             for p in tmp_path.iterdir()))
    assert by_dir == by_paths
    assert service.classify_paths([]) == []
    with pytest.raises(EvaluationError):
        service.classify_directory(tmp_path / "not-a-dir")


def test_decision_is_plain_typed_record(trained_service):
    service, records = trained_service
    [decision] = service.classify_features(records[:1])
    assert isinstance(decision, Decision)
    assert isinstance(decision.confidence, float)
    assert decision.decision in (DECISION_EXPECTED, DECISION_UNEXPECTED,
                                 DECISION_UNKNOWN)


def test_workflow_save_model_round_trips(tmp_path):
    records = make_records(24, seed=8, n_families=3)
    clf = FuzzyHashClassifier(feature_types=["ssdeep-file"], n_estimators=8,
                              random_state=3).fit(records)
    service = ClassificationService(clf)
    path = service.save(tmp_path / "wf.rpm")
    loaded = ClassificationService.load(path)
    assert [d.predicted_class for d in loaded.classify_features(records)] == \
        [r.predicted_class for r in service.classify_features(records)]


def test_train_rejects_unlabelled_records():
    with pytest.raises(ReproError):
        ClassificationService.train([record("x")],
                                    feature_types=["ssdeep-file"])
