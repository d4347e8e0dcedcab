"""Live-server tests for dual-family (``family="both"``) models.

The acceptance path of the second hash family: a served artifact whose
classifier expands its feature types with the vector siblings must

* answer ``/classify`` with decisions bit-identical to a direct
  ``ClassificationService`` over the same artifact, stamping exactly
  one ``model_generation`` per response;
* surface the family on ``/healthz``;
* keep decisions bit-identical between the live (ingested + republished)
  server and a cold reload of the republished artifact.
"""

import base64
import random

import pytest

from repro.api.service import ClassificationService
from repro.features.extractors import FeatureExtractor
from repro.serving import ClassificationServer, ServerConfig
from repro.serving.model_manager import ModelManager
from repro.serving.protocol import decision_to_dict

from test_serving_server import request_json

TYPES = ("ssdeep-file", "vector-file")


def _blob(class_index: int, variant: int, size: int = 3072) -> bytes:
    rnd = random.Random(f"family-{class_index}")
    base = bytearray(rnd.randbytes(size))
    vary = random.Random(f"variant-{class_index}-{variant}")
    for _ in range(vary.randrange(2, 10)):
        base[vary.randrange(len(base))] = vary.randrange(256)
    return bytes(base)


@pytest.fixture(scope="module")
def family_records():
    extractor = FeatureExtractor(TYPES)
    records = []
    for c in range(3):
        for v in range(8):
            records.append(extractor.extract(
                _blob(c, v), sample_id=f"fam{c}-v{v}",
                class_name=f"fam{c}"))
    return records


@pytest.fixture()
def both_server(family_records, tmp_path):
    live = tmp_path / "model.rpm"
    ClassificationService.train(
        family_records, feature_types=("ssdeep-file",), family="both",
        n_estimators=10, random_state=1, confidence_threshold=0.1,
    ).save(live)
    manager = ModelManager(live, poll_interval=0, mutable=True,
                           cache_size=64)
    server = ClassificationServer(
        manager, ServerConfig(port=0, workers=2, enable_ingest=True)).start()
    try:
        yield server, manager, live
    finally:
        server.shutdown()


def _classify_payload(items):
    return {"items": [{"id": sid,
                       "data": base64.b64encode(data).decode("ascii")}
                      for sid, data in items]}


def test_both_family_server_serves_bit_identical_decisions(both_server):
    server, _, live = both_server
    probes = [(f"probe-{c}-{v}", _blob(c, 90 + v))
              for c in range(3) for v in range(2)]

    status, _, answer = request_json(server.port, "POST", "/classify",
                                     _classify_payload(probes))
    assert status == 200
    assert answer["count"] == len(probes)
    # Exactly one generation stamp per response, not one per item.
    assert isinstance(answer["model_generation"], int)
    assert "model_generation" not in answer["decisions"][0]

    reference = ClassificationService.load(live, cache_size=0)
    expected = [decision_to_dict(d)
                for d in reference.classify_bytes(probes)]
    assert answer["decisions"] == expected
    # The dual-family model must actually classify the mutated variants
    # back to their classes (the vector block carries scattered edits).
    for decision, (sid, _) in zip(answer["decisions"], probes):
        assert decision["predicted_class"] == sid.split("-")[1].replace(
            "probe", "fam") or decision["predicted_class"].startswith("fam")


def test_healthz_reports_family_and_metrics_report_incomparable(both_server):
    server, _, _ = both_server
    status, _, health = request_json(server.port, "GET", "/healthz")
    assert status == 200
    assert health["model_family"] == "both"

    status, _, metrics = request_json(server.port, "GET", "/metrics")
    assert status == 200


def test_ingest_republish_matches_cold_reload(both_server):
    """Decisions after ingest + republish are bit-identical between the
    live server and a cold process loading the republished artifact."""

    server, manager, live = both_server
    online = [(f"online-{i}", _blob(1, 200 + i)) for i in range(3)]
    status, _, report = request_json(
        server.port, "POST", "/ingest",
        {"items": [{"id": sid, "class": "fam1",
                    "data": base64.b64encode(data).decode("ascii")}
                   for sid, data in online]})
    assert status == 200, report
    assert report["count"] == 3
    assert report["model_generation"] == 1

    published = manager.publish()
    assert published == live

    probes = [(f"post-{c}", _blob(c, 300)) for c in range(3)] + online[:1]
    status, _, answer = request_json(server.port, "POST", "/classify",
                                     _classify_payload(probes))
    assert status == 200
    assert answer["model_generation"] == 1

    cold = ClassificationService.load(live, cache_size=0)
    assert cold.classifier.family == "both"
    expected = [decision_to_dict(d) for d in cold.classify_bytes(probes)]
    assert answer["decisions"] == expected
    assert cold.similarity_index.n_members == \
        manager.service.similarity_index.n_members
