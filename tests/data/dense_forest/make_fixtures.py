"""Regenerate the format-5 (dense forest table) fixtures in this directory.

Formats 1–5 store the forest as a dense table: a class-mass row over
each tree's classes for every node (``node_values``), with
``node_samples``, ``tree_classes``, ``tree_class_offsets`` and
``tree_importances``.  Format 6 stores each leaf's non-zero class
probabilities instead and converts a dense table at load.  These
fixtures pin that conversion with a file the dense-table code wrote
itself, so this script only runs against a checkout of the last
revision that writes format 5 (git commit ``988a6ea``)::

    mkdir format-5 && git archive 988a6ea | tar -x -C format-5
    PYTHONPATH=format-5/src python tests/data/dense_forest/make_fixtures.py

A re-run writes identical bytes.  It writes, next to itself:

``model.rpm``
    A trained artifact (10 trees of depth at most 3, ``ssdeep-file``)
    with its embedded anchor index.  The depth cap leaves mixed leaves,
    so some leaves carry more than one class.
``expected.json``
    The query set and what the format-5 code answered for it: each
    query's full ``predict_proba`` row as ``float.hex`` strings, and
    its decision.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.api.artifact import load_model
from repro.api.service import ClassificationService
from repro.features.records import SampleFeatures
from repro.hashing.ssdeep import fuzzy_hash

HERE = Path(__file__).resolve().parent


def _mutate(rnd: random.Random, data: bytes) -> bytes:
    blob = bytearray(data)
    for _ in range(rnd.randrange(1, 40)):
        blob[rnd.randrange(len(blob))] = rnd.randrange(256)
    return bytes(blob)


def main() -> None:
    rnd = random.Random(20261020)
    # Four classes over three base blobs: app3 shares app0's base, so
    # the two are hard to tell apart.
    bases = [rnd.randbytes(2000) for _ in range(3)]
    blobs = [_mutate(rnd, bases[(i % 4) % 3]) for i in range(16)]
    records = [SampleFeatures(sample_id=f"r{i:03d}",
                              class_name=f"app{i % 4}", version="1",
                              executable=f"r{i:03d}",
                              digests={"ssdeep-file": fuzzy_hash(blob)})
               for i, blob in enumerate(blobs)]
    service = ClassificationService.train(
        records, feature_types=["ssdeep-file"], n_estimators=10,
        max_depth=3, random_state=5, confidence_threshold=0.45)
    target = HERE / "model.rpm"
    service.save(target)

    probes = [_mutate(rnd, blob) for blob in blobs[:6]]
    probes.append(rnd.randbytes(2000))
    queries = [[r.sample_id, r.digests] for r in records]
    queries += [[f"probe{i}", {"ssdeep-file": fuzzy_hash(blob)}]
                for i, blob in enumerate(probes)]
    features = [SampleFeatures(sample_id=sid, class_name="", version="",
                               executable=sid, digests=digests)
                for sid, digests in queries]
    loaded = ClassificationService.load(target)
    decisions = loaded.classify_features(features)
    assert decisions == service.classify_features(features)
    proba = load_model(target).predict_proba(features)
    assert proba.tobytes() == service.classifier.predict_proba(
        features).tobytes()
    expected = {
        "queries": queries,
        "proba": [[float(p).hex() for p in row] for row in proba],
        "decisions": [[d.sample_id, d.predicted_class, d.confidence,
                       d.decision] for d in decisions],
    }
    (HERE / "expected.json").write_text(
        json.dumps(expected, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
