"""Regenerate the format-4 (hashed posting keys) fixtures in this directory.

Formats 2–4 keyed each posting by an FNV-64 hash and stored the
``post_blocks`` and ``post_grams`` arrays beside the keys; format 5 keys
postings exactly and re-keys such a section from its entries at load.
These fixtures pin that upgrade path with files the hashed-key code
wrote itself, so this script only runs against a checkout of the last
revision that writes format 4 (git commit ``6b5f90e``)::

    mkdir format-4 && git archive 6b5f90e | tar -x -C format-4
    PYTHONPATH=format-4/src python tests/data/hashed_postings/make_fixtures.py

A re-run writes identical bytes.  It writes, next to itself:

``corpus.rpsi``
    A single-file index over 16 members carrying ``ssdeep-file`` and
    ``vector-file`` digests.
``model.rpm``
    A trained artifact (8 trees, ``ssdeep-file``) with its embedded
    anchor index.
``expected.json``
    The members, the query set, and what the format-4 code answered:
    ``top_k``, ``top_k_digests`` and budgeted ``pairwise_matrix``
    results for the index, and decisions plus anchor ``top_k`` results
    for the model.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.api.service import ClassificationService
from repro.features.records import SampleFeatures
from repro.hashing.ssdeep import fuzzy_hash
from repro.hashing.vector import vector_hash
from repro.index import SimilarityIndex

HERE = Path(__file__).resolve().parent
TYPES = ("ssdeep-file", "vector-file")


def _mutate(rnd: random.Random, data: bytes) -> bytes:
    blob = bytearray(data)
    for _ in range(rnd.randrange(1, 12)):
        blob[rnd.randrange(len(blob))] = rnd.randrange(256)
    return bytes(blob)


def _family_blobs(rnd: random.Random, n: int, n_families: int,
                  size: int) -> list[bytes]:
    bases = [rnd.randbytes(size) for _ in range(n_families)]
    return [_mutate(rnd, bases[i % n_families]) for i in range(n)]


def _matches(matches) -> list[list]:
    """``[member_index, sample_id, class_name, score]`` per match."""

    return [[m.member_index, m.sample_id, m.class_name, m.score]
            for m in matches]


def make_index(rnd: random.Random) -> dict:
    blobs = _family_blobs(rnd, 16, 4, 2500)
    members = [[f"m{i:03d}", {"ssdeep-file": fuzzy_hash(blob),
                              "vector-file": vector_hash(blob)},
                f"fam{i % 4}"] for i, blob in enumerate(blobs)]
    index = SimilarityIndex(TYPES)
    index.add_many([tuple(member) for member in members])
    target = HERE / "corpus.rpsi"
    index.save(target)
    loaded = SimilarityIndex.load(target)

    queries = [digests for _, digests, _ in members]
    queries.append({ft: digest for ft, digest in zip(
        TYPES, (fuzzy_hash(rnd.randbytes(2500)),
                vector_hash(rnd.randbytes(2500))))})
    return {
        "feature_types": list(TYPES),
        "members": members,
        "queries": queries,
        "top_k": {ft: [_matches(loaded.top_k(query[ft], 10, feature_type=ft,
                                             min_score=0))
                       for query in queries]
                  for ft in TYPES},
        "top_k_digests": [
            _matches(loaded.top_k_digests(query, 6,
                                          exclude_ids=[members[i][0]]))
            for i, query in enumerate(queries[:len(members)])],
        "pairwise_max_pairs_60": [
            [p.i, p.j, p.score]
            for p in loaded.pairwise_matrix(max_pairs=60, min_score=0)],
    }


def make_model(rnd: random.Random) -> dict:
    blobs = _family_blobs(rnd, 12, 3, 2000)
    records = [SampleFeatures(sample_id=f"r{i:03d}",
                              class_name=f"app{i % 3}", version="1",
                              executable=f"r{i:03d}",
                              digests={"ssdeep-file": fuzzy_hash(blob)})
               for i, blob in enumerate(blobs)]
    service = ClassificationService.train(
        records, feature_types=["ssdeep-file"], n_estimators=8,
        random_state=3, confidence_threshold=0.3)
    target = HERE / "model.rpm"
    service.save(target)

    # Variants of three training samples, and one unrelated blob.
    probes = [_mutate(rnd, blob) for blob in blobs[:3]]
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
    anchor = loaded.similarity_index
    return {
        "members": [[r.sample_id, r.digests, r.class_name] for r in records],
        "queries": queries,
        "decisions": [[d.sample_id, d.predicted_class, d.confidence,
                       d.decision] for d in decisions],
        "anchor_top_k": [_matches(anchor.top_k(digests["ssdeep-file"], 5,
                                               min_score=0))
                         for _, digests in queries],
    }


def main() -> None:
    rnd = random.Random(20261019)
    expected = {"index": make_index(rnd), "model": make_model(rnd)}
    (HERE / "expected.json").write_text(
        json.dumps(expected, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
