"""Regenerate the legacy sharded-layout fixtures in this directory.

The fixtures pin down how indexes and model artifacts written by the
retired ``ShardedSimilarityIndex`` load today.  They must be written by
that class itself, so this script only runs against a checkout of the
last revision that still ships ``repro.index.sharded`` (git commit
``fe9257f``)::

    mkdir sharded-era && git archive fe9257f | tar -x -C sharded-era
    PYTHONPATH=sharded-era/src python tests/data/legacy_sharded/make_fixtures.py

Shard file names carry a random per-save token, so a re-run renames
them; their bytes, ``model.rpm`` and ``expected.json`` come out
identical.

It writes, next to itself:

``corpus.rpsd/``
    A 3-shard index directory (``manifest.json`` + shard containers)
    over 21 members carrying ``ssdeep-file`` and ``vector-file``
    digests, with 3 tombstones — one of them under an id that was
    re-added afterwards, so the directory holds a dead and a live
    member with the same sample id.
``model.rpm``
    A trained artifact whose embedded anchor index is a 3-shard
    sharded index with one purged member.
``expected.json``
    The corpus, the query set, and what the sharded-era code answered:
    ``top_k`` / ``top_k_digests`` / ``pairwise_matrix`` results for the
    directory, and decisions plus anchor ``top_k`` results for the
    model, as loaded back by that code.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from repro.api.service import ClassificationService
from repro.features.records import SampleFeatures
from repro.hashing.ssdeep import fuzzy_hash
from repro.hashing.vector import vector_hash
from repro.index import ShardedSimilarityIndex

HERE = Path(__file__).resolve().parent
TYPES = ("ssdeep-file", "vector-file")


def _family_blobs(rnd: random.Random, n: int, n_families: int,
                  size: int) -> list[bytes]:
    bases = [rnd.randbytes(size) for _ in range(n_families)]
    blobs = []
    for i in range(n):
        blob = bytearray(bases[i % n_families])
        for _ in range(rnd.randrange(1, 40)):
            blob[rnd.randrange(len(blob))] = rnd.randrange(256)
        blobs.append(bytes(blob))
    return blobs


def _matches(matches) -> list[list]:
    """``[member_index, sample_id, class_name, score]`` per match."""

    return [[m.member_index, m.sample_id, m.class_name, m.score]
            for m in matches]


def make_directory(rnd: random.Random) -> dict:
    blobs = _family_blobs(rnd, 20, 4, 3000)
    members = [[f"m{i:03d}", {"ssdeep-file": fuzzy_hash(blob),
                              "vector-file": vector_hash(blob)},
                f"fam{i % 4}"] for i, blob in enumerate(blobs)]
    index = ShardedSimilarityIndex(TYPES, n_shards=3)
    index.add_many([tuple(member) for member in members])
    removed = ["m003", "m011", "m017"]
    assert index.remove("m003") == 1
    assert index.remove("m011") == 1
    # Re-add a purged id: its old member stays tombstoned.
    readded = ["m003", members[8][1], "fam3"]
    index.add(readded[0], readded[1], class_name=readded[2])
    members.append(readded)
    assert index.remove("m017") == 1
    assert index.n_tombstones == 3

    target = HERE / "corpus.rpsd"
    shutil.rmtree(target, ignore_errors=True)
    index.save(target)
    loaded = ShardedSimilarityIndex.load(target)
    assert loaded.n_shards == 3 and loaded.n_tombstones == 3

    queries = [digests for _, digests, _ in members]
    queries.append({ft: digest for ft, digest in zip(
        TYPES, (fuzzy_hash(rnd.randbytes(3000)),
                vector_hash(rnd.randbytes(3000))))})
    top_k = {ft: [_matches(loaded.top_k(query[ft], 10, feature_type=ft,
                                        min_score=0)) for query in queries]
             for ft in TYPES}
    top_k_digests = [
        _matches(loaded.top_k_digests(query, 6,
                                      exclude_ids=[members[i][0]]))
        for i, query in enumerate(queries[:len(members)])]
    pairwise = [[p.i, p.j, p.score]
                for p in loaded.pairwise_matrix(max_pairs=100, min_score=0)]
    return {
        "feature_types": list(TYPES),
        "members": members,
        "removed": removed,
        "survivor_ids": list(loaded.sample_ids),
        "queries": queries,
        "top_k": top_k,
        "top_k_digests": top_k_digests,
        "pairwise_max_pairs_100": pairwise,
    }


def make_model(rnd: random.Random) -> dict:
    blobs = _family_blobs(rnd, 15, 3, 2500)
    records = [SampleFeatures(sample_id=f"r{i:03d}",
                              class_name=f"app{i % 3}", version="1",
                              executable=f"r{i:03d}",
                              digests={"ssdeep-file": fuzzy_hash(blob)})
               for i, blob in enumerate(blobs)]
    index = ShardedSimilarityIndex(["ssdeep-file"], n_shards=3)
    index.add_many(records)
    service = ClassificationService.train(
        records, feature_types=["ssdeep-file"], n_estimators=8,
        random_state=3, confidence_threshold=0.3, index=index)
    service.enable_mutation()
    purged = records[4].sample_id
    assert service.purge(purged) == 1
    target = HERE / "model.rpm"
    service.save(target)

    probes = _family_blobs(rnd, 3, 3, 2500) + [rnd.randbytes(2500)]
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
        "purged": purged,
        "index_members": anchor.n_members,
        "survivor_ids": list(anchor.sample_ids),
        "queries": queries,
        "decisions": [[d.sample_id, d.predicted_class, d.confidence,
                       d.decision] for d in decisions],
        "anchor_top_k": [_matches(anchor.top_k(digests["ssdeep-file"], 5,
                                               min_score=0))
                         for _, digests in queries],
    }


def main() -> None:
    rnd = random.Random(20241117)
    expected = {"directory": make_directory(rnd), "model": make_model(rnd)}
    (HERE / "expected.json").write_text(
        json.dumps(expected, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
