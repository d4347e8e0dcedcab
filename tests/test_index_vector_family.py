"""Two-family similarity index tests.

A ``SimilarityIndex`` can carry CTPH ``ssdeep-*`` and vector
``vector-*`` feature types side by side.  These tests pin down:

* routing — each family's queries only see its own stores;
* tombstones and compaction cover the vector stores, and a legacy
  mixed-family sharded directory loads bit-identically to a single
  index over its survivors;
* persistence — a mixed-family index round-trips through the ``.rpsi``
  container, and stats report the per-family breakdown.
"""

import random

import numpy as np
import pytest

from repro.exceptions import IndexFormatError
from repro.hashing.ssdeep import fuzzy_hash
from repro.hashing.vector import vector_hash
from repro.index import SimilarityIndex, load_index

from legacy_fixtures import (LEGACY_DIR, directory_survivors, expected,
                             fresh_directory_index)

TYPES = ("ssdeep-file", "vector-file")


def _make_members(seed: int, n: int):
    rnd = random.Random(seed)
    bases = [rnd.randbytes(1500 + rnd.randrange(1500)) for _ in range(3)]
    members = []
    for i in range(n):
        blob = bytearray(bases[i % 3])
        for _ in range(rnd.randrange(0, 8)):
            blob[rnd.randrange(len(blob))] = rnd.randrange(256)
        blob = bytes(blob)
        members.append((f"m{i:04d}",
                        {"ssdeep-file": fuzzy_hash(blob),
                         "vector-file": vector_hash(blob)},
                        f"class-{i % 3}"))
    return members


def _matrices(index, members):
    queries = {ft: [digests[ft] for _, digests, _ in members]
               for ft in TYPES}
    return {ft: index.score_matrix(ft, queries[ft]) for ft in TYPES}


def test_mixed_family_top_k_routes_by_feature_type():
    members = _make_members(3, 12)
    index = SimilarityIndex(TYPES)
    for sample_id, digests, class_name in members:
        index.add(sample_id, digests, class_name=class_name)
    index.seal()

    sid, digests, _ = members[0]
    ctph_hits = index.top_k(digests["ssdeep-file"], 5,
                            feature_type="ssdeep-file", min_score=0)
    vector_hits = index.top_k(digests["vector-file"], 5,
                              feature_type="vector-file", min_score=0)
    assert ctph_hits and ctph_hits[0].sample_id == sid
    assert vector_hits and vector_hits[0].sample_id == sid
    assert vector_hits[0].score == 100


def test_single_and_sharded_mixed_family_bit_identical():
    """A legacy mixed-family sharded directory answers like a single
    index built from its survivors, on both families."""

    members = directory_survivors()
    single = fresh_directory_index()
    legacy = load_index(LEGACY_DIR)
    single_m = _matrices(single, members)
    legacy_m = _matrices(legacy, members)
    for ft in TYPES:
        assert np.array_equal(single_m[ft], legacy_m[ft])
    for _, digests, _ in members[:6]:
        for ft in TYPES:
            assert single.top_k(digests[ft], 8, feature_type=ft,
                                min_score=0) == \
                legacy.top_k(digests[ft], 8, feature_type=ft, min_score=0)


def test_sharded_tombstones_and_compact_cover_vector_stores():
    """Tombstones hide vector rows like CTPH entries — in a single index
    before and after ``compact()``, and in a legacy sharded directory."""

    members = _make_members(23, 20)
    index = SimilarityIndex(TYPES)
    index.add_many(members)
    removed = {members[2][0], members[9][0], members[15][0]}
    for sid in removed:
        index.remove(sid)

    survivors = [m for m in members if m[0] not in removed]
    fresh = SimilarityIndex(TYPES)
    for sample_id, digests, class_name in survivors:
        fresh.add(sample_id, digests, class_name=class_name)
    fresh.seal()

    fresh_m = _matrices(fresh, members)
    for ft, matrix in _matrices(index, members).items():
        assert np.array_equal(fresh_m[ft], matrix)
    assert index.compact() == len(removed)
    for ft, matrix in _matrices(index, members).items():
        assert np.array_equal(fresh_m[ft], matrix)

    legacy = load_index(LEGACY_DIR)
    gone = {"m011", "m017"}
    for sid, digests, _ in expected()["directory"]["members"]:
        if sid in gone:
            hits = legacy.top_k(digests["vector-file"], 30,
                                feature_type="vector-file", min_score=0)
            assert len(hits) == legacy.n_members
            assert gone.isdisjoint(hit.sample_id for hit in hits)


def test_mixed_family_save_load_round_trip(tmp_path):
    members = _make_members(5, 15)
    index = SimilarityIndex(TYPES)
    for sample_id, digests, class_name in members:
        index.add(sample_id, digests, class_name=class_name)
    index.seal()

    path = tmp_path / "mixed.rpsi"
    index.save(path)
    loaded = load_index(path)

    assert loaded.feature_types == index.feature_types
    loaded_m = _matrices(loaded, members)
    original_m = _matrices(index, members)
    for ft in TYPES:
        assert np.array_equal(loaded_m[ft], original_m[ft])


def test_stats_families_breakdown():
    members = _make_members(9, 10)
    index = SimilarityIndex(TYPES)
    for sample_id, digests, class_name in members:
        index.add(sample_id, digests, class_name=class_name)
    stats = index.stats()
    assert stats["feature_types"]["ssdeep-file"]["family"] == "ctph"
    vec = stats["feature_types"]["vector-file"]
    assert vec["family"] == "vector"
    assert vec["members_with_digest"] == 10
    assert vec["digest_bits"] == 256
    families = stats["families"]
    assert families["ctph"]["feature_types"] == ["ssdeep-file"]
    assert families["vector"]["feature_types"] == ["vector-file"]
    assert families["vector"]["packed_matrix_bytes"] > 0


def test_score_matrices_covers_both_families():
    members = _make_members(29, 8)
    index = SimilarityIndex(TYPES)
    for sample_id, digests, class_name in members:
        index.add(sample_id, digests, class_name=class_name)
    index.seal()
    queries = {ft: [m[1][ft] for m in members[:3]] for ft in TYPES}
    matrices = index.score_matrices(queries)
    assert set(matrices) == set(TYPES)
    for ft in TYPES:
        assert matrices[ft].shape == (3, len(members))
        # Self-match: query i is member i.
        for i in range(3):
            assert matrices[ft][i, i] == 100


def test_legacy_v1_state_cannot_declare_vector_types():
    """v1 containers predate the vector family; a (corrupt) v1 header
    that claims vector types must be rejected, not silently rebuilt."""

    members = _make_members(2, 4)
    index = SimilarityIndex(TYPES)
    for sample_id, digests, class_name in members:
        index.add(sample_id, digests, class_name=class_name)
    header, _arrays = index.get_state()

    legacy_header = {
        "feature_types": list(TYPES),
        "ngram_length": header["ngram_length"],
        "sample_ids": list(header["sample_ids"]),
        "class_names": list(header["class_names"]),
        "members": [
            {ft: digests[ft] for ft in TYPES}
            for _, digests, _ in members
        ],
    }
    with pytest.raises(IndexFormatError):
        SimilarityIndex.from_state(legacy_header, {})
