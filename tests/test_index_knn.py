"""Tests for the vector family's packed kNN path in :class:`SimilarityIndex`.

The central invariant: :meth:`SimilarityIndex.top_k` over a vector
digest — the vectorised XOR + popcount sweep over each vector store's
packed ``(n, 4)`` ``uint64`` matrix — is bit-identical to
:func:`brute_force_top_k`, the per-pair Python loop, for any corpus and
query, on vector-only and mixed-family indexes.  Removal and compaction
are checked around the same equivalence.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.hashing.ssdeep import fuzzy_hash
from repro.hashing.vector import vector_hash
from repro.index import SimilarityIndex, brute_force_top_k
from repro.index.knn import PackedDigestStore

VECTOR = "vector-file"
FAMILIES = {"vector": (VECTOR,), "mixed": ("ssdeep-file", VECTOR)}

_settings = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _make_members(seed: int, n: int):
    """``(sample_id, class_name, digests)``: mutants of three base blobs."""

    rnd = random.Random(seed)
    bases = [rnd.randbytes(600 + rnd.randrange(600)) for _ in range(3)]
    members = []
    for i in range(n):
        blob = bytearray(bases[i % 3])
        for _ in range(rnd.randrange(0, 6)):
            blob[rnd.randrange(len(blob))] = rnd.randrange(256)
        members.append((f"m{i:04d}", f"class-{i % 3}",
                        {"ssdeep-file": fuzzy_hash(bytes(blob)),
                         VECTOR: vector_hash(bytes(blob))}))
    return members


def _build(types, members) -> SimilarityIndex:
    index = SimilarityIndex(types)
    for sample_id, class_name, digests in members:
        index.add(sample_id, digests, class_name=class_name)
    return index


def _oracle(members, query, k, min_score):
    return brute_force_top_k([(sample_id, class_name, digests[VECTOR])
                              for sample_id, class_name, digests in members],
                             query, k, min_score=min_score)


@_settings
@given(st.sampled_from(sorted(FAMILIES)),
       st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=12))
def test_packed_top_k_matches_brute_force(family, seed, n, k):
    members = _make_members(seed, n)
    index = _build(FAMILIES[family], members)
    rnd = random.Random(seed ^ 0x5EED)
    query = vector_hash(rnd.randbytes(500)) if rnd.random() < 0.3 \
        else members[rnd.randrange(n)][2][VECTOR]
    for min_score in (0, 1, 40):
        # No feature_type: the "vr1:" prefix routes the query to the
        # vector stores, also on the mixed-family index.
        assert index.top_k(query, k, min_score=min_score) == \
            _oracle(members, query, k, min_score)


def test_add_remove_compact_lifecycle():
    members = _make_members(7, 12)
    index = _build((VECTOR,), members)
    assert len(index) == 12
    assert index.members_for_id("m0003") == frozenset({3})

    assert index.remove("m0003") == 1
    assert index.members_for_id("m0003") == frozenset()
    assert len(index) == 11
    query = members[0][2][VECTOR]
    survivors = [m for m in members if m[0] != "m0003"]
    assert index.top_k(query, 11, min_score=0) == \
        _oracle(survivors, query, 11, 0)

    assert index.compact() == 1
    assert index.n_tombstones == 0
    assert index.top_k(query, 11, min_score=0) == \
        _oracle(survivors, query, 11, 0)


def test_top_k_exclude_and_empty():
    assert SimilarityIndex((VECTOR,)).top_k(vector_hash(b"q" * 64), 3) == []
    members = _make_members(3, 5)
    index = _build((VECTOR,), members)
    query = members[0][2][VECTOR]
    excluded = {members[0][0], members[1][0]}
    hits = index.top_k(query, 5, min_score=0, exclude_ids=excluded)
    assert hits == [m for m in _oracle(members, query, 5, 0)
                    if m.sample_id not in excluded]
    assert len(hits) == 3
    with pytest.raises(ValidationError):
        index.top_k(query, 0)


def test_packed_store_subset_and_missing_digests():
    store = PackedDigestStore()
    d0, d1 = vector_hash(b"a" * 128), vector_hash(b"b" * 128)
    store.append(d0)
    store.append(None)           # member without a digest
    store.append(d1)
    assert len(store) == 3
    assert store.present.tolist() == [True, False, True]
    assert store.digest_string(0) == d0
    sub = store.subset([2, 0])
    assert sub.digest_string(0) == d1
    assert sub.digest_string(1) == d0
    # A missing digest can never win a distance sweep.
    assert store.distances(d0)[1] > 256 or not store.present[1]
