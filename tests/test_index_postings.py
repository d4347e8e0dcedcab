"""Unit tests for the columnar postings layer (`repro.index.postings`)
and the version-2 container format built on it."""

import numpy as np
import pytest

from repro.exceptions import IndexFormatError
from repro.hashing.b64 import B64_ALPHABET
from repro.hashing.ssdeep import fuzzy_hash
from repro.index import SimilarityIndex
from repro.index.core import expand_digest
from repro.index.postings import block_code, signature_grams
from repro.index.storage import write_container


def make_corpus(n, seed=3):
    import random

    rnd = random.Random(seed)
    base = rnd.randbytes(3000)
    members = []
    for i in range(n):
        blob = bytearray(base)
        for _ in range(rnd.randrange(1, 8)):
            blob[rnd.randrange(len(blob))] = rnd.randrange(256)
        members.append((f"s{i:03d}", {"ssdeep-file": fuzzy_hash(bytes(blob))},
                        f"c{i % 3}"))
    return members


# ------------------------------------------------------------------- keys
def _reference_code(gram: str) -> int:
    code = 0
    for ch in gram:
        code = (code << 6) | B64_ALPHABET.index(ch)
    return code


def test_signature_grams_pack_base64_values():
    """A gram's code is its seven base64 values, six bits each, first
    character highest; codes come sorted, distinct and read-only."""

    signature = "zy+/09ABzy+/09ABq"
    expected = sorted({_reference_code(signature[i:i + 7])
                       for i in range(len(signature) - 6)})
    grams = signature_grams(signature)
    assert grams.dtype == np.int64 and not grams.flags.writeable
    assert grams.tolist() == expected
    assert len(expected) < len(signature) - 6      # a repeated gram
    assert max(expected) < 1 << 42
    # The block size's exponent sits above the gram bits.
    assert [block_code(3 << k) for k in (0, 1, 5, 60)] == \
        [0, 1 << 42, 5 << 42, 60 << 42]


def test_signature_grams_short_signature_is_empty():
    assert signature_grams("abc").shape == (0,)
    assert signature_grams("").shape == (0,)
    assert signature_grams("abcdefg").tolist() == [_reference_code("abcdefg")]


# ----------------------------------------------------------- incrementality
def test_interleaved_adds_and_queries_match_bulk():
    corpus = make_corpus(40)
    bulk = SimilarityIndex(["ssdeep-file"])
    bulk.add_many(corpus)
    incremental = SimilarityIndex(["ssdeep-file"])
    query = corpus[0][1]["ssdeep-file"]
    for i, (sample_id, digests, class_name) in enumerate(corpus):
        incremental.add(sample_id, digests, class_name=class_name)
        if i % 7 == 0:   # query mid-build: forces tail merges on demand
            incremental.top_k(query, 5, min_score=0)
    assert incremental.top_k(query, 40, min_score=0) == \
        bulk.top_k(query, 40, min_score=0)
    assert incremental.stats() == bulk.stats()


def test_seal_is_idempotent_and_preserves_results(tmp_path):
    corpus = make_corpus(25)
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(corpus)
    query = corpus[3][1]["ssdeep-file"]
    before = index.top_k(query, 25, min_score=0)
    index.seal()
    index.seal()
    assert index.top_k(query, 25, min_score=0) == before


# ------------------------------------------------------------- memoisation
def test_expand_digest_memo_returns_fresh_lists():
    digest = "6:aaaaaabcdefg:hhhhhijk"
    first = expand_digest(digest)
    second = expand_digest(digest)
    assert first == second == [(6, "aaabcdefg"), (12, "hhhijk")]
    first.append((1, "mutated"))
    assert expand_digest(digest) == second


# -------------------------------------------------------------- persistence
def test_v2_round_trip_preserves_candidate_layer(tmp_path):
    corpus = make_corpus(30)
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(corpus)
    loaded = SimilarityIndex.load(index.save(tmp_path / "v2.rpsi"))
    for feature_type in index.feature_types:
        assert loaded.member_signatures(feature_type) == \
            index.member_signatures(feature_type)
    # Pairwise candidates come straight from the posting buckets.
    assert loaded.pairwise_matrix(min_score=0) == \
        index.pairwise_matrix(min_score=0)


def test_legacy_v1_arrays_rebuild_identically(tmp_path):
    """A container with the old flat-entry arrays (format v1 layout)
    loads through the rebuild path and answers identically."""

    corpus = make_corpus(30)
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(corpus)

    # Re-create the legacy payload the v1 writer produced.
    flat_types, flat_members, flat_blocks, signatures = [], [], [], []
    for member, sigs in sorted(index.member_signatures("ssdeep-file").items()):
        for block_size, signature in sorted(sigs.items()):
            flat_types.append(0)
            flat_members.append(member)
            flat_blocks.append(block_size)
            signatures.append(signature)
    sig_bytes = "".join(signatures).encode("ascii")
    offsets = np.zeros(len(signatures) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in signatures], out=offsets[1:])
    path = write_container(tmp_path / "legacy.rpsi", {
        "ngram_length": 7,
        "feature_types": ["ssdeep-file"],
        "sample_ids": list(index.sample_ids),
        "class_names": list(index.class_names),
    }, {
        "entry_type": np.asarray(flat_types, dtype=np.int16),
        "entry_member": np.asarray(flat_members, dtype=np.int32),
        "entry_block": np.asarray(flat_blocks, dtype=np.int64),
        "sig_offsets": offsets,
        "sig_bytes": np.frombuffer(sig_bytes, dtype=np.uint8).copy(),
    })

    loaded = SimilarityIndex.load(path)
    for _, digests, _ in corpus[::5]:
        query = digests["ssdeep-file"]
        assert loaded.top_k(query, 30, min_score=0) == \
            index.top_k(query, 30, min_score=0)


@pytest.mark.parametrize("corruption, message", [
    (lambda a: a.__setitem__("pool_offsets",
                            np.array([0, 999], dtype=np.int64)),
     "pool offsets"),
    (lambda a: a.__setitem__("t0.post_keys",
                            a["t0.post_keys"][::-1].copy()),
     "unsorted posting keys"),
    (lambda a: a["t0.entry_member"].__setitem__(0, 999), "member"),
    (lambda a: a["t0.entry_block"].__setitem__(0, 5), "block size 5"),
    (lambda a: a["pool_bytes"].__setitem__(0, ord("!")), "base64 alphabet"),
    (lambda a: a["t0.entry_sig"].__setitem__(0, 9999), "signature"),
    (lambda a: a["t0.post_entries"].__setitem__(0, 30000), "entry"),
    (lambda a: a.__setitem__("t0.post_offsets",
                            a["t0.post_offsets"][:-1].copy()),
     "posting array lengths"),
])
def test_corrupt_v2_state_rejected(tmp_path, corruption, message):
    corpus = make_corpus(15)
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(corpus)
    header, arrays = index.get_state()
    arrays = {name: array.copy() for name, array in arrays.items()}
    corruption(arrays)
    with pytest.raises(IndexFormatError, match=message):
        SimilarityIndex.from_state(header, arrays)


def test_postings_without_entries_rejected():
    """Corrupt state with zero entries but live postings must fail the
    format check, not crash later with a raw IndexError."""

    corpus = make_corpus(5)
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(corpus)
    header, arrays = index.get_state()
    arrays = {name: array.copy() for name, array in arrays.items()}
    for name in ("entry_member", "entry_block", "entry_sig"):
        arrays[f"t0.{name}"] = arrays[f"t0.{name}"][:0]
    with pytest.raises(IndexFormatError, match="entry"):
        SimilarityIndex.from_state(header, arrays)


def test_concurrent_first_queries_are_safe():
    """The first query merges the tail; concurrent readers must all see
    a consistent index (the merge is locked, the sealed arrays swap
    atomically)."""

    import threading

    corpus = make_corpus(60)
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(corpus)          # tail left unmerged on purpose
    expected = None
    query = corpus[1][1]["ssdeep-file"]
    results, errors = [], []

    def worker():
        try:
            results.append(index.top_k(query, 60, min_score=0))
        except Exception as exc:    # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    reference = SimilarityIndex(["ssdeep-file"])
    reference.add_many(corpus)
    reference.seal()
    expected = reference.top_k(query, 60, min_score=0)
    assert all(result == expected for result in results)


def test_v2_header_declares_columnar_layout(tmp_path):
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(make_corpus(5))
    header, arrays = index.get_state()
    assert header["layout"] == "columnar"
    assert "pool_bytes" in arrays and "t0.post_keys" in arrays
