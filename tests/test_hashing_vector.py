"""Unit and property tests for the vector digest (second hash family).

The properties pinned down here are the ones the family's candidate
generation relies on:

* **determinism** — equal inputs give byte-identical digests (and str
  inputs hash as their UTF-8 encoding);
* **locality** — a single-byte edit moves at most 48 of the 256 body
  bits (empirically it moves 2–16; the bound leaves headroom for
  quartile-boundary ripple);
* **divergence** — shuffling the bytes of a large input (same byte
  histogram, different local structure) moves the digest far, because
  the buckets are keyed by 3-byte *windows*, not single bytes;
* **format** — ``vr1:`` + 68 hex characters, 72 total, lossless
  parse/format round-trip.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import DigestFormatError
from repro.hashing.vector import (VECTOR_BODY_BITS, VECTOR_DIGEST_LENGTH,
                                  VECTOR_PREFIX, VECTOR_WORDS, VectorDigest,
                                  VectorHasher,
                                  compare_vector_digests, digests_to_matrix,
                                  hamming_distance, is_vector_digest,
                                  is_vector_feature_type, packed_hamming,
                                  score_from_distance, vector_hash)
from repro.index.knn import PackedDigestStore

_settings = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_hasher = VectorHasher()


# ---------------------------------------------------------------- format
def test_digest_string_shape():
    digest = vector_hash(b"some executable bytes " * 40)
    assert digest.startswith(VECTOR_PREFIX)
    assert len(digest) == VECTOR_DIGEST_LENGTH == 72
    assert is_vector_digest(digest)
    assert not is_vector_digest("3:abc:def")
    assert is_vector_feature_type("vector-file")
    assert not is_vector_feature_type("ssdeep-file")


def test_parse_round_trip():
    digest = _hasher.hash(b"round trip me " * 100)
    parsed = VectorDigest.parse(str(digest))
    assert parsed == digest
    assert str(parsed) == str(digest)


@pytest.mark.parametrize("bad", [
    "", "vr1:", "vr1:zz", "3:abc:def", "vr1:" + "g" * 68,
    "vr2:" + "0" * 68, "vr1:" + "0" * 67,
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(DigestFormatError):
        VectorDigest.parse(bad)


def test_tiny_inputs_are_deterministic():
    for data in (b"", b"a", b"ab"):
        assert str(_hasher.hash(data)) == str(_hasher.hash(data))
        assert len(str(_hasher.hash(data))) == VECTOR_DIGEST_LENGTH


# --------------------------------------------------------- determinism
@_settings
@given(st.binary(min_size=0, max_size=4096))
def test_hash_is_deterministic(data):
    assert str(_hasher.hash(data)) == str(_hasher.hash(data))
    assert str(VectorHasher().hash(data)) == str(_hasher.hash(data))


@_settings
@given(st.text(max_size=512))
def test_str_inputs_hash_as_utf8(text):
    assert str(_hasher.hash(text)) == \
        str(_hasher.hash(text.encode("utf-8", errors="replace")))


# ------------------------------------------------------------- locality
@_settings
@given(st.binary(min_size=16, max_size=4096),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_single_byte_edit_moves_at_most_48_bits(data, seed):
    rnd = random.Random(seed)
    edited = bytearray(data)
    position = rnd.randrange(len(edited))
    edited[position] = (edited[position] + rnd.randrange(1, 256)) % 256
    distance = hamming_distance(_hasher.hash(data),
                                _hasher.hash(bytes(edited)))
    assert 0 <= distance <= 48


@_settings
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_shuffle_divergence_on_large_inputs(seed):
    rnd = random.Random(seed)
    data = bytes(rnd.randbytes(512 + rnd.randrange(2048)))
    shuffled = bytearray(data)
    rnd.shuffle(shuffled)
    if bytes(shuffled) == data:      # astronomically unlikely, but exact
        return
    distance = hamming_distance(_hasher.hash(data),
                                _hasher.hash(bytes(shuffled)))
    # Same byte histogram, different 3-byte windows: the digest must
    # treat the shuffle as a different input, far beyond edit noise.
    assert distance > 32


# -------------------------------------------------------------- scoring
def test_identical_digests_score_100():
    digest = vector_hash(b"identity " * 64)
    assert compare_vector_digests(digest, digest) == 100
    assert hamming_distance(digest, digest) == 0


def test_score_from_distance_scale():
    # The scale saturates at half the body bits: 128 differing bits is
    # already indistinguishable from unrelated (random digests sit near
    # 128), so scores hit 0 there rather than at the 256-bit maximum.
    assert score_from_distance(0) == 100
    assert score_from_distance(64) == 50
    assert score_from_distance(128) == 0
    assert score_from_distance(VECTOR_BODY_BITS) == 0
    scores = score_from_distance(np.array([0, 64, 128, 256]))
    assert list(scores) == [100, 50, 0, 0]


@_settings
@given(st.binary(min_size=3, max_size=1024),
       st.binary(min_size=3, max_size=1024))
def test_hamming_is_symmetric_and_bounded(a, b):
    d1, d2 = _hasher.hash(a), _hasher.hash(b)
    distance = hamming_distance(d1, d2)
    assert distance == hamming_distance(d2, d1)
    assert 0 <= distance <= VECTOR_BODY_BITS
    assert 0 <= compare_vector_digests(d1, d2) <= 100


# --------------------------------------------------------- packed sweep
@_settings
@given(st.lists(st.binary(min_size=3, max_size=512), min_size=1,
                max_size=12),
       st.binary(min_size=3, max_size=512))
def test_packed_hamming_matches_scalar(blobs, query_blob):
    digests = [_hasher.hash(blob) for blob in blobs]
    query = _hasher.hash(query_blob)
    matrix = digests_to_matrix(digests)
    packed = packed_hamming(matrix, query.words)
    scalar = [hamming_distance(d, query) for d in digests]
    assert packed.tolist() == scalar


_word = st.integers(0, 2**64 - 1)


@_settings
@given(st.lists(st.lists(_word, min_size=VECTOR_WORDS, max_size=VECTOR_WORDS),
                min_size=1, max_size=12),
       st.lists(_word, min_size=VECTOR_WORDS, max_size=VECTOR_WORDS))
def test_bit_counts_match_unpackbits(rows, query_row):
    """``hamming_distance``, ``packed_hamming`` and the store's
    ``pair_scores`` count the bits ``np.unpackbits`` counts, on any
    words (including all-ones and all-zero ones)."""

    matrix = np.array(rows, dtype=np.uint64)
    query = np.array(query_row, dtype=np.uint64)
    expected = np.unpackbits((matrix ^ query).view(np.uint8), axis=1).sum(axis=1)
    assert packed_hamming(matrix, query).tolist() == expected.tolist()
    digests = [VectorDigest.from_words(0, 0, row) for row in matrix]
    other = VectorDigest.from_words(0, 0, query)
    assert [hamming_distance(d, other) for d in digests] == expected.tolist()
    store = PackedDigestStore()
    for digest in digests + [other]:
        store.append(digest)
    pairs = np.arange(len(digests))
    assert store.pair_scores(pairs, np.full_like(pairs, len(digests))).tolist() \
        == score_from_distance(expected).tolist()
