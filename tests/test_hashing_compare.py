"""Tests for SSDeep digest comparison / similarity scoring."""

import random

import pytest

from repro.hashing.compare import (
    compare_digests,
    has_common_substring,
    normalize_repeats,
    score_signatures,
)
from repro.hashing.ssdeep import FuzzyHasher, fuzzy_hash


def _mutate(data: bytes, n_edits: int, seed: int = 0) -> bytes:
    """Flip ``n_edits`` short ranges of ``data``."""

    rnd = random.Random(seed)
    out = bytearray(data)
    for _ in range(n_edits):
        pos = rnd.randrange(0, len(out) - 8)
        out[pos:pos + 8] = rnd.randbytes(8)
    return bytes(out)


def test_identical_files_score_100():
    data = random.Random(0).randbytes(16_384)
    digest = fuzzy_hash(data)
    assert compare_digests(digest, digest) == 100


def test_similar_files_score_high():
    data = random.Random(1).randbytes(16_384)
    similar = _mutate(data, 5, seed=2)
    score = compare_digests(fuzzy_hash(data), fuzzy_hash(similar))
    assert score >= 60


def test_unrelated_files_score_zero():
    a = fuzzy_hash(random.Random(3).randbytes(16_384))
    b = fuzzy_hash(random.Random(4).randbytes(16_384))
    assert compare_digests(a, b) == 0


def test_similarity_decreases_with_more_edits():
    data = random.Random(5).randbytes(32_768)
    base = fuzzy_hash(data)
    scores = [compare_digests(base, fuzzy_hash(_mutate(data, edits, seed=6)))
              for edits in (1, 20, 120)]
    assert scores[0] >= scores[1] >= scores[2]


def test_comparison_is_symmetric():
    data = random.Random(7).randbytes(10_000)
    a = fuzzy_hash(data)
    b = fuzzy_hash(_mutate(data, 10, seed=8))
    assert compare_digests(a, b) == compare_digests(b, a)


def test_incompatible_block_sizes_score_zero():
    small = fuzzy_hash(random.Random(9).randbytes(500))
    large = fuzzy_hash(random.Random(10).randbytes(500_000))
    assert compare_digests(small, large) == 0


def test_empty_digest_scores_zero():
    digest = fuzzy_hash(b"some actual content here")
    empty = str(FuzzyHasher().hash(b""))
    assert compare_digests(digest, empty) == 0
    assert compare_digests(empty, empty) == 0


def test_accepts_digest_strings_and_objects():
    from repro.hashing.ssdeep import SsdeepDigest

    data = random.Random(11).randbytes(4096)
    digest_str = fuzzy_hash(data)
    digest_obj = SsdeepDigest.parse(digest_str)
    assert compare_digests(digest_str, digest_obj) == 100


def test_normalize_repeats():
    assert normalize_repeats("aaaaaabcc") == "aaabcc"
    assert normalize_repeats("abc") == "abc"
    assert normalize_repeats("aAAAAAAb") == "aAAAb"


def test_has_common_substring():
    assert has_common_substring("ABCDEFGHIJ", "xxxABCDEFGxx")
    assert not has_common_substring("ABCDEFGHIJ", "KLMNOPQRST")
    assert not has_common_substring("short", "short")  # below length 7


def test_score_signatures_identical():
    assert score_signatures("ABCDEFGHIJKLMNOP", "ABCDEFGHIJKLMNOP", 3072) == 100


def test_score_signatures_no_common_substring_is_zero():
    assert score_signatures("ABCDEFGHIJKLMNOP", "qrstuvwxyz012345", 3072) == 0

