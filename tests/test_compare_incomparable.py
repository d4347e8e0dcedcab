"""Tests for the typed "incomparable" comparison outcome.

A zero SSDeep score hides two different facts: *dissimilar* versus
*cannot be scored at all*.  :func:`compare_digests_detailed` types the
second case with a reason.
"""

import pytest

from repro.distance.scoring import (COMPARABLE, INCOMPARABLE_BLOCK_SIZE,
                                    INCOMPARABLE_EMPTY,
                                    INCOMPARABLE_SHORT_SIGNATURE)
from repro.hashing.compare import (DigestComparison, compare_digests,
                                   compare_digests_detailed)
from repro.hashing.ssdeep import fuzzy_hash


def test_block_size_mismatch_is_typed():
    outcome = compare_digests_detailed("3:abcdefgh:abcd", "192:abcdefgh:abcd")
    assert outcome == DigestComparison(0, False, INCOMPARABLE_BLOCK_SIZE)


def test_empty_digest_is_typed():
    outcome = compare_digests_detailed("3::", "3:abcdefgh:abcd")
    assert outcome.comparable is False
    assert outcome.reason == INCOMPARABLE_EMPTY


def test_short_signatures_are_typed():
    # Both sides shorter than the 7-gram window and not identical: the
    # pair can never score above zero no matter the content.
    outcome = compare_digests_detailed("3:abc:ab", "3:abd:ac")
    assert outcome == DigestComparison(0, False,
                                       INCOMPARABLE_SHORT_SIGNATURE)


def test_identical_short_signatures_stay_comparable():
    outcome = compare_digests_detailed("3:abc:ab", "3:abc:ab")
    assert outcome.score == 100
    assert outcome.comparable is True
    assert outcome.reason == COMPARABLE


def test_genuine_zero_is_comparable():
    # Same block size, both signatures past the 7-gram window, but no
    # shared 7-gram: a genuine "dissimilar" verdict, not incomparable.
    outcome = compare_digests_detailed("3:abcdefghijk:abcdefgh",
                                       "3:ABCDEFGHIJK:ABCDEFGH")
    assert outcome == DigestComparison(0, True, COMPARABLE)


def test_detailed_score_matches_plain_score():
    blobs = [b"x" * 100, b"hello world " * 50, bytes(range(256)) * 8, b""]
    digests = [fuzzy_hash(b) for b in blobs]
    for d1 in digests:
        for d2 in digests:
            assert compare_digests_detailed(d1, d2).score == \
                compare_digests(d1, d2)


def test_comparison_dataclass_is_frozen():
    outcome = compare_digests_detailed("3:abcdefgh:abcd", "3:abcdefgh:abcd")
    with pytest.raises(AttributeError):
        outcome.score = 5
