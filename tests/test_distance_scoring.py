"""Tests for the edit-distance kernel and the SSDeep score scaling."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.distance.damerau import weighted_edit_distance
from repro.distance.scoring import (
    SPAMSUM_LENGTH,
    indel_distance,
    ssdeep_score_from_distance,
)


# ------------------------------------------------------------ the kernel
def _assert_matches_oracle(a, b):
    """``indel_distance`` equals SSDeep's weighted DP on ``(a, b)`` and
    on the boundary pairs built from it: empty against empty, either
    side empty, and a side against itself."""

    for x, y in ((a, b), ("", ""), (a, ""), ("", b), (a, a)):
        assert indel_distance(x, y) == weighted_edit_distance(x, y), (x, y)
    assert indel_distance(a, a) == 0
    assert indel_distance(a, "") == indel_distance("", a) == len(a)


def _texts(alphabet):
    """Strings over ``alphabet``: mostly short, and a share longer than
    64 characters (past one machine word, like adaptive signatures)."""

    return (st.text(alphabet=alphabet, max_size=24)
            | st.text(alphabet=alphabet, min_size=60, max_size=80))


# A short alphabet makes long common subsequences, substitutions and
# adjacent transpositions likely.
_short_text = _texts("ABCab01+/")


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_short_text, _short_text)
@example("ab", "ba")
@example("abcd", "acbd")
@example("A" * 64, "A" * 65)
def test_indel_distance_equals_weighted_on_short_alphabet(a, b):
    _assert_matches_oracle(a, b)


# Any code point, astral planes included; lone surrogates, which the
# default alphabet leaves out, come from their own branch.
_any_char = (st.characters(exclude_categories=())
             | st.characters(categories=["Cs"]))


@st.composite
def _full_range_pairs(draw):
    """Two strings over a few full-range characters, so they share
    characters the way two signatures do."""

    pool = draw(st.lists(_any_char, min_size=1, max_size=5, unique=True))
    text = _texts(st.sampled_from(pool))
    return draw(text), draw(text)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_full_range_pairs())
@example(("a\ud800b", "ab"))
@example(("\ud800", "\ud801"))
@example(("naïve\U0001F600", "naive\U0001F601"))
@example(("\ud800" * 3, ""))
def test_indel_distance_equals_weighted_on_full_range_text(pair):
    _assert_matches_oracle(*pair)


def test_indel_distance_known_values():
    # Every substitution becomes a delete plus an insert.
    assert indel_distance("kitten", "sitting") == 5
    assert indel_distance("abc", "axc") == 2
    assert indel_distance("ab", "ba") == 2
    assert indel_distance("abc", "abcd") == 1
    assert indel_distance("", "") == 0


# ----------------------------------------------------------- the scaling


def test_zero_distance_on_long_digests_is_100():
    score = ssdeep_score_from_distance(0, 40, 40, block_size=3072)
    assert score == 100


def test_identical_short_digests_capped_by_block_size():
    # At the minimum block size, two very short signatures cannot assert
    # strong similarity even with distance 0.
    score = ssdeep_score_from_distance(0, 4, 4, block_size=3)
    assert score <= 4  # block_size / 3 * min(len) = 4


def test_larger_distance_gives_lower_score():
    scores = [int(ssdeep_score_from_distance(d, 50, 50, block_size=1536))
              for d in (0, 10, 30, 60, 90)]
    assert scores == sorted(scores, reverse=True)


def test_score_range_is_0_to_100():
    rng = np.random.default_rng(0)
    distances = rng.integers(0, 400, size=200)
    lengths = rng.integers(1, SPAMSUM_LENGTH + 1, size=200)
    scores = ssdeep_score_from_distance(distances, lengths, lengths,
                                        block_size=6144)
    assert scores.min() >= 0
    assert scores.max() <= 100


def test_vectorised_matches_scalar():
    distances = np.array([0, 5, 20, 64])
    lengths1 = np.array([30, 40, 50, 64])
    lengths2 = np.array([32, 38, 52, 60])
    blocks = np.array([192, 192, 384, 768])
    vector = ssdeep_score_from_distance(distances, lengths1, lengths2, blocks)
    for i in range(len(distances)):
        scalar = ssdeep_score_from_distance(int(distances[i]), int(lengths1[i]),
                                            int(lengths2[i]), int(blocks[i]))
        assert vector[i] == scalar


def test_zero_length_inputs_do_not_divide_by_zero():
    score = ssdeep_score_from_distance(0, 0, 0, block_size=3)
    assert 0 <= int(score) <= 100
