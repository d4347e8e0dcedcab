"""Tests for scoring lists of signature pairs in one call.

``repro.index.core.score_signature_pairs`` is the index's batch path:
it maps the kernel (:func:`repro.distance.scoring.indel_distance`) over
every non-identical pair and scales all distances in one vectorised
step.  Pair by pair it must agree with the weighted-DP oracle.
"""

import random

from repro.distance.damerau import weighted_edit_distance
from repro.distance.scoring import indel_distance, ssdeep_score_from_distance
from repro.index.core import score_signature_pairs


def _random_pairs(n, seed=0, alphabet="ABCDEFGH+/ab01", max_len=40):
    rnd = random.Random(seed)
    return [
        ("".join(rnd.choices(alphabet, k=rnd.randint(0, max_len))),
         "".join(rnd.choices(alphabet, k=rnd.randint(0, max_len))))
        for _ in range(n)
    ]


def _assert_batch_matches_oracle(left, right, block_sizes):
    """Distances and scores over the lists equal the oracle's, pair by
    pair; identical signatures score 100 (the reference's fast path)."""

    expected_distances = [weighted_edit_distance(a, b)
                          for a, b in zip(left, right)]
    assert list(map(indel_distance, left, right)) == expected_distances
    expected_scores = [
        100 if a == b else ssdeep_score_from_distance(d, len(a), len(b), bs)
        for a, b, d, bs in zip(left, right, expected_distances, block_sizes)]
    assert score_signature_pairs(left, right,
                                 block_sizes).tolist() == expected_scores


def test_ssdeep_weights_match_reference():
    pairs = _random_pairs(400, seed=2)
    rnd = random.Random(2)
    # Small block sizes exercise the score cap, large ones the plain scale.
    blocks = [rnd.choice((3, 6, 48, 3072, 6144)) for _ in pairs]
    _assert_batch_matches_oracle([a for a, _ in pairs],
                                 [b for _, b in pairs], blocks)


def test_empty_strings_handled():
    left = ["", "abc", "", "xy"]
    right = ["", "", "abcd", "xy"]
    assert list(map(indel_distance, left, right)) == [0, 3, 4, 0]
    assert score_signature_pairs(left, right,
                                 [3] * 4).tolist() == [100, 0, 0, 100]
    _assert_batch_matches_oracle(left, right, [3] * 4)


def test_all_empty_right_side():
    left = ["abc", "de", ""]
    right = ["", "", ""]
    assert list(map(indel_distance, left, right)) == [3, 2, 0]
    assert score_signature_pairs(left, right, [3] * 3).tolist() == [0, 0, 100]
    _assert_batch_matches_oracle(left, right, [3] * 3)


def test_lone_surrogates_and_astral_codepoints():
    """Every str Python can hold — astral plane characters and lone
    surrogates (e.g. from surrogateescape decoding) — scores like the
    scalar reference."""

    pairs = [("a\ud800b", "ab"), ("\ud800", "\ud801"),
             ("naïve\U0001F600", "naive\U0001F601"),
             ("\ud800" * 3, "")]
    _assert_batch_matches_oracle([a for a, _ in pairs],
                                 [b for _, b in pairs], [3072] * len(pairs))
