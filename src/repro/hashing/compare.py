"""Similarity scoring between SSDeep digests.

Two digests are compared exactly as the SSDeep reference does
(paper, Section 3):

1. the block sizes must be identical or differ by a factor of two —
   otherwise the files are structurally incomparable and the score is 0;
2. runs of more than three identical characters are collapsed to three
   (long runs carry little information and would distort the edit
   distance);
3. the two signatures must share at least one common substring of
   length :data:`~repro.hashing.rolling.ROLLING_WINDOW` (7); if they do
   not, the score is 0.  This gate is also what makes large-scale
   comparison cheap: almost all cross-application pairs are rejected
   here without computing an edit distance;
4. the remaining pairs are scored by SSDeep's cost-weighted edit
   distance (insert/delete 1, substitute 3, transpose 5), computed as
   the equal indel distance by
   :func:`~repro.distance.scoring.indel_distance`, and scaled onto
   0–100 (:mod:`repro.distance.scoring`).

The module scores single pairs; bulk scoring against many reference
digests (with the 7-gram gate applied as a candidate index) lives in
:mod:`repro.index` (:class:`~repro.index.SimilarityIndex`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..distance.scoring import (
    COMPARABLE,
    INCOMPARABLE_BLOCK_SIZE,
    INCOMPARABLE_EMPTY,
    INCOMPARABLE_SHORT_SIGNATURE,
    indel_distance,
    ssdeep_score_from_distance,
)
from .rolling import ROLLING_WINDOW
from .ssdeep import SsdeepDigest

__all__ = [
    "normalize_repeats",
    "has_common_substring",
    "score_signatures",
    "DigestComparison",
    "compare_digests",
    "compare_digests_detailed",
    "common_ngrams",
]

_REPEAT_RE = re.compile(r"(.)\1{3,}")


def normalize_repeats(signature: str) -> str:
    """Collapse runs of more than three identical characters to three.

    SSDeep applies this before scoring so that long constant regions
    (e.g. zero padding) do not dominate the edit distance.
    """

    return _REPEAT_RE.sub(lambda m: m.group(1) * 3, signature)


def common_ngrams(signature: str) -> set[str]:
    """Return the set of :data:`ROLLING_WINDOW`-character substrings of
    ``signature``."""

    n = ROLLING_WINDOW
    if len(signature) < n:
        return set()
    return {signature[i:i + n] for i in range(len(signature) - n + 1)}


def has_common_substring(s1: str, s2: str) -> bool:
    """True if ``s1`` and ``s2`` share a common substring of
    :data:`ROLLING_WINDOW` characters."""

    n = ROLLING_WINDOW
    if len(s1) < n or len(s2) < n:
        return False
    grams = common_ngrams(s1)
    return any(s2[i:i + n] in grams for i in range(len(s2) - n + 1))


def score_signatures(s1: str, s2: str, block_size: int) -> int:
    """Score two same-block-size signatures on the 0–100 SSDeep scale."""

    s1 = normalize_repeats(s1)
    s2 = normalize_repeats(s2)
    if not s1 or not s2:
        return 0
    if s1 == s2:
        return 100
    if not has_common_substring(s1, s2):
        return 0
    distance = indel_distance(s1, s2)
    return int(ssdeep_score_from_distance(distance, len(s1), len(s2), block_size))


@dataclass(frozen=True)
class DigestComparison:
    """Typed outcome of one digest comparison.

    ``score`` is the usual 0–100 similarity.  ``comparable`` is False
    when the pair could not be meaningfully scored at all — the score
    is then 0 by construction, and ``reason`` names why (one of
    :data:`~repro.distance.scoring.INCOMPARABLE_REASONS`).  A
    comparable pair carries ``reason == COMPARABLE`` even when its
    score is 0: that zero is a genuine dissimilarity verdict.
    """

    score: int
    comparable: bool
    reason: str


def _pair_is_short(s1: str, s2: str) -> bool:
    """True when a signature pair can never pass the 7-gram gate."""

    s1 = normalize_repeats(s1)
    s2 = normalize_repeats(s2)
    if s1 and s1 == s2:
        return False  # identical signatures score 100 regardless of length
    return min(len(s1), len(s2)) < ROLLING_WINDOW


def compare_digests_detailed(d1: SsdeepDigest | str,
                             d2: SsdeepDigest | str) -> DigestComparison:
    """Compare two digests, reporting *why* when no score is possible.

    The score matches :func:`compare_digests` exactly; the extra fields
    distinguish "scored 0 because dissimilar" from the three structural
    dead-ends (block-size mismatch, empty digest, signatures too short
    for the 7-gram gate).
    """

    if isinstance(d1, str):
        d1 = SsdeepDigest.parse(d1)
    if isinstance(d2, str):
        d2 = SsdeepDigest.parse(d2)

    bs1, bs2 = d1.block_size, d2.block_size
    if bs1 != bs2 and bs1 != bs2 * 2 and bs2 != bs1 * 2:
        return DigestComparison(0, False, INCOMPARABLE_BLOCK_SIZE)
    if d1.is_empty or d2.is_empty:
        return DigestComparison(0, False, INCOMPARABLE_EMPTY)

    if bs1 == bs2:
        score = max(score_signatures(d1.chunk, d2.chunk, bs1),
                    score_signatures(d1.double_chunk, d2.double_chunk,
                                     bs1 * 2))
        short = (_pair_is_short(d1.chunk, d2.chunk)
                 and _pair_is_short(d1.double_chunk, d2.double_chunk))
    elif bs1 == bs2 * 2:
        # d1's base signature was computed at the same block size as d2's
        # double signature.
        score = score_signatures(d1.chunk, d2.double_chunk, bs1)
        short = _pair_is_short(d1.chunk, d2.double_chunk)
    else:  # bs2 == bs1 * 2
        score = score_signatures(d1.double_chunk, d2.chunk, bs2)
        short = _pair_is_short(d1.double_chunk, d2.chunk)

    if score == 0 and short:
        return DigestComparison(0, False, INCOMPARABLE_SHORT_SIGNATURE)
    return DigestComparison(int(score), True, COMPARABLE)


def compare_digests(d1: SsdeepDigest | str, d2: SsdeepDigest | str) -> int:
    """SSDeep similarity score (0–100) between two digests.

    Accepts :class:`SsdeepDigest` instances or digest strings.  The
    typed variant :func:`compare_digests_detailed` additionally reports
    whether a 0 meant "dissimilar" or "incomparable".
    """

    return compare_digests_detailed(d1, d2).score
