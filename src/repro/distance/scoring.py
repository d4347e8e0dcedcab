"""Edit distance between SSDeep signatures, scaled into 0–100 scores.

SSDeep reports similarity on a 0–100 scale where 0 means "no similarity"
and 100 means "the inputs are (structurally) identical" (paper,
Section 3).  The reference implementation derives the score from a
cost-weighted restricted Damerau–Levenshtein distance between the two
digest chunk strings:

1. compute the weighted edit distance ``d`` (insert/delete cost 1,
   substitution 3, transposition 5);
2. rescale by the combined digest length so that digests of different
   lengths are comparable:  ``d' = d * 64 / (len1 + len2)``;
3. map onto 0–100: ``score = 100 - 100 * d' / 64``;
4. for small block sizes, cap the score so that two very short digests
   cannot spuriously reach a high score.

With those costs the weighted distance is the indel distance
``len1 + len2 - 2 * LCS``: a substitution (3) never beats deleting the
old character and inserting the new one (1 + 1), and a transposition
(5) never beats deleting one character and re-inserting it on the
other side (1 + 1).  :func:`indel_distance` computes step 1 that way,
with a bit-parallel longest-common-subsequence over Python integers;
:func:`repro.distance.damerau.weighted_edit_distance` is the DP it must
agree with (the tests check this property).
:func:`ssdeep_score_from_distance` applies steps 2–4 to scalars or
NumPy arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SPAMSUM_LENGTH",
    "MIN_BLOCKSIZE",
    "ROLLING_WINDOW",
    "COMPARABLE",
    "INCOMPARABLE_BLOCK_SIZE",
    "INCOMPARABLE_EMPTY",
    "INCOMPARABLE_SHORT_SIGNATURE",
    "INCOMPARABLE_REASONS",
    "indel_distance",
    "ssdeep_score_from_distance",
]

#: Maximum number of base64 characters in an SSDeep digest chunk.
SPAMSUM_LENGTH = 64
#: Smallest block size SSDeep ever uses.
MIN_BLOCKSIZE = 3
#: Size of the rolling-hash window.
ROLLING_WINDOW = 7

# ------------------------------------------------------- comparability
# A zero score hides two very different facts: "these inputs share no
# structure" versus "these digests *cannot* be scored against each
# other".  The reasons below type the second case so callers (and the
# serving /metrics endpoint) can tell them apart.

#: The pair was genuinely scored; a 0 means structural dissimilarity.
COMPARABLE = "comparable"
#: Block sizes differ by more than one factor of two.
INCOMPARABLE_BLOCK_SIZE = "block-size-mismatch"
#: At least one digest carries no signature content.
INCOMPARABLE_EMPTY = "empty-digest"
#: Every comparable signature pair has a side shorter than the 7-gram
#: window, so even identical content can never score above zero.
INCOMPARABLE_SHORT_SIGNATURE = "short-signature"

#: Every typed reason a digest pair can be incomparable.
INCOMPARABLE_REASONS = (INCOMPARABLE_BLOCK_SIZE, INCOMPARABLE_EMPTY,
                        INCOMPARABLE_SHORT_SIGNATURE)


def indel_distance(a: str, b: str) -> int:
    """Insert/delete edit distance ``len(a) + len(b) - 2 * LCS(a, b)``.

    Equal to SSDeep's weighted edit distance (see the module docstring).
    Bit ``i`` of each mask marks where ``a[i]`` occurs; the zero bits
    of ``v`` count the longest common subsequence, one column of the
    LCS table per character of ``b`` (Allison & Dix 1986; Hyyrö 2004).
    Python integers have no width limit, so any length takes this path.
    """

    masks: dict[str, int] = {}
    for i, ch in enumerate(a):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for ch in b:
        u = v & masks.get(ch, 0)
        v = (v + u) | (v - u)
    lcs = len(a) - (v & full).bit_count()
    return len(a) + len(b) - 2 * lcs


def ssdeep_score_from_distance(distance, len1, len2, block_size,
                               *,
                               digest_length: int = SPAMSUM_LENGTH,
                               min_blocksize: int = MIN_BLOCKSIZE,
                               rolling_window: int = ROLLING_WINDOW):
    """Exact SSDeep score computation from a weighted edit distance.

    Mirrors ``score_strings`` from the reference implementation,
    including the small-block-size cap, but operates on scalars or NumPy
    arrays.  Returns integer scores in ``[0, 100]``.

    Parameters
    ----------
    distance:
        Weighted edit distance(s) between the two digest chunks
        (insert/delete 1, substitute 3, transpose 5).
    len1, len2:
        Lengths of the two digest chunks.
    block_size:
        The block size at which the two chunks were computed (they must
        match for the comparison to be meaningful).
    """

    distance = np.asarray(distance, dtype=np.float64)
    len1 = np.asarray(len1, dtype=np.float64)
    len2 = np.asarray(len2, dtype=np.float64)
    block_size = np.asarray(block_size, dtype=np.float64)

    total_len = np.where((len1 + len2) <= 0, 1.0, len1 + len2)
    score = distance * digest_length / total_len
    score = (100.0 * score) / digest_length
    score = 100.0 - score
    score = np.clip(score, 0.0, 100.0)

    # Small block sizes cannot assert strong similarity: cap the score at
    # block_size / MIN_BLOCKSIZE * min(len1, len2), exactly as ssdeep does.
    threshold_block = (99 + rolling_window) // rolling_window * min_blocksize
    cap = block_size / min_blocksize * np.minimum(len1, len2)
    score = np.where(block_size < threshold_block, np.minimum(score, cap), score)

    result = np.floor(np.clip(score, 0.0, 100.0)).astype(np.int64)
    if result.ndim == 0:
        return int(result)
    return result
