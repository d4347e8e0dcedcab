"""Levenshtein (insert/delete/substitute) edit distance.

:func:`levenshtein_distance` is a straightforward two-row dynamic
program in pure Python, used as a reference in the tests.
"""

from __future__ import annotations

__all__ = ["levenshtein_distance"]


def levenshtein_distance(a: str | bytes, b: str | bytes) -> int:
    """Return the Levenshtein distance between sequences ``a`` and ``b``.

    Insertions, deletions and substitutions all cost 1.  Runs in
    ``O(|a| * |b|)`` time and ``O(min(|a|, |b|))`` memory.
    """

    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)

    previous = list(range(len(b) + 1))
    current = [0] * (len(b) + 1)
    for i, ca in enumerate(a, start=1):
        current[0] = i
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current[j] = min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + cost  # substitution / match
            )
        previous, current = current, previous
    return previous[len(b)]

