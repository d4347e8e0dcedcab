"""Tests for the Levenshtein distance reference."""

import pytest

from repro.distance.levenshtein import levenshtein_distance


KNOWN_CASES = [
    ("", "", 0),
    ("", "abc", 3),
    ("abc", "", 3),
    ("abc", "abc", 0),
    ("kitten", "sitting", 3),
    ("flaw", "lawn", 2),
    ("intention", "execution", 5),
    ("saturday", "sunday", 3),
    ("a", "b", 1),
    ("ab", "ba", 2),          # plain Levenshtein has no transpositions
]


@pytest.mark.parametrize("a, b, expected", KNOWN_CASES)
def test_reference_known_values(a, b, expected):
    assert levenshtein_distance(a, b) == expected


def test_symmetry():
    assert levenshtein_distance("abcdef", "azced") == levenshtein_distance("azced", "abcdef")


def test_accepts_bytes():
    assert levenshtein_distance(b"abc", b"abd") == 1


def test_upper_bound_is_length_of_longer_string():
    assert levenshtein_distance("aaaa", "bbbbbbbb") <= 8
    assert levenshtein_distance("aaaa", "bbbbbbbb") >= 4
