"""Tests for the FNV piecewise chunk hash."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.fnv import FNV_INIT, FNV_PRIME, fnv_hash, fnv_update, two_state_low6


def test_constants_match_spamsum():
    assert FNV_INIT == 0x28021967
    assert FNV_PRIME == 0x01000193


def test_fnv_update_is_32_bit():
    value = fnv_update(0xFFFFFFFF, 0xFF)
    assert 0 <= value <= 0xFFFFFFFF


def test_fnv_hash_known_sequence():
    # Manually folded reference for a short input.
    h = FNV_INIT
    for byte in b"abc":
        h = ((h * FNV_PRIME) & 0xFFFFFFFF) ^ byte
    assert fnv_hash(b"abc") == h


def per_chunk_low6(data, boundaries):
    """Reference: full 32-bit FNV per chunk, reduced mod 64, plus the tail."""

    start = 0
    states = []
    for boundary in boundaries:
        states.append(fnv_hash(data[start:boundary + 1]) % 64)
        start = boundary + 1
    return states, fnv_hash(data[start:]) % 64


def assert_matches_two_references(data, boundaries, double_boundaries):
    states, tail, double_states, double_tail = two_state_low6(
        data, boundaries, double_boundaries)
    assert (states, tail) == per_chunk_low6(data, boundaries)
    assert (double_states, double_tail) == per_chunk_low6(data,
                                                           double_boundaries)


def test_two_state_low6_matches_full_fnv_mod64():
    data = random.Random(0).randbytes(512)
    assert_matches_two_references(data, [63, 130, 200, 400], [130, 400])
    # Either list may hold boundaries the other lacks.
    assert_matches_two_references(data, [63, 200], [130, 200, 511])


def test_two_state_low6_without_boundaries():
    data = b"hello world, this is one chunk"
    assert two_state_low6(data, [], []) == ([], fnv_hash(data) % 64,
                                            [], fnv_hash(data) % 64)
    assert_matches_two_references(data, [4, 9], [])
    assert_matches_two_references(data, [], [9])


def test_two_state_low6_boundary_at_last_byte():
    data = b"0123456789"
    last = len(data) - 1
    states, tail, double_states, double_tail = two_state_low6(
        data, [last], [last])
    assert states == double_states == [fnv_hash(data) % 64]
    # Nothing after the last boundary: each tail is the initial state.
    assert tail == double_tail == FNV_INIT & 0x3F
    assert_matches_two_references(data, [3, last], [last])


def test_two_state_low6_double_boundaries_past_the_last_boundary():
    # A digest's chunk stops at 63 boundaries while its double chunk can
    # still end chunks: the B state then accumulates the whole tail.
    data = random.Random(4).randbytes(4000)
    boundaries = list(range(20, 20 + 63 * 30, 30))
    double_boundaries = boundaries[1::2] + [2500, 3100, 3999]
    assert_matches_two_references(data, boundaries, double_boundaries)


def test_two_state_low6_empty_input():
    init = FNV_INIT & 0x3F
    assert two_state_low6(b"", [], []) == ([], init, [], init)


def test_two_state_low6_accepts_a_bytearray():
    data = random.Random(5).randbytes(300)
    assert (two_state_low6(bytearray(data), [10, 99], [99])
            == two_state_low6(data, [10, 99], [99]))


def test_two_state_states_are_six_bit():
    data = random.Random(2).randbytes(1000)
    states, tail, double_states, double_tail = two_state_low6(
        data, [100, 400, 800], [400])
    assert all(0 <= s < 64 for s in states + double_states)
    assert 0 <= tail < 64 and 0 <= double_tail < 64


@st.composite
def nested_boundaries(draw):
    data = draw(st.binary(max_size=600))
    positions = range(len(data))
    boundaries = sorted(draw(st.sets(st.sampled_from(positions)))
                        if data else [])
    double_boundaries = sorted(draw(st.sets(st.sampled_from(boundaries)))
                               if boundaries else [])
    return data, boundaries, double_boundaries


@settings(max_examples=200, deadline=None)
@given(nested_boundaries())
def test_two_state_low6_equals_two_independent_passes(case):
    assert_matches_two_references(*case)
