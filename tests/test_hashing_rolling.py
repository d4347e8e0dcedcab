"""Tests for the SSDeep rolling hash."""

import random

import numpy as np
import pytest

from repro.hashing.rolling import ROLLING_WINDOW, RollingHash, rolling_hash_values


def test_window_constant_is_seven():
    assert ROLLING_WINDOW == 7


def test_empty_input_gives_empty_array():
    assert rolling_hash_values(b"").size == 0


def assert_scalar_and_vectorised_agree(data):
    scalar = RollingHash()
    expected = [scalar.update(byte) for byte in data]
    actual = rolling_hash_values(data)
    assert actual.dtype == np.uint32
    assert expected == actual.tolist()


def test_scalar_and_vectorised_agree_on_random_data():
    # Lengths up to 8 cover windows shorter than, equal to and one past
    # ROLLING_WINDOW.
    for length in [*range(9), 5000, 64 * 1024]:
        assert_scalar_and_vectorised_agree(
            random.Random(length).randbytes(length))


def test_scalar_and_vectorised_agree_on_structured_data():
    for data in [
        # Repeated patterns and zero runs exercise the window wrap-around.
        (b"\x00" * 50) + (b"ABCDEFG" * 30) + bytes(range(256)) * 3
        + b"\xff" * 20,
        # A window of 0xFF sets every bit each h3 shift can reach.
        b"\xff" * (3 * ROLLING_WINDOW),
        # A zero run a window long brings the value back to 0.
        b"\x00" * 20 + b"xyz" + b"\x00" * ROLLING_WINDOW + b"\x01"
        + b"\x00" * 9,
    ]:
        assert_scalar_and_vectorised_agree(data)


def test_value_depends_only_on_last_seven_bytes():
    # Two different prefixes followed by the same 7 bytes must give the
    # same rolling value at the end.
    suffix = b"HPCSITE"
    a = RollingHash()
    a.update_bytes(b"completely different prefix 123" + suffix)
    b = RollingHash()
    b.update_bytes(b"x" + suffix)
    assert a.value == b.value


def test_all_zero_window_gives_zero_value():
    hasher = RollingHash()
    hasher.update_bytes(b"something")
    hasher.update_bytes(b"\x00" * ROLLING_WINDOW)
    assert hasher.value == 0


def test_reset_restores_initial_state():
    hasher = RollingHash()
    hasher.update_bytes(b"abcdefgh")
    hasher.reset()
    assert hasher.value == 0
    fresh = RollingHash()
    fresh.update(65)
    hasher.update(65)
    assert hasher.value == fresh.value


def test_values_fit_in_32_bits():
    data = random.Random(3).randbytes(2000)
    values = rolling_hash_values(data)
    assert values.dtype == np.uint32
    assert int(values.max()) <= 0xFFFFFFFF


def test_accepts_numpy_input():
    data = np.frombuffer(random.Random(1).randbytes(100), dtype=np.uint8)
    assert rolling_hash_values(data).shape == (100,)
