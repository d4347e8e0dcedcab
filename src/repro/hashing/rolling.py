"""The 7-byte rolling hash used by SSDeep's context trigger.

The rolling hash combines three components over a sliding window of
``ROLLING_WINDOW = 7`` bytes (matching the spamsum/ssdeep reference):

* ``h1`` — the plain sum of the window bytes,
* ``h2`` — a position-weighted sum (the newest byte has weight 7, the
  oldest weight 1),
* ``h3`` — a shift/XOR mix: ``h3 = (h3 << 5) ^ c`` in 32-bit arithmetic,
  which, because ``7 * 5 >= 32``, also only depends on the last 7 bytes.

The rolling value is ``(h1 + h2 + h3) mod 2**32``.  A chunk boundary is
triggered at positions where ``value % block_size == block_size - 1``.

Two implementations are provided: a scalar :class:`RollingHash` that
mirrors the reference C code byte by byte (the oracle in tests, and
documentation), and :func:`rolling_hash_values`, a NumPy routine that
computes the rolling value at *every* position of an input in uint32
arithmetic — the performance-critical path when hashing whole
executables.  With ``b[i - k]`` the byte ``k`` places before the newest
(``k = 0..6``):

* ``h1 + h2 = sum_k (8 - k) * b[i - k]``, at most ``35 * 255``, so it
  never wraps;
* ``h3 = XOR_k (b[i - k] << 5k)``, where a uint32 shift drops the high
  bits exactly as the reference's 32-bit arithmetic does;

so the rolling value is seven shifted multiply-adds and seven shifted
XORs over the input, and their uint32 sum wraps as the reference's does.
"""

from __future__ import annotations

import numpy as np

from ..distance.scoring import ROLLING_WINDOW

__all__ = ["ROLLING_WINDOW", "RollingHash", "rolling_hash_values"]

_MASK32 = 0xFFFFFFFF


class RollingHash:
    """Scalar reference implementation of the SSDeep rolling hash."""

    __slots__ = ("_window", "_h1", "_h2", "_h3", "_n")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Reset the hash to its initial (empty window) state."""

        self._window = [0] * ROLLING_WINDOW
        self._h1 = 0
        self._h2 = 0
        self._h3 = 0
        self._n = 0

    def update(self, byte: int) -> int:
        """Feed one byte (0..255) and return the new rolling value."""

        byte &= 0xFF
        self._h2 = (self._h2 - self._h1 + ROLLING_WINDOW * byte) & _MASK32
        self._h1 = (self._h1 + byte - self._window[self._n % ROLLING_WINDOW]) & _MASK32
        self._window[self._n % ROLLING_WINDOW] = byte
        self._n += 1
        self._h3 = ((self._h3 << 5) & _MASK32) ^ byte
        return self.value

    @property
    def value(self) -> int:
        """Current rolling hash value (32-bit)."""

        return (self._h1 + self._h2 + self._h3) & _MASK32

    def update_bytes(self, data: bytes) -> int:
        """Feed a whole byte string; returns the final rolling value."""

        for byte in data:
            self.update(byte)
        return self.value


def rolling_hash_values(data: bytes | bytearray | memoryview | np.ndarray) -> np.ndarray:
    """Rolling hash value after each byte of ``data`` (vectorised).

    Returns an array ``r`` of dtype ``uint32`` and length ``len(data)``
    where ``r[i]`` equals the value a :class:`RollingHash` would report
    after consuming ``data[: i + 1]``.
    """

    if isinstance(data, np.ndarray):
        buf = data.astype(np.uint8, copy=False)
    else:
        # bytes and bytearray are read in place; a memoryview may be
        # strided, so its bytes are copied out first.
        if isinstance(data, memoryview):
            data = data.tobytes()
        buf = np.frombuffer(data, dtype=np.uint8)
    b = buf.astype(np.uint32)

    # The byte k places before the newest weighs 8 - k in h1 + h2 and is
    # shifted left by 5k in h3 (see the module docstring).
    total = b * np.uint32(ROLLING_WINDOW + 1)
    h3 = b.copy()
    for k in range(1, ROLLING_WINDOW):
        total[k:] += np.uint32(ROLLING_WINDOW + 1 - k) * b[:-k]
        h3[k:] ^= b[:-k] << np.uint32(5 * k)
    total += h3
    return total
