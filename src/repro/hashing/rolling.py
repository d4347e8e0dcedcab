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
mirrors the reference C code byte by byte (used in tests and as
documentation), and :func:`rolling_hash_values`, a NumPy routine that
computes the rolling value at *every* position of an input in a handful
of vectorised passes — this is the performance-critical path when
hashing whole executables.
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
        buf = np.frombuffer(bytes(data), dtype=np.uint8)
    n = buf.size
    if n == 0:
        return np.zeros(0, dtype=np.uint32)

    b = buf.astype(np.uint64)

    # h1: plain sliding-window sum of the last 7 bytes.
    csum = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(b, out=csum[1:])
    left = np.maximum(np.arange(1, n + 1) - ROLLING_WINDOW, 0)
    h1 = csum[1:] - csum[left]

    # h2: position-weighted window sum; the byte at offset k from the end
    # of the window (k = 0 is the newest byte) has weight 7 - k.
    h2 = np.zeros(n, dtype=np.uint64)
    for k in range(ROLLING_WINDOW):
        weight = ROLLING_WINDOW - k
        if k == 0:
            h2 += weight * b
        else:
            h2[k:] += weight * b[:-k]

    # h3: shift/XOR mix; only the last 7 bytes contribute within 32 bits.
    h3 = np.zeros(n, dtype=np.uint64)
    for k in range(ROLLING_WINDOW):
        shifted = (b << np.uint64(5 * k)) & np.uint64(_MASK32)
        if k == 0:
            h3 ^= shifted
        else:
            h3[k:] ^= shifted[:-k]

    total = (h1 + h2 + h3) & np.uint64(_MASK32)
    return total.astype(np.uint32)
