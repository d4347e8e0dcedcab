"""FNV-style piecewise chunk hash used by SSDeep.

Each chunk between two rolling-hash trigger points is summarised by an
FNV-1 style hash ``h = ((h * FNV_PRIME) XOR byte) mod 2**32`` seeded
with ``FNV_INIT``; only the low 6 bits of the final value are kept and
encoded as one base64 character.

Because multiplication and XOR both commute with "take the low 6 bits",
the digest character of a chunk can be computed with a 6-bit state
machine fed the low 6 bits of each byte: ``state = table[state][c]``
with ``table[s][c] = ((s * FNV_PRIME) & 63) ^ c``.  A digest has two
signatures, at block sizes ``B`` and ``2B``, and :func:`two_state_low6`
computes both in one pass over the input, advancing the ``B`` and the
``2B`` state side by side through the same table.

The table is 64 tuples of 64 small ints: tuple indexing is the
interpreter's fast path, and the ints below 257 are shared singletons,
so a lookup allocates nothing.  At 32 KB it also stays cheap when the
caches are cold, as they are for a server that does other work between
requests.  A table that advances both states in one lookup (one 12-bit
state, 64 rows of 4,096) is 2 MB, and that is what decides between
them.  Per input byte, the median of 12 rounds over the 600 digest
inputs of 200 medium-corpus executables with their real triggers,
warm and with 2 MB of other memory touched before each executable
(2-vCPU VM, Python 3.11, in a slow phase of the host):

==========================================  ========  ========
FNV pass                                     warm      cold
==========================================  ========  ========
two passes, 64 rows of 256 as ``bytes``      90.5 ns   91.9 ns
one 12-bit state, 64 rows of 4,096           52.9 ns   71.8 ns
two 6-bit states, 64 rows of 64 (this one)   55.1 ns   53.3 ns
==========================================  ========  ========
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["FNV_INIT", "FNV_PRIME", "fnv_update", "fnv_hash",
           "two_state_low6"]

#: Initial value of the piecewise hash (the spamsum HASH_INIT constant).
FNV_INIT = 0x28021967
#: FNV-1 32-bit prime.
FNV_PRIME = 0x01000193

_MASK32 = 0xFFFFFFFF
_LOW6 = 0x3F


def fnv_update(h: int, byte: int) -> int:
    """One FNV step in 32-bit arithmetic (reference semantics)."""

    return ((h * FNV_PRIME) & _MASK32) ^ (byte & 0xFF)


def fnv_hash(data: bytes, init: int = FNV_INIT) -> int:
    """Full 32-bit FNV hash of ``data`` (used by tests as the reference)."""

    h = init & _MASK32
    for byte in data:
        h = fnv_update(h, byte)
    return h


def _build_step_table() -> tuple[tuple[int, ...], ...]:
    """``table[state][c]``: the 6-bit FNV state after 6-bit byte ``c``."""

    prime = FNV_PRIME & _LOW6
    return tuple(tuple(((state * prime) & _LOW6) ^ c for c in range(64))
                 for state in range(64))


_STEP_TABLE = _build_step_table()
#: Maps each byte to its low 6 bits (the column index of the step table).
_BYTE_LOW6 = bytes(range(64)) * 4
_INIT6 = FNV_INIT & _LOW6


def two_state_low6(data: bytes | bytearray, boundaries: Sequence[int],
                   double_boundaries: Sequence[int]
                   ) -> tuple[list[int], int, list[int], int]:
    """Low-6-bit FNV states at two sets of chunk boundaries, in one pass.

    Parameters
    ----------
    data:
        The raw input bytes.
    boundaries, double_boundaries:
        Sorted, strictly increasing byte indices at which the chunks of
        the ``B`` and of the ``2B`` signature end.  Chunk ``k`` covers
        ``data[boundaries[k-1] + 1 : boundaries[k] + 1]`` (the trigger
        byte belongs to the chunk it terminates), and each signature's
        state is reset to ``FNV_INIT`` after each of its own boundaries.

    Returns
    -------
    (states, tail, double_states, double_tail):
        ``states[k]`` is the 6-bit value at ``boundaries[k]`` and
        ``tail`` the value accumulated after the last boundary up to the
        end of ``data`` (the value of a digest's final character); the
        other two are the same for ``double_boundaries``.
    """

    table = _STEP_TABLE
    low6 = data.translate(_BYTE_LOW6)
    ends, double_ends = set(boundaries), set(double_boundaries)
    state = double_state = _INIT6
    states: list[int] = []
    double_states: list[int] = []
    pos = 0
    for end in sorted(ends | double_ends):
        for byte in low6[pos:end + 1]:
            state = table[state][byte]
            double_state = table[double_state][byte]
        if end in ends:
            states.append(state)
            state = _INIT6
        if end in double_ends:
            double_states.append(double_state)
            double_state = _INIT6
        pos = end + 1
    for byte in low6[pos:]:
        state = table[state][byte]
        double_state = table[double_state][byte]
    return states, state, double_states, double_state
