"""TLSH-style fixed-length locality-sensitive vector digests.

The CTPH digests of :mod:`repro.hashing.ssdeep` are variable-length
strings compared by edit distance; they are known-weak on small inputs
(signatures shorter than the 7-gram window never match) and on heavily
padded or appended samples (the block-size retry loop shifts every
chunk boundary).  This module implements the second hash family of the
pipeline: a deterministic, fixed-length digest in the spirit of TLSH
(Oliver et al., 2013) whose distance is a plain Hamming distance over a
packed bit body — cheap enough to sweep a whole corpus with one
vectorised XOR + popcount.

Digest construction
-------------------
1. slide a 3-byte window over the input; each window is mixed through a
   Pearson permutation table (fixed, generated by a seeded
   Fisher–Yates shuffle, so digests are stable across processes and
   platforms) into one of :data:`VECTOR_BUCKETS` (128) buckets,
2. the bucket histogram is *rank-quartile* coded: buckets are ranked by
   ``(count, bucket_index)`` and each bucket's 2-bit code is its rank
   quartile.  Rank coding (rather than comparing counts against global
   quartile values) gives a provable locality bound: a single in-place
   byte substitution changes at most 3 windows, hence at most 6 bucket
   counts, hence at most 6 ranks directly — every other bucket's rank
   moves by at most 6 positions and can therefore cross at most one
   quartile boundary,
3. the 2-bit codes are Gray coded (``00, 01, 11, 10``) so that a
   quartile step of one costs exactly one bit, and packed into a
   256-bit body (4 little-endian ``uint64`` words),
4. a 2-byte header records a logarithmic length bucket (``lvalue``,
   base 1.5 like TLSH) and a histogram checksum byte.

The digest string is ``"vr1:" + lvalue_hex + checksum_hex + body_hex``
(72 characters, fixed).  The distinctive ``vr1:`` prefix is what routes
digest strings between the CTPH and vector code paths in the index.

Distance and score
------------------
The distance between two digests is the Hamming distance between their
*bodies* (the header is excluded so the locality bound holds), in
``[0, 256]``.  It is mapped onto the familiar 0–100 scale by
``score = max(0, 100 - distance * 100 // 128)``: identical bodies score
100, and digests at or beyond the ~128-bit expected distance of
unrelated inputs (Gray coding changes an expected one bit per bucket)
score 0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import DigestFormatError
from .ssdeep import read_regular_file

__all__ = [
    "VECTOR_PREFIX",
    "VECTOR_FEATURE_PREFIX",
    "is_vector_feature_type",
    "VECTOR_BUCKETS",
    "VECTOR_WINDOW",
    "VECTOR_BODY_BITS",
    "VECTOR_BODY_BYTES",
    "VECTOR_WORDS",
    "VECTOR_DIGEST_LENGTH",
    "VectorDigest",
    "VectorHasher",
    "vector_hash",
    "is_vector_digest",
    "hamming_distance",
    "score_from_distance",
    "compare_vector_digests",
    "digests_to_matrix",
    "packed_hamming",
]

#: Digest string prefix; also encodes the format version.
VECTOR_PREFIX = "vr1:"
#: Feature types of this family are named ``vector-<source>`` (e.g.
#: ``vector-file``); the prefix is what routes a feature type between
#: the CTPH postings and the packed-Hamming store inside the index.
VECTOR_FEATURE_PREFIX = "vector-"


def is_vector_feature_type(feature_type: str) -> bool:
    """True if ``feature_type`` belongs to the vector digest family."""

    return feature_type.startswith(VECTOR_FEATURE_PREFIX)
#: Number of histogram buckets (one 2-bit code each).
VECTOR_BUCKETS = 128
#: Sliding window length in bytes.
VECTOR_WINDOW = 3
#: Bits in the packed digest body.
VECTOR_BODY_BITS = 2 * VECTOR_BUCKETS
#: Bytes in the packed digest body.
VECTOR_BODY_BYTES = VECTOR_BODY_BITS // 8
#: ``uint64`` words in the packed digest body.
VECTOR_WORDS = VECTOR_BODY_BYTES // 8
#: Total digest string length: prefix + 2 hex header bytes + body hex.
VECTOR_DIGEST_LENGTH = len(VECTOR_PREFIX) + 4 + 2 * VECTOR_BODY_BYTES


def _build_pearson_table() -> np.ndarray:
    """256-entry Pearson permutation from a seeded Fisher–Yates shuffle.

    Uses a hand-rolled LCG rather than ``numpy.random`` so the table —
    and with it every digest ever computed — does not depend on any
    random-stream stability guarantee.
    """

    table = list(range(256))
    state = 0x9E3779B9
    for i in range(255, 0, -1):
        state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
        j = state % (i + 1)
        table[i], table[j] = table[j], table[i]
    return np.asarray(table, dtype=np.uint8)


_PEARSON = _build_pearson_table()
#: Gray code of the four quartiles: adjacent quartiles differ by 1 bit.
_GRAY = np.asarray([0b00, 0b01, 0b11, 0b10], dtype=np.uint8)
_CHECKSUM_WEIGHTS = np.arange(1, VECTOR_BUCKETS + 1, dtype=np.int64)
_LOG_1_5 = math.log(1.5)


@dataclass(frozen=True)
class VectorDigest:
    """Parsed vector digest: 2-byte header plus a 256-bit packed body."""

    lvalue: int                  # logarithmic length bucket, 0..255
    checksum: int                # histogram checksum byte, 0..255
    body: bytes                  # VECTOR_BODY_BYTES packed Gray-coded bits

    def __str__(self) -> str:    # canonical digest string
        return (f"{VECTOR_PREFIX}{self.lvalue:02x}{self.checksum:02x}"
                f"{self.body.hex()}")

    @classmethod
    def parse(cls, digest: str) -> "VectorDigest":
        """Parse a digest string, validating structure and alphabet."""

        if not isinstance(digest, str):
            raise DigestFormatError(
                f"vector digest must be a string, got {type(digest).__name__}")
        if not digest.startswith(VECTOR_PREFIX):
            raise DigestFormatError(
                f"vector digest must start with {VECTOR_PREFIX!r}, got {digest!r}")
        if len(digest) != VECTOR_DIGEST_LENGTH:
            raise DigestFormatError(
                f"vector digest must be {VECTOR_DIGEST_LENGTH} characters, "
                f"got {len(digest)} in {digest!r}")
        hex_part = digest[len(VECTOR_PREFIX):]
        try:
            raw = bytes.fromhex(hex_part)
        except ValueError as exc:
            raise DigestFormatError(
                f"vector digest {digest!r} contains non-hex characters") from exc
        return cls(lvalue=raw[0], checksum=raw[1], body=raw[2:])

    @property
    def words(self) -> np.ndarray:
        """Body as ``(VECTOR_WORDS,)`` little-endian ``uint64`` words."""

        return np.frombuffer(self.body, dtype="<u8")

    @classmethod
    def from_words(cls, lvalue: int, checksum: int,
                   words: np.ndarray) -> "VectorDigest":
        """Rebuild a digest from header fields and packed body words."""

        body = np.ascontiguousarray(words, dtype="<u8").tobytes()
        if len(body) != VECTOR_BODY_BYTES:
            raise DigestFormatError(
                f"vector body must be {VECTOR_BODY_BYTES} bytes, got {len(body)}")
        return cls(lvalue=int(lvalue) & 0xFF, checksum=int(checksum) & 0xFF,
                   body=body)


def is_vector_digest(digest: str) -> bool:
    """True if ``digest`` is (syntactically) a vector digest string."""

    return isinstance(digest, str) and digest.startswith(VECTOR_PREFIX)


class VectorHasher:
    """Compute :class:`VectorDigest` values of byte strings and files.

    Stateless and deterministic; the class exists to mirror
    :class:`~repro.hashing.ssdeep.FuzzyHasher` so extraction code can
    treat the two families uniformly.
    """

    # ------------------------------------------------------------------ API
    def hash(self, data: bytes | bytearray | memoryview | str) -> VectorDigest:
        """Return the :class:`VectorDigest` of ``data``.

        Text inputs are encoded as UTF-8 first, matching
        :meth:`FuzzyHasher.hash`.  Inputs shorter than the 3-byte window
        produce a degenerate all-quartile-by-index body (deterministic,
        but carrying no content information beyond the length header).
        """

        if isinstance(data, str):
            data = data.encode("utf-8", errors="replace")
        elif not isinstance(data, (bytes, bytearray)):
            data = bytes(data)

        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        hist = self._histogram(arr)
        body = self._pack_body(hist)
        lvalue = self._lvalue(arr.size)
        checksum = int((hist * _CHECKSUM_WEIGHTS).sum() & 0xFF)
        return VectorDigest(lvalue=lvalue, checksum=checksum, body=body)

    def hash_file(self, path: str | os.PathLike) -> VectorDigest:
        """Hash the contents of a regular file (read by
        :func:`~repro.hashing.ssdeep.read_regular_file`)."""

        return self.hash(read_regular_file(path))

    def hash_many(self, items: Iterable[bytes | str]) -> list[VectorDigest]:
        """Hash an iterable of inputs, preserving order."""

        return [self.hash(item) for item in items]

    # ----------------------------------------------------------- internals
    @staticmethod
    def _histogram(arr: np.ndarray) -> np.ndarray:
        """128-bucket histogram of Pearson-mixed 3-byte windows."""

        if arr.size < VECTOR_WINDOW:
            return np.zeros(VECTOR_BUCKETS, dtype=np.int64)
        a, b, c = arr[:-2], arr[1:-1], arr[2:]
        mixed = _PEARSON[a ^ _PEARSON[b ^ _PEARSON[c]]]
        return np.bincount(mixed & (VECTOR_BUCKETS - 1),
                           minlength=VECTOR_BUCKETS).astype(np.int64)

    @staticmethod
    def _pack_body(hist: np.ndarray) -> bytes:
        """Rank-quartile Gray coding packed into the 256-bit body."""

        order = np.lexsort((np.arange(VECTOR_BUCKETS), hist))
        ranks = np.empty(VECTOR_BUCKETS, dtype=np.int64)
        ranks[order] = np.arange(VECTOR_BUCKETS)
        codes = _GRAY[ranks >> 5]            # quartile = rank // 32
        bits = np.zeros(VECTOR_BODY_BITS, dtype=np.uint8)
        bits[0::2] = (codes >> 1) & 1
        bits[1::2] = codes & 1
        return np.packbits(bits).tobytes()

    @staticmethod
    def _lvalue(length: int) -> int:
        """Logarithmic (base 1.5) length bucket, clamped to one byte."""

        if length <= 1:
            return 0
        return min(255, int(math.log(length) / _LOG_1_5))


_DEFAULT_HASHER = VectorHasher()


def vector_hash(data: bytes | bytearray | memoryview | str) -> str:
    """Convenience function: vector digest string of ``data``."""

    return str(_DEFAULT_HASHER.hash(data))


def _coerce(digest: "VectorDigest | str") -> VectorDigest:
    if isinstance(digest, VectorDigest):
        return digest
    return VectorDigest.parse(digest)


def hamming_distance(d1: "VectorDigest | str", d2: "VectorDigest | str") -> int:
    """Hamming distance between two digest bodies, in ``[0, 256]``.

    The 2-byte header is excluded on purpose: the locality bound of the
    rank-quartile coding only covers the body, and mixing in the length
    bucket would break it for size-changing edits.
    """

    return int(np.bitwise_count(_coerce(d1).words ^ _coerce(d2).words).sum())


def score_from_distance(distance) -> "int | np.ndarray":
    """Map body Hamming distance(s) onto the 0–100 similarity scale.

    ``score = max(0, 100 - distance * 100 // 128)`` — integer
    arithmetic so scores are exactly reproducible.  Accepts scalars or
    NumPy integer arrays (vectorised).
    """

    if isinstance(distance, np.ndarray):
        score = 100 - (distance.astype(np.int64) * 100) // 128
        return np.maximum(score, 0)
    return max(0, 100 - (int(distance) * 100) // 128)


def compare_vector_digests(d1: "VectorDigest | str",
                           d2: "VectorDigest | str") -> int:
    """Similarity score (0–100) between two vector digests."""

    return int(score_from_distance(hamming_distance(d1, d2)))


def digests_to_matrix(digests: Sequence["VectorDigest | str"]) -> np.ndarray:
    """Stack digest bodies into one packed ``(n, VECTOR_WORDS)`` matrix."""

    matrix = np.zeros((len(digests), VECTOR_WORDS), dtype=np.uint64)
    for row, digest in enumerate(digests):
        matrix[row] = _coerce(digest).words
    return matrix


def packed_hamming(matrix: np.ndarray, query_words: np.ndarray) -> np.ndarray:
    """Body Hamming distance of one query against a packed matrix.

    One vectorised ``XOR`` + ``np.bitwise_count`` sweep over the whole
    ``(n, VECTOR_WORDS)`` ``uint64`` matrix; returns ``(n,)`` ``int32``
    distances.
    """

    matrix = np.ascontiguousarray(matrix, dtype=np.uint64)
    if matrix.size == 0:
        return np.zeros(matrix.shape[0], dtype=np.int32)
    xor = np.bitwise_xor(matrix, np.asarray(query_words, dtype=np.uint64)[None, :])
    return np.bitwise_count(xor).sum(axis=1, dtype=np.int32)
