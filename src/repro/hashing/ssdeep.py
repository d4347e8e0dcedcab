"""Context Triggered Piecewise Hashing (SSDeep digests).

This module turns raw bytes into SSDeep digests of the canonical form
``block_size:signature:double_block_signature``, bit for bit as the
spamsum reference computes them, in three steps:

* the rolling hash is computed at every position in one vectorised pass
  (:func:`repro.hashing.rolling.rolling_hash_values`);
* the block size ``B`` comes from trigger counts alone.  A signature at
  ``B`` has ``min(t, SPAMSUM_LENGTH - 1)`` characters for its ``t``
  triggers (positions whose rolling value is ``B - 1`` mod ``B``), plus
  a tail character when the last rolling value is non-zero.  ``B``
  starts at the smallest power-of-two multiple of :data:`MIN_BLOCKSIZE`
  with ``B * SPAMSUM_LENGTH`` at least the input length and is halved
  while that count is below ``SPAMSUM_LENGTH / 2`` — the reference's
  retry loop, at the cost of one vectorised scan per step;
* one FNV pass (:func:`repro.hashing.fnv.two_state_low6`) then computes
  both signatures: the chunk over the first ``SPAMSUM_LENGTH - 1``
  triggers at ``B`` and the double chunk over the first
  ``SPAMSUM_LENGTH / 2 - 1`` triggers at ``2B``, which are the ``B``
  triggers whose rolling value is also ``2B - 1`` mod ``2B``.

:class:`FuzzyHasher` takes no parameters: every digest is computed at
the reference :data:`SPAMSUM_LENGTH` and :data:`MIN_BLOCKSIZE` (defined
once in :mod:`repro.distance.scoring`, re-exported here), so any two
digests it writes are score-comparable.

The digest is represented by :class:`SsdeepDigest`, which also handles
parsing and validation of digest strings (needed when loading feature
stores from disk).  A parsed block size must be ``MIN_BLOCKSIZE * 2**k``
below ``2**62`` (:func:`is_canonical_block_size`), the only sizes a
digest writer produces.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..distance.scoring import MIN_BLOCKSIZE, SPAMSUM_LENGTH
from ..exceptions import DigestFormatError, HashingError
from .b64 import B64_ALPHABET, is_digest_alphabet
from .fnv import two_state_low6
from .rolling import rolling_hash_values

__all__ = [
    "MIN_BLOCKSIZE",
    "SPAMSUM_LENGTH",
    "SsdeepDigest",
    "FuzzyHasher",
    "fuzzy_hash",
    "fuzzy_hash_file",
    "is_canonical_block_size",
]

#: Default upper bound on the bytes :func:`read_regular_file` will load.
MAX_FILE_BYTES = 1 << 30
#: Default read size for the chunked file-reading loop.
FILE_READ_CHUNK = 1 << 20


def read_regular_file(path: str | os.PathLike, *,
                      max_bytes: int | None = MAX_FILE_BYTES,
                      chunk_size: int = FILE_READ_CHUNK) -> bytearray:
    """The contents of a regular file, read under a byte cap.

    Anything but a regular file raises
    :class:`~repro.exceptions.HashingError` before a byte is read: a
    device or FIFO reports size 0 and never ends (a FIFO without a
    writer would not even open, hence ``O_NONBLOCK``), and a directory
    has no contents.  The file is read in bounded ``chunk_size`` slices
    rather than one unbounded ``read()``; ``max_bytes`` (default 1 GiB,
    ``None`` disables the cap) bounds total memory and raises
    :class:`~repro.exceptions.HashingError` for larger files —
    oversized files are rejected from their ``stat`` size before any
    byte is read.  The buffer is preallocated from the ``stat`` size,
    and a file that grew past it (or, like procfs, reports 0) reads on,
    still only to the cap.  Other read failures raise :class:`OSError`.
    """

    if chunk_size < 1:
        raise HashingError("chunk_size must be >= 1")
    if max_bytes is not None and max_bytes < 0:
        raise HashingError("max_bytes must be >= 0 (or None to disable)")

    def over_limit() -> HashingError:
        return HashingError(
            f"{os.fspath(path)} exceeds the {max_bytes}-byte hashing "
            f"limit; raise max_bytes (or pass None) to hash it anyway")

    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise HashingError(f"{os.fspath(path)} is not a regular file")
        expected = info.st_size
        if max_bytes is not None and expected > max_bytes:
            raise over_limit()
        buffer = bytearray(expected)
        view = memoryview(buffer)
        filled = 0
        with open(fd, "rb", closefd=False) as fh:
            while filled < expected:
                n_read = fh.readinto(view[filled:filled + chunk_size])
                if not n_read:
                    break
                filled += n_read
            del view
            if filled < expected:          # file shrank while reading
                del buffer[filled:]
            else:
                while True:
                    chunk = fh.read(chunk_size)
                    if not chunk:
                        break
                    buffer.extend(chunk)
                    if max_bytes is not None and len(buffer) > max_bytes:
                        raise over_limit()
    finally:
        os.close(fd)
    return buffer


def is_canonical_block_size(block_size: int) -> bool:
    """True for the block sizes a digest can carry: ``MIN_BLOCKSIZE << k``
    whose double (the second signature's block size) is below ``2**63``.

    Every digest the hasher (or the spamsum and ssdeep tools) writes
    has such a block size.  The rule is what lets the index key a
    posting by ``k`` exactly (:func:`repro.index.postings.block_code`)
    and store block sizes as ``int64``.
    """

    quotient, remainder = divmod(block_size, MIN_BLOCKSIZE)
    return (quotient >= 1 and remainder == 0
            and quotient & (quotient - 1) == 0 and 2 * block_size < 2 ** 63)


@dataclass(frozen=True)
class SsdeepDigest:
    """Parsed SSDeep digest: ``block_size:chunk:double_chunk``."""

    block_size: int
    chunk: str
    double_chunk: str

    def __str__(self) -> str:  # canonical digest string
        return f"{self.block_size}:{self.chunk}:{self.double_chunk}"

    @classmethod
    def parse(cls, digest: str) -> "SsdeepDigest":
        """Parse a digest string, validating structure and alphabet."""

        if not isinstance(digest, str):
            raise DigestFormatError(
                f"digest must be a string, got {type(digest).__name__}"
            )
        parts = digest.split(":")
        if len(parts) != 3:
            raise DigestFormatError(
                f"digest must have 3 colon-separated fields, got {digest!r}"
            )
        raw_bs, chunk, double_chunk = parts
        try:
            block_size = int(raw_bs)
        except ValueError as exc:
            raise DigestFormatError(f"invalid block size in digest {digest!r}") from exc
        if not is_canonical_block_size(block_size):
            raise DigestFormatError(
                f"block size must be {MIN_BLOCKSIZE} * 2**k below 2**62, "
                f"got {block_size}"
            )
        if not is_digest_alphabet(chunk) or not is_digest_alphabet(double_chunk):
            raise DigestFormatError(
                f"digest {digest!r} contains characters outside the base64 alphabet"
            )
        return cls(block_size=block_size, chunk=chunk, double_chunk=double_chunk)

    @property
    def is_empty(self) -> bool:
        """True if the digest was computed from empty input."""

        return not self.chunk and not self.double_chunk


class FuzzyHasher:
    """Compute SSDeep digests of byte strings and files at the reference
    parameters: :data:`SPAMSUM_LENGTH`-character signatures over block
    sizes of at least :data:`MIN_BLOCKSIZE`."""

    # ------------------------------------------------------------------ API
    def hash(self, data: bytes | bytearray | memoryview | str) -> SsdeepDigest:
        """Return the :class:`SsdeepDigest` of ``data``.

        Text inputs are encoded as UTF-8 first (the paper hashes the
        textual output of ``strings`` and ``nm`` as well as raw bytes).
        """

        if isinstance(data, str):
            data = data.encode("utf-8", errors="replace")
        elif not isinstance(data, (bytes, bytearray)):
            data = bytes(data)

        if not data:
            return SsdeepDigest(block_size=MIN_BLOCKSIZE, chunk="",
                                double_chunk="")

        roll = rolling_hash_values(data)
        has_tail = int(roll[-1]) != 0
        block_size = MIN_BLOCKSIZE
        while block_size * SPAMSUM_LENGTH < len(data):
            block_size *= 2
        while True:
            triggers = np.flatnonzero(roll % np.uint32(block_size)
                                      == np.uint32(block_size - 1))
            if (block_size == MIN_BLOCKSIZE
                    or len(triggers) + has_tail >= SPAMSUM_LENGTH // 2):
                break
            block_size //= 2
        double_size = 2 * block_size
        double_triggers = triggers[roll[triggers] % np.uint32(double_size)
                                   == np.uint32(double_size - 1)]
        # Only the first (length - 1) triggers end a character; the last
        # character sums up everything after the last one used, and the
        # reference writes it only when the rolling hash is non-zero at
        # the end (the input does not end in a long enough zero run).
        states, tail, double_states, double_tail = two_state_low6(
            data, triggers[:SPAMSUM_LENGTH - 1].tolist(),
            double_triggers[:SPAMSUM_LENGTH // 2 - 1].tolist())
        if has_tail:
            states.append(tail)
            double_states.append(double_tail)
        return SsdeepDigest(block_size=block_size,
                            chunk="".join([B64_ALPHABET[s] for s in states]),
                            double_chunk="".join([B64_ALPHABET[s]
                                                  for s in double_states]))

    def hash_file(self, path: str | os.PathLike, *,
                  max_bytes: int | None = MAX_FILE_BYTES,
                  chunk_size: int = FILE_READ_CHUNK) -> SsdeepDigest:
        """Hash the contents of a regular file.

        The file is read by :func:`read_regular_file` (``max_bytes``
        and ``chunk_size`` are passed on) and handed to :meth:`hash`
        without an extra copy; the block size depends on the triggers of
        the whole input, so the digest needs all of it in memory, and the
        cap — not the chunking — is what makes the memory ceiling
        explicit.
        """

        return self.hash(read_regular_file(path, max_bytes=max_bytes,
                                           chunk_size=chunk_size))

    def hash_many(self, items: Iterable[bytes | str]) -> list[SsdeepDigest]:
        """Hash an iterable of inputs, preserving order."""

        return [self.hash(item) for item in items]


_DEFAULT_HASHER = FuzzyHasher()


def fuzzy_hash(data: bytes | bytearray | memoryview | str) -> str:
    """Convenience function: SSDeep digest string of ``data``."""

    return str(_DEFAULT_HASHER.hash(data))


def fuzzy_hash_file(path: str | os.PathLike) -> str:
    """Convenience function: SSDeep digest string of a file's contents."""

    return str(_DEFAULT_HASHER.hash_file(path))
