"""Context Triggered Piecewise Hashing (SSDeep digests).

This module turns raw bytes into SSDeep digests of the canonical form
``block_size:signature:double_block_signature``:

* the block size starts at the smallest power-of-two multiple of
  :data:`MIN_BLOCKSIZE` such that the expected signature length is at
  most :data:`SPAMSUM_LENGTH` characters, and is halved (and the
  signature recomputed) while the signature turns out shorter than
  ``SPAMSUM_LENGTH / 2`` — exactly the retry loop of the spamsum
  reference implementation;
* the rolling-hash trigger scan is fully vectorised
  (:func:`repro.hashing.rolling.rolling_hash_values`), so re-trying a
  smaller block size only costs a cheap modulo over the precomputed
  trigger array plus the per-chunk 6-bit FNV scan;
* the double-block signature is computed once, at the final block
  size ``B``, and not at all after a halving from ``2B``: a chunk
  signature at ``2B`` short enough to force the halving used every
  trigger, so it already is the half-length signature at ``2B``, the
  double chunk at ``B``.

:class:`FuzzyHasher` takes no parameters: every digest is computed at
the reference :data:`SPAMSUM_LENGTH` and :data:`MIN_BLOCKSIZE` (defined
once in :mod:`repro.distance.scoring`, re-exported here), so any two
digests it writes are score-comparable.

The digest is represented by :class:`SsdeepDigest`, which also handles
parsing and validation of digest strings (needed when loading feature
stores from disk).
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
from .fnv import FNV_INIT, piecewise_low6
from .rolling import rolling_hash_values

__all__ = [
    "MIN_BLOCKSIZE",
    "SPAMSUM_LENGTH",
    "SsdeepDigest",
    "FuzzyHasher",
    "fuzzy_hash",
    "fuzzy_hash_file",
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
        if block_size < MIN_BLOCKSIZE:
            raise DigestFormatError(
                f"block size must be >= {MIN_BLOCKSIZE}, got {block_size}"
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
        block_size = MIN_BLOCKSIZE
        while block_size * SPAMSUM_LENGTH < len(data):
            block_size *= 2
        chunk = self._signature(data, roll, block_size, SPAMSUM_LENGTH)
        double_chunk = None
        while block_size > MIN_BLOCKSIZE and len(chunk) < SPAMSUM_LENGTH // 2:
            # A chunk this short used every trigger at this block size
            # (fewer than SPAMSUM_LENGTH / 2 of them), so it is also the
            # half-length signature here: the double chunk one halving
            # down.
            double_chunk = chunk
            block_size //= 2
            chunk = self._signature(data, roll, block_size, SPAMSUM_LENGTH)
        if double_chunk is None:
            double_chunk = self._signature(data, roll, block_size * 2,
                                           SPAMSUM_LENGTH // 2)
        return SsdeepDigest(block_size=block_size, chunk=chunk,
                            double_chunk=double_chunk)

    def hash_file(self, path: str | os.PathLike, *,
                  max_bytes: int | None = MAX_FILE_BYTES,
                  chunk_size: int = FILE_READ_CHUNK) -> SsdeepDigest:
        """Hash the contents of a regular file.

        The file is read by :func:`read_regular_file` (``max_bytes``
        and ``chunk_size`` are passed on) and handed to :meth:`hash`
        without an extra copy; the block-size retry loop of the digest
        needs the whole input in memory, so the cap — not the chunking —
        is what makes the memory ceiling explicit.
        """

        return self.hash(read_regular_file(path, max_bytes=max_bytes,
                                           chunk_size=chunk_size))

    def hash_many(self, items: Iterable[bytes | str]) -> list[SsdeepDigest]:
        """Hash an iterable of inputs, preserving order."""

        return [self.hash(item) for item in items]

    # ----------------------------------------------------------- internals
    def _signature(self, data: bytes, roll: np.ndarray, block_size: int,
                   max_length: int) -> str:
        """One signature: trigger positions -> per-chunk base64 characters."""

        triggers = np.flatnonzero(roll % np.uint32(block_size) == np.uint32(block_size - 1))
        # Only the first (max_length - 1) triggers start new characters; the
        # final character summarises everything after the last used trigger.
        used = triggers[: max_length - 1]
        chunk_states, tail_state = piecewise_low6(data, used, FNV_INIT)
        chars = [B64_ALPHABET[s] for s in chunk_states]
        # The reference implementation only appends the trailing character
        # when the rolling hash is non-zero at the end of the data (i.e. the
        # input does not end in a run of zero bytes long enough to zero the
        # window).
        if int(roll[-1]) != 0:
            chars.append(B64_ALPHABET[tail_state])
        return "".join(chars)


_DEFAULT_HASHER = FuzzyHasher()


def fuzzy_hash(data: bytes | bytearray | memoryview | str) -> str:
    """Convenience function: SSDeep digest string of ``data``."""

    return str(_DEFAULT_HASHER.hash(data))


def fuzzy_hash_file(path: str | os.PathLike) -> str:
    """Convenience function: SSDeep digest string of a file's contents."""

    return str(_DEFAULT_HASHER.hash_file(path))
