"""Array-backed n-gram postings for the similarity index.

This module is the columnar storage layer behind
:class:`~repro.index.core.SimilarityIndex`.  Where the first-generation
index kept ``dict[(block_size, gram)] -> list[int]`` postings and one
``_Entry`` dataclass per indexed signature, everything here lives in
compact NumPy arrays:

* **signatures** are interned once in a :class:`SignaturePool`; entries
  reference them by ``int32`` id, so a family of near-identical members
  stores each distinct signature string exactly once;
* **entries** (one per comparable ``(member, block_size, signature)``)
  are three parallel columns — ``member: int32``, ``block: int64``,
  ``signature id: int32`` — held in growable :class:`_IntVec` buffers;
* **postings** are a sorted CSR-style triple per feature type:
  ``keys: int64[]`` (sorted), ``offsets: int64[]`` and
  ``entry_ids: int32[]``.

A posting key is exact, not a hash.  A signature character is one of
64 base64 symbols, so a 7-gram packs into 42 bits
(:func:`signature_grams`), and a block size is ``MIN_BLOCKSIZE * 2**k``
(:func:`repro.hashing.ssdeep.is_canonical_block_size`), so ``k`` above
those bits names the block size (:func:`block_code`).  Two buckets
never share a key, and nothing needs a collision check or a re-check
of a hit.  This is the keying that Virus Bulletin's "Optimizing ssdeep
for use at scale" (2015) uses.

Updates stay incremental: :meth:`ArrayPostings.add_entry` appends to a
small mutable tail (flat, unsorted) and the tail is merged into the
sorted CSR arrays on demand — at query time, or automatically once it
outgrows an eighth of the sealed region — so bulk loads pay ``O(log n)``
merges total instead of one sort per add.  The sealed arrays live in
one atomically-swapped tuple and the merge itself is serialised by a
lock, so concurrent *readers* of a quiescent (no concurrent ``add``)
index are safe even when the first query triggers the merge.

The candidate walk (:meth:`ArrayPostings.lookup`) is fully vectorised:
query keys are located with one :func:`numpy.searchsorted` over the key
array and their posting slabs gathered by slice concatenation — no
per-gram Python loop, no per-query ``set``.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..hashing.b64 import B64_ALPHABET
from ..hashing.rolling import ROLLING_WINDOW
from ..hashing.ssdeep import MIN_BLOCKSIZE

__all__ = ["ArrayPostings", "SignaturePool", "block_code",
           "is_signature_bytes", "key_entries", "signature_grams"]

#: Bits of one packed gram: six per base64 character.
GRAM_BITS = 6 * ROLLING_WINDOW

#: Tail postings below this count never trigger an automatic merge.
_MIN_TAIL_MERGE = 32768

_ALPHABET_BYTES = np.frombuffer(B64_ALPHABET.encode("ascii"), dtype=np.uint8)
#: Each digest character's base64 value, indexed by its byte.
_B64_VALUES = np.zeros(256, dtype=np.int64)
_B64_VALUES[_ALPHABET_BYTES] = np.arange(64)
#: Whether a byte is a digest character.
_IS_B64 = np.zeros(256, dtype=bool)
_IS_B64[_ALPHABET_BYTES] = True


def is_signature_bytes(data: np.ndarray) -> bool:
    """True when every byte of a ``uint8`` array is a digest (base64)
    character — the only bytes :func:`signature_grams` packs exactly."""

    return bool(_IS_B64[data].all())


@lru_cache(maxsize=16384)
def signature_grams(signature: str) -> np.ndarray:
    """A signature's distinct n-grams (``n`` = :data:`ROLLING_WINDOW`) as
    sorted, read-only ``int64`` codes.

    Character ``i`` of a gram contributes its base64 value shifted left
    by ``6 * (n - 1 - i)`` bits, so a code fits :data:`GRAM_BITS` bits
    and equal codes are equal grams.  A signature shorter than ``n``
    has none (such signatures never match — the documented
    common-substring precondition).  Memoised, for members and queries
    alike: mutated families and repeated queries share signatures.
    """

    n = ROLLING_WINDOW
    values = _B64_VALUES[np.frombuffer(signature.encode("ascii"),
                                       dtype=np.uint8)]
    width = max(len(values) - n + 1, 0)
    grams = np.zeros(width, dtype=np.int64)
    for i in range(n):
        grams <<= 6
        grams |= values[i:i + width]
    grams = np.unique(grams)
    grams.flags.writeable = False
    return grams


def block_code(block_size: int) -> int:
    """The key bits above the gram that name a block size
    ``MIN_BLOCKSIZE * 2**k``: ``k << GRAM_BITS``."""

    return ((block_size // MIN_BLOCKSIZE).bit_length() - 1) << GRAM_BITS


def adopted(array: np.ndarray, dtype, *, copy: bool) -> np.ndarray:
    """``array`` as a C-contiguous ``dtype`` array: itself, or a copy
    with ``copy``, when it is one already (so a mapped view stays a
    view), else a converted array, which is owned either way."""

    array = np.asarray(array)
    if array.dtype == dtype and array.flags.c_contiguous:
        return array.copy() if copy else array
    return np.ascontiguousarray(array, dtype=dtype)


def key_entries(signatures, entry_block: np.ndarray, entry_sig: np.ndarray
                ) -> dict[str, np.ndarray]:
    """The postings of entry columns at once: each entry's grams keyed at
    its block size (``signatures`` maps a signature id to its string),
    grouped by :func:`_grouped`; what :meth:`ArrayPostings.add_entry`
    per entry and then :meth:`ArrayPostings.merge` build."""

    grams = [signature_grams(signatures[sig]) for sig in entry_sig.tolist()]
    counts = np.fromiter(map(len, grams), dtype=np.int64, count=len(grams))
    blocks, block_of = np.unique(entry_block, return_inverse=True)
    codes = np.array([block_code(block) for block in blocks.tolist()],
                     dtype=np.int64)
    keys = np.concatenate([np.zeros(0, dtype=np.int64)] + grams) \
        | np.repeat(codes[block_of], counts)
    entries = np.repeat(np.arange(len(grams), dtype=np.int32), counts)
    return dict(zip(("post_keys", "post_offsets", "post_entries"),
                    _grouped(keys, entries)))


def _grouped(keys: np.ndarray, entries: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(unique keys, offsets, entries)`` of ``(key, entry)`` postings:
    one stable sort by key, so each bucket keeps its input order."""

    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    return keys[starts], np.append(starts, len(keys)), entries[order]


class _IntVec:
    """Growable NumPy-backed integer column (amortised O(1) appends)."""

    __slots__ = ("_buf", "_n")

    def __init__(self, dtype, capacity: int = 16) -> None:
        self._buf = np.empty(capacity, dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need > len(self._buf):
            capacity = max(need, 2 * len(self._buf))
            buf = np.empty(capacity, dtype=self._buf.dtype)
            buf[:self._n] = self._buf[:self._n]
            self._buf = buf

    def append(self, value: int) -> None:
        self._reserve(1)
        self._buf[self._n] = value
        self._n += 1

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=self._buf.dtype)
        if not len(values):
            return
        self._reserve(len(values))
        self._buf[self._n:self._n + len(values)] = values
        self._n += len(values)

    def array(self) -> np.ndarray:
        """A zero-copy view of the live region (do not mutate)."""

        return self._buf[:self._n]

    @classmethod
    def adopt(cls, array: np.ndarray) -> "_IntVec":
        """Wrap an existing 1-D array without copying (the load path).

        The adopted buffer may be read-only (an mmap view): it is never
        written in place — the vector is exactly full, so the first
        append triggers :meth:`_reserve`'s reallocation into a fresh
        writeable buffer (copy-on-grow).
        """

        vec = cls.__new__(cls)
        vec._buf = array.reshape(-1)
        vec._n = len(vec._buf)
        return vec


class SignaturePool:
    """Index-wide signature interning: each distinct string stored once.

    Entries reference signatures by ``int32`` id.
    """

    def __init__(self) -> None:
        self._strings: list[str] = []
        self._ids: dict[str, int] = {}
        # Lazy (zero-copy load) state: the raw on-disk pool arrays.  The
        # Python string list and id dict are only built when something
        # actually needs them (scoring, interning), so opening a mapped
        # container never pays an O(corpus) string-decoding loop.
        self._packed: tuple[np.ndarray, np.ndarray] | None = None

    def _materialise(self) -> None:
        """Decode the packed pool into the string list + id dict."""

        packed = self._packed
        if packed is None:
            return
        pool_bytes, bounds = packed
        text = pool_bytes.tobytes().decode("ascii")
        offsets = bounds.tolist()
        strings = [text[start:end] for start, end in zip(offsets, offsets[1:])]
        self._strings = strings
        self._ids = {s: i for i, s in enumerate(strings)}
        self._packed = None

    def __len__(self) -> int:
        if self._packed is not None:
            return len(self._packed[1]) - 1
        return len(self._strings)

    def __getitem__(self, sig_id: int) -> str:
        packed = self._packed
        if packed is not None:
            pool_bytes, bounds = packed
            start, end = int(bounds[sig_id]), int(bounds[sig_id + 1])
            return pool_bytes[start:end].tobytes().decode("ascii")
        return self._strings[sig_id]

    @property
    def strings(self) -> list[str]:
        self._materialise()
        return self._strings

    def intern(self, signature: str) -> int:
        self._materialise()
        sig_id = self._ids.get(signature)
        if sig_id is None:
            sig_id = len(self._strings)
            self._ids[signature] = sig_id
            self._strings.append(signature)
        return sig_id

    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """``(pool_bytes, pool_offsets)`` for the on-disk container."""

        if self._packed is not None:
            # Still lazy: the on-disk form is exactly what was adopted.
            return self._packed
        blob = "".join(self._strings).encode("ascii")
        offsets = np.zeros(len(self._strings) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in self._strings], out=offsets[1:])
        payload = (np.frombuffer(blob, dtype=np.uint8).copy()
                   if blob else np.zeros(0, dtype=np.uint8))
        return payload, offsets

    @classmethod
    def from_packed(cls, pool_bytes: np.ndarray, pool_offsets: np.ndarray, *,
                    lazy: bool = False) -> "SignaturePool":
        pool = cls()
        pool._packed = (np.asarray(pool_bytes), np.asarray(pool_offsets))
        if not lazy:
            # Eager loads keep decoding up front so malformed pool bytes
            # fail at load time, exactly as before.
            pool._materialise()
        return pool


class _Sealed(NamedTuple):
    """Immutable sealed postings: sorted CSR over exact keys.

    Held by :class:`ArrayPostings` behind a single reference that is
    swapped atomically at merge time, so concurrent readers never see
    half-updated arrays.
    """

    keys: np.ndarray
    offsets: np.ndarray
    entry_ids: np.ndarray


class ArrayPostings:
    """Columnar entries + sorted CSR postings for one feature type."""

    def __init__(self, pool: SignaturePool) -> None:
        self._pool = pool
        # Entry columns (entry id == row index, insertion order).
        self._e_member = _IntVec(np.int32)
        self._e_block = _IntVec(np.int64)
        self._e_sig = _IntVec(np.int32)
        self._sealed = _Sealed(*_grouped(np.zeros(0, dtype=np.int64),
                                         np.zeros(0, dtype=np.int32)))
        self._merge_lock = threading.Lock()
        # Mutable tail: flat keys, plus one (entry id, key count) pair
        # per appended entry — the per-key entry column expands only
        # transiently at merge.
        self._t_keys = _IntVec(np.int64)
        self._t_eids = _IntVec(np.int32)
        self._t_ecounts = _IntVec(np.int32)

    # ------------------------------------------------------------- entries
    @property
    def n_entries(self) -> int:
        return len(self._e_member)

    @property
    def entry_member(self) -> np.ndarray:
        return self._e_member.array()

    @property
    def entry_block(self) -> np.ndarray:
        return self._e_block.array()

    @property
    def entry_sig(self) -> np.ndarray:
        return self._e_sig.array()

    # ------------------------------------------------------------- updates
    def add_entry(self, member: int, block_size: int, sig_id: int) -> int:
        """Append one entry and its tail postings; returns the entry id.

        ``block_size`` must satisfy
        :func:`~repro.hashing.ssdeep.is_canonical_block_size`.
        """

        entry_id = len(self._e_member)
        self._e_member.append(member)
        self._e_block.append(block_size)
        self._e_sig.append(sig_id)
        grams = signature_grams(self._pool[sig_id])
        if len(grams):
            self._t_keys.extend(grams | block_code(block_size))
            self._t_eids.append(entry_id)
            self._t_ecounts.append(len(grams))
            if len(self._t_keys) >= max(_MIN_TAIL_MERGE,
                                        len(self._sealed.entry_ids) // 8):
                self.merge()
        return entry_id

    # --------------------------------------------------------------- merge
    def merge(self) -> None:
        """Fold the mutable tail into the sorted CSR arrays (idempotent):
        only the tail is sorted, and each tail posting is inserted at the
        end of its key's sealed bucket (sealed entry ids predate every
        tail id), or where a new key sorts."""

        if not len(self._t_keys):
            return
        with self._merge_lock:
            if not len(self._t_keys):
                # Another reader finished the merge while we waited.
                return
            sealed = self._sealed
            keys, offsets, entries = _grouped(
                self._t_keys.array(),
                np.repeat(self._t_eids.array(), self._t_ecounts.array()))
            counts = np.diff(offsets)
            pos = np.searchsorted(sealed.keys, keys)
            known = pos < len(sealed.keys)
            known[known] = sealed.keys[pos[known]] == keys[known]
            entry_ids = np.insert(sealed.entry_ids, np.repeat(
                sealed.offsets[pos + known], counts), entries)
            merged_keys = np.insert(sealed.keys, pos[~known], keys[~known])
            merged_counts = np.insert(np.diff(sealed.offsets), pos[~known], 0)
            merged_counts[np.searchsorted(merged_keys, keys)] += counts
            merged_offsets = np.zeros(len(merged_keys) + 1, dtype=np.int64)
            np.cumsum(merged_counts, out=merged_offsets[1:])
            # Swap the sealed reference first (atomic), then clear the
            # tail: a concurrent reader either sees a non-empty tail and
            # blocks on the merge lock, or an empty tail with the new
            # sealed arrays already in place.
            self._sealed = _Sealed(merged_keys, merged_offsets, entry_ids)
            self._t_keys = _IntVec(np.int64)
            self._t_eids = _IntVec(np.int32)
            self._t_ecounts = _IntVec(np.int32)

    # -------------------------------------------------------------- queries
    @property
    def n_keys(self) -> int:
        """Distinct posting buckets (forces a tail merge)."""

        self.merge()
        return len(self._sealed.keys)

    def lookup(self, query_keys: np.ndarray, window_rows: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised candidate gather for query keys.

        ``query_keys`` holds one key per query gram (``signature_grams``
        ORed with :func:`block_code`) and ``window_rows`` maps each back
        to its query row.  Returns ``(row, entry_id)`` pairs — one per
        posting under a matched key — with entry ids in the postings'
        native ``int32``.
        """

        self.merge()
        sealed = self._sealed
        empty = (np.zeros(0, dtype=window_rows.dtype),
                 np.zeros(0, dtype=np.int32))
        if not len(sealed.keys) or not len(query_keys):
            return empty
        pos = np.searchsorted(sealed.keys, query_keys)
        hit = sealed.keys[np.minimum(pos, len(sealed.keys) - 1)] == query_keys
        window_idx = np.flatnonzero(hit)
        if not window_idx.size:
            return empty
        matched = pos[window_idx]
        starts = sealed.offsets[matched]
        slab = sealed.offsets[matched + 1] - starts
        # Slab expansion by slice-concatenation: one C-level pass over
        # the gathered postings instead of repeat/arange index
        # arithmetic (the matched-window count is small; the total hit
        # count is what dominates).
        entry_ids = sealed.entry_ids
        chunks = [entry_ids[s:s + c]
                  for s, c in zip(starts.tolist(), slab.tolist())]
        gathered = np.concatenate(chunks) if chunks else empty[1]
        return np.repeat(window_rows[window_idx], slab), gathered

    # ---------------------------------------------------------- inspection
    def nbytes(self) -> int:
        """Resident byte estimate of the columnar arrays."""

        self.merge()
        n_keys = len(self._sealed.keys)
        return (self.n_entries * 16
                + n_keys * 8
                + (n_keys + 1) * 8
                + len(self._sealed.entry_ids) * 4)

    # ---------------------------------------------------------- persistence
    def get_arrays(self) -> dict[str, np.ndarray]:
        """Columnar snapshot (tail merged first) for the container."""

        self.merge()
        sealed = self._sealed
        return {
            "entry_member": self.entry_member.copy(),
            "entry_block": self.entry_block.copy(),
            "entry_sig": self.entry_sig.copy(),
            "post_keys": sealed.keys.copy(),
            "post_offsets": sealed.offsets.copy(),
            "post_entries": sealed.entry_ids.copy(),
        }

    def adopt_arrays(self, arrays: dict[str, np.ndarray], *,
                     copy: bool = True) -> None:
        """Adopt validated columnar arrays (the fast load path).

        With ``copy=False`` the arrays are adopted as views — possibly
        read-only zero-copy views into a mapped container.  Nothing here
        ever mutates an adopted array in place: sealed postings are
        replaced wholesale at merge time and the entry columns grow by
        reallocation, so read-only buffers are safe to serve and a later
        ``add`` simply pays the copy then.
        """

        column = {name: adopted(arrays[name], dtype, copy=copy)
                  for name, dtype in (("entry_member", np.int32),
                                      ("entry_block", np.int64),
                                      ("entry_sig", np.int32),
                                      ("post_keys", np.int64),
                                      ("post_offsets", np.int64),
                                      ("post_entries", np.int32))}
        self._e_member = _IntVec.adopt(column["entry_member"])
        self._e_block = _IntVec.adopt(column["entry_block"])
        self._e_sig = _IntVec.adopt(column["entry_sig"])
        self._sealed = _Sealed(column["post_keys"], column["post_offsets"],
                               column["post_entries"])
