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
  ``keys: int64[]`` (FNV-64 hash of ``block_size || gram``, sorted),
  ``offsets: int64[]`` and ``entry_ids: int32[]``, plus parallel
  ``key_blocks``/``key_grams`` metadata used to collision-check every
  key at merge time and to reject false hash matches at query time, so
  correctness never depends on the hash being perfect.

Updates stay incremental: :meth:`ArrayPostings.add_entry` appends to a
small mutable tail (flat, unsorted) and the tail is merged into the
sorted CSR arrays on demand — at query time, or automatically once it
outgrows an eighth of the sealed region — so bulk loads pay ``O(log n)``
merges total instead of one sort per add.  The sealed arrays live in
one atomically-swapped tuple and the merge itself is serialised by a
lock, so concurrent *readers* of a quiescent (no concurrent ``add``)
index are safe even when the first query triggers the merge.

The candidate walk (:meth:`ArrayPostings.lookup`) is fully vectorised:
hashed query grams are located with one :func:`numpy.searchsorted` over
the key array, verified against the key metadata, and their posting
slabs gathered with ``np.repeat`` arithmetic — no per-gram Python loop,
no per-query ``set``.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from ..exceptions import SimilarityIndexError
from ..hashing.fnv import FNV64_INIT, FNV64_PRIME
from ..hashing.rolling import ROLLING_WINDOW

__all__ = ["ArrayPostings", "SignaturePool", "block_prefix64",
           "hash_windows", "signature_windows"]

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Tail postings below this count never trigger an automatic merge.
_MIN_TAIL_MERGE = 32768

#: Hashed-key cache entries kept per signature pool (FIFO eviction).
_KEY_CACHE_MAX = 4096


def signature_windows(signature: str) -> np.ndarray:
    """All n-gram windows of a signature as a ``(m, n)`` uint8 matrix,
    ``n`` = :data:`ROLLING_WINDOW`.

    Returns an empty ``(0, n)`` matrix when the signature is shorter
    than ``n`` (such signatures never match — the documented
    common-substring precondition).
    """

    n = ROLLING_WINDOW
    raw = signature.encode("ascii")
    if len(raw) < n:
        return np.zeros((0, n), dtype=np.uint8)
    buf = np.frombuffer(raw, dtype=np.uint8)
    return np.lib.stride_tricks.sliding_window_view(buf, n)


@lru_cache(maxsize=4096)
def block_prefix64(block_size: int) -> int:
    """FNV-64 state after hashing a block size (8 little-endian bytes)."""

    h = FNV64_INIT
    value = block_size & _MASK64
    for shift in range(0, 64, 8):
        h = ((h * FNV64_PRIME) & _MASK64) ^ ((value >> shift) & 0xFF)
    return h


def hash_windows(prefix: "int | np.ndarray", windows: np.ndarray
                 ) -> np.ndarray:
    """FNV-64 keys for gram windows, continuing from ``prefix`` state(s).

    ``prefix`` is a scalar (one block size for every window) or a
    per-window uint64 vector; the result is viewed as ``int64`` so the
    same bit patterns sort and :func:`numpy.searchsorted` consistently
    everywhere (including on disk).
    """

    m = windows.shape[0]
    with np.errstate(over="ignore"):
        if np.isscalar(prefix) or isinstance(prefix, int):
            h = np.full(m, np.uint64(prefix), dtype=np.uint64)
        else:
            h = prefix.astype(np.uint64, copy=True)
        prime = np.uint64(FNV64_PRIME)
        for col in range(windows.shape[1]):
            h = (h * prime) ^ windows[:, col].astype(np.uint64)
    return h.view(np.int64)


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
    def adopt(cls, array: np.ndarray, dtype) -> "_IntVec":
        """Wrap an existing 1-D array without copying (the load path).

        The adopted buffer may be read-only (an mmap view): it is never
        written in place — the vector is exactly full, so the first
        append triggers :meth:`_reserve`'s reallocation into a fresh
        writeable buffer (copy-on-grow).
        """

        array = np.asarray(array)
        if array.dtype != np.dtype(dtype) or array.ndim != 1:
            array = np.ascontiguousarray(array, dtype=dtype).reshape(-1)
        vec = cls.__new__(cls)
        vec._buf = array
        vec._n = len(array)
        return vec


class SignaturePool:
    """Index-wide signature interning: each distinct string stored once.

    Entries reference signatures by ``int32`` id; the pool also memoises
    each signature's n-gram window matrix (content-dependent only) and
    the per-``(signature, block_size)`` hashed key set, so re-indexing a
    signature the corpus has seen before — the common case in mutated
    families and on reload — does no hashing at all.
    """

    def __init__(self) -> None:
        self._strings: list[str] = []
        self._ids: dict[str, int] = {}
        self._windows: dict[int, np.ndarray] = {}
        self._keys: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
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

    def windows(self, sig_id: int) -> np.ndarray:
        cached = self._windows.get(sig_id)
        if cached is None:
            cached = signature_windows(self[sig_id])
            if len(self._windows) >= 2 * _KEY_CACHE_MAX:
                self._windows.pop(next(iter(self._windows)))
            self._windows[sig_id] = cached
        return cached

    def keys_for(self, sig_id: int, block_size: int
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Unique ``(keys, windows)`` of one signature at one block size.

        Keys are sorted ascending with the first-occurrence window kept
        per key, so repeated grams inside a signature post exactly once
        (the old set-of-grams semantics).
        """

        cached = self._keys.get((sig_id, block_size))
        if cached is None:
            windows = self.windows(sig_id)
            keys = hash_windows(block_prefix64(block_size), windows)
            uniq, first = np.unique(keys, return_index=True)
            cached = (uniq, windows[first])
            # Bounded FIFO: repeats (duplicate members, reloads) hit the
            # cache; a corpus of unique signatures must not accumulate
            # one key array per member.
            if len(self._keys) >= _KEY_CACHE_MAX:
                self._keys.pop(next(iter(self._keys)))
            self._keys[(sig_id, block_size)] = cached
        return cached

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


class _Sealed:
    """Immutable sealed postings: sorted CSR over hashed keys.

    Held by :class:`ArrayPostings` behind a single reference that is
    swapped atomically at merge time, so concurrent readers never see
    half-updated arrays.
    """

    __slots__ = ("keys", "key_blocks", "key_grams", "offsets", "entry_ids")

    def __init__(self, keys, key_blocks, key_grams, offsets, entry_ids):
        self.keys = keys
        self.key_blocks = key_blocks
        self.key_grams = key_grams
        self.offsets = offsets
        self.entry_ids = entry_ids

    @classmethod
    def empty(cls) -> "_Sealed":
        return cls(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   np.zeros((0, ROLLING_WINDOW), dtype=np.uint8),
                   np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32))


class ArrayPostings:
    """Columnar entries + sorted CSR postings for one feature type."""

    def __init__(self, pool: SignaturePool) -> None:
        self._pool = pool
        # Entry columns (entry id == row index, insertion order).
        self._e_member = _IntVec(np.int32)
        self._e_block = _IntVec(np.int64)
        self._e_sig = _IntVec(np.int32)
        self._sealed = _Sealed.empty()
        self._merge_lock = threading.Lock()
        # Mutable tail: flat keys + raw gram bytes, plus one
        # (entry id, block, key count) triple per appended entry — the
        # per-item entry/block columns expand only transiently at merge.
        self._t_keys = _IntVec(np.int64)
        self._t_grams = bytearray()
        self._t_eids = _IntVec(np.int32)
        self._t_eblocks = _IntVec(np.int64)
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
        """Append one entry and its tail postings; returns the entry id."""

        entry_id = len(self._e_member)
        self._e_member.append(member)
        self._e_block.append(block_size)
        self._e_sig.append(sig_id)
        keys, windows = self._pool.keys_for(sig_id, block_size)
        if len(keys):
            self._t_keys.extend(keys)
            self._t_grams += windows.tobytes()
            self._t_eids.append(entry_id)
            self._t_eblocks.append(block_size)
            self._t_ecounts.append(len(keys))
            if len(self._t_keys) >= max(_MIN_TAIL_MERGE,
                                        len(self._sealed.entry_ids) // 8):
                self.merge()
        return entry_id

    # --------------------------------------------------------------- merge
    def merge(self) -> None:
        """Fold the mutable tail into the sorted CSR arrays (idempotent).

        A sorted merge, not a re-sort: only the (bounded) tail is
        sorted; sealed postings — already grouped by key, ascending
        entry ids per bucket — are moved slab-wise into their new
        offsets.  Peak transient memory is one index array over the
        sealed postings plus the merged output, a fraction of what a
        full stable argsort over the concatenation would allocate.
        """

        if not len(self._t_keys):
            return
        with self._merge_lock:
            self._merge_locked()

    def _merge_locked(self) -> None:
        if not len(self._t_keys):
            # Another reader finished the merge while we waited.
            return
        n = ROLLING_WINDOW
        sealed = self._sealed
        # Expand the per-entry tail triples into flat columns, then
        # sort; stable keeps ascending entry ids per key.
        ecounts = self._t_ecounts.array()
        t_order = np.argsort(self._t_keys.array(), kind="stable")
        t_keys = self._t_keys.array()[t_order]
        t_entries = np.repeat(self._t_eids.array(), ecounts)[t_order]
        t_blocks = np.repeat(self._t_eblocks.array(), ecounts)[t_order]
        t_grams = np.frombuffer(bytes(self._t_grams),
                                dtype=np.uint8).reshape(-1, n)[t_order]
        # Unique tail keys (sorted) with their posting counts.
        t_new = np.ones(len(t_keys), dtype=bool)
        t_new[1:] = t_keys[1:] != t_keys[:-1]
        tu_idx = np.flatnonzero(t_new)
        tu_keys = t_keys[tu_idx]
        tu_counts = np.diff(np.append(tu_idx, len(t_keys)))
        tu_blocks = t_blocks[tu_idx]
        tu_grams = t_grams[tu_idx]
        # Collision checks: one 64-bit key must never stand for two
        # different (block size, gram) buckets — neither inside the
        # tail nor between the tail and the sealed keys.
        dup = ~t_new[1:]
        if dup.any() and bool(np.any(
                dup & ((t_blocks[1:] != t_blocks[:-1])
                       | (t_grams[1:] != t_grams[:-1]).any(axis=1)))):
            raise SimilarityIndexError(
                "64-bit n-gram key collision between posting buckets; "
                "this corpus cannot be indexed with hashed postings")

        old_keys = sealed.keys
        old_counts = np.diff(sealed.offsets)
        pos = np.searchsorted(old_keys, tu_keys)
        clamped = np.minimum(pos, max(len(old_keys) - 1, 0))
        if len(old_keys):
            already = old_keys[clamped] == tu_keys
            if already.any() and bool(np.any(
                    already & ((sealed.key_blocks[clamped] != tu_blocks)
                               | (sealed.key_grams[clamped]
                                  != tu_grams).any(axis=1)))):
                raise SimilarityIndexError(
                    "64-bit n-gram key collision between posting buckets; "
                    "this corpus cannot be indexed with hashed postings")
        else:
            already = np.zeros(len(tu_keys), dtype=bool)

        # Interleave brand-new keys into the sealed key order.
        fresh = ~already
        n_merged = len(old_keys) + int(fresh.sum())
        insert_at = pos[fresh] + np.arange(int(fresh.sum()), dtype=np.int64)
        old_at = np.ones(n_merged, dtype=bool)
        old_at[insert_at] = False
        merged_keys = np.empty(n_merged, dtype=np.int64)
        merged_keys[insert_at] = tu_keys[fresh]
        merged_keys[old_at] = old_keys
        merged_blocks = np.empty(n_merged, dtype=np.int64)
        merged_blocks[insert_at] = tu_blocks[fresh]
        merged_blocks[old_at] = sealed.key_blocks
        merged_grams = np.empty((n_merged, n), dtype=np.uint8)
        merged_grams[insert_at] = tu_grams[fresh]
        merged_grams[old_at] = sealed.key_grams
        merged_counts = np.zeros(n_merged, dtype=np.int64)
        merged_counts[old_at] = old_counts
        tu_merged = np.searchsorted(merged_keys, tu_keys)
        merged_counts[tu_merged] += tu_counts
        merged_offsets = np.zeros(n_merged + 1, dtype=np.int64)
        np.cumsum(merged_counts, out=merged_offsets[1:])

        # Placement by run copies: sealed postings are already laid out
        # in merged order, only interrupted where a tail group lands, so
        # everything moves as contiguous slices — no index arithmetic
        # over the full posting list, and sealed slabs stay first inside
        # each bucket (their entry ids predate every tail id).
        out = np.empty(int(merged_offsets[-1]), dtype=np.int32)
        entry_ids = sealed.entry_ids
        old_offsets = sealed.offsets
        src = dst = 0
        pos_list = pos.tolist()
        already_list = already.tolist()
        bounds = np.append(tu_idx, len(t_keys)).tolist()
        for j in range(len(tu_keys)):
            src_end = int(old_offsets[pos_list[j] + 1]) if already_list[j] \
                else int(old_offsets[pos_list[j]])
            if src_end > src:
                out[dst:dst + src_end - src] = entry_ids[src:src_end]
                dst += src_end - src
                src = src_end
            count = bounds[j + 1] - bounds[j]
            out[dst:dst + count] = t_entries[bounds[j]:bounds[j + 1]]
            dst += count
        if len(entry_ids) > src:
            out[dst:] = entry_ids[src:]

        # Swap the sealed reference first (atomic), then clear the
        # tail: a concurrent reader either sees a non-empty tail and
        # blocks on the merge lock, or an empty tail with the new
        # sealed arrays already in place.
        self._sealed = _Sealed(merged_keys, merged_blocks, merged_grams,
                               merged_offsets, out)
        self._t_keys = _IntVec(np.int64)
        self._t_grams = bytearray()
        self._t_eids = _IntVec(np.int32)
        self._t_eblocks = _IntVec(np.int64)
        self._t_ecounts = _IntVec(np.int32)

    # -------------------------------------------------------------- queries
    @property
    def n_keys(self) -> int:
        """Distinct posting buckets (forces a tail merge)."""

        self.merge()
        return len(self._sealed.keys)

    def lookup(self, query_keys: np.ndarray, query_blocks: np.ndarray,
               query_grams: np.ndarray, window_rows: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised candidate gather for hashed query windows.

        The first three parameters are parallel per query window: the
        ``int64`` hashed key, the block size, and the raw gram bytes
        (for exact verification of hash matches); ``window_rows`` maps
        each window back to its query row.  Returns ``(row, entry_id)``
        pairs — one per posting under a matched key — with entry ids in
        the postings' native ``int32``.
        """

        self.merge()
        sealed = self._sealed
        empty = (np.zeros(0, dtype=window_rows.dtype),
                 np.zeros(0, dtype=np.int32))
        if not len(sealed.keys) or not len(query_keys):
            return empty
        pos = np.searchsorted(sealed.keys, query_keys)
        clamped = np.minimum(pos, len(sealed.keys) - 1)
        hit = sealed.keys[clamped] == query_keys
        # Exact verification: a matched key must carry the same block
        # size and gram bytes, so a (vanishingly unlikely) query-side
        # hash collision can never surface a false candidate.
        hit &= sealed.key_blocks[clamped] == query_blocks
        hit &= (sealed.key_grams[clamped] == query_grams).all(axis=1)
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
                + n_keys * (16 + ROLLING_WINDOW)
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
            "post_blocks": sealed.key_blocks.copy(),
            "post_grams": sealed.key_grams.copy(),
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

        def _column(array, dtype):
            wanted = np.dtype(dtype)
            if array.dtype == wanted and array.flags.c_contiguous:
                return array.copy() if copy else array
            # A dtype/contiguity conversion allocates fresh storage, so
            # the result is owned either way.
            return np.ascontiguousarray(array, dtype=wanted)

        self._e_member = _IntVec.adopt(_column(arrays["entry_member"],
                                               np.int32), np.int32)
        self._e_block = _IntVec.adopt(_column(arrays["entry_block"],
                                              np.int64), np.int64)
        self._e_sig = _IntVec.adopt(_column(arrays["entry_sig"], np.int32),
                                    np.int32)
        self._sealed = _Sealed(
            _column(arrays["post_keys"], np.int64),
            _column(arrays["post_blocks"], np.int64),
            _column(arrays["post_grams"], np.uint8),
            _column(arrays["post_offsets"], np.int64),
            _column(arrays["post_entries"], np.int32))
