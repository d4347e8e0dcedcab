"""Packed-Hamming kNN over fixed-length vector digests.

Two layers live here:

* :class:`PackedDigestStore` — the storage engine: one member = one row
  of :data:`~repro.hashing.vector.VECTOR_WORDS` ``uint64`` words (plus a
  presence flag and the 2-byte digest header), kept as a single packed
  ``(n, words)`` matrix so a query is answered by one vectorised
  ``XOR`` + popcount sweep.  :class:`~repro.index.core.SimilarityIndex`
  embeds one store per ``vector-*`` feature type, which is how the
  vector family rides the existing tombstones, persistence, ingestion
  and hot-reload machinery.
* :class:`VectorKNNIndex` — a standalone index over one digest per
  member, mirroring the :class:`~repro.index.core.SimilarityIndex`
  contract (``add`` / ``remove`` tombstones / ``compact`` / ``top_k`` /
  ``stats`` / ``get_state`` / ``from_state`` / ``save`` / ``load``).
  Benchmarks and property tests drive this class directly.

:func:`brute_force_top_k` is the deliberately unvectorised reference
implementation the property tests and the benchmark compare against:
packed top-k must be bit-identical to it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import SimilarityIndexError, ValidationError
from ..hashing.vector import (
    VECTOR_WORDS,
    VectorDigest,
    hamming_distance,
    packed_hamming,
    score_from_distance,
)
from .storage import INDEX_FORMAT, read_container, write_container

__all__ = ["PackedDigestStore", "VectorKNNIndex", "KNNMatch",
           "brute_force_top_k"]


@dataclass(frozen=True)
class KNNMatch:
    """One top-k neighbour: member, class, Hamming distance and score."""

    sample_id: str
    class_name: str
    distance: int
    score: int


class PackedDigestStore:
    """Append-only packed storage for one vector-digest feature type.

    Rows align 1:1 with the owning index's member order; members whose
    digest is missing (e.g. a feature the extractor could not compute)
    still occupy a zeroed row with ``present == 0`` so row index ==
    member index always holds.

    Storage is a columnar *base* (immutable arrays — on load these are
    adopted directly from the container, possibly as read-only zero-copy
    views into a mapped file) plus a small mutable *tail* of appended
    rows; the packed matrix over both is materialised lazily and
    invalidated on append.  The base arrays are never written in place,
    so mapped views are safe to serve from any number of processes.
    """

    def __init__(self) -> None:
        self._base_words = np.zeros((0, VECTOR_WORDS), dtype=np.uint64)
        self._base_present = np.zeros(0, dtype=bool)
        self._base_lvalues = np.zeros(0, dtype=np.uint8)
        self._base_checksums = np.zeros(0, dtype=np.uint8)
        self._tail_words: list[np.ndarray] = []  # (VECTOR_WORDS,) uint64 each
        self._tail_present: list[bool] = []
        self._tail_lvalues: list[int] = []
        self._tail_checksums: list[int] = []
        self._matrix: np.ndarray | None = None
        self._present_arr: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._base_words) + len(self._tail_words)

    # ------------------------------------------------------------- updates
    def append(self, digest: "VectorDigest | str | None") -> None:
        """Append one member row (``None`` or ``""`` = digest absent)."""

        if digest is None or digest == "":
            self._tail_words.append(np.zeros(VECTOR_WORDS, dtype=np.uint64))
            self._tail_present.append(False)
            self._tail_lvalues.append(0)
            self._tail_checksums.append(0)
        else:
            parsed = digest if isinstance(digest, VectorDigest) \
                else VectorDigest.parse(digest)
            self._tail_words.append(parsed.words.astype(np.uint64))
            self._tail_present.append(True)
            self._tail_lvalues.append(parsed.lvalue)
            self._tail_checksums.append(parsed.checksum)
        self._matrix = None
        self._present_arr = None

    # ------------------------------------------------------------- queries
    @property
    def matrix(self) -> np.ndarray:
        """Packed ``(n, VECTOR_WORDS)`` ``uint64`` digest matrix."""

        if self._matrix is None:
            if self._tail_words:
                self._matrix = np.vstack(
                    [self._base_words] + self._tail_words).astype(
                        np.uint64, copy=False)
            else:
                # No appends since load: the base (possibly a zero-copy
                # mapped view) is served as-is.
                self._matrix = self._base_words
        return self._matrix

    @property
    def present(self) -> np.ndarray:
        """``(n,)`` boolean mask of rows that carry a digest."""

        if self._present_arr is None:
            if self._tail_present:
                self._present_arr = np.concatenate(
                    [self._base_present,
                     np.asarray(self._tail_present, dtype=bool)])
            else:
                self._present_arr = self._base_present
        return self._present_arr

    def _lvalues_array(self) -> np.ndarray:
        if self._tail_lvalues:
            return np.concatenate(
                [self._base_lvalues,
                 np.asarray(self._tail_lvalues, dtype=np.uint8)])
        return self._base_lvalues

    def _checksums_array(self) -> np.ndarray:
        if self._tail_checksums:
            return np.concatenate(
                [self._base_checksums,
                 np.asarray(self._tail_checksums, dtype=np.uint8)])
        return self._base_checksums

    def distances(self, digest: "VectorDigest | str") -> np.ndarray:
        """Body Hamming distance of ``digest`` against every row.

        Absent rows get distance ``VECTOR_BODY_BITS + 1`` (past any
        real distance) so downstream score mapping sends them to 0.
        """

        parsed = digest if isinstance(digest, VectorDigest) \
            else VectorDigest.parse(digest)
        dist = packed_hamming(self.matrix, parsed.words)
        if len(dist) and not self.present.all():
            dist = np.where(self.present, dist,
                            np.int32(8 * VECTOR_WORDS * 8 + 1))
        return dist

    def scores(self, digest: "VectorDigest | str") -> np.ndarray:
        """0–100 scores of ``digest`` against every row (absent rows 0)."""

        scores = score_from_distance(self.distances(digest))
        return np.asarray(scores, dtype=np.int64)

    def digest_string(self, row: int) -> str:
        """Canonical digest string of one row (``""`` if absent)."""

        n_base = len(self._base_words)
        if row < n_base:
            if not self._base_present[row]:
                return ""
            return str(VectorDigest.from_words(int(self._base_lvalues[row]),
                                               int(self._base_checksums[row]),
                                               self._base_words[row]))
        tail = row - n_base
        if not self._tail_present[tail]:
            return ""
        return str(VectorDigest.from_words(self._tail_lvalues[tail],
                                           self._tail_checksums[tail],
                                           self._tail_words[tail]))

    def subset(self, indices: Sequence[int]) -> "PackedDigestStore":
        """New store holding ``indices`` rows in the given order."""

        out = PackedDigestStore()
        idx = np.asarray(list(indices), dtype=np.int64)
        if len(idx):
            # Fancy indexing materialises fresh arrays, so the subset
            # never aliases this store (or a mapped file).
            out._base_words = self.matrix[idx]
            out._base_present = self.present[idx]
            out._base_lvalues = self._lvalues_array()[idx]
            out._base_checksums = self._checksums_array()[idx]
        return out

    @property
    def nbytes(self) -> int:
        """Approximate payload bytes of the packed representation."""

        return len(self) * (VECTOR_WORDS * 8 + 3)

    # --------------------------------------------------------- persistence
    def get_arrays(self) -> dict[str, np.ndarray]:
        """Arrays for container persistence (``words``/``present``/headers)."""

        return {
            "words": self.matrix.astype("<u8", copy=False),
            "present": self.present.astype("|u1"),
            "lvalues": self._lvalues_array().astype("|u1", copy=False),
            "checksums": self._checksums_array().astype("|u1", copy=False),
        }

    @classmethod
    def adopt_arrays(cls, arrays: Mapping[str, np.ndarray], *,
                     copy: bool = True) -> "PackedDigestStore":
        """Rebuild a store from :meth:`get_arrays` output, validating shape.

        With ``copy=False`` the arrays become the store's base columns
        without copying — the zero-copy load path for mapped containers.
        """

        def _column(array, dtype):
            wanted = np.dtype(dtype)
            array = np.asarray(array)
            if array.dtype == wanted and array.flags.c_contiguous:
                return array.copy() if copy else array
            return np.ascontiguousarray(array, dtype=wanted)

        try:
            words = np.asarray(arrays["words"])
            present = np.asarray(arrays["present"])
            lvalues = np.asarray(arrays["lvalues"])
            checksums = np.asarray(arrays["checksums"])
        except KeyError as exc:
            raise ValidationError(
                f"vector store payload is missing array {exc}") from exc
        if words.ndim != 2 or words.shape[1] != VECTOR_WORDS:
            raise ValidationError(
                f"vector store words must be (n, {VECTOR_WORDS}), "
                f"got {words.shape}")
        n = words.shape[0]
        if not (len(present) == len(lvalues) == len(checksums) == n):
            raise ValidationError(
                "vector store arrays disagree on member count")
        store = cls()
        store._base_words = _column(words, np.uint64)
        # The 1-byte presence mask is normalised to bool (a copy, but a
        # negligible one next to the digest matrix staying mapped).
        store._base_present = present.astype(bool)
        store._base_lvalues = _column(lvalues, np.uint8)
        store._base_checksums = _column(checksums, np.uint8)
        return store


class VectorKNNIndex:
    """Standalone kNN index over one vector digest per member.

    Mirrors the :class:`~repro.index.core.SimilarityIndex` lifecycle:
    ``add`` appends, ``remove`` tombstones (queries skip dead members
    without rebuilding the matrix), ``compact`` rebuilds densely, and
    ``get_state``/``from_state``/``save``/``load`` round-trip through
    the shared container format.
    """

    def __init__(self) -> None:
        self._store = PackedDigestStore()
        self._sample_ids: list[str] = []
        self._classes: list[str] = []
        self._by_id: dict[str, int] = {}
        self._dead: set[int] = set()

    # ------------------------------------------------------------- updates
    def add(self, sample_id: str, class_name: str,
            digest: "VectorDigest | str") -> None:
        sample_id = str(sample_id)
        if sample_id in self._by_id:
            raise SimilarityIndexError(
                f"sample {sample_id!r} is already indexed")
        # Parse before mutating so a malformed digest cannot leave a
        # half-added member behind.
        parsed = digest if isinstance(digest, VectorDigest) \
            else VectorDigest.parse(digest)
        self._by_id[sample_id] = len(self._sample_ids)
        self._sample_ids.append(sample_id)
        self._classes.append(str(class_name))
        self._store.append(parsed)

    def add_many(self, items: Iterable[tuple[str, str, "VectorDigest | str"]]
                 ) -> None:
        for sample_id, class_name, digest in items:
            self.add(sample_id, class_name, digest)

    def remove(self, sample_id: str) -> None:
        """Tombstone one member; queries stop returning it immediately."""

        row = self._by_id.get(str(sample_id))
        if row is None or row in self._dead:
            raise SimilarityIndexError(f"sample {sample_id!r} is not indexed")
        self._dead.add(row)

    def compact(self) -> int:
        """Drop tombstoned rows; returns the number of rows reclaimed."""

        if not self._dead:
            return 0
        survivors = [i for i in range(len(self._sample_ids))
                     if i not in self._dead]
        reclaimed = len(self._sample_ids) - len(survivors)
        self._store = self._store.subset(survivors)
        self._sample_ids = [self._sample_ids[i] for i in survivors]
        self._classes = [self._classes[i] for i in survivors]
        self._by_id = {sid: row for row, sid in enumerate(self._sample_ids)}
        self._dead = set()
        return reclaimed

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._sample_ids) - len(self._dead)

    def __contains__(self, sample_id: str) -> bool:
        row = self._by_id.get(str(sample_id))
        return row is not None and row not in self._dead

    def top_k(self, digest: "VectorDigest | str", k: int = 10, *,
              min_score: int = 1,
              exclude: "set[str] | None" = None) -> list[KNNMatch]:
        """Best ``k`` members by Hamming distance, one packed sweep.

        Ties break by (distance, member order) so results are stable and
        bit-identical to :func:`brute_force_top_k`.
        """

        if k < 1:
            raise ValidationError("k must be >= 1")
        n = len(self._sample_ids)
        if n == 0:
            return []
        dist = self._store.distances(digest)
        scores = np.asarray(score_from_distance(dist), dtype=np.int64)
        alive = np.ones(n, dtype=bool)
        if self._dead:
            alive[list(self._dead)] = False
        if exclude:
            for sid in exclude:
                row = self._by_id.get(str(sid))
                if row is not None:
                    alive[row] = False
        eligible = alive & (scores >= min_score)
        rows = np.flatnonzero(eligible)
        if not len(rows):
            return []
        order = rows[np.argsort(dist[rows], kind="stable")][:k]
        return [KNNMatch(sample_id=self._sample_ids[row],
                         class_name=self._classes[row],
                         distance=int(dist[row]),
                         score=int(scores[row]))
                for row in order]

    def stats(self) -> dict:
        """Operator-facing summary (family breakdown lives here)."""

        present = self._store.present
        alive = np.ones(len(self._sample_ids), dtype=bool)
        if self._dead:
            alive[list(self._dead)] = False
        return {
            "members": int(len(self)),
            "tombstones": int(len(self._dead)),
            "digest_bits": 8 * VECTOR_WORDS * 8,
            "words_per_digest": VECTOR_WORDS,
            "packed_matrix_bytes": int(self._store.nbytes),
            "members_with_digest": int((present & alive).sum()) if len(alive) else 0,
            "classes": sorted({self._classes[i]
                               for i in range(len(self._classes))
                               if alive[i]}),
        }

    # --------------------------------------------------------- persistence
    def get_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        header = {
            "kind": "vector-knn",
            "sample_ids": list(self._sample_ids),
            "class_names": list(self._classes),
            "dead": sorted(self._dead),
        }
        arrays = {f"v0.{name}": arr
                  for name, arr in self._store.get_arrays().items()}
        return header, arrays

    @classmethod
    def from_state(cls, header: Mapping, arrays: Mapping[str, np.ndarray], *,
                   copy: bool = True) -> "VectorKNNIndex":
        if header.get("kind") != "vector-knn":
            raise ValidationError(
                f"not a vector-knn state (kind={header.get('kind')!r})")
        index = cls()
        index._sample_ids = [str(s) for s in header.get("sample_ids", [])]
        index._classes = [str(c) for c in header.get("class_names", [])]
        if len(index._sample_ids) != len(index._classes):
            raise ValidationError(
                "vector-knn state: sample_ids and class_names disagree")
        index._by_id = {sid: row for row, sid in enumerate(index._sample_ids)}
        if len(index._by_id) != len(index._sample_ids):
            raise ValidationError("vector-knn state: duplicate sample ids")
        index._store = PackedDigestStore.adopt_arrays(
            {name.split(".", 1)[1]: arr for name, arr in arrays.items()
             if name.startswith("v0.")}, copy=copy)
        if len(index._store) != len(index._sample_ids):
            raise ValidationError(
                "vector-knn state: digest rows and sample_ids disagree")
        dead = {int(d) for d in header.get("dead", [])}
        if any(d < 0 or d >= len(index._sample_ids) for d in dead):
            raise ValidationError("vector-knn state: tombstone out of range")
        index._dead = dead
        return index

    def save(self, path: str | os.PathLike) -> None:
        header, arrays = self.get_state()
        write_container(path, header, arrays, fmt=INDEX_FORMAT)

    @classmethod
    def load(cls, path: str | os.PathLike, *,
             mmap_mode: str | None = None) -> "VectorKNNIndex":
        """Load a saved index; ``mmap_mode="r"`` adopts zero-copy views."""

        header, arrays = read_container(path, fmt=INDEX_FORMAT,
                                        mmap_mode=mmap_mode)
        header.pop("format_version", None)
        header.pop("payload_alignment", None)
        header.pop("arrays", None)
        # A freshly-read container is exclusively owned (eager) or an
        # immutable mapped view (mmap): adopting without copies is safe.
        return cls.from_state(header, arrays, copy=False)


def brute_force_top_k(members: Sequence[tuple[str, str, str]],
                      digest: "VectorDigest | str", k: int = 10, *,
                      min_score: int = 1) -> list[KNNMatch]:
    """Reference top-k: per-pair Hamming loop, no packing, no NumPy sweep.

    ``members`` is ``(sample_id, class_name, digest_string)`` in index
    order.  Property tests and the benchmark assert the packed sweep of
    :meth:`VectorKNNIndex.top_k` is bit-identical to this.
    """

    scored = []
    for order, (sample_id, class_name, member_digest) in enumerate(members):
        dist = hamming_distance(digest, member_digest)
        score = int(score_from_distance(dist))
        if score >= min_score:
            scored.append((dist, order, sample_id, class_name, score))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [KNNMatch(sample_id=sid, class_name=cls_name, distance=dist,
                     score=score)
            for dist, _, sid, cls_name, score in scored[:k]]
