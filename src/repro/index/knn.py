"""Packed-Hamming storage for fixed-length vector digests.

:class:`PackedDigestStore` is the storage engine: one member = one row
of :data:`~repro.hashing.vector.VECTOR_WORDS` ``uint64`` words (plus a
presence flag and the 2-byte digest header), kept as a single packed
``(n, words)`` matrix so a query is answered by one vectorised
``XOR`` + popcount sweep.  :class:`~repro.index.core.SimilarityIndex`
embeds one store per ``vector-*`` feature type, which is how the vector
family rides the index's tombstones, persistence, ingestion and
hot-reload machinery.

:func:`brute_force_top_k` is the deliberately unvectorised reference
implementation the property tests and the benchmark compare against:
:meth:`SimilarityIndex.top_k <repro.index.core.SimilarityIndex.top_k>`
over a vector digest must be bit-identical to it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..exceptions import ValidationError
from ..hashing.vector import (
    VECTOR_WORDS,
    VectorDigest,
    hamming_distance,
    packed_hamming,
    score_from_distance,
)
from .postings import adopted

__all__ = ["PackedDigestStore", "brute_force_top_k"]


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

    def pair_scores(self, rows_a: np.ndarray, rows_b: np.ndarray
                    ) -> np.ndarray:
        """0–100 scores of row ``rows_a[k]`` against row ``rows_b[k]``
        (0 where either row is absent)."""

        matrix = self.matrix
        xor = np.bitwise_xor(matrix[rows_a], matrix[rows_b])
        scores = score_from_distance(
            np.bitwise_count(xor).sum(axis=1, dtype=np.int64))
        present = self.present
        scores[~(present[rows_a] & present[rows_b])] = 0
        return scores

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
        store._base_words = adopted(words, np.uint64, copy=copy)
        # The 1-byte presence mask is normalised to bool (a copy, but a
        # negligible one next to the digest matrix staying mapped).
        store._base_present = present.astype(bool)
        store._base_lvalues = adopted(lvalues, np.uint8, copy=copy)
        store._base_checksums = adopted(checksums, np.uint8, copy=copy)
        return store


def brute_force_top_k(members: Sequence[tuple[str, str, str]],
                      digest: "VectorDigest | str", k: int = 10, *,
                      min_score: int = 1) -> list["IndexMatch"]:
    """Reference top-k: per-pair Hamming loop, no packing, no NumPy sweep.

    ``members`` is ``(sample_id, class_name, digest_string)`` in index
    order.  Results follow :meth:`SimilarityIndex.top_k
    <repro.index.core.SimilarityIndex.top_k>`: descending score, ties
    broken by member index (the position in ``members``).  Property
    tests and the benchmark assert the index's packed sweep over a
    vector digest is bit-identical to this.
    """

    # core imports this module for PackedDigestStore.
    from .core import IndexMatch

    scored = []
    for order, (sample_id, class_name, member_digest) in enumerate(members):
        score = int(score_from_distance(hamming_distance(digest,
                                                         member_digest)))
        if score >= min_score:
            scored.append((-score, order, sample_id, class_name))
    scored.sort()
    return [IndexMatch(member_index=order, sample_id=sid,
                       class_name=cls_name, score=-neg_score)
            for neg_score, order, sid, cls_name in scored[:k]]
