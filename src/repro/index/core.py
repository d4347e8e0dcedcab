"""The persistent top-k similarity index.

:class:`SimilarityIndex` is the candidate-generation and scoring engine
shared by every bulk digest workload in the library.  It holds *members*
(samples identified by ``sample_id``, optionally carrying a class label)
whose SSDeep digests are bucketed by ``(feature_type, block_size)`` and
indexed by their 7-gram postings, and answers:

* ``top_k`` — the best-scoring members for a query digest;
* ``score_matrix`` — a dense query × member score matrix (what the
  similarity feature builder consumes);
* ``pairwise_matrix`` — budgeted all-vs-all member scoring, on the
  same candidate sweep with every member as a query;
* ``save`` / ``load`` — round-tripping to a single compact file
  (:mod:`repro.index.storage`).

Members can be removed: :meth:`SimilarityIndex.remove` tombstones them
without touching the postings, every query then answers over the
survivors renumbered densely in insertion order (exactly as a fresh
index built from the survivors would), and :meth:`SimilarityIndex.compact`
drops them physically.  Snapshots (``get_state`` / ``save``) always hold
the survivors only, so a removed member can never come back on reload,
and are byte-identical to a fresh build over them.

The postings and entry tables live in compact columnar NumPy arrays
(:mod:`repro.index.postings`): signatures are interned in an index-wide
string pool, entries are ``int32``/``int64`` columns, and each feature
type's inverted postings are a sorted CSR-style triple over exact
``(block_size, gram)`` keys.  :meth:`SimilarityIndex.from_state` reads
that layout (format 5) only; older layouts are upgraded to it first
(:mod:`repro.upgrade`).  Candidate generation is one vectorised sweep —
``np.searchsorted`` over the key array, slab gathers, ``np.unique``
de-duplication over packed pairs — instead of the first-generation
per-gram dict walk; results are bit-identical (the Hypothesis
equivalence suite pins this down).

Scoring semantics (the "comparability rules") are exactly those of the
bulk seed path:

1. a digest ``block_size:chunk:double_chunk`` is expanded into its
   ``(block_size, chunk)`` and ``(2 * block_size, double_chunk)``
   signatures, with runs longer than three characters collapsed first;
   two signatures are only comparable at *equal* block sizes, which is
   how SSDeep's "equal or adjacent block size" rule becomes exact
   bucket matching;
2. a signature pair can only score above zero when it shares a
   substring of :data:`~repro.hashing.rolling.ROLLING_WINDOW` (7)
   characters, so candidates come from the 7-gram inverted postings and
   everything else is rejected without an edit distance — note this
   *precondition* means signatures shorter than 7 characters never
   match, even when identical;
3. surviving pairs are scored with SSDeep's weighted edit distance
   (insert/delete 1, substitute 3, transpose 5), computed as the equal
   indel distance by :func:`~repro.distance.scoring.indel_distance`,
   and mapped onto the 0–100 SSDeep scale, with identical signatures
   pinned to 100;
4. a member's score is the maximum over its comparable signature pairs
   (and over feature types, when more than one is queried).
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..distance.scoring import indel_distance, ssdeep_score_from_distance
from ..exceptions import IndexFormatError, ValidationError
from ..hashing.compare import normalize_repeats
from ..hashing.rolling import ROLLING_WINDOW
from ..hashing.ssdeep import MIN_BLOCKSIZE, SsdeepDigest, \
    is_canonical_block_size
from ..hashing.vector import (VECTOR_WORDS, VectorDigest,
                              is_vector_digest, is_vector_feature_type)
from ..logging_utils import get_logger
from ..observability.trace import span
from .knn import PackedDigestStore
from .postings import ArrayPostings, SignaturePool, block_code, \
    is_signature_bytes, key_entries, signature_grams
from .storage import read_container, write_container

__all__ = ["CandidateBatch", "IndexMatch", "PairScore", "SimilarityIndex",
           "expand_digest", "load_index", "score_signature_pairs"]

_LOG = get_logger("index.core")

#: Shared singleton for "no members excluded" — hoisted so the serving
#: hot path (``top_k`` with no exclusions) allocates nothing per call.
_NO_EXCLUDED: frozenset[int] = frozenset()

#: The arrays of one CTPH section (``t{i}.*``): the entry columns, then
#: the postings (:meth:`ArrayPostings.get_arrays`), with their dtypes.
_ENTRY_ARRAYS = {"entry_member": np.int32, "entry_block": np.int64,
                 "entry_sig": np.int32}
_SECTION_ARRAYS = (*_ENTRY_ARRAYS, "post_keys", "post_offsets",
                   "post_entries")

#: Candidate de-duplication switches from a dense boolean
#: (query rows × entries) scatter to sorting packed codes above this
#: many cells (the dense path is O(hits) but allocates one byte per
#: cell).  16M cells = 16 MB transient, roughly a 64-query batch
#: against a 100k-entry index.
_DENSE_DEDUP_CELLS = 1 << 24


def score_signature_pairs(left: Sequence[str], right: Sequence[str],
                          block_sizes: Sequence[int]) -> np.ndarray:
    """SSDeep scores for same-block-size signature pairs.

    The 7-gram common-substring gate is the caller's responsibility;
    this is the pure scoring half of :class:`SimilarityIndex`, kept
    module-level so it can also score a :class:`CandidateBatch` on its
    own.
    """

    n = len(left)
    if not n:
        return np.zeros(0, dtype=np.float64)
    # Identical signatures always score 100 (the reference's fast
    # path), even where the small-block-size cap would otherwise
    # bite — so they never reach the edit distance at all.
    scores = np.full(n, 100.0, dtype=np.float64)
    rest = np.flatnonzero(np.fromiter(
        (l != r for l, r in zip(left, right)), dtype=bool, count=n))
    if rest.size:
        sub_left = [left[i] for i in rest]
        sub_right = [right[i] for i in rest]
        m = rest.size
        left_lens = np.fromiter(map(len, sub_left), dtype=np.float64, count=m)
        right_lens = np.fromiter(map(len, sub_right), dtype=np.float64,
                                 count=m)
        blocks = np.asarray(block_sizes, dtype=np.float64)[rest]
        distances = np.fromiter(map(indel_distance, sub_left, sub_right),
                                dtype=np.int64, count=m)
        scores[rest] = ssdeep_score_from_distance(distances, left_lens,
                                                  right_lens, blocks)
    return scores


@lru_cache(maxsize=16384)
def _expand_digest_cached(digest: str) -> tuple[tuple[int, str], ...]:
    parsed = SsdeepDigest.parse(digest)
    pairs = []
    chunk = normalize_repeats(parsed.chunk)
    double_chunk = normalize_repeats(parsed.double_chunk)
    if chunk:
        pairs.append((parsed.block_size, chunk))
    if double_chunk:
        pairs.append((parsed.block_size * 2, double_chunk))
    return tuple(pairs)


def expand_digest(digest: str) -> list[tuple[int, str]]:
    """Expand a digest into its comparable ``(block_size, signature)`` pairs.

    Signatures are run-length normalised; empty signatures are dropped.
    Parsing is memoised in a bounded LRU: streaming workloads
    (``classify --jsonl``, polling collectors) resubmit identical
    digests constantly and should never re-parse them.
    """

    if not digest:
        return []
    return list(_expand_digest_cached(digest))


@dataclass(frozen=True)
class IndexMatch:
    """One ``top_k`` result."""

    member_index: int
    sample_id: str
    class_name: str
    score: int


@dataclass(frozen=True)
class PairScore:
    """One scored member pair from :meth:`SimilarityIndex.pairwise_matrix`."""

    i: int
    j: int
    score: int


@dataclass
class CandidateBatch:
    """Candidate-generation output: unique signature pairs to score.

    ``left[slot]``/``right[slot]``/``block_sizes[slot]`` describe one
    unique (query signature, member signature, block size) pair;
    ``scatter`` holds, per feature type, the parallel ``(query_index,
    member_index, slot)`` **arrays** (``int32`` queries/members,
    ``int64`` slots) that map the scored slots back onto score-matrix
    cells; ``n_queries`` records how many query digests each feature
    type had.

    Produced by :meth:`SimilarityIndex.collect_candidates`, consumed by
    :func:`score_signature_pairs`; member indices are the dense
    (surviving) ones every query reports.

    ``vector`` carries the second hash family: per ``vector-*`` feature
    type, ``(query_index, member_index, score)`` arrays of *already
    computed* packed-Hamming scores.  Vector scoring is one vectorised
    sweep per query — far cheaper than the edit distances — so it
    happens eagerly at candidate-collection time and the consumer only
    scatters.
    """

    left: list[str]
    right: list[str]
    block_sizes: np.ndarray
    scatter: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    n_queries: dict[str, int]
    vector: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = \
        field(default_factory=dict)


class SimilarityIndex:
    """Incrementally updatable, persistent top-k SSDeep similarity index.

    Parameters
    ----------
    feature_types:
        Fuzzy-hash types indexed per member (defaults to the paper's
        three types).
    """

    def __init__(self, feature_types: Sequence[str] = None) -> None:
        if feature_types is None:
            from ..features.extractors import FEATURE_TYPES
            feature_types = FEATURE_TYPES
        self._feature_types = feature_types = _checked_types(feature_types)
        # The index carries two digest families: CTPH types (variable
        # length, edit-distance scored, 7-gram postings) and vector-*
        # types (fixed length, packed-Hamming scored, no postings).
        self._ctph_types = tuple(ft for ft in feature_types
                                 if not is_vector_feature_type(ft))
        self._vector_types = tuple(ft for ft in feature_types
                                   if is_vector_feature_type(ft))
        # Per *physical* member (insertion order, tombstoned included);
        # queries see the survivors renumbered densely.
        self._sample_ids: list[str] = []
        self._class_names: list[str] = []
        #: Surviving physical members per sample id.
        self._members_by_id: dict[str, set[int]] = {}
        #: Tombstoned physical members, and the cached survivor view.
        self._dead: set[int] = set()
        self._view: tuple[np.ndarray, np.ndarray] | None = None
        self._pool = SignaturePool()
        self._stores: dict[str, ArrayPostings] = {
            ft: ArrayPostings(self._pool) for ft in self._ctph_types}
        self._vstores: dict[str, PackedDigestStore] = {
            ft: PackedDigestStore() for ft in self._vector_types}

    # ------------------------------------------------------------ properties
    @property
    def feature_types(self) -> tuple[str, ...]:
        return self._feature_types

    @property
    def ngram_length(self) -> int:
        """Length of the common-substring gate: :data:`ROLLING_WINDOW`."""

        return ROLLING_WINDOW

    @property
    def n_members(self) -> int:
        """Surviving (non-tombstoned) members."""

        return len(self._sample_ids) - len(self._dead)

    def __len__(self) -> int:
        return self.n_members

    @property
    def total_members(self) -> int:
        """All resident members, tombstoned ones included."""

        return len(self._sample_ids)

    @property
    def n_tombstones(self) -> int:
        return len(self._dead)

    @property
    def tombstone_ratio(self) -> float:
        """Tombstoned fraction of all resident members (0.0 when empty).

        Lifecycle policies compact past a ratio threshold instead of an
        absolute count, so the trigger scales with corpus size.
        """

        total = len(self._sample_ids)
        return len(self._dead) / total if total else 0.0

    @property
    def sample_ids(self) -> tuple[str, ...]:
        """Sample ids of the surviving members, in insertion order."""

        if self._dead:
            return tuple(self._sample_ids[m] for m in self._survivors()[0])
        return tuple(self._sample_ids)

    @property
    def class_names(self) -> tuple[str, ...]:
        if self._dead:
            return tuple(self._class_names[m] for m in self._survivors()[0])
        return tuple(self._class_names)

    def members_for_id(self, sample_id: str) -> frozenset[int]:
        """Member indices registered under ``sample_id`` (may be several)."""

        members = self._members_by_id.get(sample_id, ())
        if self._dead:
            dense = self._survivors()[1]
            return frozenset(int(dense[m]) for m in members)
        return frozenset(members)

    # -------------------------------------------------------------- updates
    def add(self, sample_id: str, digests: Mapping[str, str], *,
            class_name: str = "") -> int:
        """Add one member; returns its member index.

        ``digests`` maps feature types to digest strings; types the index
        does not know are ignored, missing or empty digests contribute no
        postings (the member simply never matches on that type).
        """

        if not isinstance(digests, Mapping):
            raise ValidationError(
                f"digests must be a mapping, got {type(digests).__name__}")
        # Parse every digest before mutating, so a malformed digest cannot
        # leave a half-added member behind.
        expanded = {ft: expand_digest(digests.get(ft, ""))
                    for ft in self._ctph_types}
        vparsed = {ft: (VectorDigest.parse(digests[ft])
                        if digests.get(ft) else None)
                   for ft in self._vector_types}
        member = self._append_member(sample_id, class_name)
        for feature_type, pairs in expanded.items():
            for block_size, signature in pairs:
                self._stores[feature_type].add_entry(
                    member, block_size, self._pool.intern(signature))
        # Every member appends exactly one row per vector store (absent
        # digests append a masked zero row) so row index == member index.
        for feature_type, parsed in vparsed.items():
            self._vstores[feature_type].append(parsed)
        return member - len(self._dead)

    def add_many(self, samples: Iterable) -> list[int]:
        """Add many members; returns their member indices.

        Accepts :class:`~repro.features.records.SampleFeatures`-like
        objects (``sample_id`` / ``digests`` / ``class_name`` attributes)
        or ``(sample_id, digests[, class_name])`` tuples.
        """

        members = []
        for sample in samples:
            if isinstance(sample, tuple):
                sample_id, digests = sample[0], sample[1]
                class_name = sample[2] if len(sample) > 2 else ""
            else:
                sample_id = sample.sample_id
                digests = sample.digests
                class_name = getattr(sample, "class_name", "")
            members.append(self.add(sample_id, digests, class_name=class_name))
        return members

    def seal(self) -> None:
        """Merge pending posting tails into the sorted arrays.

        Queries do this on demand; sealing explicitly (e.g. right after
        a bulk load, or at service start-up) makes first-request latency
        deterministic.  Idempotent and cheap when nothing is pending.
        """

        for store in self._stores.values():
            store.merge()

    def remove(self, sample_id: str) -> int:
        """Tombstone every member registered under ``sample_id``.

        Returns how many members were newly tombstoned (0 when the id is
        unknown or already removed).  Queries stop seeing them at once;
        :meth:`compact` reclaims their postings and signatures.
        """

        members = self._members_by_id.pop(sample_id, None)
        if not members:
            return 0
        self._dead.update(members)
        self._view = None
        return len(members)

    def compact(self) -> int:
        """Physically drop tombstoned members; returns how many.

        Queries are unaffected: member indices are already dense over
        the survivors, and stay the same.
        """

        dropped = len(self._dead)
        if dropped:
            vars(self).update(vars(self.from_state(
                *self.get_state(), copy=False, deep_validate=False)))
            _LOG.info("compacted index: dropped %d tombstoned members, "
                      "%d survive", dropped, self.n_members)
        return dropped

    # -------------------------------------------------------------- queries
    def top_k(self, digest: str, k: int = 10, *,
              feature_type: str | None = None, min_score: int = 1,
              exclude_ids: Iterable[str] = ()) -> list[IndexMatch]:
        """The ``k`` best-scoring members for a query digest.

        ``feature_type`` restricts scoring to one type; by default the
        digest is compared against every indexed type and each member
        keeps its best score.  Results are sorted by descending score,
        ties broken by ascending member index; members scoring below
        ``min_score`` (and members whose ``sample_id`` is in
        ``exclude_ids``) are omitted.
        """

        if feature_type is not None:
            self._check_feature_type(feature_type)
            types = (feature_type,)
        elif is_vector_digest(digest):
            # A single digest string can only belong to one family; the
            # distinctive "vr1:" prefix routes it to the right stores.
            types = self._vector_types
        else:
            types = self._ctph_types
        return self.top_k_digests({ft: digest for ft in types}, k,
                                  min_score=min_score, exclude_ids=exclude_ids)

    def top_k_digests(self, digests: Mapping[str, str], k: int = 10, *,
                      min_score: int = 1,
                      exclude_ids: Iterable[str] = ()) -> list[IndexMatch]:
        """Like :meth:`top_k`, but with one query digest per feature type."""

        if k < 1:
            raise ValidationError("k must be >= 1")
        if not 0 <= min_score <= 100:
            raise ValidationError("min_score must be in [0, 100]")
        if not self.n_members:
            return []
        # The common serving call has nothing to exclude: reuse one
        # shared frozen set instead of building a fresh set per query.
        excluded: frozenset[int] | set[int] = _NO_EXCLUDED
        for sample_id in exclude_ids:
            members = self.members_for_id(sample_id)
            if members:
                if excluded is _NO_EXCLUDED:
                    excluded = set()
                excluded.update(members)
        exclude = [excluded] if excluded else None

        active: dict[str, list[str]] = {}
        for feature_type, digest in digests.items():
            self._check_feature_type(feature_type)
            if digest:
                active[feature_type] = [digest]
        best = np.zeros(self.n_members, dtype=np.float64)
        if active:
            # One batched pass: candidate pairs shared between feature
            # types de-duplicate before scoring.
            matrices = self.score_matrices(active, exclude=exclude)
            for row in matrices.values():
                np.maximum(best, row[0], out=best)

        alive = self._survivors()[0] if self._dead else None
        order = np.argsort(-best, kind="stable")
        results: list[IndexMatch] = []
        for member in order:
            score = int(best[member])
            if score < min_score or member in excluded:
                # argsort is stable, so every later member scores <= this
                # one; excluded members sit at score 0 and are skipped by
                # min_score >= 1, but must also be hidden at min_score 0.
                if score < min_score:
                    break
                continue
            row = member if alive is None else alive[member]
            results.append(IndexMatch(member_index=int(member),
                                      sample_id=self._sample_ids[row],
                                      class_name=self._class_names[row],
                                      score=score))
            if len(results) == k:
                break
        return results

    def score_matrix(self, feature_type: str, digests: Sequence[str], *,
                     exclude: Sequence[Iterable[int]] | None = None
                     ) -> np.ndarray:
        """Dense ``(len(digests), n_members)`` SSDeep score matrix.

        ``exclude`` optionally holds, per query, member indices whose
        scores are forced to zero (self-match suppression); a single-item
        ``exclude`` is broadcast over all queries.
        """

        return self.score_matrices({feature_type: digests},
                                   exclude=exclude)[feature_type]

    def score_matrices(self, digests_by_type: Mapping[str, Sequence[str]], *,
                       exclude: Sequence[Iterable[int]] | None = None
                       ) -> dict[str, np.ndarray]:
        """Score matrices for several feature types in one batched pass.

        Candidate pairs from every type are de-duplicated together (a
        score depends only on the signature pair and block size, not the
        type) and scored once, so a pair that several types share pays
        one edit distance.
        Returns ``{feature_type: (n_queries, n_members) matrix}``.
        """

        digests_by_type = {ft: list(digests)
                           for ft, digests in digests_by_type.items()}
        with span("candidate_gen"):
            batch = self.collect_candidates(digests_by_type, exclude=exclude)
        matrices = {ft: np.zeros((batch.n_queries[ft], self.n_members),
                                 dtype=np.float64)
                    for ft in digests_by_type}
        with span("dp_scoring"):
            if batch.left:
                pair_scores = score_signature_pairs(
                    batch.left, batch.right, batch.block_sizes)
                _LOG.debug("scored %d unique signature pairs for %d feature "
                           "types", len(batch.left), len(digests_by_type))

                for feature_type, (pair_queries, pair_members,
                                   pair_slots) in batch.scatter.items():
                    if not len(pair_queries):
                        continue
                    # A (query, member) cell keeps its best comparable
                    # pair.
                    np.maximum.at(matrices[feature_type],
                                  (pair_queries, pair_members),
                                  pair_scores[pair_slots])
            # Vector-family scores arrive pre-computed from the packed
            # sweep.
            for feature_type, (vec_queries, vec_members,
                               vec_scores) in batch.vector.items():
                if len(vec_queries):
                    np.maximum.at(matrices[feature_type],
                                  (vec_queries, vec_members), vec_scores)
        return matrices

    def collect_candidates(self, digests_by_type: Mapping[str, Sequence[str]],
                           *, exclude: Sequence[Iterable[int]] | None = None
                           ) -> CandidateBatch:
        """The candidate-generation half of :meth:`score_matrices`.

        One vectorised sweep over the array postings: every query
        signature's gram keys are located with a single
        ``np.searchsorted`` per feature type, posting slabs are gathered
        with ``np.repeat`` arithmetic, ``(query, entry)`` pairs
        de-duplicate through ``np.unique`` over packed int64 codes, and
        the surviving pairs slot-assign via a lexsort over interned
        signature ids — no per-gram Python loop, no per-query ``set``.
        Candidate pairs from every type are de-duplicated together (a
        score depends only on the signature pair and block size, not the
        type).  ``exclude`` follows :meth:`score_matrix` semantics.
        Tombstoned members never become candidates; the rest are
        reported under their dense (surviving) indices.
        """

        rows_by_type: dict[str, Iterable[tuple[int, int, str]]] = {}
        n_queries_by_type: dict[str, int] = {}
        vector: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        if exclude is not None:
            exclude = self._checked_exclude(exclude)

        for feature_type, digests in digests_by_type.items():
            self._check_feature_type(feature_type)
            digests = list(digests)
            n_queries = len(digests)
            n_queries_by_type[feature_type] = n_queries
            if exclude is not None and len(exclude) not in (1, n_queries):
                raise ValidationError(
                    f"exclude must have 1 or {n_queries} items, "
                    f"got {len(exclude)}")
            if feature_type in self._vstores:
                triple = self._vector_candidates(feature_type, digests,
                                                 exclude)
                if triple is not None:
                    vector[feature_type] = triple
                continue
            # A generator, so the sweep's row loop is the only pass over
            # the expanded digests.
            rows_by_type[feature_type] = (
                (query_index, block_size, signature)
                for query_index, digest in enumerate(digests)
                for block_size, signature in expand_digest(digest))

        left, right, block_sizes, swept = self._sweep(rows_by_type, exclude)
        scatter = {ft: swept.get(ft) or (np.zeros(0, dtype=np.int32),
                                         np.zeros(0, dtype=np.int32),
                                         np.zeros(0, dtype=np.int64))
                   for ft in digests_by_type}
        return CandidateBatch(left=left, right=right, block_sizes=block_sizes,
                              scatter=scatter, n_queries=n_queries_by_type,
                              vector=vector)

    def _sweep(self, rows_by_type: Mapping[str, Iterable[tuple[int, int, str]]],
               exclude: list[np.ndarray] | None
               ) -> tuple[list[str], list[str], np.ndarray,
                          dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """The candidate sweep behind :meth:`collect_candidates` and
        :meth:`pairwise_matrix`.

        ``rows_by_type`` holds, per CTPH feature type, the query
        signatures as ``(query_index, block_size, signature)`` rows.
        Returns :class:`CandidateBatch`'s ``left``, ``right``,
        ``block_sizes`` and ``scatter``, the last only for the types
        that produced candidates.
        """

        # Query signatures interned per call (ids shared across types so
        # cross-type pair de-duplication stays exact); a "row class" is
        # one distinct (query signature, block size) — the left half of
        # a scoring slot.
        local_ids: dict[str, int] = {}
        local_strings: list[str] = []
        class_ids: dict[tuple[int, int], int] = {}
        class_local: list[int] = []
        class_block: list[int] = []
        per_type: list[tuple] = []
        # Physical -> dense member map (-1 for tombstoned members).
        dense = self._survivors()[1] if self._dead else None

        for feature_type, rows in rows_by_type.items():
            store = self._stores[feature_type]
            n_entries = store.n_entries
            if not n_entries:
                continue

            # Flatten the rows into parallel (query, class, grams)
            # columns.
            row_query: list[int] = []
            row_class: list[int] = []
            row_code: list[int] = []
            row_grams: list[np.ndarray] = []
            for query_index, block_size, signature in rows:
                local = local_ids.get(signature)
                if local is None:
                    local = len(local_strings)
                    local_ids[signature] = local
                    local_strings.append(signature)
                grams = signature_grams(signature)
                if not len(grams):
                    continue
                row_cls = class_ids.get((local, block_size))
                if row_cls is None:
                    row_cls = len(class_local)
                    class_ids[(local, block_size)] = row_cls
                    class_local.append(local)
                    class_block.append(block_size)
                row_query.append(query_index)
                row_class.append(row_cls)
                row_code.append(block_code(block_size))
                row_grams.append(grams)
            if not row_query:
                continue
            counts = np.fromiter(map(len, row_grams), dtype=np.int64,
                                 count=len(row_grams))
            row_query_arr = np.asarray(row_query, dtype=np.int64)
            row_class_arr = np.asarray(row_class, dtype=np.int64)
            # Every gram of every query row, keyed at its row's block
            # size.
            flat_keys = np.concatenate(row_grams) | np.repeat(
                np.asarray(row_code, dtype=np.int64), counts)

            rows, entries = store.lookup(
                flat_keys,
                np.repeat(np.arange(len(row_query), dtype=np.int32), counts))
            if not entries.size:
                continue
            # Old per-query `seen` set == unique (query, entry) pairs.
            # A query's two signatures live at distinct block sizes, so
            # (query, entry) and (row, entry) de-duplicate identically
            # and the row keeps the originating signature exact.
            if len(row_query) * n_entries <= _DENSE_DEDUP_CELLS:
                # Serving-sized batches: an O(hits) boolean scatter is
                # far cheaper than sorting the hit list.
                seen = np.zeros((len(row_query), n_entries), dtype=bool)
                seen[rows, entries] = True
                urows, uentries = seen.nonzero()
            else:
                codes = rows.astype(np.int64) * np.int64(n_entries) + entries
                codes.sort(kind="stable")
                if codes.size > 1:
                    codes = codes[np.concatenate(
                        ([True], codes[1:] != codes[:-1]))]
                urows = codes // n_entries
                uentries = codes % n_entries

            queries = row_query_arr[urows]
            members = store.entry_member[uentries]
            if dense is not None:
                members = dense[members]
                keep = members >= 0
                urows, uentries = urows[keep], uentries[keep]
                queries, members = queries[keep], members[keep]
            if exclude is not None:
                keep = self._exclusion_mask(exclude, queries, members)
                if keep is not None:
                    urows = urows[keep]
                    uentries = uentries[keep]
                    queries = queries[keep]
                    members = members[keep]
            if not queries.size:
                continue
            per_type.append((feature_type, queries, members,
                             row_class_arr[urows],
                             store.entry_sig[uentries]))

        if not per_type:
            return [], [], np.zeros(0, dtype=np.int64), {}

        # Global slot assignment: a scoring slot is one unique (query
        # signature + block, member signature) pair, shared across every
        # feature type.  Both halves are already interned ids, so the
        # dedup is one packed-code pass — through a dense slot map when
        # the (row classes × pool) domain is small, a sort otherwise.
        all_class = np.concatenate([t[3] for t in per_type])
        all_msig = np.concatenate([t[4] for t in per_type]).astype(np.int64)
        n_pool = max(len(self._pool), 1)
        codes = all_class * np.int64(n_pool) + all_msig
        domain = len(class_local) * n_pool
        # The slot map is int32 (4 bytes/cell), so divide the byte
        # budget accordingly — the boolean dedup matrix gets the full
        # cell count, this map a quarter of it.
        if domain <= _DENSE_DEDUP_CELLS // 4:
            slot_map = np.full(domain, -1, dtype=np.int32)
            slot_map[codes] = 0
            slot_codes = np.flatnonzero(slot_map == 0)
            slot_map[slot_codes] = np.arange(len(slot_codes), dtype=np.int32)
            inverse = slot_map[codes]
            slot_class_arr = slot_codes // n_pool
            slot_msig = slot_codes % n_pool
        else:
            order = np.argsort(codes, kind="stable")
            sorted_codes = codes[order]
            new = np.ones(len(order), dtype=bool)
            new[1:] = sorted_codes[1:] != sorted_codes[:-1]
            group = np.cumsum(new) - 1
            inverse = np.empty(len(order), dtype=np.int64)
            inverse[order] = group
            slot_idx = order[new]
            slot_class_arr = all_class[slot_idx]
            slot_msig = all_msig[slot_idx]

        pool_strings = self._pool.strings
        slot_class = slot_class_arr.tolist()
        left = [local_strings[class_local[c]] for c in slot_class]
        right = [pool_strings[i] for i in slot_msig.tolist()]
        block_sizes = np.asarray(class_block, dtype=np.int64)[slot_class_arr]

        scatter = {}
        offset = 0
        for feature_type, queries, members, *_rest in per_type:
            n_pairs = len(queries)
            scatter[feature_type] = (
                queries.astype(np.int32),
                members.astype(np.int32, copy=False),
                inverse[offset:offset + n_pairs])
            offset += n_pairs
        return left, right, block_sizes, scatter

    def _vector_candidates(self, feature_type: str, digests: Sequence[str],
                           exclude: list[np.ndarray] | None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Eager packed-Hamming scoring for one vector feature type.

        Returns ``(query_index, member_index, score)`` arrays of every
        surviving pair scoring >= 1 (mirroring the CTPH path, which only
        emits candidate pairs), or ``None`` when nothing scores.
        """

        store = self._vstores[feature_type]
        if not len(store):
            return None
        dense = self._survivors()[1] if self._dead else None
        q_parts: list[np.ndarray] = []
        m_parts: list[np.ndarray] = []
        s_parts: list[np.ndarray] = []
        for query_index, digest in enumerate(digests):
            if not digest:
                continue
            scores = store.scores(digest)
            members = np.flatnonzero(scores >= 1)
            hits = scores[members].astype(np.float64)
            if dense is not None:
                members = dense[members]
                keep = members >= 0
                members, hits = members[keep], hits[keep]
            if not members.size:
                continue
            q_parts.append(np.full(members.size, query_index, dtype=np.int64))
            m_parts.append(members.astype(np.int64))
            s_parts.append(hits)
        if not q_parts:
            return None
        queries = np.concatenate(q_parts)
        members = np.concatenate(m_parts)
        scores = np.concatenate(s_parts)
        if exclude is not None:
            keep = self._exclusion_mask(exclude, queries, members)
            if keep is not None:
                queries, members, scores = (queries[keep], members[keep],
                                            scores[keep])
        if not queries.size:
            return None
        return queries.astype(np.int32), members.astype(np.int32), scores

    def _checked_exclude(self, exclude: Sequence[Iterable[int]]
                         ) -> list[np.ndarray]:
        """``exclude`` as int64 arrays, each index checked in range."""

        n_members = self.n_members
        checked = []
        for per_query in exclude:
            members = np.fromiter(map(int, per_query), dtype=np.int64)
            bad = members[(members < 0) | (members >= n_members)]
            if bad.size:
                raise ValidationError(
                    f"exclude references member #{int(bad[0])} but only "
                    f"{n_members} survive")
            checked.append(members)
        return checked

    def _exclusion_mask(self, exclude: list[np.ndarray],
                        queries: np.ndarray, members: np.ndarray
                        ) -> np.ndarray | None:
        """Boolean keep-mask for candidate pairs, or ``None`` for all."""

        if len(exclude) == 1:
            if not exclude[0].size:
                return None
            return ~np.isin(members, exclude[0])
        n_members = np.int64(self.n_members)
        codes = [query_index * n_members + per_query
                 for query_index, per_query in enumerate(exclude)
                 if per_query.size]
        if not codes:
            return None
        pair_codes = queries * n_members + members
        return ~np.isin(pair_codes, np.concatenate(codes))

    def pairwise_matrix(self, feature_type: str | None = None, *,
                        max_pairs: int | None = None,
                        min_score: int = 1) -> list[PairScore]:
        """Score every candidate member pair, under a pair budget.

        Candidates are member pairs sharing at least one posting bucket
        (for vector types, any two members carrying a digest of the same
        type); each is scored like :meth:`top_k` (max over comparable
        signature pairs and, with ``feature_type=None``, over feature
        types).  The CTPH candidates come from the sweep
        :meth:`collect_candidates` runs, with every surviving member
        querying its own signatures.  When the candidate set exceeds
        ``max_pairs`` only the first ``max_pairs`` pairs in ``(i, j)``
        order are scored and a warning logs exactly how many were
        dropped — truncation is never silent.  The vector pairs past the
        budget are counted, never built.  Pairs scoring below
        ``min_score`` are omitted from the result.
        """

        if max_pairs is not None and max_pairs < 1:
            raise ValidationError("max_pairs must be >= 1 (or None)")
        if not 0 <= min_score <= 100:
            raise ValidationError("min_score must be in [0, 100]")
        if feature_type is not None:
            self._check_feature_type(feature_type)
            types = (feature_type,)
        else:
            types = self._feature_types

        alive, dense = self._survivors()
        n = np.int64(self.n_members)
        strings = self._pool.strings
        rows_by_type = {}
        for ft in types:
            if ft in self._stores:
                store = self._stores[ft]
                members = dense[store.entry_member]
                live = members >= 0
                rows_by_type[ft] = zip(
                    members[live].tolist(), store.entry_block[live].tolist(),
                    map(strings.__getitem__, store.entry_sig[live].tolist()))
        left, right, block_sizes, swept = self._sweep(rows_by_type, None)

        # Pairs as packed i * n + j codes with i < j, so sorting them is
        # sorting by (i, j); the sweep finds each pair from both ends.
        ctph_codes, ctph_slots = [], []
        for queries, members, slots in swept.values():
            upper = queries < members
            ctph_codes.append(queries[upper].astype(np.int64) * n
                              + members[upper])
            ctph_slots.append(slots[upper])
        # The vector family has no candidate gate: any two members
        # carrying a digest of the same vector type are comparable.  Bit
        # t of bits[m] marks a type-t digest on member m.
        bits = np.zeros(alive.size, dtype=np.int64)
        for t, ft in enumerate(ft for ft in types if ft in self._vstores):
            bits |= self._vstores[ft].present[alive].astype(np.int64) << t
        vector_codes, n_vector = _shared_bit_pairs(bits, max_pairs)
        pairs = np.unique(np.concatenate(ctph_codes + [vector_codes]))
        if not pairs.size:
            return []
        # Every candidate pair: the vector pairs, plus the CTPH pairs
        # whose members share no vector type.
        total = n_vector + int(np.count_nonzero(
            (bits[pairs // n] & bits[pairs % n]) == 0))
        if max_pairs is not None and total > max_pairs:
            _LOG.warning(
                "pairwise_matrix: scoring %d of %d candidate pairs, dropping "
                "%d over the max_pairs=%d budget", max_pairs, total,
                total - max_pairs, max_pairs)
            pairs = pairs[:max_pairs]

        best = np.zeros(len(pairs), dtype=np.float64)
        if ctph_codes:
            pair_codes = np.concatenate(ctph_codes)
            slots = np.concatenate(ctph_slots)
            kept = pair_codes <= pairs[-1]
            used, inverse = np.unique(slots[kept], return_inverse=True)
            used_slots = used.tolist()
            slot_scores = score_signature_pairs(
                [left[slot] for slot in used_slots],
                [right[slot] for slot in used_slots], block_sizes[used])
            # A pair keeps its best comparable signature pair.
            np.maximum.at(best, np.searchsorted(pairs, pair_codes[kept]),
                          slot_scores[inverse])
        rows_i, rows_j = alive[pairs // n], alive[pairs % n]
        for ft in types:
            if ft in self._vstores:
                np.maximum(best, self._vstores[ft].pair_scores(rows_i, rows_j),
                           out=best)
        return [PairScore(i=i, j=j, score=int(score))
                for i, j, score in zip((pairs // n).tolist(),
                                       (pairs % n).tolist(), best.tolist())
                if score >= min_score]

    def member_signatures(self, feature_type: str
                          ) -> dict[int, dict[int, str]]:
        """Member index -> ``{block_size: signature}`` for one type.

        Vector types use a synthetic block size of 0 and the canonical
        digest string as the "signature".
        """

        self._check_feature_type(feature_type)
        if feature_type in self._vstores:
            vstore = self._vstores[feature_type]
            signatures = {member: {0: vstore.digest_string(member)}
                          for member in np.flatnonzero(vstore.present).tolist()}
        else:
            store = self._stores[feature_type]
            pool = self._pool
            signatures = defaultdict(dict)
            for member, block, sig_id in zip(store.entry_member.tolist(),
                                             store.entry_block.tolist(),
                                             store.entry_sig.tolist()):
                signatures[member][block] = pool[sig_id]
            signatures = dict(signatures)
        if not self._dead:
            return signatures
        dense = self._survivors()[1]
        return {int(dense[member]): sigs
                for member, sigs in signatures.items() if dense[member] >= 0}

    # ---------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Summary counters (members, entries, postings, block sizes).

        ``members``, ``classes`` and ``labelled_members`` count the
        survivors; entries, postings and byte sizes count what is
        resident, tombstoned members included until :meth:`compact`.
        """

        per_type = {}
        n_entries = 0
        arrays_bytes = 0
        for feature_type in self._ctph_types:
            store = self._stores[feature_type]
            blocks = store.entry_block
            per_type[feature_type] = {
                "family": "ctph",
                "entries": store.n_entries,
                "postings": store.n_keys,
                "block_sizes": np.unique(blocks).tolist(),
            }
            n_entries += store.n_entries
            arrays_bytes += store.nbytes()
        vector_bytes = 0
        for feature_type in self._vector_types:
            vstore = self._vstores[feature_type]
            per_type[feature_type] = {
                "family": "vector",
                "members_with_digest": int(vstore.present.sum())
                if len(vstore) else 0,
                "digest_bits": 8 * VECTOR_WORDS * 8,
                "packed_matrix_bytes": int(vstore.nbytes),
            }
            vector_bytes += vstore.nbytes
        arrays_bytes += vector_bytes
        labelled = [name for name in self.class_names if name]
        # Serialised size estimate, mirroring the columnar container
        # layout (entry columns + CSR postings + interned signature
        # pool) without materialising the arrays the way get_state would.
        estimated = (arrays_bytes
                     + sum(len(s) for s in self._pool.strings)
                     + sum(len(s) for s in self._sample_ids)
                     + sum(len(c) for c in self._class_names))
        return {
            "members": self.n_members,
            "total_members": self.total_members,
            "tombstones": self.n_tombstones,
            "classes": len(set(labelled)),
            "labelled_members": len(labelled),
            "ngram_length": ROLLING_WINDOW,
            "estimated_bytes": estimated,
            "feature_types": per_type,
            "families": {
                "ctph": {
                    "feature_types": list(self._ctph_types),
                    "entries": n_entries,
                },
                "vector": {
                    "feature_types": list(self._vector_types),
                    "digest_bits": 8 * VECTOR_WORDS * 8,
                    "packed_matrix_bytes": int(vector_bytes),
                },
            },
        }

    # ---------------------------------------------------------- persistence
    def get_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Serialisable ``(header, arrays)`` snapshot of the index: what
        :meth:`save` writes and model artifacts embed, and what
        :meth:`from_state` adopts without re-keying a gram.  It holds the
        survivors only (copied through :func:`_copy_members` when the
        index has tombstones), so the format carries no tombstones.
        """

        pool_bytes, pool_offsets = self._pool.packed()
        header = {
            "ngram_length": ROLLING_WINDOW,
            "feature_types": list(self._feature_types),
            "sample_ids": list(self._sample_ids),
            "class_names": list(self._class_names),
            "layout": "columnar",
        }
        arrays: dict[str, np.ndarray] = {
            "pool_bytes": pool_bytes,
            "pool_offsets": pool_offsets,
        }
        # CTPH stores keep their historical t{i} keys (i indexes the
        # ctph types, which for pre-vector indexes is every type, so
        # old and new files agree); vector stores serialise under v{i}.
        for type_idx, feature_type in enumerate(self._ctph_types):
            for name, array in self._stores[feature_type].get_arrays().items():
                arrays[f"t{type_idx}.{name}"] = array
        for type_idx, feature_type in enumerate(self._vector_types):
            for name, array in self._vstores[feature_type].get_arrays().items():
                arrays[f"v{type_idx}.{name}"] = array
        if self._dead:
            return _copy_members(
                self._feature_types, [(header, arrays)],
                [(0, member) for member in self._survivors()[0].tolist()])
        return header, arrays

    def save(self, path: str | os.PathLike) -> Path:
        """Write the index to one compact versioned file."""

        header, arrays = self.get_state()
        path = write_container(path, header, arrays)
        _LOG.info("saved index (%d members) to %s", self.n_members, path)
        return path

    @classmethod
    def load(cls, path: str | os.PathLike, *,
             mmap_mode: str | None = None) -> "SimilarityIndex":
        """Load an index saved by :meth:`save`, or by an older build (its
        layout upgraded first, :func:`repro.upgrade.upgrade_index`).

        With ``mmap_mode="r"`` (and a v4+ aligned file) the bulk arrays
        are adopted as read-only zero-copy views into a shared memory
        map, and deep content validation is deferred: the load is
        O(header).  Raises :class:`~repro.exceptions.IndexFormatError`
        on missing, corrupt, truncated or unsupported files.
        """

        from ..upgrade import upgrade_index

        source = f"index file {path}"
        header, arrays = upgrade_index(
            *read_container(path, mmap_mode=mmap_mode), source=source)
        # A freshly-read container is exclusively owned (eager) or an
        # immutable mapped view (mmap): adopt without re-copying.
        index = cls.from_state(header, arrays, source=source, copy=False,
                               deep_validate=mmap_mode is None)
        _LOG.info("loaded index (%d members) from %s", index.n_members, path)
        return index

    @classmethod
    def from_state(cls, header: Mapping, arrays: Mapping[str, np.ndarray], *,
                   source: str = "index state", copy: bool = True,
                   deep_validate: bool = True) -> "SimilarityIndex":
        """Rebuild an index from a :meth:`get_state` snapshot, in the
        current (format 5) layout only: :func:`repro.upgrade.upgrade_index`
        brings an older one to it.

        ``source`` names the origin in the
        :class:`~repro.exceptions.IndexFormatError` corrupt state raises.
        ``copy=False`` adopts the arrays as views (the caller guarantees
        nothing else mutates them), and ``deep_validate=False`` skips the
        content scans of :func:`_checked_state` and defers signature
        decoding: on a memory-mapped load they would fault in the whole
        payload.
        """

        (feature_types, sample_ids, class_names, pool, sections,
         vstores) = _checked_state(header, arrays, source, deep=deep_validate,
                                   copy=copy)
        index = cls(feature_types)
        index._sample_ids, index._class_names = sample_ids, class_names
        for member, sample_id in enumerate(sample_ids):
            index._members_by_id.setdefault(sample_id, set()).add(member)
        index._pool = SignaturePool.from_packed(*pool, lazy=not deep_validate)
        for feature_type, cols in zip(index._ctph_types, sections):
            store = index._stores[feature_type] = ArrayPostings(index._pool)
            store.adopt_arrays(cols, copy=copy)
        index._vstores.update(zip(index._vector_types, vstores))
        return index

    # ------------------------------------------------------------ internals
    def _append_member(self, sample_id: str, class_name: str) -> int:
        """Register a new physical member; returns its physical index."""

        if not isinstance(sample_id, str) or not sample_id:
            raise ValidationError("sample_id must be a non-empty string")
        member = len(self._sample_ids)
        self._sample_ids.append(sample_id)
        self._class_names.append(str(class_name))
        self._members_by_id.setdefault(sample_id, set()).add(member)
        self._view = None
        return member

    def _survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(alive, dense)``: surviving physical members in insertion
        order, and the physical -> dense map (-1 for tombstoned ones)."""

        view = self._view
        if view is None:
            dense = np.zeros(len(self._sample_ids), dtype=np.int64)
            dense[list(self._dead)] = -1
            alive = np.flatnonzero(dense == 0)
            dense[alive] = np.arange(alive.size)
            view = self._view = (alive, dense)
        return view

    def _check_feature_type(self, feature_type: str) -> None:
        if feature_type not in self._feature_types:
            raise ValidationError(
                f"unknown feature type {feature_type!r}; this index holds "
                f"{list(self._feature_types)}")


def load_index(path: str | os.PathLike, *,
               mmap_mode: str | None = None) -> SimilarityIndex:
    """Load an index file, or a legacy sharded-index directory.

    A directory is read by :func:`repro.upgrade.read_sharded_directory`
    into one index over its survivors; a file loads through
    :meth:`SimilarityIndex.load` (``mmap_mode="r"`` maps it zero-copy).
    """

    if Path(path).is_dir():
        from ..upgrade import read_sharded_directory

        header, arrays = read_sharded_directory(path, mmap_mode=mmap_mode)
        return SimilarityIndex.from_state(
            header, arrays, source=f"sharded index directory {path}",
            copy=False)
    return SimilarityIndex.load(path, mmap_mode=mmap_mode)


# --------------------------------------------------------- state helpers
# Shared with :mod:`repro.upgrade`, which checks every old state it reads.

def _checked_types(feature_types: Iterable[str]) -> tuple[str, ...]:
    feature_types = tuple(feature_types)
    if not feature_types:
        raise ValidationError("feature_types must not be empty")
    if len(set(feature_types)) != len(feature_types):
        raise ValidationError("feature_types must not repeat")
    return feature_types


def _read_header(header: Mapping, source: str
                 ) -> tuple[tuple[str, ...], list[str], list[str]]:
    """``(feature_types, sample_ids, class_names)`` of an index header,
    checked."""

    try:
        ngram_length = int(header["ngram_length"])
        feature_types = [str(ft) for ft in header["feature_types"]]
        sample_ids = [str(s) for s in header["sample_ids"]]
        class_names = [str(c) for c in header["class_names"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexFormatError(
            f"{source} is missing required fields: {exc}") from exc
    if len(class_names) != len(sample_ids):
        raise IndexFormatError(
            f"{source} has {len(sample_ids)} sample ids but "
            f"{len(class_names)} class names")
    if ngram_length != ROLLING_WINDOW:
        raise IndexFormatError(
            f"{source} uses {ngram_length}-gram postings; this build "
            f"reads {ROLLING_WINDOW}-gram postings only")
    try:
        return _checked_types(feature_types), sample_ids, class_names
    except ValidationError as exc:
        raise IndexFormatError(f"{source} has an invalid "
                               f"configuration: {exc}") from exc


def _section_of(arrays: Mapping[str, np.ndarray], prefix: str
                ) -> dict[str, np.ndarray]:
    """Every array named ``prefix + name``, keyed by ``name``."""

    return {name[len(prefix):]: array for name, array in arrays.items()
            if name.startswith(prefix)}


def _section(arrays: Mapping[str, np.ndarray], prefix: str,
             names: Iterable[str], source: str) -> dict[str, np.ndarray]:
    """The arrays ``prefix + name`` of a state, keyed by ``name``."""

    try:
        return {name: arrays[prefix + name] for name in names}
    except KeyError as exc:
        raise IndexFormatError(
            f"{source} is missing required fields: {exc}") from exc


def _checked_state(header: Mapping, arrays: Mapping[str, np.ndarray],
                   source: str, *, deep: bool = True, copy: bool = False,
                   postings: bool = True) -> tuple:
    """``(feature_types, sample_ids, class_names, (pool_bytes,
    pool_offsets), sections, vstores)`` of a columnar state: each CTPH
    section's columns (postings too with ``postings``), each vector
    section's store.  Shapes and lengths are always checked; ``deep``
    also scans contents: offset order, sorted keys, member and signature
    ranges, the signature alphabet and the block size rule."""

    feature_types, sample_ids, class_names = _read_header(header, source)
    n_members = len(sample_ids)
    pool_bytes, pool_offsets = _section(
        arrays, "", ("pool_bytes", "pool_offsets"), source).values()
    if len(pool_offsets) < 1 or deep and (
            pool_offsets[0] != 0 or pool_offsets[-1] != len(pool_bytes)
            or np.any(np.diff(pool_offsets) < 0)):
        raise IndexFormatError(f"{source} has corrupt signature "
                               "pool offsets")
    if deep:
        _check_signature_bytes(pool_bytes, source)
    n_sigs = len(pool_offsets) - 1
    ctph = [ft for ft in feature_types if not is_vector_feature_type(ft)]
    sections = []
    for type_idx in range(len(ctph)):
        prefix = f"t{type_idx}."
        cols = _section(arrays, prefix, _SECTION_ARRAYS if postings
                        else _ENTRY_ARRAYS, source)
        if postings and len(_section_of(arrays, prefix)) > len(cols):
            # An older section's keys, adopted as exact ones, match nothing.
            raise IndexFormatError(f"{source} carries arrays of an older "
                                   "layout; repro.upgrade reads it")
        sections.append(cols)
        n_entries = len(cols["entry_member"])
        if len(cols["entry_block"]) != n_entries \
                or len(cols["entry_sig"]) != n_entries:
            raise IndexFormatError(f"{source} has inconsistent "
                                   "entry array lengths")
        if deep and n_entries:
            members = cols["entry_member"]
            if members.min() < 0 or members.max() >= n_members:
                raise IndexFormatError(
                    f"{source} references member #{int(members.max())} "
                    f"but only {n_members} are declared")
            sigs = cols["entry_sig"]
            if sigs.min() < 0 or sigs.max() >= n_sigs:
                raise IndexFormatError(
                    f"{source} references signature #{int(sigs.max())} "
                    f"but the pool holds {n_sigs}")
            _check_block_sizes(np.unique(cols["entry_block"]).tolist(),
                               source)
        if not postings:
            continue
        n_keys = len(cols["post_keys"])
        if len(cols["post_offsets"]) != n_keys + 1:
            raise IndexFormatError(f"{source} has inconsistent "
                                   "posting array lengths")
        if deep:
            offsets = cols["post_offsets"]
            if n_keys and (offsets[0] != 0
                           or offsets[-1] != len(cols["post_entries"])
                           or np.any(np.diff(offsets) < 0)):
                raise IndexFormatError(f"{source} has corrupt "
                                       "posting offsets")
            if n_keys > 1 and np.any(np.diff(cols["post_keys"]) < 0):
                raise IndexFormatError(f"{source} has unsorted posting keys")
            posted = cols["post_entries"]
            if len(posted) and (n_entries == 0 or posted.min() < 0
                                or posted.max() >= n_entries):
                raise IndexFormatError(
                    f"{source} postings reference entry "
                    f"#{int(posted.max())} but only {n_entries} exist")
    vstores = []
    vector = [ft for ft in feature_types if is_vector_feature_type(ft)]
    for type_idx, feature_type in enumerate(vector):
        prefix = f"v{type_idx}."
        cols = _section_of(arrays, prefix)
        if not cols:
            raise IndexFormatError(
                f"{source} declares vector feature type {feature_type!r} "
                f"but carries no {prefix}* arrays")
        try:
            vstores.append(PackedDigestStore.adopt_arrays(cols, copy=copy))
        except ValidationError as exc:
            raise IndexFormatError(
                f"{source} has a corrupt vector section: {exc}") from exc
        if len(vstores[-1]) != n_members:
            raise IndexFormatError(
                f"{source} vector section {feature_type!r} has "
                f"{len(vstores[-1])} rows but {n_members} members are "
                "declared")
    return (feature_types, sample_ids, class_names, (pool_bytes, pool_offsets),
            sections, vstores)


def _copy_members(feature_types: Sequence[str],
                  states: Sequence[tuple[Mapping, Mapping[str, np.ndarray]]],
                  picks: Sequence[tuple[int, int]]
                  ) -> tuple[dict, dict[str, np.ndarray]]:
    """The state of a new index holding ``picks``, ``(state, member)``
    pairs over checked columnar ``states`` (postings unread), in order.

    Each member is appended as :meth:`SimilarityIndex.add` appends one:
    the member, its CTPH entries type by type in ascending block size
    (a signature interned where it first appears), then a row per
    vector type; so the state equals a fresh build's, array for array.
    Compaction, snapshots with tombstones and :mod:`repro.upgrade`'s
    sharded layouts all copy members through here.
    """

    header = {"ngram_length": ROLLING_WINDOW,
              "feature_types": list(feature_types), "layout": "columnar"}
    for key in ("sample_ids", "class_names"):
        header[key] = [str(states[state][0][key][member])
                       for state, member in picks]
    n_ctph = sum(not is_vector_feature_type(ft) for ft in feature_types)
    rows = []   # (new member, type, block size, signature) per entry
    for state_idx, (_header, state_arrays) in enumerate(states):
        signatures = SignaturePool.from_packed(
            state_arrays["pool_bytes"], state_arrays["pool_offsets"]).strings
        new = {member: position for position, (state, member)
               in enumerate(picks) if state == state_idx}
        for type_idx in range(n_ctph):
            rows += [(new[member], type_idx, block, signatures[sig])
                     for member, block, sig in zip(*(
                         state_arrays[f"t{type_idx}.{name}"].tolist()
                         for name in _ENTRY_ARRAYS)) if member in new]
    rows.sort(key=lambda row: row[:3])
    pool = SignaturePool()
    entries = np.array([(member, type_idx, block, pool.intern(signature))
                        for member, type_idx, block, signature in rows],
                       dtype=np.int64).reshape(-1, 4)
    arrays = dict(zip(("pool_bytes", "pool_offsets"), pool.packed()))
    for type_idx in range(n_ctph):
        mine = entries[entries[:, 1] == type_idx]
        for column, (name, dtype) in zip((0, 2, 3), _ENTRY_ARRAYS.items()):
            arrays[f"t{type_idx}.{name}"] = mine[:, column].astype(dtype)
    for type_idx in range(len(feature_types) - n_ctph):
        prefix = f"v{type_idx}."
        sources = [PackedDigestStore.adopt_arrays(
            _section_of(state_arrays, prefix), copy=False)
            for _header, state_arrays in states]
        store = PackedDigestStore()
        for state, member in picks:
            store.append(sources[state].digest_string(member))
        arrays.update({prefix + name: array
                       for name, array in store.get_arrays().items()})
    return header, _keyed(arrays)


def _keyed(entries: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A checked entries-only state's arrays with each CTPH section's
    postings (:func:`~repro.index.postings.key_entries`) after its entry
    columns, as :meth:`SimilarityIndex.get_state` orders them."""

    signatures = SignaturePool.from_packed(entries["pool_bytes"],
                                           entries["pool_offsets"]).strings
    keyed = {}
    for name, array in entries.items():
        keyed[name] = array
        if name.endswith(".entry_sig"):
            prefix = name[:-len("entry_sig")]
            keyed.update((prefix + key, value) for key, value in key_entries(
                signatures, entries[prefix + "entry_block"], array).items())
    return keyed


def _check_signature_bytes(data: np.ndarray, source: str) -> None:
    """Refuse stored signature bytes outside the digest alphabet, which
    :func:`~repro.index.postings.signature_grams` cannot key exactly."""

    if not is_signature_bytes(data):
        raise IndexFormatError(f"{source} has signature bytes outside "
                               "the base64 alphabet")


def _check_block_sizes(block_sizes: Iterable[int], source: str) -> None:
    """Refuse a stored block size no digest can carry: the index keys
    postings by :func:`~repro.hashing.ssdeep.is_canonical_block_size`'s
    ``k``."""

    for block_size in block_sizes:
        if not is_canonical_block_size(block_size):
            raise IndexFormatError(
                f"{source} holds block size {block_size}, which is not "
                f"{MIN_BLOCKSIZE} * 2**k below 2**62")


def _shared_bit_pairs(bits: np.ndarray, max_pairs: int | None
                      ) -> tuple[np.ndarray, int]:
    """``(codes, count)`` of the member pairs ``i < j`` whose ``bits``
    share a set bit, coded ``i * len(bits) + j``.

    ``count`` is exact, but with ``max_pairs`` only the rows ``i`` up to
    the one where the running count reaches ``max_pairs`` are built:
    they hold the first ``max_pairs`` pairs in ``(i, j)`` order.  Row
    counts come from one sorted partner list per distinct bit pattern,
    so nothing of size n(n-1)/2 exists unless it is returned.
    """

    n = bits.size
    groups = []
    row_counts = np.zeros(n, dtype=np.int64)
    for pattern in np.unique(bits[bits != 0]).tolist():
        partners = np.flatnonzero(bits & pattern)
        rows = np.flatnonzero(bits == pattern)
        # Row i pairs with the partners after it: the last counts[i].
        counts = partners.size - np.searchsorted(partners, rows, side="right")
        row_counts[rows] = counts
        groups.append((partners, rows, counts))
    cumulative = np.cumsum(row_counts)
    count = int(cumulative[-1]) if n else 0
    end = n
    if max_pairs is not None and count > max_pairs:
        end = int(np.searchsorted(cumulative, max_pairs)) + 1
    codes = [np.zeros(0, dtype=np.int64)]
    for partners, rows, counts in groups:
        keep = rows < end
        rows, counts = rows[keep], counts[keep]
        within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                     counts)
        codes.append(np.repeat(rows, counts) * n + partners[
            np.repeat(partners.size - counts, counts) + within])
    return np.concatenate(codes), count

