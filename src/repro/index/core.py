"""The persistent top-k similarity index.

:class:`SimilarityIndex` is the candidate-generation and scoring engine
shared by every bulk digest workload in the library.  It holds *members*
(samples identified by ``sample_id``, optionally carrying a class label)
whose SSDeep digests are bucketed by ``(feature_type, block_size)`` and
indexed by their 7-gram postings, and answers:

* ``top_k`` — the best-scoring members for a query digest;
* ``score_matrix`` — a dense query × member score matrix (what the
  similarity feature builder consumes);
* ``pairwise_matrix`` — budgeted all-vs-all member scoring;
* ``save`` / ``load`` — round-tripping to a single compact file
  (:mod:`repro.index.storage`).

Members can be removed: :meth:`SimilarityIndex.remove` tombstones them
without touching the postings, every query then answers over the
survivors renumbered densely in insertion order (exactly as a fresh
index built from the survivors would), and :meth:`SimilarityIndex.compact`
drops them physically.  Snapshots (``get_state`` / ``save``) always hold
the survivors only, so a removed member can never come back on reload.

Since format version 2 the postings and entry tables live in compact
columnar NumPy arrays (:mod:`repro.index.postings`): signatures are
interned in an index-wide string pool, entries are ``int32``/``int64``
columns, and each feature type's inverted postings are a sorted
CSR-style triple over FNV-64 ``(block_size, gram)`` keys.  Candidate
generation is one vectorised sweep — ``np.searchsorted`` over the key
array, slab gathers, ``np.unique`` de-duplication over packed pairs —
instead of the first-generation per-gram dict walk; results are
bit-identical (the Hypothesis equivalence suite pins this down).

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
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..distance.scoring import indel_distance, ssdeep_score_from_distance
from ..exceptions import IndexFormatError, ValidationError
from ..hashing.compare import normalize_repeats
from ..hashing.rolling import ROLLING_WINDOW
from ..hashing.ssdeep import SsdeepDigest
from ..hashing.vector import (VECTOR_WORDS, VectorDigest,
                              is_vector_digest, is_vector_feature_type,
                              popcount_u8, score_from_distance)
from ..logging_utils import get_logger
from ..observability.trace import span
from .knn import PackedDigestStore
from .postings import ArrayPostings, SignaturePool, block_prefix64, \
    hash_windows, signature_windows
from .storage import read_container, write_container

__all__ = ["CandidateBatch", "IndexMatch", "PairScore", "SimilarityIndex",
           "expand_digest", "load_index", "score_signature_pairs",
           "signature_grams"]

_LOG = get_logger("index.core")

#: Shared singleton for "no members excluded" — hoisted so the serving
#: hot path (``top_k`` with no exclusions) allocates nothing per call.
_NO_EXCLUDED: frozenset[int] = frozenset()

#: Candidate de-duplication switches from a dense boolean
#: (query rows × entries) scatter to sorting packed codes above this
#: many cells (the dense path is O(hits) but allocates one byte per
#: cell).  16M cells = 16 MB transient, roughly a 64-query batch
#: against a 100k-entry index.
_DENSE_DEDUP_CELLS = 1 << 24


# Bounded at 4096: each value is a frozenset of up to ~58 short strings
# (a few KB), so the cache tops out around 20 MB per process.  Serving
# streams touch far fewer distinct signatures than that; a pairwise
# sweep over a larger corpus simply recomputes on the cold tail.
@lru_cache(maxsize=4096)
def _signature_grams_cached(signature: str, ngram_length: int
                            ) -> frozenset[str]:
    n = ngram_length
    if len(signature) < n:
        return _NO_GRAMS
    return frozenset(signature[i:i + n]
                     for i in range(len(signature) - n + 1))


_NO_GRAMS: frozenset[str] = frozenset()


def signature_grams(signature: str, ngram_length: int) -> set[str]:
    """All ``ngram_length``-grams of a signature (empty when too short).

    Backed by a bounded LRU over ``(signature, n)`` — ``classify
    --jsonl`` streams and pairwise sweeps hit the same signatures over
    and over; a fresh mutable set is returned so callers stay free to
    modify it.
    """

    return set(_signature_grams_cached(signature, ngram_length))


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
    ngram_length:
        Length of the common-substring precondition (7, like SSDeep).
        Two indexes are only compatible when this matches.
    """

    def __init__(self, feature_types: Sequence[str] = None, *,
                 ngram_length: int = ROLLING_WINDOW) -> None:
        if feature_types is None:
            from ..features.extractors import FEATURE_TYPES
            feature_types = FEATURE_TYPES
        feature_types = tuple(feature_types)
        if not feature_types:
            raise ValidationError("feature_types must not be empty")
        if len(set(feature_types)) != len(feature_types):
            raise ValidationError("feature_types must not repeat")
        if ngram_length < 1:
            raise ValidationError("ngram_length must be >= 1")
        self._feature_types = feature_types
        # The index carries two digest families: CTPH types (variable
        # length, edit-distance scored, 7-gram postings) and vector-*
        # types (fixed length, packed-Hamming scored, no postings).
        self._ctph_types = tuple(ft for ft in feature_types
                                 if not is_vector_feature_type(ft))
        self._vector_types = tuple(ft for ft in feature_types
                                   if is_vector_feature_type(ft))
        self._ngram_length = int(ngram_length)
        # Per *physical* member (insertion order, tombstoned included);
        # queries see the survivors renumbered densely.
        self._sample_ids: list[str] = []
        self._class_names: list[str] = []
        #: Surviving physical members per sample id.
        self._members_by_id: dict[str, set[int]] = {}
        #: Tombstoned physical members, and the cached survivor view.
        self._dead: set[int] = set()
        self._view: tuple[np.ndarray, np.ndarray] | None = None
        self._pool = SignaturePool(self._ngram_length)
        self._stores: dict[str, ArrayPostings] = {
            ft: ArrayPostings(self._pool, self._ngram_length)
            for ft in self._ctph_types}
        self._vstores: dict[str, PackedDigestStore] = {
            ft: PackedDigestStore() for ft in self._vector_types}

    # ------------------------------------------------------------ properties
    @property
    def feature_types(self) -> tuple[str, ...]:
        return self._feature_types

    @property
    def ctph_feature_types(self) -> tuple[str, ...]:
        return self._ctph_types

    @property
    def vector_feature_types(self) -> tuple[str, ...]:
        return self._vector_types

    @property
    def ngram_length(self) -> int:
        return self._ngram_length

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
                self._add_entry(feature_type, member, block_size, signature)
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
            fresh = self._survivor_copy()
            self._sample_ids = fresh._sample_ids
            self._class_names = fresh._class_names
            self._members_by_id = fresh._members_by_id
            self._pool = fresh._pool
            self._stores = fresh._stores
            self._vstores = fresh._vstores
            self._dead = set()
            self._view = None
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
        signature's grams are hashed and located with a single
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
        n_queries_by_type: dict[str, int] = {}
        vector: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Physical -> dense member map (-1 for tombstoned members).
        dense = self._survivors()[1] if self._dead else None
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
            store = self._stores[feature_type]
            n_entries = store.n_entries
            if not n_entries:
                continue

            # Flatten queries into (query, block, signature) rows.
            row_query: list[int] = []
            row_block: list[int] = []
            row_class: list[int] = []
            row_prefix: list[int] = []
            row_windows: list[np.ndarray] = []
            for query_index, digest in enumerate(digests):
                for block_size, signature in expand_digest(digest):
                    local = local_ids.get(signature)
                    if local is None:
                        local = len(local_strings)
                        local_ids[signature] = local
                        local_strings.append(signature)
                    windows = _query_windows(signature, self._ngram_length)
                    if not windows.shape[0]:
                        continue
                    row_cls = class_ids.get((local, block_size))
                    if row_cls is None:
                        row_cls = len(class_local)
                        class_ids[(local, block_size)] = row_cls
                        class_local.append(local)
                        class_block.append(block_size)
                    row_query.append(query_index)
                    row_block.append(block_size)
                    row_class.append(row_cls)
                    row_prefix.append(block_prefix64(block_size))
                    row_windows.append(windows)
            if not row_query:
                continue
            counts = np.fromiter(map(len, row_windows), dtype=np.int64,
                                 count=len(row_windows))
            row_query_arr = np.asarray(row_query, dtype=np.int64)
            row_block_arr = np.asarray(row_block, dtype=np.int64)
            row_class_arr = np.asarray(row_class, dtype=np.int64)
            flat_windows = np.vstack(row_windows)
            # One vectorised FNV sweep over every window of every query
            # (per-row prefixes carry the block sizes into the keys).
            flat_keys = hash_windows(
                np.repeat(np.asarray(row_prefix, dtype=np.uint64), counts),
                flat_windows)
            flat_blocks = np.repeat(row_block_arr, counts)

            rows, entries = store.lookup(
                flat_keys, flat_blocks, flat_windows,
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

        scatter: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {
            ft: (np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32),
                 np.zeros(0, dtype=np.int64))
            for ft in digests_by_type}
        if not per_type:
            return CandidateBatch(left=[], right=[],
                                  block_sizes=np.zeros(0, dtype=np.int64),
                                  scatter=scatter,
                                  n_queries=n_queries_by_type,
                                  vector=vector)

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

        offset = 0
        for feature_type, queries, members, *_rest in per_type:
            n_pairs = len(queries)
            scatter[feature_type] = (
                queries.astype(np.int32),
                members.astype(np.int32, copy=False),
                inverse[offset:offset + n_pairs])
            offset += n_pairs

        return CandidateBatch(left=left, right=right, block_sizes=block_sizes,
                              scatter=scatter, n_queries=n_queries_by_type,
                              vector=vector)

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

        Candidates are member pairs sharing at least one posting bucket;
        each is scored like :meth:`top_k` (max over comparable signature
        pairs and, with ``feature_type=None``, over feature types).  When
        the candidate set exceeds ``max_pairs`` only the first
        ``max_pairs`` pairs in ``(i, j)`` order are scored and a warning
        logs exactly how many were dropped — truncation is never silent.
        Pairs scoring below ``min_score`` are omitted from the result.
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

        # Candidates and scoring work on physical members; tombstoned
        # ones are filtered out and the survivors renumbered at the end
        # (the renumbering is monotonic, so the pair order is the same).
        dense = self._survivors()[1] if self._dead else None
        candidates: set[tuple[int, int]] = set()
        for ft in types:
            if ft in self._vstores:
                # The vector family has no candidate gate: any two
                # members carrying a digest are comparable (the
                # max_pairs budget below is what bounds the sweep).
                present = self._vstores[ft].present
                if dense is not None:
                    present = present & (dense >= 0)
                present = np.flatnonzero(present)
                if present.size >= 2:
                    candidates.update(combinations(present.tolist(), 2))
                continue
            store = self._stores[ft]
            entry_member = store.entry_member
            for _block, _gram, entry_ids in store.iter_buckets():
                if len(entry_ids) < 2:
                    continue
                members = np.unique(entry_member[entry_ids])
                if dense is not None:
                    members = members[dense[members] >= 0]
                if members.size >= 2:
                    candidates.update(combinations(members.tolist(), 2))
        pairs = sorted(candidates)
        if max_pairs is not None and len(pairs) > max_pairs:
            dropped = len(pairs) - max_pairs
            _LOG.warning(
                "pairwise_matrix: scoring %d of %d candidate pairs, dropping "
                "%d over the max_pairs=%d budget", max_pairs, len(pairs),
                dropped, max_pairs)
            pairs = pairs[:max_pairs]
        if not pairs:
            return []

        best = np.zeros(len(pairs), dtype=np.float64)
        pair_array = np.asarray(pairs, dtype=np.int64)
        for ft in types:
            if ft in self._vstores:
                vstore = self._vstores[ft]
                matrix = vstore.matrix
                present = vstore.present
                rows_i = pair_array[:, 0]
                rows_j = pair_array[:, 1]
                xor = np.bitwise_xor(matrix[rows_i], matrix[rows_j])
                dist = popcount_u8(xor.view(np.uint8)).sum(axis=1,
                                                           dtype=np.int64)
                scores = np.asarray(score_from_distance(dist),
                                    dtype=np.float64)
                scores[~(present[rows_i] & present[rows_j])] = 0.0
                np.maximum(best, scores, out=best)
                continue
            sig_by_member = self._member_signatures(ft)
            left: list[str] = []
            right: list[str] = []
            block_sizes: list[int] = []
            slot_for_key: dict[tuple[str, str, int], int] = {}
            scatter: list[tuple[int, int]] = []        # (pair_idx, slot)
            grams = _signature_grams_cached
            n = self._ngram_length
            for pair_idx, (i, j) in enumerate(pairs):
                sigs_i = sig_by_member.get(i)
                sigs_j = sig_by_member.get(j)
                if not sigs_i or not sigs_j:
                    continue
                for block_size in sigs_i.keys() & sigs_j.keys():
                    sig_a, sig_b = sigs_i[block_size], sigs_j[block_size]
                    if not grams(sig_a, n) & grams(sig_b, n):
                        continue
                    key = (sig_a, sig_b, block_size)
                    slot = slot_for_key.get(key)
                    if slot is None:
                        slot = len(left)
                        slot_for_key[key] = slot
                        left.append(sig_a)
                        right.append(sig_b)
                        block_sizes.append(block_size)
                    scatter.append((pair_idx, slot))
            if not scatter:
                continue
            slot_scores = score_signature_pairs(left, right, block_sizes)
            for pair_idx, slot in scatter:
                if slot_scores[slot] > best[pair_idx]:
                    best[pair_idx] = slot_scores[slot]

        if dense is not None:
            pairs = [(int(dense[i]), int(dense[j])) for i, j in pairs]
        return [PairScore(i=i, j=j, score=int(score))
                for (i, j), score in zip(pairs, best) if score >= min_score]

    # ------------------------------------------------------ entry transfer
    # Members move between indexes as already-expanded entries, never
    # round-tripping through lossy digests (the original digest string
    # is not recoverable from normalised signatures): the legacy
    # sharded-layout reader rebuilds one index from its shards this way.

    def member_signatures(self, feature_type: str
                          ) -> dict[int, dict[int, str]]:
        """Member index -> ``{block_size: signature}`` for one type.

        Vector types use a synthetic block size of 0 and the canonical
        digest string as the "signature", which round-trips exactly
        through :meth:`append_entries`.
        """

        self._check_feature_type(feature_type)
        signatures = self._member_signatures(feature_type)
        if not self._dead:
            return signatures
        dense = self._survivors()[1]
        return {int(dense[member]): sigs
                for member, sigs in signatures.items() if dense[member] >= 0}

    def _member_signatures(self, feature_type: str
                           ) -> dict[int, dict[int, str]]:
        """:meth:`member_signatures` keyed by physical member."""

        if feature_type in self._vstores:
            vstore = self._vstores[feature_type]
            return {member: {0: vstore.digest_string(member)}
                    for member in np.flatnonzero(vstore.present).tolist()}
        store = self._stores[feature_type]
        pool = self._pool
        sig_by_member: dict[int, dict[int, str]] = defaultdict(dict)
        for member, block, sig_id in zip(store.entry_member.tolist(),
                                         store.entry_block.tolist(),
                                         store.entry_sig.tolist()):
            sig_by_member[member][block] = pool[sig_id]
        return dict(sig_by_member)

    def append_entries(self, sample_id: str, class_name: str,
                       entries_by_type: Mapping[str, Iterable[tuple[int, str]]]
                       ) -> int:
        """Add one member from already-expanded ``(block_size, signature)``
        entries; returns its member index.

        The entry-level counterpart of :meth:`add` for callers that hold
        index contents rather than digests (see
        :meth:`member_signatures`).  Signatures are trusted to be
        already run-length normalised (they came out of an index).
        """

        member = self._append_member(sample_id, class_name)
        for feature_type in self._ctph_types:
            for block_size, signature in entries_by_type.get(feature_type, ()):
                self._add_entry(feature_type, member, int(block_size),
                                str(signature))
        for feature_type in self._vector_types:
            digest = None
            for _block_size, signature in entries_by_type.get(feature_type, ()):
                digest = VectorDigest.parse(str(signature))
            self._vstores[feature_type].append(digest)
        return member - len(self._dead)

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
            "ngram_length": self._ngram_length,
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
        """Serialisable ``(header, arrays)`` snapshot of the index.

        The same representation backs :meth:`save` (written as a
        standalone container file) and the embedded index payload of
        model artifacts (:mod:`repro.api.artifact`);
        :meth:`from_state` restores it.  Since index format version 2
        the snapshot carries the columnar postings verbatim, so loading
        adopts the arrays directly instead of re-hashing every gram.
        The snapshot holds the survivors only (a compacted copy when the
        index has tombstones), so the format carries no tombstones.
        """

        if self._dead:
            return self._survivor_copy().get_state()
        pool_bytes, pool_offsets = self._pool.packed()
        header = {
            "ngram_length": self._ngram_length,
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
        """Load an index saved by :meth:`save`.

        Reads both the current columnar layout and legacy (version 1)
        flat-entry files, which are rebuilt through the normal add path.
        With ``mmap_mode="r"`` (and a v4 aligned file) the bulk arrays
        are adopted as read-only zero-copy views into a shared memory
        map: the load is O(header) and deep content validation is
        deferred — a v4 container was validated when written, and
        faulting every payload page in just to re-check it would defeat
        the point of mapping.  Raises
        :class:`~repro.exceptions.IndexFormatError` on missing, corrupt,
        truncated or unsupported files.
        """

        header, arrays = read_container(path, mmap_mode=mmap_mode)
        # A freshly-read container is exclusively owned (eager) or an
        # immutable mapped view (mmap): adopt without re-copying.
        index = cls.from_state(header, arrays, source=f"index file {path}",
                               copy=False,
                               deep_validate=mmap_mode is None)
        _LOG.info("loaded index (%d members) from %s", index.n_members, path)
        return index

    @classmethod
    def from_state(cls, header: Mapping, arrays: Mapping[str, np.ndarray], *,
                   source: str = "index state", copy: bool = True,
                   deep_validate: bool = True) -> "SimilarityIndex":
        """Rebuild an index from a :meth:`get_state` snapshot.

        ``source`` names the origin (a file path, or the embedding model
        artifact) in error messages.  Raises
        :class:`~repro.exceptions.IndexFormatError` on inconsistent or
        corrupt state.  Columnar (version 2) snapshots adopt their
        arrays after validation; legacy flat-entry snapshots are rebuilt
        entry by entry.  ``copy=False`` adopts the arrays as views
        (zero-copy; the caller guarantees nothing else mutates them) and
        ``deep_validate=False`` skips the O(payload) content scans — the
        mapped-load fast path.  A legacy sharded snapshot (header
        ``"sharded": true``) is rebuilt as one index over its survivors
        (:mod:`repro.index.legacy`).
        """

        if isinstance(header, Mapping) and header.get("sharded"):
            from .legacy import index_from_sharded_state

            return index_from_sharded_state(header, arrays, source=source,
                                            copy=copy,
                                            deep_validate=deep_validate)
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
        try:
            index = cls(feature_types, ngram_length=ngram_length)
        except ValidationError as exc:
            raise IndexFormatError(f"{source} has an invalid "
                                   f"configuration: {exc}") from exc
        index._sample_ids = sample_ids
        index._class_names = class_names
        for member, sample_id in enumerate(sample_ids):
            index._members_by_id.setdefault(sample_id, set()).add(member)

        if "pool_offsets" in arrays:
            index._adopt_columnar_state(arrays, source=source, copy=copy,
                                        deep_validate=deep_validate)
        else:
            index._rebuild_legacy_state(arrays, source=source)
        return index

    def _adopt_columnar_state(self, arrays: Mapping[str, np.ndarray], *,
                              source: str, copy: bool = True,
                              deep_validate: bool = True) -> None:
        """Validate and adopt a columnar (format v2) snapshot.

        ``deep_validate=False`` keeps the cheap shape/length checks but
        skips every scan that touches array *contents* (offset
        monotonicity, sorted keys, member/signature ranges) and defers
        signature decoding — on a memory-mapped load those scans would
        fault in the whole payload.
        """

        n_members = len(self._sample_ids)
        try:
            pool_bytes = arrays["pool_bytes"]
            pool_offsets = arrays["pool_offsets"]
        except KeyError as exc:
            raise IndexFormatError(
                f"{source} is missing required fields: {exc}") from exc
        if len(pool_offsets) < 1:
            raise IndexFormatError(f"{source} has corrupt signature "
                                   "pool offsets")
        if deep_validate and (
                pool_offsets[0] != 0
                or pool_offsets[-1] != len(pool_bytes)
                or (len(pool_offsets) > 1
                    and np.any(np.diff(pool_offsets) < 0))):
            raise IndexFormatError(f"{source} has corrupt signature "
                                   "pool offsets")
        try:
            pool = SignaturePool.from_packed(self._ngram_length, pool_bytes,
                                             pool_offsets,
                                             lazy=not deep_validate)
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"{source} has non-ASCII "
                                   "signature bytes") from exc
        self._pool = pool
        n_sigs = len(pool)
        for type_idx, feature_type in enumerate(self._ctph_types):
            prefix = f"t{type_idx}."
            try:
                cols = {name: arrays[prefix + name] for name in
                        ("entry_member", "entry_block", "entry_sig",
                         "post_keys", "post_blocks", "post_grams",
                         "post_offsets", "post_entries")}
            except KeyError as exc:
                raise IndexFormatError(
                    f"{source} is missing required fields: {exc}") from exc
            n_entries = len(cols["entry_member"])
            n_keys = len(cols["post_keys"])
            if len(cols["entry_block"]) != n_entries \
                    or len(cols["entry_sig"]) != n_entries:
                raise IndexFormatError(f"{source} has inconsistent "
                                       "entry array lengths")
            if len(cols["post_blocks"]) != n_keys \
                    or len(cols["post_offsets"]) != n_keys + 1 \
                    or cols["post_grams"].shape != (n_keys,
                                                    self._ngram_length):
                raise IndexFormatError(f"{source} has inconsistent "
                                       "posting array lengths")
            if deep_validate:
                offsets = cols["post_offsets"]
                if n_keys and (offsets[0] != 0
                               or offsets[-1] != len(cols["post_entries"])
                               or np.any(np.diff(offsets) < 0)):
                    raise IndexFormatError(f"{source} has corrupt "
                                           "posting offsets")
                if n_keys > 1 and np.any(np.diff(cols["post_keys"]) < 0):
                    raise IndexFormatError(
                        f"{source} has unsorted posting keys")
                if n_entries:
                    members = cols["entry_member"]
                    if members.min() < 0 or members.max() >= n_members:
                        raise IndexFormatError(
                            f"{source} references member "
                            f"#{int(members.max())} but only {n_members} "
                            "are declared")
                    sigs = cols["entry_sig"]
                    if sigs.min() < 0 or sigs.max() >= n_sigs:
                        raise IndexFormatError(
                            f"{source} references signature "
                            f"#{int(sigs.max())} but the pool holds {n_sigs}")
                posted = cols["post_entries"]
                if len(posted) and (n_entries == 0 or posted.min() < 0
                                    or posted.max() >= n_entries):
                    raise IndexFormatError(
                        f"{source} postings reference entry "
                        f"#{int(posted.max())} but only {n_entries} exist")
            store = ArrayPostings(pool, self._ngram_length)
            store.adopt_arrays(cols, copy=copy)
            self._stores[feature_type] = store
        for type_idx, feature_type in enumerate(self._vector_types):
            prefix = f"v{type_idx}."
            cols = {name[len(prefix):]: array
                    for name, array in arrays.items()
                    if name.startswith(prefix)}
            if not cols:
                raise IndexFormatError(
                    f"{source} declares vector feature type "
                    f"{feature_type!r} but carries no {prefix}* arrays")
            try:
                vstore = PackedDigestStore.adopt_arrays(cols, copy=copy)
            except ValidationError as exc:
                raise IndexFormatError(
                    f"{source} has a corrupt vector section: {exc}") from exc
            if len(vstore) != n_members:
                raise IndexFormatError(
                    f"{source} vector section {feature_type!r} has "
                    f"{len(vstore)} rows but {n_members} members are "
                    "declared")
            self._vstores[feature_type] = vstore

    def _rebuild_legacy_state(self, arrays: Mapping[str, np.ndarray], *,
                              source: str) -> None:
        """Rebuild from a legacy (format v1) flat-entry snapshot."""

        if self._vector_types:
            raise IndexFormatError(
                f"{source} uses the legacy flat-entry layout, which "
                "predates vector feature types")
        try:
            entry_type = arrays["entry_type"]
            entry_member = arrays["entry_member"]
            entry_block = arrays["entry_block"]
            sig_offsets = arrays["sig_offsets"]
            sig_bytes = arrays["sig_bytes"]
        except KeyError as exc:
            raise IndexFormatError(
                f"{source} is missing required fields: {exc}") from exc
        feature_types = self._feature_types
        n_entries = len(entry_type)
        if len(entry_member) != n_entries or len(entry_block) != n_entries \
                or len(sig_offsets) != n_entries + 1:
            raise IndexFormatError(f"{source} has inconsistent "
                                   "entry array lengths")
        if n_entries and (np.any(np.diff(sig_offsets) < 0)
                          or sig_offsets[0] != 0
                          or sig_offsets[-1] != len(sig_bytes)):
            raise IndexFormatError(f"{source} has corrupt "
                                   "signature offsets")
        try:
            all_signatures = sig_bytes.tobytes().decode("ascii")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"{source} has non-ASCII "
                                   "signature bytes") from exc
        n_members = len(self._sample_ids)
        for i in range(n_entries):
            type_idx = int(entry_type[i])
            member = int(entry_member[i])
            if not 0 <= type_idx < len(feature_types):
                raise IndexFormatError(
                    f"{source} references feature type #{type_idx} "
                    f"but only {len(feature_types)} are declared")
            if not 0 <= member < n_members:
                raise IndexFormatError(
                    f"{source} references member #{member} "
                    f"but only {n_members} are declared")
            signature = all_signatures[int(sig_offsets[i]):
                                       int(sig_offsets[i + 1])]
            self._add_entry(feature_types[type_idx], member,
                            int(entry_block[i]), signature)

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

    def _survivor_copy(self) -> "SimilarityIndex":
        """A new index over the surviving members, in insertion order."""

        alive = self._survivors()[0].tolist()
        remap = {old: new for new, old in enumerate(alive)}
        result = SimilarityIndex(self._feature_types,
                                 ngram_length=self._ngram_length)
        for old in alive:
            result._append_member(self._sample_ids[old],
                                  self._class_names[old])
        pool = self._pool
        for feature_type in self._ctph_types:
            store = self._stores[feature_type]
            for member, block, sig_id in zip(store.entry_member.tolist(),
                                             store.entry_block.tolist(),
                                             store.entry_sig.tolist()):
                new_member = remap.get(member)
                if new_member is not None:
                    result._add_entry(feature_type, new_member, block,
                                      pool[sig_id])
        for feature_type in self._vector_types:
            result._vstores[feature_type] = \
                self._vstores[feature_type].subset(alive)
        return result

    def _add_entry(self, feature_type: str, member: int, block_size: int,
                   signature: str) -> None:
        sig_id = self._pool.intern(signature)
        self._stores[feature_type].add_entry(member, block_size, sig_id)

    def _check_feature_type(self, feature_type: str) -> None:
        if feature_type not in self._feature_types:
            raise ValidationError(
                f"unknown feature type {feature_type!r}; this index holds "
                f"{list(self._feature_types)}")


def load_index(path: str | os.PathLike, *,
               mmap_mode: str | None = None) -> SimilarityIndex:
    """Load an index file, or a legacy sharded-index directory.

    A directory is read by :func:`repro.index.legacy.load_sharded_directory`
    into one index over its survivors; a file loads through
    :meth:`SimilarityIndex.load` (``mmap_mode="r"`` maps it zero-copy).
    """

    if Path(path).is_dir():
        from .legacy import load_sharded_directory

        return load_sharded_directory(path, mmap_mode=mmap_mode)
    return SimilarityIndex.load(path, mmap_mode=mmap_mode)


@lru_cache(maxsize=16384)
def _query_windows(signature: str, ngram_length: int) -> np.ndarray:
    """Query-side n-gram window matrix, memoised like the digest parse."""

    return signature_windows(signature, ngram_length)
