"""Property-based equivalence: array postings vs the legacy dict walk.

The PR that re-built candidate generation on columnar NumPy postings
promises **bit-identical results**.  This suite pins that down with a
reference implementation of the first-generation candidate layer (the
``dict[(block_size, gram)] -> list[int]`` walk with per-query ``set``
de-duplication, scoring through the same shared
:func:`~repro.index.core.score_signature_pairs`) and asserts, over
randomly generated corpora:

* the raw candidate pair sets match;
* dense ``score_matrix`` outputs and ``top_k`` rankings match;
* the equivalence survives save/load round trips (the columnar v2
  container), and a legacy sharded directory with tombstones loads as
  an index matching the reference over its survivors.
"""

import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hashing.compare import common_ngrams
from repro.hashing.ssdeep import fuzzy_hash
from repro.index import SimilarityIndex, load_index
from repro.index.core import expand_digest, score_signature_pairs

from legacy_fixtures import LEGACY_DIR, directory_survivors, expected

FT = "ssdeep-file"

_settings = settings(max_examples=20, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class ReferenceCandidateIndex:
    """The pre-columnar candidate layer (see PR history), single type."""

    def __init__(self) -> None:
        self._entries: list[tuple[int, int, str]] = []
        self._postings: dict[tuple[int, str], list[int]] = defaultdict(list)
        self.n_members = 0

    def add(self, digest: str) -> None:
        member = self.n_members
        self.n_members += 1
        for block_size, signature in expand_digest(digest):
            entry_id = len(self._entries)
            self._entries.append((member, block_size, signature))
            for gram in common_ngrams(signature):
                self._postings[(block_size, gram)].append(entry_id)

    def candidate_pairs(self, digests) -> frozenset:
        pairs = set()
        for query_index, digest in enumerate(digests):
            seen: set[int] = set()
            for block_size, signature in expand_digest(digest):
                for gram in common_ngrams(signature):
                    for entry_id in self._postings.get((block_size, gram), ()):
                        if entry_id in seen:
                            continue
                        seen.add(entry_id)
                        member, _block, member_sig = self._entries[entry_id]
                        pairs.add((query_index, member, signature,
                                   member_sig, block_size))
        return frozenset(pairs)

    def score_matrix(self, digests) -> np.ndarray:
        matrix = np.zeros((len(digests), self.n_members), dtype=np.float64)
        pairs = sorted(self.candidate_pairs(digests))
        if pairs:
            scores = score_signature_pairs(
                [p[2] for p in pairs], [p[3] for p in pairs],
                [p[4] for p in pairs])
            for (query, member, *_rest), score in zip(pairs, scores):
                if score > matrix[query, member]:
                    matrix[query, member] = score
        return matrix


def _new_candidate_pairs(index: SimilarityIndex, digests) -> frozenset:
    batch = index.collect_candidates({FT: list(digests)})
    queries, members, slots = batch.scatter[FT]
    return frozenset(
        (int(q), int(m), batch.left[int(s)], batch.right[int(s)],
         int(batch.block_sizes[int(s)]))
        for q, m, s in zip(queries, members, slots))


_blobs = st.lists(st.binary(min_size=200, max_size=1200), min_size=1,
                  max_size=6)
_seeds = st.randoms(use_true_random=False)


def _corpus_from_blobs(blobs, rnd):
    members = []
    for i, blob in enumerate(blobs):
        members.append((f"m{i}", {FT: fuzzy_hash(blob)}, f"class{i % 3}"))
        sibling = bytearray(blob)
        for _ in range(rnd.randrange(1, 6)):
            sibling[rnd.randrange(len(sibling))] = rnd.randrange(256)
        members.append((f"m{i}-sib", {FT: fuzzy_hash(bytes(sibling))},
                        f"class{i % 3}"))
        if rnd.random() < 0.3:
            # Exact duplicates exercise signature interning.
            members.append((f"m{i}-dup", dict(members[-1][1]), f"class{i % 3}"))
    return members


def _queries_for(members, rnd):
    queries = [digests[FT] for _, digests, _ in members]
    queries.append(fuzzy_hash(rnd.randbytes(600)))   # unrelated
    return queries


@_settings
@given(_blobs, _seeds)
def test_candidates_and_matrices_match_reference(blobs, rnd):
    members = _corpus_from_blobs(blobs, rnd)
    queries = _queries_for(members, rnd)

    reference = ReferenceCandidateIndex()
    for _, digests, _ in members:
        reference.add(digests[FT])
    index = SimilarityIndex([FT])
    index.add_many(members)

    assert _new_candidate_pairs(index, queries) == \
        reference.candidate_pairs(queries)
    assert np.array_equal(index.score_matrix(FT, queries),
                          reference.score_matrix(queries))


@_settings
@given(_blobs, _seeds)
def test_equivalence_survives_save_load(blobs, rnd):
    members = _corpus_from_blobs(blobs, rnd)
    queries = _queries_for(members, rnd)

    reference = ReferenceCandidateIndex()
    for _, digests, _ in members:
        reference.add(digests[FT])
    index = SimilarityIndex([FT])
    index.add_many(members)
    with tempfile.TemporaryDirectory() as tmp:
        loaded = SimilarityIndex.load(index.save(Path(tmp) / "i.rpsi"))

    assert _new_candidate_pairs(loaded, queries) == \
        reference.candidate_pairs(queries)
    assert np.array_equal(loaded.score_matrix(FT, queries),
                          reference.score_matrix(queries))
    for query in queries:
        assert loaded.top_k(query, len(members), min_score=0) == \
            index.top_k(query, len(members), min_score=0)


def test_sharded_matches_reference_after_removals():
    """A legacy sharded directory with tombstones loads as an index whose
    candidate layer matches the reference over its survivors."""

    legacy = load_index(LEGACY_DIR)
    reference = ReferenceCandidateIndex()
    for _, digests, _ in directory_survivors():
        reference.add(digests[FT])
    queries = [query[FT] for query in expected()["directory"]["queries"]]
    assert _new_candidate_pairs(legacy, queries) == \
        reference.candidate_pairs(queries)
    assert np.array_equal(legacy.score_matrix(FT, queries),
                          reference.score_matrix(queries))
