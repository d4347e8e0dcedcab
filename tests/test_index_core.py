"""Tests for the persistent similarity index: construction, queries,
exact agreement with brute-force scoring, and the pairwise budget."""

import logging
import random

import numpy as np
import pytest

from repro.distance.damerau import weighted_edit_distance
from repro.distance.scoring import ssdeep_score_from_distance
from repro.exceptions import DigestFormatError, ValidationError
from repro.hashing.compare import has_common_substring, normalize_repeats
from repro.hashing.ssdeep import FuzzyHasher, fuzzy_hash
from repro.index import SimilarityIndex, expand_digest


def make_corpus(n, *, seed=0, n_families=12, feature_type="ssdeep-file",
                base_size=2500, hash_fn=fuzzy_hash):
    """Synthetic digest corpus with family structure (non-trivial top-k)."""

    rnd = random.Random(seed)
    bases = [bytes(rnd.randrange(256) for _ in range(base_size))
             for _ in range(n_families)]
    members = []
    for i in range(n):
        blob = bytearray(bases[i % n_families])
        for _ in range(rnd.randrange(1, 50)):
            blob[rnd.randrange(len(blob))] = rnd.randrange(256)
        members.append((f"s{i:04d}", {feature_type: hash_fn(bytes(blob))},
                        f"fam{i % n_families}"))
    return members


def adaptive_hash(data):
    """Size-adaptive digest: inputs of 16 KiB or more get 96- or
    128-character signatures instead of 64."""

    return str(FuzzyHasher(adaptive=True).hash(data))


def brute_force_score(query_digest, member_digest):
    """Reference scorer implementing the index's documented semantics:
    equal-block-size expansion, run normalisation, the 7-gram
    precondition, weighted edit distance, identical -> 100."""

    best = 0
    for bs_q, sig_q in expand_digest(query_digest):
        for bs_m, sig_m in expand_digest(member_digest):
            if bs_q != bs_m:
                continue
            if not has_common_substring(sig_q, sig_m):
                continue
            if sig_q == sig_m:
                score = 100
            else:
                score = int(ssdeep_score_from_distance(
                    weighted_edit_distance(sig_q, sig_m),
                    len(sig_q), len(sig_m), bs_q))
            best = max(best, score)
    return best


@pytest.fixture(scope="module")
def corpus300():
    return make_corpus(300, seed=42)


@pytest.fixture(scope="module")
def index300(corpus300):
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(corpus300)
    return index


# ------------------------------------------------------------- construction
def test_add_returns_consecutive_member_indices():
    index = SimilarityIndex(["ssdeep-file"])
    d = fuzzy_hash(b"hello world" * 50)
    assert index.add("a", {"ssdeep-file": d}) == 0
    assert index.add("b", {"ssdeep-file": d}, class_name="X") == 1
    assert index.n_members == 2
    assert len(index) == 2
    assert index.sample_ids == ("a", "b")
    assert index.class_names == ("", "X")
    assert index.members_for_id("a") == frozenset({0})
    assert index.members_for_id("missing") == frozenset()


def test_incremental_add_equals_add_many(corpus300):
    subset = corpus300[:60]
    bulk = SimilarityIndex(["ssdeep-file"])
    bulk.add_many(subset)
    incremental = SimilarityIndex(["ssdeep-file"])
    for sample_id, digests, class_name in subset:
        incremental.add(sample_id, digests, class_name=class_name)
    query = subset[7][1]["ssdeep-file"]
    assert bulk.top_k(query, 20) == incremental.top_k(query, 20)
    assert bulk.stats() == incremental.stats()


def test_add_rejects_bad_inputs():
    index = SimilarityIndex(["ssdeep-file"])
    with pytest.raises(ValidationError):
        index.add("", {})
    with pytest.raises(ValidationError):
        index.add("x", "3:abc:def")  # digests must be a mapping
    with pytest.raises(DigestFormatError):
        index.add("x", {"ssdeep-file": "not a digest"})
    # A failed add must not leave a half-registered member behind.
    assert index.n_members == 0
    assert index.members_for_id("x") == frozenset()


def test_constructor_validation():
    with pytest.raises(ValidationError):
        SimilarityIndex([])
    with pytest.raises(ValidationError):
        SimilarityIndex(["a", "a"])
    with pytest.raises(ValidationError):
        SimilarityIndex(["a"], ngram_length=0)


def test_unknown_feature_type_rejected(index300):
    with pytest.raises(ValidationError):
        index300.top_k("3:abc:def", feature_type="nope")
    with pytest.raises(ValidationError):
        index300.score_matrix("nope", ["3:abc:def"])
    with pytest.raises(ValidationError):
        index300.pairwise_matrix("nope")


# ------------------------------------------------------------------ queries
def test_top_k_exact_agreement_with_brute_force(corpus300, index300):
    """Acceptance criterion: top_k must agree exactly with brute-force
    scoring on a randomized 300-digest corpus, and on an adaptive-mode
    corpus whose signatures run past 64 characters."""

    adaptive = make_corpus(60, seed=43, n_families=6, base_size=20_000,
                           hash_fn=adaptive_hash)
    assert max(len(sig) for _, digests, _ in adaptive
               for _, sig in expand_digest(digests["ssdeep-file"])) > 64
    adaptive_index = SimilarityIndex(["ssdeep-file"])
    adaptive_index.add_many(adaptive)

    rnd = random.Random(7)
    for corpus, index, hash_fn, n_queries in (
            (corpus300, index300, fuzzy_hash, 12),
            (adaptive, adaptive_index, adaptive_hash, 6)):
        queries = [rnd.choice(corpus)[1]["ssdeep-file"]
                   for _ in range(n_queries)]
        queries += [hash_fn(rnd.randbytes(4000)) for _ in range(3)]
        for query in queries:
            expected = {}
            for member, (_, digests, _) in enumerate(corpus):
                score = brute_force_score(query, digests["ssdeep-file"])
                if score >= 1:
                    expected[member] = score
            got = index.top_k(query, k=len(corpus), min_score=1)
            assert {m.member_index: m.score for m in got} == expected
            # Ordering: descending score, ties by ascending member index.
            keys = [(-m.score, m.member_index) for m in got]
            assert keys == sorted(keys)


def test_top_k_respects_k_min_score_and_exclusions(corpus300, index300):
    query_id, query_digests, _ = corpus300[5]
    query = query_digests["ssdeep-file"]
    top = index300.top_k(query, 5)
    assert len(top) <= 5
    assert top[0].sample_id == query_id and top[0].score == 100
    filtered = index300.top_k(query, 300, min_score=80)
    assert all(m.score >= 80 for m in filtered)
    excluded = index300.top_k(query, 5, exclude_ids=[query_id])
    assert all(m.sample_id != query_id for m in excluded)
    with pytest.raises(ValidationError):
        index300.top_k(query, 0)
    with pytest.raises(ValidationError):
        index300.top_k(query, 5, min_score=101)


def test_top_k_on_empty_index():
    assert SimilarityIndex(["ssdeep-file"]).top_k("3:abcdefgh:ijkl") == []


def test_score_matrix_exclude_broadcasts(index300, corpus300):
    digests = [corpus300[i][1]["ssdeep-file"] for i in (0, 1)]
    full = index300.score_matrix("ssdeep-file", digests)
    masked = index300.score_matrix("ssdeep-file", digests, exclude=[{0, 1}])
    assert masked[:, [0, 1]].max() == 0
    keep = np.ones(index300.n_members, dtype=bool)
    keep[[0, 1]] = False
    assert np.array_equal(masked[:, keep], full[:, keep])
    with pytest.raises(ValidationError):
        index300.score_matrix("ssdeep-file", digests, exclude=[{0}, {1}, {2}])


def test_short_identical_signatures_never_match():
    """The documented 7-gram precondition: signatures shorter than the
    n-gram length never match, even when identical."""

    index = SimilarityIndex(["ssdeep-file"])
    index.add("short", {"ssdeep-file": "3:abc:de"})
    assert index.top_k("3:abc:de") == []


# ----------------------------------------------------------------- pairwise
def test_pairwise_matrix_scores_match_brute_force(corpus300):
    subset = corpus300[:80]
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(subset)
    pairs = index.pairwise_matrix(min_score=1)
    assert pairs, "family corpus must produce similar pairs"
    by_pair = {(p.i, p.j): p.score for p in pairs}
    # Candidate generation must not miss any above-zero pair...
    for i in range(len(subset)):
        for j in range(i + 1, len(subset)):
            expected = brute_force_score(subset[i][1]["ssdeep-file"],
                                         subset[j][1]["ssdeep-file"])
            assert by_pair.get((i, j), 0) == expected
    # ...and the result is (i, j)-sorted with i < j.
    assert list(by_pair) == sorted(by_pair)
    assert all(i < j for i, j in by_pair)


def test_pairwise_budget_logs_dropped_pairs(corpus300, caplog):
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(corpus300[:60])
    unbudgeted = index.pairwise_matrix(min_score=0)
    budget = max(1, len(unbudgeted) // 3)
    with caplog.at_level(logging.WARNING, logger="repro.index.core"):
        budgeted = index.pairwise_matrix(max_pairs=budget, min_score=0)
    assert len(budgeted) <= budget
    assert any("dropping" in record.message and "max_pairs" in record.message
               for record in caplog.records), \
        "truncation must be logged, never silent"
    with pytest.raises(ValidationError):
        index.pairwise_matrix(max_pairs=0)


# -------------------------------------------------------------------- stats
def test_stats_counters(index300, corpus300):
    stats = index300.stats()
    assert stats["members"] == 300
    assert stats["classes"] == 12
    assert stats["labelled_members"] == 300
    assert stats["ngram_length"] == 7
    info = stats["feature_types"]["ssdeep-file"]
    assert info["entries"] > 0
    assert info["postings"] > 0
    assert info["block_sizes"] == sorted(info["block_sizes"])


def test_expand_digest_normalises_and_doubles():
    pairs = expand_digest("6:aaaaaabcdefg:hhhhhijk")
    assert pairs == [(6, "aaabcdefg"), (12, "hhhijk")]
    assert expand_digest("") == []
    assert expand_digest("3::") == []
