"""Benchmark: array-backed candidate generation vs the legacy dict walk.

The similarity index's n-gram gate — walking the inverted postings to
find which (query signature, member signature) pairs are even worth an
edit distance — used to be pure Python: ``dict[(block_size, gram)] ->
list[int]`` postings, nested loops, a per-query ``set`` and
``(str, str, int)`` de-duplication keys.  At corpus scale that walk,
not the vectorised DP, dominated ``top_k`` latency.  The index now
stores postings as sorted CSR arrays over exact ``(block_size, gram)``
keys (:mod:`repro.index.postings`) and generates candidates with one
``np.searchsorted`` + slab gather + ``np.unique`` sweep.

This benchmark re-implements the legacy walk as an in-file reference
(:class:`LegacyCandidateIndex` — a faithful port of the pre-columnar
``SimilarityIndex.collect_candidates``) and measures, on a synthetic
mutated-family corpus:

* **candidate generation** — legacy walk vs vectorised walk (the
  acceptance floor is 3x);
* **end-to-end ``top_k``** — legacy candidate walk + shared DP scoring
  vs the new index (floor 1.5x);
* **build memory** — tracemalloc resident and peak bytes of building
  the legacy postings vs the columnar index, measured on a same-size
  distinct-digest corpus (the general case, where per-key tuples and
  un-interned signatures cost the legacy layout the most);
* **bit-identical results** — ``top_k`` rankings, dense score matrices
  and the raw candidate-pair sets must agree exactly.

Run directly (``python benchmarks/bench_candidate_gen.py``, add
``--quick`` for the small CI configuration).  Exit status is non-zero
when any result diverges or a speedup floor is missed, so the script
doubles as a regression tripwire; a JSON trajectory is written to
``benchmarks/output/BENCH_candidate_gen.json`` for CI archiving.
``tests/test_candidate_bench_smoke.py`` runs the identity checks in
tier 1; its ``slow`` test keeps the speedup floors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.hashing.compare import common_ngrams
from repro.hashing.ssdeep import fuzzy_hash
from repro.index import SimilarityIndex
from repro.index.core import IndexMatch, expand_digest, \
    score_signature_pairs

OUTPUT_DIR = Path(__file__).parent / "output"

FEATURE_TYPE = "ssdeep-file"


class LegacyCandidateIndex:
    """The pre-columnar candidate layer, kept as a timing reference.

    A faithful port of the first-generation ``SimilarityIndex``
    internals: one ``_Entry``-style tuple per comparable signature,
    ``dict[(block_size, gram)] -> list[int]`` postings, per-query
    ``set`` de-duplication and ``(str, str, int)`` pair keys.  Scoring
    reuses the shared :func:`repro.index.core.score_signature_pairs`,
    so any timing difference is purely the candidate walk.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[int, int, str]] = []   # (member, block, sig)
        self._postings: dict[tuple[int, str], list[int]] = defaultdict(list)
        self._member_grams: dict[str, tuple[str, ...]] = {}
        self._sample_ids: list[str] = []
        self._class_names: list[str] = []

    def add(self, sample_id: str, digest: str, class_name: str = "") -> None:
        member = len(self._sample_ids)
        self._sample_ids.append(sample_id)
        self._class_names.append(class_name)
        for block_size, signature in expand_digest(digest):
            entry_id = len(self._entries)
            self._entries.append((member, block_size, signature))
            grams = self._member_grams.get(signature)
            if grams is None:
                grams = tuple(common_ngrams(signature))
                self._member_grams[signature] = grams
            for gram in grams:
                self._postings[(block_size, gram)].append(entry_id)

    @property
    def n_members(self) -> int:
        return len(self._sample_ids)

    def collect_candidates(self, digests: list[str]):
        """The legacy walk: returns ``(left, right, blocks, scatter)``."""

        left: list[str] = []
        right: list[str] = []
        block_sizes: list[int] = []
        pair_key_to_slot: dict[tuple[str, str, int], int] = {}
        pair_queries: list[int] = []
        pair_members: list[int] = []
        pair_slots: list[int] = []
        entries = self._entries
        postings = self._postings
        query_signatures = [dict(expand_digest(d)) for d in digests]
        for query_index, sig_by_block in enumerate(query_signatures):
            seen: set[int] = set()
            for block_size, signature in sig_by_block.items():
                for gram in common_ngrams(signature):
                    for entry_id in postings.get((block_size, gram), ()):
                        if entry_id in seen:
                            continue
                        seen.add(entry_id)
                        member, _block, member_sig = entries[entry_id]
                        key = (signature, member_sig, block_size)
                        slot = pair_key_to_slot.get(key)
                        if slot is None:
                            slot = len(left)
                            pair_key_to_slot[key] = slot
                            left.append(signature)
                            right.append(member_sig)
                            block_sizes.append(block_size)
                        pair_queries.append(query_index)
                        pair_members.append(member)
                        pair_slots.append(slot)
        return left, right, block_sizes, (pair_queries, pair_members,
                                          pair_slots)

    def score_matrix(self, digests: list[str]) -> np.ndarray:
        left, right, blocks, scatter = self.collect_candidates(digests)
        matrix = np.zeros((len(digests), self.n_members), dtype=np.float64)
        if left:
            scores = score_signature_pairs(left, right, blocks)
            pair_queries, pair_members, pair_slots = scatter
            np.maximum.at(matrix,
                          (np.asarray(pair_queries, dtype=np.int64),
                           np.asarray(pair_members, dtype=np.int64)),
                          scores[np.asarray(pair_slots, dtype=np.int64)])
        return matrix

    def top_k(self, digest: str, k: int = 10, min_score: int = 0
              ) -> list[IndexMatch]:
        best = self.score_matrix([digest])[0]
        order = np.argsort(-best, kind="stable")
        results: list[IndexMatch] = []
        for member in order:
            score = int(best[member])
            if score < min_score:
                break
            results.append(IndexMatch(member_index=int(member),
                                      sample_id=self._sample_ids[member],
                                      class_name=self._class_names[member],
                                      score=score))
            if len(results) == k:
                break
        return results


@dataclass(frozen=True)
class BenchResult:
    n_corpus: int
    n_queries: int
    n_candidate_pairs: int
    legacy_collect_seconds: float
    new_collect_seconds: float
    legacy_topk_seconds: float
    new_topk_seconds: float
    legacy_resident_bytes: int
    legacy_peak_bytes: int
    new_resident_bytes: int
    new_peak_bytes: int
    results_match: bool

    @property
    def collect_speedup(self) -> float:
        if self.new_collect_seconds <= 0:
            return float("inf")
        return self.legacy_collect_seconds / self.new_collect_seconds

    @property
    def topk_speedup(self) -> float:
        if self.new_topk_seconds <= 0:
            return float("inf")
        return self.legacy_topk_seconds / self.new_topk_seconds

    @property
    def peak_memory_ratio(self) -> float:
        if self.new_peak_bytes <= 0:
            return float("inf")
        return self.legacy_peak_bytes / self.new_peak_bytes

    @property
    def resident_memory_ratio(self) -> float:
        if self.new_resident_bytes <= 0:
            return float("inf")
        return self.legacy_resident_bytes / self.new_resident_bytes

    def table(self) -> str:
        lines = [
            f"corpus: {self.n_corpus} digests, {self.n_queries} queries, "
            f"{self.n_candidate_pairs} unique candidate pairs per batch",
            f"{'stage':<26} {'legacy (s)':>11} {'arrays (s)':>11} "
            f"{'speedup':>8}",
            f"{'candidate generation':<26} {self.legacy_collect_seconds:>11.3f} "
            f"{self.new_collect_seconds:>11.3f} {self.collect_speedup:>7.1f}x",
            f"{'end-to-end top_k':<26} {self.legacy_topk_seconds:>11.3f} "
            f"{self.new_topk_seconds:>11.3f} {self.topk_speedup:>7.1f}x",
            f"build memory (distinct-digest corpus, same size): "
            f"resident legacy {self.legacy_resident_bytes:,} B vs arrays "
            f"{self.new_resident_bytes:,} B "
            f"({self.resident_memory_ratio:.1f}x smaller); peak legacy "
            f"{self.legacy_peak_bytes:,} B vs arrays "
            f"{self.new_peak_bytes:,} B "
            f"({self.peak_memory_ratio:.1f}x smaller)",
            f"all results bit-identical: {self.results_match}",
        ]
        return "\n".join(lines)


def make_corpus(n: int, seed: int = 20260729, n_families: int = 2,
                versions_per_family: int = 8
                ) -> list[tuple[str, dict[str, str], str]]:
    """Synthetic corpus: few families, few release versions, many installs.

    Mirrors the workload the postings rebuild targets (a production
    fleet runs a bounded set of application versions, each installed on
    many nodes): every member carries one of ``versions_per_family``
    lightly-mutated digests, so posting buckets grow with corpus size
    while the distinct-signature count — and therefore the DP work —
    stays fixed.  That is precisely the regime where the candidate walk,
    not the edit distance, dominates legacy ``top_k`` latency.
    """

    rnd = random.Random(seed)
    bases = [rnd.randbytes(7000 + rnd.randrange(2000))
             for _ in range(n_families)]
    version_pools = []
    for family in range(n_families):
        pool = []
        for _ in range(versions_per_family):
            blob = bytearray(bases[family])
            for _ in range(rnd.randrange(1, 4)):
                blob[rnd.randrange(len(blob))] = rnd.randrange(256)
            pool.append(fuzzy_hash(bytes(blob)))
        version_pools.append(pool)
    members = []
    for i in range(n):
        family = i % n_families
        members.append((f"sample-{i:05d}",
                        {FEATURE_TYPE: rnd.choice(version_pools[family])},
                        f"family-{family:02d}"))
    return members


def _candidate_pair_set(left, right, blocks, scatter) -> frozenset:
    pair_queries, pair_members, pair_slots = scatter
    return frozenset(
        (int(q), int(m), left[int(s)], right[int(s)], int(blocks[int(s)]))
        for q, m, s in zip(pair_queries, pair_members, pair_slots))


def make_diverse_corpus(n: int, seed: int = 7, n_families: int = 6
                        ) -> list[tuple[str, dict[str, str], str]]:
    """Every member gets a distinct digest (the general-case corpus).

    This is where the legacy layout's memory weakness lives: one
    ``(block_size, gram)`` tuple dict key per distinct gram and one
    entry record plus un-interned signature string per member.  The
    columnar layout holds the same content as flat arrays plus an
    interned pool, so this corpus is used for the memory comparison.
    """

    rnd = random.Random(seed)
    bases = [rnd.randbytes(4000 + rnd.randrange(2000))
             for _ in range(n_families)]
    members = []
    for i in range(n):
        blob = bytearray(bases[i % n_families])
        for _ in range(rnd.randrange(2, 25)):
            blob[rnd.randrange(len(blob))] = rnd.randrange(256)
        members.append((f"sample-{i:05d}",
                        {FEATURE_TYPE: fuzzy_hash(bytes(blob))},
                        f"family-{i % n_families:02d}"))
    return members


def _measure_build_memory(corpus) -> tuple[int, int, int, int]:
    """Tracemalloc ``(legacy resident, legacy peak, new resident, new
    peak)`` of building the legacy vs columnar structures."""

    tracemalloc.start()
    legacy = LegacyCandidateIndex()
    for sample_id, digests, class_name in corpus:
        legacy.add(sample_id, digests[FEATURE_TYPE], class_name)
    legacy_resident, legacy_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del legacy

    tracemalloc.start()
    index = SimilarityIndex([FEATURE_TYPE])
    index.add_many(corpus)
    index.seal()
    new_resident, new_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del index
    return legacy_resident, legacy_peak, new_resident, new_peak


def run(n_corpus: int, n_queries: int, *, k: int = 10) -> BenchResult:
    corpus = make_corpus(n_corpus)
    rnd = random.Random(97)
    queries = [rnd.choice(corpus)[1][FEATURE_TYPE] for _ in range(n_queries)]

    legacy = LegacyCandidateIndex()
    for sample_id, digests, class_name in corpus:
        legacy.add(sample_id, digests[FEATURE_TYPE], class_name)
    index = SimilarityIndex([FEATURE_TYPE])
    index.add_many(corpus)
    index.seal()

    # Identity first: rankings, matrices and raw candidate sets.
    results_match = True
    for query in queries:
        if index.top_k(query, k, min_score=0) \
                != legacy.top_k(query, k, min_score=0):
            results_match = False
    legacy_matrix = legacy.score_matrix(queries)
    new_matrix = index.score_matrix(FEATURE_TYPE, queries)
    if not np.array_equal(legacy_matrix, new_matrix):
        results_match = False
    legacy_pairs = _candidate_pair_set(*legacy.collect_candidates(queries))
    batch = index.collect_candidates({FEATURE_TYPE: queries})
    new_pairs = _candidate_pair_set(batch.left, batch.right,
                                    batch.block_sizes,
                                    batch.scatter[FEATURE_TYPE])
    if legacy_pairs != new_pairs:
        results_match = False
    n_candidate_pairs = len(batch.left)

    # Timing: per-query loops, the serving pattern (warmed caches);
    # best of three repeats so one scheduler hiccup cannot flake the
    # tripwire floors.
    def best_of(fn, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    legacy_collect_seconds = best_of(
        lambda: [legacy.collect_candidates([q]) for q in queries])
    new_collect_seconds = best_of(
        lambda: [index.collect_candidates({FEATURE_TYPE: [q]})
                 for q in queries])
    legacy_topk_seconds = best_of(
        lambda: [legacy.top_k(q, k, min_score=0) for q in queries])
    new_topk_seconds = best_of(
        lambda: [index.top_k(q, k, min_score=0) for q in queries])

    memory = _measure_build_memory(make_diverse_corpus(n_corpus))

    return BenchResult(
        n_corpus=n_corpus,
        n_queries=n_queries,
        n_candidate_pairs=n_candidate_pairs,
        legacy_collect_seconds=legacy_collect_seconds,
        new_collect_seconds=new_collect_seconds,
        legacy_topk_seconds=legacy_topk_seconds,
        new_topk_seconds=new_topk_seconds,
        legacy_resident_bytes=memory[0],
        legacy_peak_bytes=memory[1],
        new_resident_bytes=memory[2],
        new_peak_bytes=memory[3],
        results_match=results_match,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small configuration for CI smoke runs")
    parser.add_argument("--corpus", type=int, default=None,
                        help="corpus size (default 8000, quick 1500)")
    parser.add_argument("--queries", type=int, default=None,
                        help="query count (default 30, quick 8)")
    parser.add_argument("--min-candidate-speedup", type=float, default=3.0,
                        help="fail (exit 1) when candidate generation is "
                             "not at least this much faster (0 disables)")
    parser.add_argument("--min-topk-speedup", type=float, default=1.5,
                        help="fail (exit 1) when end-to-end top_k is not "
                             "at least this much faster (0 disables)")
    args = parser.parse_args(argv)

    n_corpus = args.corpus if args.corpus else (1500 if args.quick else 8000)
    n_queries = args.queries if args.queries else (8 if args.quick else 30)
    result = run(n_corpus, n_queries)

    OUTPUT_DIR.mkdir(exist_ok=True)
    out = OUTPUT_DIR / "bench_candidate_gen.txt"
    out.write_text(result.table() + "\n", encoding="utf-8")
    trajectory = dict(asdict(result),
                      collect_speedup=result.collect_speedup,
                      topk_speedup=result.topk_speedup,
                      peak_memory_ratio=result.peak_memory_ratio,
                      resident_memory_ratio=result.resident_memory_ratio)
    (OUTPUT_DIR / "BENCH_candidate_gen.json").write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(result.table())
    print(f"(written to {out} and BENCH_candidate_gen.json)")

    if not result.results_match:
        print("FAIL: array-backed results diverge from the legacy reference",
              file=sys.stderr)
        return 1
    if args.min_candidate_speedup \
            and result.collect_speedup < args.min_candidate_speedup:
        print(f"FAIL: candidate-generation speedup "
              f"{result.collect_speedup:.1f}x is below the "
              f"{args.min_candidate_speedup:.1f}x floor", file=sys.stderr)
        return 1
    if args.min_topk_speedup and result.topk_speedup < args.min_topk_speedup:
        print(f"FAIL: end-to-end top_k speedup {result.topk_speedup:.1f}x "
              f"is below the {args.min_topk_speedup:.1f}x floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
