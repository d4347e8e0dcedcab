"""Benchmark: vector-digest recall ablation and packed-Hamming throughput.

The second hash family (:mod:`repro.hashing.vector`) exists for the
regimes where CTPH breaks down: scattered point mutations destroy the
7-gram substring gate, while the vector digest's rank-quartile bucket
histogram moves only a few of its 256 bits.  This benchmark quantifies
that claim and guards the packed kNN sweep's speed:

* **recall ablation** — three mutation scenarios (scattered single-byte
  edits on small inputs, appended tails, inserted zero padding), each a
  multi-class corpus of mutated variants.  For every scenario the
  top-1-neighbour recall of the CTPH family, the vector family and the
  dual-family combination (per-member max over both score blocks, the
  same aggregation :class:`~repro.features.similarity.SimilarityFeatureBuilder`
  applies) is measured against held-out variants.  The tripwire is the
  ISSUE's acceptance rule: **dual-family recall >= CTPH-only recall in
  every scenario**, enforced unconditionally;
* **kNN throughput** — :meth:`repro.index.SimilarityIndex.top_k` over
  a vector digest (one XOR + popcount-LUT sweep over the vector store's
  packed ``(n, 4)`` ``uint64`` matrix, the path ``serve`` and ``index
  query`` take) against :func:`repro.index.knn.brute_force_top_k` (the
  per-pair Python loop).  Results must be bit-identical; the speedup
  floor is 5x by default (the packed sweep is typically two orders of
  magnitude faster — the floor is a tripwire, not a target).

Run directly (``python benchmarks/bench_vector_digest.py``, add
``--quick`` for the small CI configuration).  Exit status is non-zero
when results diverge, a recall ordering is violated or the speedup
floor is missed; a JSON trajectory is written to
``benchmarks/output/BENCH_vector_digest.json`` for CI archiving.
``tests/test_vector_bench_smoke.py`` runs the identity and recall
checks (plus a conservative speedup floor) in tier 1.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.hashing.ssdeep import fuzzy_hash
from repro.hashing.vector import vector_hash
from repro.index import SimilarityIndex, brute_force_top_k

OUTPUT_DIR = Path(__file__).parent / "output"

CTPH_TYPE = "ssdeep-file"
VECTOR_TYPE = "vector-file"

#: The recall scenarios: name -> mutation regime.
SCENARIOS = ("scattered", "appended", "padded")


def _mutate(rnd: random.Random, base: bytes, scenario: str) -> bytes:
    """One variant of ``base`` under the scenario's mutation regime."""

    if scenario == "scattered":
        # Point mutations dispersed across the whole blob: every edit
        # lands in a different CTPH chunk, so the 7-gram gate starves.
        blob = bytearray(base)
        for _ in range(rnd.randrange(8, 33)):
            blob[rnd.randrange(len(blob))] = rnd.randrange(256)
        return bytes(blob)
    if scenario == "appended":
        # A grown tail: the shared prefix keeps CTPH chunks intact.
        tail = rnd.randbytes(max(16, len(base) // rnd.randrange(7, 20)))
        return base + tail
    if scenario == "padded":
        # A zero block inserted at a random offset (section padding).
        offset = rnd.randrange(len(base))
        pad = b"\x00" * max(64, len(base) // 10)
        return base[:offset] + pad + base[offset:]
    raise ValueError(f"unknown scenario {scenario!r}")


def make_scenario_corpus(scenario: str, n_classes: int, n_variants: int,
                         *, blob_size: int = 6 * 1024, seed: int = 20260807
                         ) -> list[tuple[str, bytes]]:
    """``(class_name, blob)`` members: per class, mutated variants."""

    rnd = random.Random(f"{scenario}-{seed}")
    members = []
    for c in range(n_classes):
        base = rnd.randbytes(blob_size + rnd.randrange(blob_size // 2))
        for _ in range(n_variants):
            members.append((f"class-{c:02d}", _mutate(rnd, base, scenario)))
    return members


@dataclass(frozen=True)
class ScenarioRecall:
    scenario: str
    n_members: int
    n_queries: int
    ctph_recall: float
    vector_recall: float
    both_recall: float


@dataclass(frozen=True)
class BenchResult:
    scenarios: tuple[ScenarioRecall, ...]
    knn_members: int
    knn_queries: int
    loop_seconds: float
    packed_seconds: float
    results_match: bool

    @property
    def knn_speedup(self) -> float:
        if self.packed_seconds <= 0:
            return float("inf")
        return self.loop_seconds / self.packed_seconds

    @property
    def recall_ordering_holds(self) -> bool:
        return all(s.both_recall >= s.ctph_recall for s in self.scenarios)

    def table(self) -> str:
        lines = [
            f"{'scenario':<12} {'members':>7} {'queries':>7} "
            f"{'ctph@1':>7} {'vector@1':>8} {'both@1':>7}",
        ]
        for s in self.scenarios:
            lines.append(f"{s.scenario:<12} {s.n_members:>7} "
                         f"{s.n_queries:>7} {s.ctph_recall:>7.2f} "
                         f"{s.vector_recall:>8.2f} {s.both_recall:>7.2f}")
        lines += [
            f"dual-family recall >= ctph-only in every scenario: "
            f"{self.recall_ordering_holds}",
            f"kNN top-k over {self.knn_members} members, "
            f"{self.knn_queries} queries: per-pair loop "
            f"{self.loop_seconds:.3f} s vs packed sweep "
            f"{self.packed_seconds:.3f} s ({self.knn_speedup:.1f}x)",
            f"packed top-k bit-identical to the per-pair loop: "
            f"{self.results_match}",
        ]
        return "\n".join(lines)


def measure_recall(scenario: str, n_classes: int, n_variants: int,
                   *, blob_size: int = 6 * 1024) -> ScenarioRecall:
    """Top-1 recall of each family with one held-out query per class."""

    members = make_scenario_corpus(scenario, n_classes, n_variants,
                                   blob_size=blob_size)
    queries: list[tuple[str, bytes]] = []
    corpus: list[tuple[str, bytes]] = []
    seen: set[str] = set()
    for class_name, blob in members:
        if class_name not in seen:       # first variant of each class
            seen.add(class_name)
            queries.append((class_name, blob))
        else:
            corpus.append((class_name, blob))

    index = SimilarityIndex([CTPH_TYPE, VECTOR_TYPE])
    for i, (class_name, blob) in enumerate(corpus):
        index.add(f"{scenario}-{i:05d}",
                  {CTPH_TYPE: fuzzy_hash(blob),
                   VECTOR_TYPE: vector_hash(blob)},
                  class_name=class_name)
    index.seal()

    ctph_matrix = index.score_matrix(CTPH_TYPE,
                                     [fuzzy_hash(b) for _, b in queries])
    vector_matrix = index.score_matrix(VECTOR_TYPE,
                                       [vector_hash(b) for _, b in queries])
    both_matrix = np.maximum(ctph_matrix, vector_matrix)
    classes = np.asarray([c for c, _ in corpus], dtype=object)

    def recall(matrix: np.ndarray) -> float:
        hits = 0
        for q, (query_class, _) in enumerate(queries):
            row = matrix[q]
            best = int(np.argmax(row))
            if row[best] > 0 and classes[best] == query_class:
                hits += 1
        return hits / len(queries)

    return ScenarioRecall(scenario=scenario, n_members=len(corpus),
                          n_queries=len(queries),
                          ctph_recall=recall(ctph_matrix),
                          vector_recall=recall(vector_matrix),
                          both_recall=recall(both_matrix))


def measure_knn(n_members: int, n_queries: int, *, k: int = 10
                ) -> tuple[float, float, bool]:
    """(loop seconds, packed seconds, bit-identical) for top-k queries."""

    rnd = random.Random(1307)
    members = []
    for i in range(n_members):
        blob = rnd.randbytes(1024 + rnd.randrange(2048))
        members.append((f"member-{i:06d}", f"class-{i % 11:02d}",
                        vector_hash(blob)))
    queries = [members[rnd.randrange(n_members)][2]
               for _ in range(n_queries)]

    index = SimilarityIndex([VECTOR_TYPE])
    for sample_id, class_name, digest in members:
        index.add(sample_id, {VECTOR_TYPE: digest}, class_name=class_name)

    results_match = all(
        index.top_k(q, k, min_score=0) ==
        brute_force_top_k(members, q, k, min_score=0)
        for q in queries)

    def best_of(fn, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    loop_seconds = best_of(
        lambda: [brute_force_top_k(members, q, k, min_score=0)
                 for q in queries])
    packed_seconds = best_of(
        lambda: [index.top_k(q, k, min_score=0) for q in queries])
    return loop_seconds, packed_seconds, results_match


def run(n_classes: int, n_variants: int, knn_members: int, knn_queries: int,
        *, blob_size: int = 6 * 1024) -> BenchResult:
    scenarios = tuple(measure_recall(s, n_classes, n_variants,
                                     blob_size=blob_size)
                      for s in SCENARIOS)
    loop_seconds, packed_seconds, results_match = measure_knn(knn_members,
                                                              knn_queries)
    return BenchResult(scenarios=scenarios, knn_members=knn_members,
                       knn_queries=knn_queries, loop_seconds=loop_seconds,
                       packed_seconds=packed_seconds,
                       results_match=results_match)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small configuration for CI smoke runs")
    parser.add_argument("--classes", type=int, default=None,
                        help="recall corpus classes (default 12, quick 6)")
    parser.add_argument("--variants", type=int, default=None,
                        help="variants per class (default 8, quick 5)")
    parser.add_argument("--knn-members", type=int, default=None,
                        help="kNN corpus size (default 4000, quick 1000)")
    parser.add_argument("--knn-queries", type=int, default=None,
                        help="kNN query count (default 25, quick 8)")
    parser.add_argument("--min-knn-speedup", type=float, default=5.0,
                        help="fail (exit 1) when the packed sweep is not "
                             "at least this much faster than the per-pair "
                             "loop (0 disables)")
    args = parser.parse_args(argv)

    n_classes = args.classes or (6 if args.quick else 12)
    n_variants = args.variants or (5 if args.quick else 8)
    knn_members = args.knn_members or (1000 if args.quick else 4000)
    knn_queries = args.knn_queries or (8 if args.quick else 25)
    blob_size = 3 * 1024 if args.quick else 6 * 1024
    result = run(n_classes, n_variants, knn_members, knn_queries,
                 blob_size=blob_size)

    OUTPUT_DIR.mkdir(exist_ok=True)
    out = OUTPUT_DIR / "bench_vector_digest.txt"
    out.write_text(result.table() + "\n", encoding="utf-8")
    trajectory = dict(asdict(result),
                      knn_speedup=result.knn_speedup,
                      recall_ordering_holds=result.recall_ordering_holds)
    (OUTPUT_DIR / "BENCH_vector_digest.json").write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(result.table())
    print(f"(written to {out} and BENCH_vector_digest.json)")

    if not result.results_match:
        print("FAIL: packed top-k diverges from the per-pair reference",
              file=sys.stderr)
        return 1
    if not result.recall_ordering_holds:
        print("FAIL: dual-family recall fell below CTPH-only recall",
              file=sys.stderr)
        return 1
    if args.min_knn_speedup and result.knn_speedup < args.min_knn_speedup:
        print(f"FAIL: packed kNN speedup {result.knn_speedup:.1f}x is "
              f"below the {args.min_knn_speedup:.1f}x floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
