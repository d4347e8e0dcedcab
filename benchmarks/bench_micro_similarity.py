"""Micro-benchmarks of the similarity engine.

The similarity feature matrix is the computational core of the method:
millions of digest pairs at paper scale.  These benchmarks compare the
bit-parallel scoring kernel (``indel_distance``) against the weighted
Damerau DP it must agree with, and measure the end-to-end matrix
construction on the benchmark corpus.
"""

from __future__ import annotations

import random

import pytest

from repro.distance.damerau import weighted_edit_distance
from repro.distance.scoring import indel_distance
from repro.features.similarity import SimilarityFeatureBuilder

_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdef012345+/"


def _signature_pairs(n_pairs: int, seed: int = 0) -> tuple[list[str], list[str]]:
    rnd = random.Random(seed)
    left, right = [], []
    for _ in range(n_pairs):
        base = "".join(rnd.choices(_ALPHABET, k=rnd.randint(30, 64)))
        mutated = list(base)
        for _ in range(rnd.randint(0, 10)):
            mutated[rnd.randrange(len(mutated))] = rnd.choice(_ALPHABET)
        left.append(base)
        right.append("".join(mutated))
    return left, right


@pytest.mark.benchmark(group="micro-similarity")
def test_indel_distance_5000_pairs(benchmark):
    left, right = _signature_pairs(5000)
    distances = benchmark(lambda: list(map(indel_distance, left, right)))
    assert len(distances) == 5000


@pytest.mark.benchmark(group="micro-similarity")
def test_scalar_edit_distance_200_pairs(benchmark):
    left, right = _signature_pairs(200, seed=1)

    def run():
        return [weighted_edit_distance(a, b) for a, b in zip(left, right)]

    distances = benchmark(run)
    assert len(distances) == 200


@pytest.mark.benchmark(group="micro-similarity")
def test_indel_matches_scalar_throughput_sanity():
    """Correctness guard for the two timed paths above (same answers)."""

    left, right = _signature_pairs(300, seed=2)
    indel = list(map(indel_distance, left, right))
    scalar = [weighted_edit_distance(a, b) for a, b in zip(left, right)]
    assert indel == scalar


@pytest.mark.benchmark(group="micro-similarity")
def test_similarity_matrix_construction(benchmark, bench_config, corpus_features,
                                        paper_split):
    train_features = [corpus_features[i] for i in paper_split.train_indices]
    query_features = [corpus_features[i] for i in paper_split.test_indices[:200]]
    builder = SimilarityFeatureBuilder(bench_config.feature_types)
    builder.fit(train_features)
    matrix = benchmark.pedantic(lambda: builder.transform(query_features),
                                rounds=1, iterations=2)
    assert matrix.n_samples == len(query_features)
