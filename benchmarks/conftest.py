"""Shared fixtures for the benchmark/reproduction harness.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md for the mapping).  The expensive pipeline stages — corpus
generation, feature extraction, the similarity matrices and the grid
search — run once per session and are shared by all benchmarks.

Scale is controlled by the ``REPRO_SCALE`` environment variable
(``small`` / ``medium`` / ``full``); the default ``medium`` runs all 92
classes with per-class sample counts capped so the whole suite finishes
in a few minutes on a small machine.  ``full`` reproduces the paper's
5300-sample corpus (expect a long run).

Each benchmark writes its table to ``benchmarks/output/<name>.txt`` and
prints it (visible with ``pytest -s``); EXPERIMENTS.md summarises the
paper-vs-measured comparison.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import default_config
from repro.core.evaluation import ExperimentRunner
from repro.core.gridsearch import FuzzyHashGridSearch, default_param_grid
from repro.core.splits import two_phase_split
from repro.corpus.builder import CorpusBuilder
from repro.features.pipeline import FeatureExtractionPipeline
from repro.features.similarity import SimilarityFeatureBuilder
from repro.logging_utils import configure_logging

OUTPUT_DIR = Path(__file__).parent / "output"

#: Seed used by every benchmark so results are reproducible run to run.
BENCH_SEED = 20241127


def pytest_configure(config):
    configure_logging("WARNING")
    OUTPUT_DIR.mkdir(exist_ok=True)


@pytest.fixture(scope="session")
def bench_config():
    """Experiment configuration at the selected benchmark scale."""

    scale = os.environ.get("REPRO_SCALE", "medium")
    n_jobs = int(os.environ.get("REPRO_JOBS", str(min(2, os.cpu_count() or 1))))
    return default_config(scale, seed=BENCH_SEED, n_jobs=n_jobs)


@pytest.fixture(scope="session")
def corpus_builder(bench_config):
    return CorpusBuilder(config=bench_config)


@pytest.fixture(scope="session")
def full_catalog_builder(bench_config):
    """Builder over the full 92-class catalogue regardless of scale.

    Used by benches that need one specific application class (Velvet,
    OpenMalaria) which the ``small`` preset's class subset may not
    include; generating a single class is cheap at any scale.
    """

    from repro.corpus.catalog import default_catalog

    config = bench_config.with_scale("medium") if bench_config.scale.max_classes \
        else bench_config
    return CorpusBuilder(catalog=default_catalog(), config=config)


@pytest.fixture(scope="session")
def corpus_samples(corpus_builder):
    """In-memory synthetic corpus at benchmark scale."""

    return corpus_builder.build_samples()


@pytest.fixture(scope="session")
def corpus_labels(corpus_samples):
    return [s.class_name for s in corpus_samples]


@pytest.fixture(scope="session")
def corpus_features(bench_config, corpus_samples):
    pipeline = FeatureExtractionPipeline(bench_config.feature_types,
                                         n_jobs=bench_config.n_jobs)
    return pipeline.extract_generated(corpus_samples)


@pytest.fixture(scope="session")
def paper_split(bench_config, corpus_labels):
    """The paper's two-phase split with Table 3's classes held out."""

    return two_phase_split(
        corpus_labels,
        unknown_class_fraction=bench_config.unknown_class_fraction,
        test_sample_fraction=bench_config.test_sample_fraction,
        unknown_label=bench_config.unknown_label,
        mode="paper",
        random_state=bench_config.seed,
    )


@pytest.fixture(scope="session")
def similarity_matrices(bench_config, corpus_features, paper_split):
    """(builder, train matrix, test matrix) shared by the model benches."""

    train_features = [corpus_features[i] for i in paper_split.train_indices]
    test_features = [corpus_features[i] for i in paper_split.test_indices]
    builder = SimilarityFeatureBuilder(bench_config.feature_types)
    train_matrix = builder.fit_transform(train_features, exclude_self=True)
    test_matrix = builder.transform(test_features)
    return builder, train_matrix, test_matrix


@pytest.fixture(scope="session")
def grid_outcome(bench_config, similarity_matrices, paper_split):
    """Joint Random-Forest / threshold grid search on the training set."""

    _, train_matrix, _ = similarity_matrices
    search = FuzzyHashGridSearch(
        param_grid=default_param_grid(budget=bench_config.scale.grid_search_budget,
                                      n_estimators=bench_config.scale.n_estimators),
        unknown_label=bench_config.unknown_label,
        random_state=bench_config.seed,
        n_jobs=bench_config.n_jobs,
    )
    return search.search(train_matrix.X, np.asarray(paper_split.train_labels,
                                                    dtype=object))


@pytest.fixture(scope="session")
def fitted_model(bench_config, similarity_matrices, paper_split, grid_outcome):
    """The final thresholded Random Forest fitted with the tuned parameters."""

    from repro.core.classifier import ThresholdRandomForest

    _, train_matrix, _ = similarity_matrices
    model = ThresholdRandomForest(
        confidence_threshold=grid_outcome.best_threshold,
        unknown_label=bench_config.unknown_label,
        random_state=bench_config.seed,
        class_weight="balanced",
        n_jobs=bench_config.n_jobs,
        **grid_outcome.best_params,
    )
    model.fit(train_matrix.X, np.asarray(paper_split.train_labels, dtype=object))
    return model


@pytest.fixture(scope="session")
def test_predictions(fitted_model, similarity_matrices):
    _, _, test_matrix = similarity_matrices
    return fitted_model.predict(test_matrix.X)


def emit(name: str, content: str) -> None:
    """Write a table to the output directory and echo it to stdout."""

    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(content + "\n", encoding="utf-8")
    print(f"\n=== {name} (written to {path}) ===")
    print(content)


@pytest.fixture()
def emit_table():
    return emit
