"""End-to-end experiment runner.

:class:`ExperimentRunner` reproduces the paper's full pipeline:

1. generate (or scan) the application corpus,
2. extract the three fuzzy-hash features per sample,
3. two-phase train/test split (known/unknown classes, stratified
   samples),
4. build the similarity feature matrices (training samples as anchors),
5. grid-search the Random-Forest hyper-parameters and the confidence
   threshold within the training set,
6. fit the final model, classify the test set,
7. produce the classification report (Table 4), the per-hash-type
   feature importances (Table 5), the threshold sweep (Figure 3) and
   the unknown-class composition (Table 3).

Every benchmark and most examples are thin wrappers over this runner.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..analysis.importance import group_importances
from ..config import ExperimentConfig, default_config
from ..corpus.builder import CorpusBuilder, GeneratedSample
from ..corpus.catalog import ApplicationCatalog
from ..corpus.dataset import CorpusDataset
from ..corpus.scanner import CorpusScanner
from ..exceptions import EvaluationError
from ..features.pipeline import FeatureExtractionPipeline
from ..features.records import SampleFeatures
from ..features.similarity import SimilarityFeatureBuilder
from ..logging_utils import get_logger
from ..ml.metrics import ClassificationReport, classification_report, confusion_matrix
from ..parallel.timing import Stopwatch
from .classifier import ThresholdRandomForest
from .gridsearch import FuzzyHashGridSearch, GridSearchOutcome, default_param_grid
from .splits import TwoPhaseSplit, two_phase_split
from .thresholds import ThresholdSweep

__all__ = ["ExperimentResult", "ExperimentRunner"]

_LOG = get_logger("core.evaluation")


@dataclass
class ExperimentResult:
    """Everything one end-to-end run produces."""

    config: ExperimentConfig
    split: TwoPhaseSplit
    report: ClassificationReport
    grouped_importance: dict[str, float]
    grid_outcome: GridSearchOutcome | None
    threshold_sweep: ThresholdSweep | None
    best_threshold: float
    predictions: list
    expected: list
    test_sample_ids: list[str]
    timings: dict[str, float] = field(default_factory=dict)
    n_features: int = 0

    @property
    def macro_f1(self) -> float:
        return self.report.macro_f1

    @property
    def micro_f1(self) -> float:
        return self.report.micro_f1

    @property
    def weighted_f1(self) -> float:
        return self.report.weighted_f1

    def confusion(self) -> np.ndarray:
        return confusion_matrix(self.expected, self.predictions)

    def summary(self) -> str:
        return (f"macro f1 {self.macro_f1:.3f}, micro f1 {self.micro_f1:.3f}, "
                f"weighted f1 {self.weighted_f1:.3f} on {len(self.expected)} "
                f"test samples ({self.split.n_unknown_test} unknown-class); "
                f"threshold {self.best_threshold:.2f}; "
                f"feature importance {self.grouped_importance}")


class ExperimentRunner:
    """Drives the full pipeline for one configuration.

    Parameters
    ----------
    config:
        Experiment configuration (scale preset, seed, split fractions,
        anchor strategy, feature types...).
    split_mode:
        ``"paper"`` holds out exactly the paper's Table 3 classes (when
        present); ``"random"`` draws the unknown classes at random.
    catalog:
        Optional custom application catalogue.
    use_disk:
        Materialise the corpus on disk and run the scanner (slower but
        exercises the full collection path); otherwise samples are
        generated in memory.
    workdir:
        Directory for the on-disk corpus when ``use_disk`` is set.
    run_grid_search:
        Tune hyper-parameters/threshold (otherwise defaults plus
        ``config.confidence_threshold`` are used).
    """

    def __init__(self, config: ExperimentConfig | None = None, *,
                 split_mode: str = "paper",
                 catalog: ApplicationCatalog | None = None,
                 use_disk: bool = False,
                 workdir: str | os.PathLike | None = None,
                 run_grid_search: bool = True) -> None:
        self.config = (config or default_config()).validate()
        self.split_mode = split_mode
        self.catalog = catalog
        self.use_disk = bool(use_disk)
        self.workdir = workdir
        self.run_grid_search = bool(run_grid_search)
        if self.use_disk and self.workdir is None:
            raise EvaluationError("use_disk=True requires a workdir")

    # ----------------------------------------------------------------- API
    def build_corpus(self) -> tuple[list[GeneratedSample] | CorpusDataset, list[str]]:
        """Generate the corpus; returns ``(samples_or_dataset, labels)``."""

        builder = CorpusBuilder(catalog=self.catalog, config=self.config)
        if self.use_disk:
            dataset = builder.materialize_tree(self.workdir)
            scan = CorpusScanner(self.workdir).scan()
            return scan.dataset, scan.dataset.labels
        samples = builder.build_samples()
        return samples, [s.class_name for s in samples]

    def extract_features(self, corpus) -> list[SampleFeatures]:
        """Extract fuzzy-hash features from the generated corpus."""

        pipeline = FeatureExtractionPipeline(self.config.feature_types,
                                             n_jobs=self.config.n_jobs)
        if isinstance(corpus, CorpusDataset):
            return pipeline.extract_dataset(corpus)
        return pipeline.extract_generated(corpus)

    def run(self) -> ExperimentResult:
        """Execute the whole experiment and return its results."""

        watch = Stopwatch()
        watch.start("corpus")
        corpus, labels = self.build_corpus()
        watch.start("features")
        features = self.extract_features(corpus)
        watch.start("split")
        split = two_phase_split(
            labels,
            unknown_class_fraction=self.config.unknown_class_fraction,
            test_sample_fraction=self.config.test_sample_fraction,
            unknown_label=self.config.unknown_label,
            mode=self.split_mode,
            random_state=self.config.seed,
        )
        train_features = [features[i] for i in split.train_indices]
        test_features = [features[i] for i in split.test_indices]

        watch.start("similarity")
        builder = SimilarityFeatureBuilder(self.config.feature_types)
        train_matrix = builder.fit_transform(train_features, exclude_self=True)
        test_matrix = builder.transform(test_features)
        y_train = np.asarray(split.train_labels, dtype=object)

        grid_outcome: GridSearchOutcome | None = None
        sweep: ThresholdSweep | None = None
        watch.start("grid-search")
        if self.run_grid_search:
            grid = FuzzyHashGridSearch(
                param_grid=default_param_grid(
                    budget=self.config.scale.grid_search_budget,
                    n_estimators=self.config.scale.n_estimators),
                unknown_label=self.config.unknown_label,
                random_state=self.config.seed,
                n_jobs=self.config.n_jobs,
            )
            grid_outcome = grid.search(train_matrix.X, y_train)
            sweep = grid_outcome.threshold_sweep
            best_params = grid_outcome.best_params
            best_threshold = (self.config.confidence_threshold
                              if self.config.confidence_threshold is not None
                              else grid_outcome.best_threshold)
        else:
            best_params = default_param_grid(
                budget=1, n_estimators=self.config.scale.n_estimators)[0]
            best_threshold = (self.config.confidence_threshold
                              if self.config.confidence_threshold is not None
                              else 0.5)

        watch.start("final-fit")
        model = ThresholdRandomForest(
            confidence_threshold=best_threshold,
            unknown_label=self.config.unknown_label,
            random_state=self.config.seed,
            n_jobs=self.config.n_jobs,
            class_weight="balanced",
            **best_params,
        )
        model.fit(train_matrix.X, y_train)

        watch.start("predict")
        predictions = model.predict(test_matrix.X).tolist()
        expected = list(split.expected_test_labels)

        watch.start("report")
        report = classification_report(expected, predictions)
        grouped = group_importances(model.feature_importances_,
                                    train_matrix.feature_groups)
        watch.stop()

        result = ExperimentResult(
            config=self.config,
            split=split,
            report=report,
            grouped_importance=grouped,
            grid_outcome=grid_outcome,
            threshold_sweep=sweep,
            best_threshold=best_threshold,
            predictions=predictions,
            expected=expected,
            test_sample_ids=[f.sample_id for f in test_features],
            timings=watch.laps,
            n_features=train_matrix.n_features,
        )
        _LOG.info("experiment finished: %s", result.summary())
        return result
