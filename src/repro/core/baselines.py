"""Baselines the paper motivates against or proposes as future work.

* :class:`CryptoHashBaseline` — exact cryptographic-hash matching, the
  technique the paper explicitly contrasts with fuzzy hashing
  ("cryptographic hashes can only be used to find exact matches");
* :class:`ExecutableNameBaseline` — label by executable file name, the
  unreliable identifier the introduction warns about (names like
  ``a.out`` can be reused arbitrarily);
* KNN and linear-SVM models over the *same* similarity feature matrix,
  the comparator models named in the paper's future work.

:func:`run_baseline_comparison` evaluates all of them (plus the Fuzzy
Hash Classifier's own Random Forest) under the identical two-phase
split and reports macro/micro/weighted f1 for each.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import NotFittedError, ValidationError
from ..features.records import SampleFeatures
from ..logging_utils import get_logger
from ..ml.linear import LinearSVMClassifier
from ..ml.metrics import f1_score
from ..ml.neighbors import KNeighborsClassifier
from .classifier import ThresholdRandomForest
from .thresholds import apply_threshold

__all__ = ["BaselineOutcome", "CryptoHashBaseline", "ExecutableNameBaseline",
           "run_baseline_comparison"]

_LOG = get_logger("core.baselines")


@dataclass(frozen=True)
class BaselineOutcome:
    """Scores of one baseline under the shared evaluation protocol."""

    name: str
    macro_f1: float
    micro_f1: float
    weighted_f1: float
    unknown_recall: float

    def as_row(self) -> dict:
        return {
            "baseline": self.name,
            "macro_f1": self.macro_f1,
            "micro_f1": self.micro_f1,
            "weighted_f1": self.weighted_f1,
            "unknown_recall": self.unknown_recall,
        }


class CryptoHashBaseline:
    """Exact-match classification by cryptographic digest.

    A test sample receives the class of a training sample with an
    identical SHA-256 — otherwise it is labelled unknown.  This
    recognises repeated executions of the *same* binary but, as the
    paper argues, cannot bridge version or compiler changes.
    """

    def __init__(self, unknown_label=-1) -> None:
        self.unknown_label = unknown_label

    def fit(self, features: Sequence[SampleFeatures], y: Sequence[str] | None = None
            ) -> "CryptoHashBaseline":
        labels = list(y) if y is not None else [f.class_name for f in features]
        if len(labels) != len(features):
            raise ValidationError("y must align with features")
        self._lookup: dict[str, str] = {}
        for feature, label in zip(features, labels):
            if feature.sha256:
                self._lookup[feature.sha256] = label
        return self

    def predict(self, features: Sequence[SampleFeatures]) -> np.ndarray:
        if not hasattr(self, "_lookup"):
            raise NotFittedError("CryptoHashBaseline is not fitted")
        return np.array(
            [self._lookup.get(f.sha256, self.unknown_label) for f in features],
            dtype=object)


class ExecutableNameBaseline:
    """Classification by executable file name (majority vote per name)."""

    def __init__(self, unknown_label=-1) -> None:
        self.unknown_label = unknown_label

    def fit(self, features: Sequence[SampleFeatures], y: Sequence[str] | None = None
            ) -> "ExecutableNameBaseline":
        labels = list(y) if y is not None else [f.class_name for f in features]
        if len(labels) != len(features):
            raise ValidationError("y must align with features")
        votes: dict[str, Counter] = defaultdict(Counter)
        for feature, label in zip(features, labels):
            votes[feature.executable][label] += 1
        self._lookup = {name: counter.most_common(1)[0][0]
                        for name, counter in votes.items()}
        return self

    def predict(self, features: Sequence[SampleFeatures]) -> np.ndarray:
        if not hasattr(self, "_lookup"):
            raise NotFittedError("ExecutableNameBaseline is not fitted")
        return np.array(
            [self._lookup.get(f.executable, self.unknown_label) for f in features],
            dtype=object)


def _scores(name: str, expected: Sequence, predicted: Sequence,
            unknown_label) -> BaselineOutcome:
    expected = np.asarray(list(expected), dtype=object)
    predicted = np.asarray(list(predicted), dtype=object)
    unknown_mask = expected == unknown_label
    unknown_recall = (float(np.mean(predicted[unknown_mask] == unknown_label))
                      if np.any(unknown_mask) else float("nan"))
    return BaselineOutcome(
        name=name,
        macro_f1=f1_score(expected, predicted, average="macro"),
        micro_f1=f1_score(expected, predicted, average="micro"),
        weighted_f1=f1_score(expected, predicted, average="weighted"),
        unknown_recall=unknown_recall,
    )


def run_baseline_comparison(train_features: Sequence[SampleFeatures],
                            train_labels: Sequence[str],
                            test_features: Sequence[SampleFeatures],
                            expected_test_labels: Sequence,
                            X_train: np.ndarray, X_test: np.ndarray, *,
                            unknown_label=-1,
                            confidence_threshold: float = 0.5,
                            n_estimators: int = 100,
                            random_state=None) -> list[BaselineOutcome]:
    """Evaluate all baselines plus the Random Forest on a shared split.

    ``X_train``/``X_test`` must be the similarity feature matrices the
    Fuzzy Hash Classifier itself uses, so that the model comparison
    isolates the *classifier family* rather than the features.
    """

    outcomes: list[BaselineOutcome] = []
    y_train = np.asarray(list(train_labels), dtype=object)

    crypto = CryptoHashBaseline(unknown_label).fit(train_features, train_labels)
    outcomes.append(_scores("crypto-hash exact match", expected_test_labels,
                            crypto.predict(test_features), unknown_label))

    names = ExecutableNameBaseline(unknown_label).fit(train_features, train_labels)
    outcomes.append(_scores("executable name", expected_test_labels,
                            names.predict(test_features), unknown_label))

    forest = ThresholdRandomForest(
        n_estimators=n_estimators, confidence_threshold=confidence_threshold,
        unknown_label=unknown_label, class_weight="balanced",
        random_state=random_state)
    forest.fit(X_train, y_train)
    outcomes.append(_scores("fuzzy-hash random forest", expected_test_labels,
                            forest.predict(X_test), unknown_label))

    knn = KNeighborsClassifier(n_neighbors=min(5, max(1, len(y_train) // 10)))
    knn.fit(X_train, y_train)
    knn_labels = apply_threshold(knn.predict_proba(X_test), knn.classes_,
                                 confidence_threshold, unknown_label)
    outcomes.append(_scores("fuzzy-hash KNN", expected_test_labels,
                            knn_labels, unknown_label))

    svm = LinearSVMClassifier(max_iter=15, class_weight="balanced",
                              random_state=random_state)
    svm.fit(X_train, y_train)
    svm_labels = apply_threshold(svm.predict_proba(X_test), svm.classes_,
                                 confidence_threshold, unknown_label)
    outcomes.append(_scores("fuzzy-hash linear SVM", expected_test_labels,
                            svm_labels, unknown_label))

    for outcome in outcomes:
        _LOG.info("baseline %-28s macro %.3f micro %.3f weighted %.3f unknown-recall %s",
                  outcome.name, outcome.macro_f1, outcome.micro_f1,
                  outcome.weighted_f1,
                  f"{outcome.unknown_recall:.3f}" if outcome.unknown_recall == outcome.unknown_recall else "n/a")
    return outcomes
