"""The Fuzzy Hash Classifier.

Two layers are provided:

* :class:`ThresholdRandomForest` — a Random Forest over an already-built
  similarity feature matrix whose predictions fall back to the ``-1``
  "unknown" label whenever the forest's highest class probability is
  below a confidence threshold.  This is the estimator the grid search
  tunes (both the forest hyper-parameters and the threshold).
* :class:`FuzzyHashClassifier` — the user-facing model of the paper: it
  is fitted on :class:`~repro.features.records.SampleFeatures` records
  (digests + labels), builds the similarity feature matrix internally
  (training samples are the anchors) and classifies new feature records
  into application classes or "unknown".

Each layer builds its inner estimator in one place, from its own
``get_params``: ``ThresholdRandomForest._forest`` and
``FuzzyHashClassifier._model`` serve ``fit`` and ``set_state`` alike,
so a fitted and a restored model are configured identically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import check_probability
from ..exceptions import ValidationError
from ..features.extractors import FEATURE_TYPES, resolve_family_feature_types
from ..features.records import SampleFeatures
from ..features.similarity import SimilarityFeatureBuilder, SimilarityMatrix
from ..ml.base import BaseEstimator, ClassifierMixin, check_is_fitted
from ..ml.forest import RandomForestClassifier
from ..observability.trace import span

__all__ = ["ThresholdRandomForest", "FuzzyHashClassifier"]


class ThresholdRandomForest(BaseEstimator, ClassifierMixin):
    """Random Forest with an "unknown" rejection threshold.

    Parameters mirror the forest's, plus:

    confidence_threshold:
        If the maximum class probability of a sample is *below* this
        value, the sample is labelled ``unknown_label`` instead of the
        most probable class ("Samples not similar to any other known
        samples are labeled as unknown", Section 3).
    unknown_label:
        The label emitted for rejected samples (the paper uses ``-1``).
    """

    def __init__(self, n_estimators: int = 100, *, criterion: str = "gini",
                 max_depth: int | None = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features="sqrt",
                 class_weight="balanced", confidence_threshold: float = 0.5,
                 unknown_label=-1, random_state=None, n_jobs: int = 1) -> None:
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.class_weight = class_weight
        self.confidence_threshold = confidence_threshold
        self.unknown_label = unknown_label
        self.random_state = random_state
        self.n_jobs = n_jobs

    def _forest(self) -> RandomForestClassifier:
        """The inner forest, built from this estimator's parameters."""

        check_probability(self.confidence_threshold, "confidence_threshold")
        params = self.get_params(deep=False)
        del params["confidence_threshold"], params["unknown_label"]
        return RandomForestClassifier(**params)

    # ------------------------------------------------------------------ fit
    def fit(self, X, y) -> "ThresholdRandomForest":
        self.forest_ = self._forest()
        self.forest_.fit(X, y)
        self.classes_ = self.forest_.classes_
        self.feature_importances_ = self.forest_.feature_importances_
        self.n_features_in_ = self.forest_.n_features_in_
        return self

    # ------------------------------------------------------------- predict
    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "forest_")
        return self.forest_.predict_proba(X)

    def predict(self, X, confidence_threshold: float | None = None) -> np.ndarray:
        """Predict class labels, rejecting low-confidence samples.

        ``confidence_threshold`` overrides the fitted threshold without
        refitting (used by the threshold sweep of Figure 3).
        """

        return self.predict_with_confidence(
            X, confidence_threshold=confidence_threshold)[0]

    def predict_with_confidence(self, X, confidence_threshold: float | None = None
                                ) -> tuple[np.ndarray, np.ndarray]:
        """Predict ``(labels, confidences)`` from one probability pass.

        Serving paths want both the thresholded label and the confidence
        behind it; computing them together halves the forest work
        compared to calling :meth:`predict` and :meth:`confidence`.
        """

        check_is_fitted(self, "forest_")
        threshold = self.confidence_threshold if confidence_threshold is None \
            else check_probability(confidence_threshold, "confidence_threshold")
        proba = self.predict_proba(X)
        best = np.argmax(proba, axis=1)
        confidence = proba[np.arange(len(best)), best]
        labels = self.classes_[best].astype(object)
        labels[confidence < threshold] = self.unknown_label
        return labels, confidence

    def predict_known(self, X) -> np.ndarray:
        """Predict without the unknown rejection (pure forest argmax)."""

        check_is_fitted(self, "forest_")
        return self.forest_.predict(X)

    def confidence(self, X) -> np.ndarray:
        """The maximum class probability per sample."""

        proba = self.predict_proba(X)
        return proba.max(axis=1)

    # ---------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """Serialisable snapshot of the fitted model (model artifacts)."""

        check_is_fitted(self, "forest_")
        return {"forest": self.forest_.get_state()}

    def set_state(self, state: dict) -> "ThresholdRandomForest":
        """Restore a snapshot produced by :meth:`get_state`.

        The constructor hyper-parameters (including the confidence
        threshold and unknown label) are taken from ``self``; the state
        only carries fitted arrays.
        """

        try:
            forest_state = state["forest"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"invalid threshold-forest state: {exc}") from exc
        forest = self._forest()
        forest.set_state(forest_state)
        self.forest_ = forest
        self.classes_ = forest.classes_
        self.feature_importances_ = forest.feature_importances_
        self.n_features_in_ = forest.n_features_in_
        return self


class FuzzyHashClassifier(BaseEstimator, ClassifierMixin):
    """End-to-end Fuzzy Hash Classifier over feature records.

    ``fit`` takes the training samples' :class:`SampleFeatures` (their
    ``class_name`` is the label unless ``y`` is passed explicitly),
    builds the similarity feature matrix with the training samples as
    anchors, and fits the thresholded Random Forest.  ``predict``
    accepts new feature records and returns class names or the unknown
    label.

    Parameters
    ----------
    feature_types:
        Fuzzy-hash types used as features (base CTPH names; ``family``
        expands them).
    family:
        Hash family the similarity columns come from: ``"ctph"``
        (default, the paper's SSDeep features), ``"vector"`` (the
        fixed-length TLSH-style digests over the same content sources),
        or ``"both"`` (parallel per-class blocks from each family).
    n_estimators, criterion, max_depth, min_samples_split,
    min_samples_leaf, max_features, class_weight, random_state, n_jobs:
        Random-Forest hyper-parameters (class weights default to
        ``"balanced"`` as in the paper).
    confidence_threshold:
        Rejection threshold for the unknown label.
    unknown_label:
        Label for unknown samples (default ``-1``).
    """

    def __init__(self, *, feature_types: Sequence[str] = FEATURE_TYPES,
                 family: str = "ctph",
                 n_estimators: int = 100, criterion: str = "gini",
                 max_depth: int | None = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features="sqrt",
                 class_weight="balanced", confidence_threshold: float = 0.5,
                 unknown_label=-1, random_state=None, n_jobs: int = 1) -> None:
        self.feature_types = tuple(feature_types)
        self.family = family
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.class_weight = class_weight
        self.confidence_threshold = confidence_threshold
        self.unknown_label = unknown_label
        self.random_state = random_state
        self.n_jobs = n_jobs

    # ------------------------------------------------------------ features
    @property
    def active_feature_types(self) -> tuple[str, ...]:
        """The feature types actually indexed, after family expansion."""

        return resolve_family_feature_types(self.feature_types, self.family)

    def _model(self) -> ThresholdRandomForest:
        """The inner thresholded forest, built from this classifier's
        parameters."""

        params = self.get_params(deep=False)
        del params["feature_types"], params["family"]
        return ThresholdRandomForest(**params)

    # ------------------------------------------------------------------ fit
    def fit(self, features: Sequence[SampleFeatures], y=None, *,
            index=None) -> "FuzzyHashClassifier":
        """Fit on feature records; optionally reuse a prebuilt anchor index.

        ``index`` is a :class:`~repro.index.SimilarityIndex` previously
        built over (a superset of) the training corpus — typically
        ``SimilarityIndex.load(path)`` from a persisted workflow.  When
        given, the anchors come from the index instead of being
        re-indexed from ``features``; the records still provide the
        training rows and labels.
        """

        features = list(features)
        if not features:
            raise ValidationError("cannot fit on an empty feature list")
        labels = list(y) if y is not None else [f.class_name for f in features]
        if len(labels) != len(features):
            raise ValidationError("y must have the same length as features")
        if any(label in ("", None) for label in labels):
            raise ValidationError("every training sample needs a class label")

        self.builder_ = SimilarityFeatureBuilder(self.active_feature_types)
        if index is not None:
            self.builder_.fit_from_index(index)
            uncovered = sorted(set(labels) - set(self.builder_.classes_))
            if uncovered:
                raise ValidationError(
                    f"training labels {uncovered} have no anchors in the "
                    "supplied index; rebuild the index over the current "
                    "training corpus")
            matrix = self.builder_.transform(features, exclude_self=True)
        else:
            matrix = self.builder_.fit_transform(features, exclude_self=True)
        self.feature_names_ = matrix.feature_names
        self.feature_groups_ = matrix.feature_groups
        self.model_ = self._model()
        self.model_.fit(matrix.X, np.asarray(labels, dtype=object))
        self.classes_ = self.model_.classes_
        self.feature_importances_ = self.model_.feature_importances_
        return self

    # ------------------------------------------------------------ transform
    def transform(self, features: Sequence[SampleFeatures]) -> SimilarityMatrix:
        """Similarity feature matrix of new samples against the anchors."""

        check_is_fitted(self, "builder_")
        return self.builder_.transform(list(features))

    # ------------------------------------------------------------- predict
    def predict(self, features: Sequence[SampleFeatures],
                confidence_threshold: float | None = None) -> np.ndarray:
        check_is_fitted(self, "model_")
        matrix = self.transform(features)
        return self.model_.predict(matrix.X, confidence_threshold=confidence_threshold)

    def predict_with_confidence(self, features: Sequence[SampleFeatures],
                                confidence_threshold: float | None = None
                                ) -> tuple[np.ndarray, np.ndarray]:
        """Predict ``(labels, confidences)`` with one transform pass.

        The serving path (:class:`repro.api.ClassificationService`) needs
        both; computing them together builds the similarity matrix and
        runs the forest once instead of twice.
        """

        check_is_fitted(self, "model_")
        matrix = self.transform(features)
        with span("forest_predict"):
            return self.model_.predict_with_confidence(
                matrix.X, confidence_threshold=confidence_threshold)

    def predict_proba(self, features: Sequence[SampleFeatures]) -> np.ndarray:
        check_is_fitted(self, "model_")
        matrix = self.transform(features)
        return self.model_.predict_proba(matrix.X)

    def confidence(self, features: Sequence[SampleFeatures]) -> np.ndarray:
        """Maximum class probability per sample."""

        check_is_fitted(self, "model_")
        matrix = self.transform(features)
        return self.model_.confidence(matrix.X)

    # ---------------------------------------------------------- persistence
    def set_state(self, state: dict) -> "FuzzyHashClassifier":
        """Restore a fitted classifier from its parts.

        ``state`` holds ``"builder"`` (a
        :meth:`~repro.features.similarity.SimilarityFeatureBuilder.set_state`
        snapshot), ``"model"`` (a :meth:`ThresholdRandomForest.get_state`
        snapshot), ``"feature_names"`` and ``"feature_groups"``;
        :func:`repro.api.load_model` assembles it from an artifact.
        Constructor hyper-parameters come from ``self`` (they are stored
        alongside the state in a model artifact).
        """

        try:
            builder_state = state["builder"]
            model_state = state["model"]
            feature_names = list(state["feature_names"])
            feature_groups = {str(k): [int(i) for i in v]
                              for k, v in dict(state["feature_groups"]).items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"invalid FuzzyHashClassifier state: {exc}") from exc
        builder = SimilarityFeatureBuilder(self.active_feature_types)
        builder.set_state(builder_state)
        model = self._model()
        model.set_state(model_state)
        if len(feature_names) != model.n_features_in_:
            raise ValidationError(
                f"state declares {len(feature_names)} feature names but the "
                f"forest consumes {model.n_features_in_} features")
        self.builder_ = builder
        self.model_ = model
        self.feature_names_ = feature_names
        self.feature_groups_ = feature_groups
        self.classes_ = model.classes_
        self.feature_importances_ = model.feature_importances_
        return self

    # ------------------------------------------------------------ analysis
    def feature_importances_by_type(self) -> dict[str, float]:
        """Normalised importance aggregated per fuzzy-hash type (Table 5)."""

        check_is_fitted(self, "model_")
        from ..analysis.importance import group_importances

        return group_importances(self.feature_importances_, self.feature_groups_)
