"""Linear SVM-style classifier (one-vs-rest hinge loss, SGD).

The second future-work comparator named by the paper ("Support Vector
Machines").  A full kernel SVM is out of scope for the baseline
comparison; a linear one-vs-rest hinge-loss classifier trained with
averaged stochastic gradient descent captures the linear-decision-
boundary contrast with the Random Forest that the comparison is about.
"""

from __future__ import annotations

import numpy as np

from .._validation import (
    check_array_1d,
    check_array_2d,
    check_consistent_length,
    check_random_state,
)
from ..exceptions import ValidationError
from .base import BaseEstimator, ClassifierMixin, check_is_fitted
from .class_weight import compute_class_weight
from .encoding import LabelEncoder

__all__ = ["LinearSVMClassifier"]


class LinearSVMClassifier(BaseEstimator, ClassifierMixin):
    """One-vs-rest linear classifier with hinge loss and L2 regularisation.

    Parameters
    ----------
    C:
        Inverse regularisation strength (larger = less regularisation).
    max_iter:
        Number of epochs over the training data.
    learning_rate:
        Initial SGD step size (decays as ``1 / (1 + t * decay)``).
    class_weight:
        ``None``, ``"balanced"`` or a mapping; scales the hinge loss of
        each class.
    fit_intercept:
        Learn a bias term per class.
    random_state:
        Seed for shuffling between epochs.
    """

    def __init__(self, *, C: float = 1.0, max_iter: int = 50,
                 learning_rate: float = 0.01, class_weight=None,
                 fit_intercept: bool = True, random_state=None) -> None:
        self.C = C
        self.max_iter = max_iter
        self.learning_rate = learning_rate
        self.class_weight = class_weight
        self.fit_intercept = fit_intercept
        self.random_state = random_state

    def fit(self, X, y) -> "LinearSVMClassifier":
        X = check_array_2d(X, "X")
        y = check_array_1d(y, "y")
        check_consistent_length(X, y)
        if self.C <= 0:
            raise ValidationError("C must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")

        encoder = LabelEncoder()
        y_encoded = encoder.fit_transform(y)
        self.classes_ = encoder.classes_
        self.n_features_in_ = X.shape[1]

        n_samples, n_features = X.shape
        n_classes = len(self.classes_)
        rng = check_random_state(self.random_state)

        # Standardise features for stable SGD; remember the scaling.
        self._mean = X.mean(axis=0)
        self._scale = X.std(axis=0)
        self._scale[self._scale == 0] = 1.0
        Xs = (X - self._mean) / self._scale

        class_weights = compute_class_weight(self.class_weight,
                                             np.arange(n_classes), y_encoded)
        targets = np.where(
            y_encoded[:, None] == np.arange(n_classes)[None, :], 1.0, -1.0)
        per_sample_class_weight = class_weights[y_encoded]

        weights = np.zeros((n_classes, n_features), dtype=np.float64)
        intercepts = np.zeros(n_classes, dtype=np.float64)
        averaged_weights = np.zeros_like(weights)
        averaged_intercepts = np.zeros_like(intercepts)
        lam = 1.0 / (self.C * n_samples)

        step = 0
        for epoch in range(self.max_iter):
            order = rng.permutation(n_samples)
            for index in order:
                step += 1
                eta = self.learning_rate / (1.0 + self.learning_rate * lam * step)
                x = Xs[index]
                margins = weights @ x + intercepts            # (n_classes,)
                target = targets[index]                        # (n_classes,)
                violating = target * margins < 1.0
                weights *= (1.0 - eta * lam)
                if np.any(violating):
                    scale = eta * per_sample_class_weight[index]
                    weights[violating] += scale * target[violating, None] * x[None, :]
                    if self.fit_intercept:
                        intercepts[violating] += scale * target[violating]
                averaged_weights += weights
                averaged_intercepts += intercepts

        self.coef_ = averaged_weights / max(step, 1)
        self.intercept_ = averaged_intercepts / max(step, 1)
        return self

    # ------------------------------------------------------------- predict
    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, "coef_")
        X = check_array_2d(X, "X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}")
        Xs = (X - self._mean) / self._scale
        return Xs @ self.coef_.T + self.intercept_

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        """Softmax over the decision function (a calibration-free proxy,
        sufficient for the confidence-threshold comparison)."""

        scores = self.decision_function(X)
        scores = scores - scores.max(axis=1, keepdims=True)
        exp = np.exp(scores)
        return exp / exp.sum(axis=1, keepdims=True)
