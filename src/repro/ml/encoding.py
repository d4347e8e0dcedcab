"""Label encoding utilities."""

from __future__ import annotations

import numpy as np

from ..exceptions import NotFittedError, ValidationError

__all__ = ["LabelEncoder"]


class LabelEncoder:
    """Map arbitrary (hashable, orderable) labels to integers 0..K-1.

    Mirrors scikit-learn's ``LabelEncoder``: classes are stored sorted,
    ``transform`` rejects labels unseen during ``fit``.
    """

    def __init__(self) -> None:
        self.classes_: np.ndarray | None = None

    def fit(self, y) -> "LabelEncoder":
        arr = np.asarray(y)
        if arr.ndim != 1:
            raise ValidationError("LabelEncoder expects a 1-D array of labels")
        self.classes_ = np.array(sorted(set(arr.tolist())))
        return self

    def fit_transform(self, y) -> np.ndarray:
        return self.fit(y).transform(y)

    def transform(self, y) -> np.ndarray:
        if self.classes_ is None:
            raise NotFittedError("LabelEncoder is not fitted")
        lookup = {label: index for index, label in enumerate(self.classes_.tolist())}
        arr = np.asarray(y)
        try:
            return np.array([lookup[label] for label in arr.tolist()], dtype=np.int64)
        except KeyError as exc:
            raise ValidationError(f"y contains previously unseen label {exc.args[0]!r}") from exc

    def inverse_transform(self, encoded) -> np.ndarray:
        if self.classes_ is None:
            raise NotFittedError("LabelEncoder is not fitted")
        encoded = np.asarray(encoded, dtype=np.int64)
        if encoded.size and (encoded.min() < 0 or encoded.max() >= len(self.classes_)):
            raise ValidationError("encoded labels out of range")
        return self.classes_[encoded]
