"""Tests for estimator plumbing: base classes, label encoding, class weights."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import BaseEstimator
from repro.ml.class_weight import compute_class_weight, compute_sample_weight
from repro.ml.encoding import LabelEncoder


class _Toy(BaseEstimator):
    def __init__(self, alpha=1.0, beta="x", nested=None):
        self.alpha = alpha
        self.beta = beta
        self.nested = nested


def test_get_params_reflects_constructor():
    toy = _Toy(alpha=2.5, beta="y")
    assert toy.get_params(deep=False) == {"alpha": 2.5, "beta": "y", "nested": None}


def test_set_params_and_invalid_key():
    toy = _Toy()
    toy.set_params(alpha=9)
    assert toy.alpha == 9
    with pytest.raises(ValidationError):
        toy.set_params(gamma=1)


def test_nested_params():
    toy = _Toy(nested=_Toy(alpha=5))
    params = toy.get_params()
    assert params["nested__alpha"] == 5
    toy.set_params(nested__alpha=7)
    assert toy.nested.alpha == 7


def test_repr_contains_params():
    assert "alpha=3" in repr(_Toy(alpha=3))


# ------------------------------------------------------------------ encoding
def test_label_encoder_roundtrip():
    encoder = LabelEncoder()
    y = ["banana", "apple", "cherry", "apple"]
    encoded = encoder.fit_transform(y)
    assert encoder.classes_.tolist() == ["apple", "banana", "cherry"]
    assert encoded.tolist() == [1, 0, 2, 0]
    assert encoder.inverse_transform(encoded).tolist() == y


def test_label_encoder_rejects_unseen_labels():
    encoder = LabelEncoder().fit(["a", "b"])
    with pytest.raises(ValidationError):
        encoder.transform(["c"])
    with pytest.raises(ValidationError):
        encoder.inverse_transform([5])


def test_label_encoder_not_fitted():
    with pytest.raises(NotFittedError):
        LabelEncoder().transform(["a"])


def test_label_encoder_integer_labels():
    encoder = LabelEncoder()
    encoded = encoder.fit_transform([-1, 10, 5, -1])
    assert encoder.classes_.tolist() == [-1, 5, 10]
    assert encoded.tolist() == [0, 2, 1, 0]


# -------------------------------------------------------------- class weights
def test_balanced_class_weights_inverse_to_frequency():
    y = np.array(["a"] * 80 + ["b"] * 20)
    weights = compute_class_weight("balanced", np.array(["a", "b"]), y)
    # n_samples / (n_classes * count): 100/(2*80)=0.625, 100/(2*20)=2.5
    assert weights.tolist() == pytest.approx([0.625, 2.5])
    # Total weight mass is equal per class.
    assert weights[0] * 80 == pytest.approx(weights[1] * 20)


def test_none_and_dict_class_weights():
    classes = np.array(["a", "b"])
    y = np.array(["a", "b", "b"])
    assert compute_class_weight(None, classes, y).tolist() == [1.0, 1.0]
    weights = compute_class_weight({"b": 3.0}, classes, y)
    assert weights.tolist() == [1.0, 3.0]
    with pytest.raises(ValidationError):
        compute_class_weight("invalid-mode", classes, y)


def test_balanced_requires_samples_for_every_class():
    with pytest.raises(ValidationError):
        compute_class_weight("balanced", np.array(["a", "b"]), np.array(["a", "a"]))


def test_compute_sample_weight_expands_per_sample():
    y = np.array(["a", "a", "b"])
    weights = compute_sample_weight("balanced", y)
    assert weights.shape == (3,)
    assert weights[0] == weights[1]
    assert weights[2] > weights[0]
