"""Tests for configuration presets and the validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    check_array_1d,
    check_array_2d,
    check_bytes,
    check_consistent_length,
    check_in_choices,
    check_non_negative_int,
    check_positive_int,
    check_probability,
    check_random_state,
)
from repro.config import (
    SCALE_PRESETS,
    ExperimentConfig,
    default_config,
    get_scale_preset,
)
from repro.exceptions import ConfigurationError, ValidationError


# ----------------------------------------------------------------- config
def test_three_presets_exist():
    assert set(SCALE_PRESETS) == {"small", "medium", "full"}
    assert SCALE_PRESETS["full"].max_samples_per_class is None
    assert SCALE_PRESETS["small"].max_classes == 12


def test_get_scale_preset_by_name_and_env(monkeypatch):
    assert get_scale_preset("small").name == "small"
    assert get_scale_preset("FULL").name == "full"
    monkeypatch.setenv("REPRO_SCALE", "small")
    assert get_scale_preset().name == "small"
    monkeypatch.delenv("REPRO_SCALE")
    assert get_scale_preset().name == "medium"
    with pytest.raises(ConfigurationError):
        get_scale_preset("gigantic")


def test_default_config_overrides_and_validation():
    config = default_config("small", seed=1, n_jobs=4)
    assert config.seed == 1 and config.n_jobs == 4
    assert config.scale.name == "small"
    with pytest.raises(ConfigurationError):
        default_config("small", unknown_class_fraction=2.0)
    with pytest.raises(ConfigurationError):
        default_config("small", test_sample_fraction=0.0)
    with pytest.raises(ConfigurationError):
        default_config("small", confidence_threshold=3.0)
    with pytest.raises(ConfigurationError):
        default_config("small", feature_types=())


def test_with_scale_returns_new_config():
    config = default_config("small")
    bigger = config.with_scale("medium")
    assert bigger.scale.name == "medium"
    assert config.scale.name == "small"


def test_preset_describe():
    assert "classes" in get_scale_preset("medium").describe()


# -------------------------------------------------------------- validation
def test_check_bytes():
    assert check_bytes(b"abc") == b"abc"
    assert check_bytes(bytearray(b"abc")) == b"abc"
    assert check_bytes("abc") == b"abc"
    with pytest.raises(ValidationError):
        check_bytes(123)


def test_check_probability():
    assert check_probability(0.5) == 0.5
    assert check_probability(0) == 0.0
    with pytest.raises(ValidationError):
        check_probability(1.5)
    with pytest.raises(ValidationError):
        check_probability(float("nan"))
    with pytest.raises(ValidationError):
        check_probability("high")


def test_check_ints():
    assert check_positive_int(3) == 3
    assert check_non_negative_int(0) == 0
    with pytest.raises(ValidationError):
        check_positive_int(0)
    with pytest.raises(ValidationError):
        check_positive_int(True)
    with pytest.raises(ValidationError):
        check_non_negative_int(-1)
    with pytest.raises(ValidationError):
        check_positive_int(2.5)


def test_check_in_choices():
    assert check_in_choices("a", ["a", "b"]) == "a"
    with pytest.raises(ValidationError):
        check_in_choices("c", ["a", "b"])


def test_check_arrays():
    arr = check_array_2d([[1, 2], [3, 4]])
    assert arr.shape == (2, 2)
    assert check_array_2d([1, 2, 3]).shape == (1, 3)
    with pytest.raises(ValidationError):
        check_array_2d([[np.nan, 1]])
    with pytest.raises(ValidationError):
        check_array_2d(np.zeros((2, 2, 2)))
    assert check_array_1d([1, 2]).shape == (2,)
    with pytest.raises(ValidationError):
        check_array_1d([[1], [2]])


def test_check_consistent_length():
    assert check_consistent_length([1, 2], [3, 4]) == 2
    assert check_consistent_length() == 0
    with pytest.raises(ValidationError):
        check_consistent_length([1], [1, 2])


def test_check_random_state():
    gen = check_random_state(42)
    assert isinstance(gen, np.random.Generator)
    assert check_random_state(gen) is gen
    assert isinstance(check_random_state(None), np.random.Generator)
    assert isinstance(check_random_state(np.random.RandomState(0)), np.random.Generator)
    with pytest.raises(ValidationError):
        check_random_state("seed")
