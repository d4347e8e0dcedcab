"""Forests fitted today hash to what the per-node grower fitted.

``data/forest_fit`` holds a similarity-like training set at the
benchmark's shape (650 x 222, 74 classes, mostly zero scores) and, for
five 10-tree fits, the SHA-256 of every node-table array and of the
importances the per-node grower produced
(``data/forest_fit/make_fixtures.py`` documents how).  The lockstep
grower must give every array the same bytes.
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier

DATA = Path(__file__).resolve().parent / "data" / "forest_fit"


@lru_cache(maxsize=1)
def expected() -> dict:
    return json.loads((DATA / "expected.json").read_text(encoding="utf-8"))


def digest(array: np.ndarray) -> dict:
    array = np.ascontiguousarray(array)
    return {"sha256": hashlib.sha256(array.tobytes()).hexdigest(),
            "dtype": str(array.dtype), "shape": list(array.shape)}


@pytest.mark.parametrize("case", ["bootstrap", "no_bootstrap", "entropy",
                                  "sample_weights", "n_jobs_2"])
def test_forest_fit_matches_recorded_hashes(case):
    recorded = expected()[case]
    with np.load(DATA / "matrix.npz") as data:
        X, y = data["X"].astype(np.float64), data["y"]
        sample_weight = data["sample_weight"] if recorded["sample_weight"] \
            else None
    forest = RandomForestClassifier(n_estimators=10, **recorded["params"]).fit(
        X, y, sample_weight=sample_weight)
    arrays = {name: digest(value)
              for name, value in forest.get_state()["table"].items()}
    arrays["feature_importances_"] = digest(forest.feature_importances_)
    assert arrays == recorded["arrays"]


def test_fixture_reaches_wide_nodes_and_weight_slots():
    """The recorded set exercises what the grower batches: roots with
    all 74 classes, mostly zero columns, and several weight slots per
    class once balanced class weights multiply the sample weights."""

    with np.load(DATA / "matrix.npz") as data:
        X, y, sample_weight = data["X"], data["y"], data["sample_weight"]
    assert X.shape == (650, 222) and X.dtype == np.uint8
    assert len(np.unique(y)) == 74
    assert (X == 0).mean() > 0.95
    assert len(np.unique(sample_weight)) == 3
