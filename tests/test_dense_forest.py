"""Model artifacts with a dense forest table (formats 1–5) convert to the
leaf table at load and predict exactly the bits the dense-table code
recorded.

``data/dense_forest`` holds a format-5 artifact written by the last
revision that stores ``node_values`` (``data/dense_forest/make_fixtures.py``
documents how) and ``expected.json`` with each query's ``predict_proba``
row, as ``float.hex`` strings, and its decision.
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.api.artifact import (
    MODEL_CONTAINER,
    MODEL_FORMAT_VERSION,
    load_model,
    save_model,
)
from repro.api.service import ClassificationService
from repro.features.records import SampleFeatures
from repro.index.storage import read_container

DATA = Path(__file__).resolve().parent / "data" / "dense_forest"
MODEL_FILE = DATA / "model.rpm"
DENSE_ONLY = ("node_values", "node_samples", "tree_classes",
              "tree_class_offsets", "tree_importances")


@lru_cache(maxsize=1)
def expected() -> dict:
    return json.loads((DATA / "expected.json").read_text(encoding="utf-8"))


def queries() -> list[SampleFeatures]:
    return [SampleFeatures(sample_id=sid, class_name="", version="",
                           executable=sid, digests=digests)
            for sid, digests in expected()["queries"]]


def recorded_proba() -> np.ndarray:
    return np.array([[float.fromhex(p) for p in row]
                     for row in expected()["proba"]])


def forest_names(path) -> list[str]:
    _header, arrays = read_container(path, fmt=MODEL_CONTAINER)
    return [name.split(".", 1)[1] for name in arrays
            if name.startswith("forest.")]


def test_fixture_stores_a_dense_table():
    header, _arrays = read_container(MODEL_FILE, fmt=MODEL_CONTAINER)
    assert header["format_version"] == 5
    assert set(DENSE_ONLY) <= set(forest_names(MODEL_FILE))


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_dense_model_predicts_recorded_bits(mmap_mode):
    classifier = load_model(MODEL_FILE, mmap_mode=mmap_mode)
    features = queries()
    proba = recorded_proba()
    assert classifier.predict_proba(features).tobytes() == proba.tobytes()
    for i, query in enumerate(features):
        assert classifier.predict_proba([query]).tobytes() == \
            proba[i:i + 1].tobytes()
    # The depth cap left mixed leaves, so the converted table has leaves
    # with more than one entry.
    table = classifier.model_.forest_.get_state()["table"]
    assert np.diff(table["leaf_offsets"]).max() > 1
    if mmap_mode == "r":
        # The node arrays stay views of the file; the leaf arrays are new.
        assert not table["node_feature"].flags.writeable
        assert table["leaf_proba"].flags.writeable


@pytest.mark.parametrize("mmap", [False, True])
def test_dense_model_decides_as_recorded(mmap):
    loaded = ClassificationService.load(MODEL_FILE, mmap=mmap)
    assert [[d.sample_id, d.predicted_class, d.confidence, d.decision]
            for d in loaded.classify_features(queries())] == \
        expected()["decisions"]


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_resaved_dense_model_is_a_leaf_table(mmap_mode, tmp_path):
    """A re-save writes the current format without the dense arrays,
    reloads to the same bits and re-saves to the same bytes."""

    resaved = save_model(load_model(MODEL_FILE, mmap_mode=mmap_mode),
                         tmp_path / "resaved.rpm")
    header, _arrays = read_container(resaved, fmt=MODEL_CONTAINER)
    assert header["format_version"] == MODEL_FORMAT_VERSION == 6
    assert not set(DENSE_ONLY) & set(forest_names(resaved))
    reloaded = load_model(resaved, mmap_mode=mmap_mode)
    assert reloaded.predict_proba(queries()).tobytes() == \
        recorded_proba().tobytes()
    again = save_model(reloaded, tmp_path / "again.rpm")
    assert again.read_bytes() == resaved.read_bytes()
