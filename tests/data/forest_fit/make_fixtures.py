"""Regenerate the forest-fit fixtures in this directory.

The forest's trees are grown in lockstep, a batch of trees one
depth-first node per tree and step.  The grower must build exactly the
trees the per-node grower built before it, so these fixtures pin what
that grower fitted.  The script only runs against a checkout of the
last revision that grows trees one node at a time (git commit
``e2a143a``)::

    mkdir per-node && git archive e2a143a | tar -x -C per-node
    PYTHONPATH=per-node/src python tests/data/forest_fit/make_fixtures.py

A re-run writes identical bytes.  It writes, next to itself:

``matrix.npz``
    A seeded similarity-like training set at the benchmark's shape:
    ``X`` (650 x 222 integer scores in [0, 100], mostly zero, as
    ``uint8``), ``y`` (74 classes of uneven size, as ``uint8``) and
    ``sample_weight`` (three distinct weights, so that with balanced
    class weights each class has several weight slots).
``expected.json``
    For each fitted case, its forest parameters and the SHA-256, dtype
    and shape of every ``get_state()["table"]`` array and of
    ``feature_importances_``.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.ml.forest import RandomForestClassifier

HERE = Path(__file__).resolve().parent
N_CLASSES = 74
TYPES = 3  # one similarity column per feature type and class

#: The fitted cases: forest parameters, and whether the sample weights
#: are passed.
CASES = {
    "bootstrap": ({"class_weight": "balanced", "random_state": 11}, False),
    "no_bootstrap": ({"class_weight": "balanced", "bootstrap": False,
                      "random_state": 12}, False),
    "entropy": ({"class_weight": "balanced", "criterion": "entropy",
                 "random_state": 13}, False),
    "sample_weights": ({"class_weight": "balanced", "random_state": 14}, True),
    "n_jobs_2": ({"class_weight": "balanced", "n_jobs": 2,
                  "random_state": 15}, False),
}


def training_set() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores of each sample against every class's anchors per type: a
    sample scores against its own class's columns most of the time, and
    against a few others now and then."""

    rng = np.random.default_rng(20261020)
    sizes = 2 + rng.poisson(6.8, N_CLASSES)
    y = np.repeat(np.arange(N_CLASSES), sizes)[:650]
    y = np.concatenate([y, rng.integers(0, N_CLASSES, 650 - len(y))])
    y = rng.permutation(y)
    X = np.zeros((len(y), TYPES * N_CLASSES), dtype=np.uint8)
    own = np.arange(TYPES)[None, :] * N_CLASSES + y[:, None]
    hit = rng.random(own.shape) < 0.8
    rows = np.repeat(np.arange(len(y))[:, None], TYPES, axis=1)
    X[rows[hit], own[hit]] = rng.integers(20, 101, hit.sum())
    noise = rng.random(X.shape) < 0.004
    X[noise] = rng.integers(1, 60, noise.sum())
    sample_weight = rng.choice([0.5, 1.0, 2.25], len(y))
    return X, y.astype(np.uint8), sample_weight


def save_arrays(path: Path, **arrays: np.ndarray) -> None:
    """An ``.npz`` archive with fixed entry dates, so that the same
    arrays give the same bytes (``np.savez_compressed`` stamps the
    time of writing)."""

    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, array in arrays.items():
            buffer = io.BytesIO()
            np.save(buffer, array)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, buffer.getvalue())


def digest(array: np.ndarray) -> dict:
    array = np.ascontiguousarray(array)
    return {"sha256": hashlib.sha256(array.tobytes()).hexdigest(),
            "dtype": str(array.dtype), "shape": list(array.shape)}


def fit(case: str, X, y, sample_weight) -> RandomForestClassifier:
    params, weighted = CASES[case]
    forest = RandomForestClassifier(n_estimators=10, **params)
    return forest.fit(X.astype(np.float64), y,
                      sample_weight=sample_weight if weighted else None)


def main() -> None:
    X, y, sample_weight = training_set()
    save_arrays(HERE / "matrix.npz", X=X, y=y, sample_weight=sample_weight)
    expected = {}
    for case, (params, weighted) in CASES.items():
        forest = fit(case, X, y, sample_weight)
        arrays = {name: digest(value)
                  for name, value in forest.get_state()["table"].items()}
        arrays["feature_importances_"] = digest(forest.feature_importances_)
        expected[case] = {"params": params, "sample_weight": weighted,
                          "arrays": arrays}
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
