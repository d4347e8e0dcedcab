"""Tests for the Random Forest classifier."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import accuracy_score
from repro.ml.tree import class_distributions


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(0)
    centers = np.array([[0, 0, 0], [4, 0, 0], [0, 4, 0], [2, 2, 4]])
    y = rng.integers(0, 4, size=400)
    X = centers[y] + rng.normal(0, 0.8, size=(400, 3))
    return X, y


def test_high_accuracy_on_blobs(blobs):
    X, y = blobs
    forest = RandomForestClassifier(n_estimators=40, random_state=0).fit(X, y)
    assert accuracy_score(y, forest.predict(X)) > 0.95


def test_predict_proba_shape_and_normalisation(blobs):
    X, y = blobs
    forest = RandomForestClassifier(n_estimators=25, random_state=0).fit(X, y)
    proba = forest.predict_proba(X[:17])
    assert proba.shape == (17, 4)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert proba.min() >= 0.0


def test_deterministic_given_random_state(blobs):
    X, y = blobs
    a = RandomForestClassifier(n_estimators=15, random_state=42).fit(X, y)
    b = RandomForestClassifier(n_estimators=15, random_state=42).fit(X, y)
    assert np.array_equal(a.predict(X), b.predict(X))
    assert np.allclose(a.feature_importances_, b.feature_importances_)


def test_different_seeds_differ_somewhere(blobs):
    X, y = blobs
    a = RandomForestClassifier(n_estimators=5, random_state=1).fit(X, y)
    b = RandomForestClassifier(n_estimators=5, random_state=2).fit(X, y)
    assert not np.allclose(a.feature_importances_, b.feature_importances_)


def test_feature_importances_normalised(blobs):
    X, y = blobs
    forest = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
    assert forest.feature_importances_.shape == (X.shape[1],)
    assert forest.feature_importances_.sum() == pytest.approx(1.0)


def test_string_labels_and_classes_attribute():
    rng = np.random.default_rng(1)
    X = np.vstack([rng.normal(0, 0.3, (30, 2)), rng.normal(3, 0.3, (30, 2))])
    y = np.array(["benign"] * 30 + ["malware"] * 30)
    forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
    assert set(forest.classes_) == {"benign", "malware"}
    assert set(forest.predict(X)) <= {"benign", "malware"}


def test_class_weight_balanced_improves_minority_recall():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(0, 1.2, size=(300, 3)),
                   rng.normal(1.2, 1.2, size=(24, 3))])
    y = np.array([0] * 300 + [1] * 24)
    plain = RandomForestClassifier(n_estimators=30, max_depth=4,
                                   random_state=0).fit(X, y)
    balanced = RandomForestClassifier(n_estimators=30, max_depth=4,
                                      class_weight="balanced",
                                      random_state=0).fit(X, y)
    recall_plain = (plain.predict(X[y == 1]) == 1).mean()
    recall_balanced = (balanced.predict(X[y == 1]) == 1).mean()
    assert recall_balanced >= recall_plain


def test_parallel_fit_matches_serial(blobs):
    X, y = blobs
    serial = RandomForestClassifier(n_estimators=12, random_state=3, n_jobs=1).fit(X, y)
    parallel = RandomForestClassifier(n_estimators=12, random_state=3, n_jobs=2).fit(X, y)
    assert np.array_equal(serial.predict(X), parallel.predict(X))


def test_bootstrap_false_uses_full_data(blobs):
    X, y = blobs
    forest = RandomForestClassifier(n_estimators=5, bootstrap=False,
                                    random_state=0).fit(X, y)
    assert accuracy_score(y, forest.predict(X)) > 0.95


def test_not_fitted_raises(blobs):
    X, _ = blobs
    with pytest.raises(NotFittedError):
        RandomForestClassifier().predict(X)


def test_invalid_n_estimators(blobs):
    X, y = blobs
    with pytest.raises(ValidationError):
        RandomForestClassifier(n_estimators=0).fit(X, y)


def test_feature_mismatch_on_predict(blobs):
    X, y = blobs
    forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
    with pytest.raises(ValidationError):
        forest.predict(np.zeros((3, X.shape[1] + 2)))


def test_get_set_params_roundtrip():
    forest = RandomForestClassifier(n_estimators=7, max_depth=3)
    params = forest.get_params()
    assert params["n_estimators"] == 7
    forest.set_params(n_estimators=11)
    assert forest.n_estimators == 11
    with pytest.raises(ValidationError):
        forest.set_params(not_a_parameter=1)


def dense_sum_proba(forest, X):
    """The forest's probabilities as a tree-by-tree sum of dense leaf
    rows over the forest's classes: the reference the leaf table keeps
    bit for bit."""

    total = np.zeros((len(X), len(forest.classes_)))
    for tree in forest.estimators_:
        rows = np.zeros((tree.node_count, len(forest.classes_)))
        rows[:, tree.classes_] = class_distributions(tree._node_values)
        total += rows[tree.apply(X)]
    total /= len(forest.estimators_)
    return total


def sequential_depth(tree):
    """Depth by one pass in node order (children follow their parent)."""

    depths = np.zeros(tree.node_count, dtype=np.int64)
    for node in np.flatnonzero(tree._node_feature >= 0):
        depths[tree._node_left[node]] = depths[node] + 1
        depths[tree._node_right[node]] = depths[node] + 1
    return int(depths.max())


@pytest.mark.parametrize("max_depth", [None, 2])
def test_leaf_table_sums_like_dense_rows(blobs, max_depth):
    X, y = blobs
    forest = RandomForestClassifier(n_estimators=9, max_depth=max_depth,
                                    class_weight="balanced",
                                    random_state=4).fit(X, y)
    table = forest.get_state()["table"]
    counts = np.diff(table["leaf_offsets"])
    leaf = table["node_feature"] < 0
    assert np.all(counts[~leaf] == 0) and np.all(counts[leaf] >= 1)
    if max_depth is not None:
        assert counts.max() > 1          # mixed leaves carry several classes
    for rows in (X[:1], X[:37], X):
        assert forest.predict_proba(rows).tobytes() == \
            dense_sum_proba(forest, rows).tobytes()
    depths = [tree.get_depth() for tree in forest.estimators_]
    assert depths == [sequential_depth(tree) for tree in forest.estimators_]
    assert forest._trees.depth == max(depths)


def test_forest_with_no_leaf_entries_predicts_zero_rows():
    """With every sample weighted 0 no leaf holds a class probability:
    the forest predicts zero rows, as each of its trees does, and so
    does a restored table without leaf entries."""

    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 3))
    y = rng.integers(0, 3, size=20)
    forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(
        X, y, sample_weight=np.zeros(20))
    assert forest.get_state()["table"]["leaf_classes"].size == 0
    proba = forest.predict_proba(X)
    assert proba.dtype == np.float64 and proba.shape == (20, 3)
    assert not proba.any()
    for tree in forest.estimators_:
        assert not tree.predict_proba(X).any()

    fitted = RandomForestClassifier(n_estimators=4, random_state=1).fit(X, y)
    state = fitted.get_state()
    table = dict(state["table"])
    table["leaf_offsets"] = np.zeros_like(table["leaf_offsets"])
    table["leaf_classes"] = table["leaf_classes"][:0]
    table["leaf_proba"] = table["leaf_proba"][:0]
    restored = RandomForestClassifier().set_state({**state, "table": table})
    assert restored.predict_proba(X[:5]).tobytes() == \
        np.zeros((5, 3)).tobytes()
