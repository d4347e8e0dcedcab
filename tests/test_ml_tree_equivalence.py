"""The histogram split search builds the trees of the sort-based search.

``sort_split`` is the per-feature argsort/cumsum search the tree used
before the histogram kernel, kept here as the reference: it reads the
same rank encoding, counts integer groups and scores candidates with the
shared :func:`repro.ml.tree.split_gains`, so the two must agree bit for
bit on every node array, importance and probability.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import (
    DecisionTreeClassifier,
    _MIN_GAIN,
    _Split,
    encode_columns,
    split_gains,
    weight_groups,
)

_settings = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def sort_split(self, data, node, rng):
    """Reference split search: one argsort and one cumsum per drawn feature."""

    draws = rng.permutation(data.ranks.shape[1])
    n_node = len(node.indices)
    onehot = np.zeros((n_node, node.counts.size), dtype=np.int64)
    onehot[np.arange(n_node), node.groups] = 1
    positions = np.arange(1, n_node)
    min_leaf = self.min_samples_leaf
    best, best_gain, examined = None, -np.inf, 0
    for feature in draws:
        if examined >= data.max_features and best is not None:
            break
        examined += 1
        ranks = data.ranks[node.indices, feature]
        order = np.argsort(ranks, kind="stable")
        sorted_ranks = ranks[order]
        if sorted_ranks[0] == sorted_ranks[-1]:
            continue  # constant in this node
        cumulative = np.cumsum(onehot[order], axis=0)[:-1]
        low = data.values[feature, sorted_ranks[:-1]]
        high = data.values[feature, sorted_ranks[1:]]
        thresholds = (low + high) / 2.0
        valid = ((sorted_ranks[1:] != sorted_ranks[:-1])
                 & (positions >= min_leaf) & (n_node - positions >= min_leaf)
                 & (thresholds < high))
        if not valid.any():
            continue
        gains = split_gains(cumulative[valid], node, self.criterion)
        local = int(np.argmax(gains))
        if gains[local] <= _MIN_GAIN:
            continue
        if gains[local] > best_gain:
            best_gain = float(gains[local])
            best = _Split(feature=int(feature),
                          threshold=float(thresholds[valid][local]),
                          rank=int(sorted_ranks[:-1][valid][local]),
                          impurity_decrease=node.weight * best_gain)
    return best


def sort_search(estimator, *args, **kwargs):
    """Fit ``estimator`` with the reference split search in place of the
    kernel (in this process: forests here run with ``n_jobs=1``)."""

    with mock.patch.object(DecisionTreeClassifier, "_best_split", sort_split):
        return estimator.fit(*args, **kwargs)


#: A fitted tree's node arrays, its class index and its importances.
TREE_ARRAYS = ("_node_feature", "_node_threshold", "_node_left",
               "_node_right", "_node_samples", "_node_values", "classes_",
               "feature_importances_")


def assert_same_arrays(a, b):
    """Two name -> array mappings hold equal arrays: names, order, dtype,
    shape and bytes."""

    assert list(a) == list(b)
    for name, value in a.items():
        other = b[name]
        assert value.dtype == other.dtype, name
        assert value.shape == other.shape, name
        assert value.tobytes() == other.tobytes(), name


def assert_same_tree(a, b):
    assert a.n_features_in_ == b.n_features_in_
    assert_same_arrays({name: getattr(a, name) for name in TREE_ARRAYS},
                       {name: getattr(b, name) for name in TREE_ARRAYS})


def assert_same_proba(a, b, X):
    assert a.predict_proba(X).tobytes() == b.predict_proba(X).tobytes()


@st.composite
def training_sets(draw):
    """Similarity-like matrices (integer scores, heavy zero ties) with
    float columns, integer or string labels and optional weights."""

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_samples = draw(st.integers(2, 60))
    n_features = draw(st.integers(1, 7))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["score", "float", "adjacent",
                                               "constant"]),
                              min_size=n_features, max_size=n_features)):
        if kind == "score":
            scores = rng.integers(0, 101, n_samples).astype(np.float64)
            scores[rng.random(n_samples) < draw(st.floats(0.0, 0.95))] = 0.0
            columns.append(scores)
        elif kind == "float":
            columns.append(np.round(rng.normal(0.0, 2.0, n_samples), 2))
        elif kind == "adjacent":
            # Neighbouring doubles: some midpoints round onto the upper value.
            columns.append(1.0 + rng.integers(0, 4, n_samples) * 2.0 ** -52)
        else:
            columns.append(np.full(n_samples, 7.0))
    X = np.column_stack(columns)
    n_classes = draw(st.integers(1, 6))
    y = rng.integers(0, n_classes, n_samples)
    if draw(st.booleans()):
        y = np.array([f"app-{label}" for label in y])
    weights = draw(st.sampled_from([None, "few", "integer"]))
    if weights == "few":
        sample_weight = rng.choice([0.5, 1.0, 2.25], n_samples)
    elif weights == "integer":
        sample_weight = rng.integers(0, 4, n_samples).astype(np.float64)
    else:
        sample_weight = None
    return X, y, sample_weight


hyper_parameters = st.fixed_dictionaries({
    "criterion": st.sampled_from(["gini", "entropy"]),
    "max_features": st.sampled_from(["sqrt", None, 1, 2, 3]),
    "min_samples_leaf": st.integers(1, 4),
    "max_depth": st.sampled_from([None, 1, 3]),
    "class_weight": st.sampled_from([None, "balanced"]),
})


@_settings
@given(training_sets(), hyper_parameters, st.integers(0, 2**31 - 1))
def test_tree_matches_sort_search(data, params, seed):
    X, y, sample_weight = data
    kernel = DecisionTreeClassifier(random_state=seed, **params).fit(
        X, y, sample_weight=sample_weight)
    reference = sort_search(DecisionTreeClassifier(random_state=seed, **params),
                            X, y, sample_weight=sample_weight)
    assert_same_tree(kernel, reference)
    assert_same_proba(kernel, reference, X)
    assert_same_proba(kernel, reference, X + 0.5)
    # Rows of a larger matrix's encoding (how a forest fits its trees)
    # grow the same tree as the rows' own encoding.
    ranks, values = encode_columns(np.vstack([X * 3.0, X, X - 1.0]))
    rows = DecisionTreeClassifier(random_state=seed, **params)._fit_encoded(
        ranks[len(X):2 * len(X)], values, y, sample_weight=sample_weight)
    assert_same_tree(kernel, rows)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(training_sets(), hyper_parameters, st.integers(0, 2**31 - 1),
       st.booleans())
def test_forest_matches_sort_search(data, params, seed, bootstrap):
    X, y, sample_weight = data
    settings_ = dict(n_estimators=4, bootstrap=bootstrap, random_state=seed,
                     **params)
    kernel = RandomForestClassifier(**settings_).fit(
        X, y, sample_weight=sample_weight)
    reference = sort_search(RandomForestClassifier(**settings_), X, y,
                            sample_weight=sample_weight)
    for a, b in zip(kernel.estimators_, reference.estimators_):
        assert_same_tree(a, b)
    assert (kernel.feature_importances_.tobytes()
            == reference.feature_importances_.tobytes())
    assert_same_arrays(kernel.get_state()["table"],
                       reference.get_state()["table"])
    assert_same_proba(kernel, reference, X)


def test_constant_block_falls_back_to_first_useful_draw():
    # Features 0-2 are constant; only feature 3 separates the classes.
    X = np.column_stack([np.zeros(8), np.ones(8), np.full(8, 5.0),
                         [0, 0, 0, 0, 40, 60, 80, 100]])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    # Pick a seed whose root draws (the tree's first use of its
    # generator) start with two constant features, so the whole first
    # block (max_features=2) is constant.
    seed = next(s for s in range(100)
                if 3 not in np.random.default_rng(s).permutation(4)[:2])
    kernel = DecisionTreeClassifier(max_features=2, random_state=seed).fit(X, y)
    reference = sort_search(
        DecisionTreeClassifier(max_features=2, random_state=seed), X, y)
    assert kernel._node_feature[0] == 3
    assert kernel._node_threshold[0] == 20.0
    assert_same_tree(kernel, reference)


@_settings
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 5))
def test_encode_columns_round_trips(seed, n_samples, n_features):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, (n_samples, n_features)) * rng.choice(
        [1.0, 0.25, -3.0], n_features)
    ranks, values = encode_columns(X)
    assert values.shape == (n_features, ranks.max() + 1)
    assert np.array_equal(values[np.arange(n_features), ranks], X)
    for j in range(n_features):
        column = X[:, j]
        assert np.array_equal(ranks[:, j], np.unique(column,
                                                     return_inverse=True)[1])


def test_weight_groups_one_slot_per_distinct_weight():
    classes = np.array([0, 0, 1, 1, 1, 2])
    weights = np.array([2.0, 2.0, 0.5, 3.0, 0.5, 1.0])
    slots, table = weight_groups(classes, weights, 4)
    assert slots.tolist() == [0, 0, 0, 1, 0, 0]
    assert table.tolist() == [[2.0, 0.5, 1.0, 0.0], [0.0, 3.0, 0.0, 0.0]]
