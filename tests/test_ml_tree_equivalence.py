"""The lockstep grower builds the trees of the per-node growers.

``per_node_tree`` keeps the recursive grower that grew one tree, one
node at a time, before ``repro.ml.tree._grow_trees`` grew a batch of trees
in lockstep, and the per-feature argsort/cumsum split search before
that.  All of them read the same rank encoding and count integer
groups, so they must agree bit for bit on every node array, importance,
node table and probability.  ``training_sets`` draws at most 6 classes;
``wide_training_sets`` draws 8-40, the widths at which a gain reduced
over a padded or merged class axis would change its bits.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from per_node_tree import PerNodeGrower, SortGrower, fit_with
from repro.ml.encoding import LabelEncoder
from repro.ml.forest import RandomForestClassifier, _fit_tree_batch
from repro.ml.tree import DecisionTreeClassifier, encode_columns, weight_groups

_settings = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
_wide = settings(max_examples=10, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
REFERENCES = (PerNodeGrower, SortGrower)

#: A fitted tree's node arrays, its class index and its importances.
TREE_ARRAYS = ("_node_feature", "_node_threshold", "_node_left",
               "_node_right", "_node_values", "classes_",
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


def assert_same_forest(a, b, X):
    assert len(a.estimators_) == len(b.estimators_)
    for tree_a, tree_b in zip(a.estimators_, b.estimators_):
        assert_same_tree(tree_a, tree_b)
    assert (a.feature_importances_.tobytes()
            == b.feature_importances_.tobytes())
    assert_same_arrays(a.get_state()["table"], b.get_state()["table"])
    assert_same_proba(a, b, X)


def _weights(draw, rng, n_samples):
    kind = draw(st.sampled_from([None, "few", "integer"]))
    if kind == "few":
        return rng.choice([0.5, 1.0, 2.25], n_samples)
    if kind == "integer":
        return rng.integers(0, 4, n_samples).astype(np.float64)
    return None


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
    return X, y, _weights(draw, rng, n_samples)


@st.composite
def wide_training_sets(draw):
    """8-40 classes over up to 200 samples and 20 features: mostly
    similarity-like score columns, a dense float column now and then."""

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes = draw(st.integers(8, 40))
    n_samples = draw(st.integers(n_classes, 200))
    n_features = draw(st.integers(2, 20))
    zeros = draw(st.floats(0.5, 0.98))
    X = rng.integers(0, 101, (n_samples, n_features)).astype(np.float64)
    X[rng.random(X.shape) < zeros] = 0.0
    dense = rng.random(n_features) < draw(st.floats(0.0, 0.3))
    X[:, dense] = np.round(rng.normal(0.0, 2.0, (n_samples, dense.sum())), 1)
    y = rng.integers(0, n_classes, n_samples)
    y[:n_classes] = np.arange(n_classes)
    return X, y, _weights(draw, rng, n_samples)


hyper_parameters = st.fixed_dictionaries({
    "criterion": st.sampled_from(["gini", "entropy"]),
    "max_features": st.sampled_from(["sqrt", None, 1, 2, 3]),
    "min_samples_leaf": st.integers(1, 4),
    "max_depth": st.sampled_from([None, 1, 3]),
    "class_weight": st.sampled_from([None, "balanced"]),
})
seeds = st.integers(0, 2**31 - 1)


def check_tree(data, params, seed):
    """The lockstep tree equals both references' trees."""

    X, y, sample_weight = data
    lockstep = DecisionTreeClassifier(random_state=seed, **params).fit(
        X, y, sample_weight=sample_weight)
    for grower in REFERENCES:
        reference = fit_with(grower,
                             DecisionTreeClassifier(random_state=seed, **params),
                             X, y, sample_weight=sample_weight)
        assert_same_tree(lockstep, reference)
        assert_same_proba(lockstep, reference, X)
        assert_same_proba(lockstep, reference, X + 0.5)
    # Rows of a larger matrix's encoding (how a forest fits its trees)
    # grow the same tree as the rows' own encoding.
    ranks, values = encode_columns(np.vstack([X * 3.0, X, X - 1.0]))
    rows = DecisionTreeClassifier(random_state=seed, **params)._fit_encoded(
        ranks[len(X):2 * len(X)], values, y, sample_weight=sample_weight)
    assert_same_tree(lockstep, rows)


def check_forest(data, params, seed, bootstrap):
    """The lockstep forest equals both references' forests."""

    X, y, sample_weight = data
    settings_ = dict(n_estimators=4, bootstrap=bootstrap, random_state=seed,
                     **params)
    lockstep = RandomForestClassifier(**settings_).fit(
        X, y, sample_weight=sample_weight)
    for grower in REFERENCES:
        reference = fit_with(grower, RandomForestClassifier(**settings_), X, y,
                             sample_weight=sample_weight)
        assert_same_forest(lockstep, reference, X)


@_settings
@given(training_sets(), hyper_parameters, seeds)
def test_tree_matches_sort_search(data, params, seed):
    """Trees equal those of the sort search and the per-node grower."""

    check_tree(data, params, seed)


@_wide
@given(wide_training_sets(), hyper_parameters, seeds)
def test_wide_tree_matches_sort_search(data, params, seed):
    check_tree(data, params, seed)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(training_sets(), hyper_parameters, seeds, st.booleans())
def test_forest_matches_sort_search(data, params, seed, bootstrap):
    """Forests equal those of the sort search and the per-node grower."""

    check_forest(data, params, seed, bootstrap)


@_wide
@given(wide_training_sets(), hyper_parameters, seeds, st.booleans())
def test_wide_forest_matches_sort_search(data, params, seed, bootstrap):
    check_forest(data, params, seed, bootstrap)


@_wide
@given(st.one_of(training_sets(), wide_training_sets()), hyper_parameters,
       st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=5),
       st.booleans())
def test_tree_does_not_depend_on_its_batch(data, params, tree_seeds,
                                           bootstrap):
    """A batch's trees equal the same seeds fitted one at a time."""

    X, y, sample_weight = data
    y = LabelEncoder().fit_transform(y)
    # A forest passes class weights in as sample weights.
    tree_params = {name: value for name, value in params.items()
                   if name != "class_weight"}
    together = _fit_tree_batch((tree_params, X, y, sample_weight, tree_seeds,
                                bootstrap))
    for seed, tree in zip(tree_seeds, together):
        alone, = _fit_tree_batch((tree_params, X, y, sample_weight, [seed],
                                  bootstrap))
        assert_same_tree(tree, alone)


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
    lockstep = DecisionTreeClassifier(max_features=2, random_state=seed).fit(X, y)
    assert lockstep._node_feature[0] == 3
    assert lockstep._node_threshold[0] == 20.0
    for grower in REFERENCES:
        assert_same_tree(lockstep, fit_with(
            grower, DecisionTreeClassifier(max_features=2, random_state=seed),
            X, y))


def test_negative_zero_mass_keeps_its_sign_beside_more_weight_slots():
    # Class 3 weighs -0.0, so its masses are -0.0.  Grown beside a tree
    # with two weight slots, the tree's table is padded to two slots,
    # and the padding must not turn those masses into +0.0.
    rng = np.random.default_rng(5)
    X = rng.integers(0, 5, (40, 4)).astype(np.float64)
    y = np.repeat([0, 1, 2, 3], 10)
    weights = np.where(y == 3, -0.0, 1.0)
    two_slots = weights.copy()
    two_slots[0] = 2.0
    ranks, values = encode_columns(X)
    rows = np.arange(len(X))
    alone = DecisionTreeClassifier(random_state=1)
    DecisionTreeClassifier._grow([alone], ranks, values,
                                 [alone._training_set(rows, y, weights)])
    batch = [DecisionTreeClassifier(random_state=1),
             DecisionTreeClassifier(random_state=2)]
    DecisionTreeClassifier._grow(batch, ranks, values, [
        batch[0]._training_set(rows, y, weights),
        batch[1]._training_set(rows, y, two_slots)])
    assert np.signbit(alone._node_values).any()
    assert_same_tree(batch[0], alone)
    for grower in REFERENCES:
        assert_same_tree(alone, fit_with(
            grower, DecisionTreeClassifier(random_state=1), X, y,
            sample_weight=weights))


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
