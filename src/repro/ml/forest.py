"""Random Forest classifier.

Bootstrap-aggregated CART trees with random feature subsampling, the
model behind the paper's Fuzzy Hash Classifier.  The paper motivates
the choice with two properties (Section 3), both reproduced here:

* **non-linearity** — each tree partitions the abstract fuzzy-hash
  similarity space with axis-aligned thresholds, and the ensemble
  averages their probability estimates;
* **feature importance** — Gini importances are averaged over trees
  and exposed as ``feature_importances_`` (Table 5 of the paper is the
  per-hash-type aggregation of these).

A fitted forest is one **node table** (:data:`_TABLE_DTYPES`): the
trees' node arrays concatenated tree after tree, with offset arrays,
plus each tree's class indices and importances.  These are the arrays a
model artifact stores under ``forest.*`` names
(:mod:`repro.api.artifact`).  ``fit`` builds the table once from the
grown trees; ``set_state`` validates a saved one and adopts it; both
then derive, once, the view ``predict_proba`` walks.

Trees can be fitted in parallel worker processes (``n_jobs``); each
worker receives a batch of tree seeds to amortise the cost of shipping
the training matrix.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .._validation import (
    check_array_1d,
    check_array_2d,
    check_consistent_length,
    check_positive_int,
    check_random_state,
)
from ..exceptions import ValidationError
from ..parallel import effective_n_jobs, parallel_map, partition_evenly
from .base import BaseEstimator, ClassifierMixin, check_is_fitted
from .class_weight import compute_sample_weight
from .encoding import LabelEncoder
from .tree import (
    DecisionTreeClassifier,
    class_distributions,
    encode_columns,
    walk,
)

__all__ = ["RandomForestClassifier"]

#: The node table's arrays and their dtypes, in the order a model
#: artifact stores them.  Tree ``t`` owns nodes ``tree_node_offsets[t]``
#: up to ``tree_node_offsets[t + 1]``, numbered from 0 inside the tree
#: (child pointers are tree-local; leaves have feature ``-2`` and
#: children ``-1``), and its classes are the forest class indices
#: ``tree_classes[tree_class_offsets[t]:tree_class_offsets[t + 1]]``.
#: ``node_values`` holds each tree's (nodes x classes) class masses,
#: row by row, tree after tree.
_TABLE_DTYPES = {
    "tree_node_offsets": np.int64,
    "tree_class_offsets": np.int64,
    "node_feature": np.int64,
    "node_left": np.int64,
    "node_right": np.int64,
    "node_samples": np.int64,
    "node_threshold": np.float64,
    "node_values": np.float64,
    "tree_classes": np.int64,
    "tree_importances": np.float64,
    "importances": np.float64,
}


def _offsets(counts: list[int]) -> np.ndarray:
    """Start offsets of consecutive blocks of ``counts``, plus the end."""

    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _checked_table(table: Mapping, n_classes: int, n_features: int) -> dict:
    """``table``'s arrays in their table dtypes, once they are shown to
    describe a forest of ``n_classes`` classes over ``n_features``.

    An array that already has its dtype is not copied, so mapped views
    stay views.  Every internal node's children must point forward
    inside its own tree, which is how ``fit`` numbers them; this also
    makes every walk end.  Raises :class:`ValidationError` on the first
    inconsistency.
    """

    missing = [name for name in _TABLE_DTYPES if name not in table]
    if missing:
        raise ValidationError(f"forest node table is missing {missing}")
    if not np.issubdtype(np.asarray(table["tree_classes"]).dtype, np.integer):
        raise ValidationError("forest node table has tree classes that are "
                              "not integer indices into the class table")
    try:
        arrays = {name: np.asarray(table[name], dtype=dtype)
                  for name, dtype in _TABLE_DTYPES.items()}
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid forest node table: {exc}") from exc

    node_offsets = arrays["tree_node_offsets"]
    class_offsets = arrays["tree_class_offsets"]
    if node_offsets.ndim != 1 or class_offsets.shape != node_offsets.shape:
        raise ValidationError("forest node table has inconsistent tree offsets")
    if len(node_offsets) < 2:
        raise ValidationError("forest node table holds no trees")
    if node_offsets[0] != 0 or class_offsets[0] != 0:
        raise ValidationError("forest node table has tree offsets that do "
                              "not start at 0")
    sizes, class_counts = np.diff(node_offsets), np.diff(class_offsets)
    if np.any(sizes < 0) or np.any(class_counts < 0):
        raise ValidationError("forest node table has decreasing tree offsets")
    if np.any(sizes == 0):
        raise ValidationError("forest node table has a tree with no nodes")
    n_trees, n_nodes = len(sizes), int(node_offsets[-1])
    expected_shapes = {
        "node_feature": (n_nodes,),
        "node_left": (n_nodes,),
        "node_right": (n_nodes,),
        "node_samples": (n_nodes,),
        "node_threshold": (n_nodes,),
        "node_values": (int(np.dot(sizes, class_counts)),),
        "tree_classes": (int(class_offsets[-1]),),
        "tree_importances": (n_trees, n_features),
        "importances": (n_features,),
    }
    for name, shape in expected_shapes.items():
        if arrays[name].shape != shape:
            raise ValidationError(
                f"forest node table array {name!r} has shape "
                f"{arrays[name].shape}, expected {shape}")
    tree_classes = arrays["tree_classes"]
    if tree_classes.size and (tree_classes.min() < 0
                              or tree_classes.max() >= n_classes):
        raise ValidationError("forest node table has tree classes outside "
                              "the forest's class table")
    feature = arrays["node_feature"]
    if feature.min() < -2 or feature.max() >= n_features:
        raise ValidationError("forest node table references an invalid "
                              "feature")
    local = np.arange(n_nodes) - np.repeat(node_offsets[:-1], sizes)
    size = np.repeat(sizes, sizes)
    internal = feature >= 0
    for child in (arrays["node_left"], arrays["node_right"]):
        if np.any(internal & ((child <= local) | (child >= size))):
            raise ValidationError(
                "forest node table has a child pointer that does not point "
                "forward inside its own tree")
    return arrays


def _fit_tree_batch(args) -> list[DecisionTreeClassifier]:
    """Fit a batch of trees (module-level so it can cross process
    boundaries)."""

    (tree_params, X, y, sample_weight, seeds, bootstrap) = args
    n_samples = X.shape[0]
    # One encoding serves every tree: a bootstrap sample's rows of it
    # encode the sample.
    ranks, values = encode_columns(X)
    trees: list[DecisionTreeClassifier] = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        tree = DecisionTreeClassifier(random_state=int(rng.integers(0, 2**31 - 1)),
                                      **tree_params)
        if bootstrap:
            indices = rng.integers(0, n_samples, size=n_samples)
            tree._fit_encoded(ranks[indices], values, y[indices],
                              sample_weight=None if sample_weight is None
                              else sample_weight[indices])
        else:
            tree._fit_encoded(ranks, values, y, sample_weight=sample_weight)
        trees.append(tree)
    return trees


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Bootstrap-aggregated decision-tree classifier.

    Parameters mirror scikit-learn's ``RandomForestClassifier`` for the
    subset the paper tunes (``n_estimators``, ``criterion``,
    ``max_depth``, ``min_samples_split``, ``min_samples_leaf``,
    ``max_features``) plus ``class_weight`` and ``n_jobs``.
    """

    def __init__(self, n_estimators: int = 100, *, criterion: str = "gini",
                 max_depth: int | None = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features="sqrt",
                 bootstrap: bool = True, class_weight=None,
                 random_state=None, n_jobs: int = 1) -> None:
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.class_weight = class_weight
        self.random_state = random_state
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------ fit
    def fit(self, X, y, sample_weight=None) -> "RandomForestClassifier":
        X = check_array_2d(X, "X")
        y = check_array_1d(y, "y")
        check_consistent_length(X, y)
        check_positive_int(self.n_estimators, "n_estimators")
        if X.shape[0] == 0:
            raise ValidationError("cannot fit a forest on an empty data set")

        encoder = LabelEncoder()
        y_encoded = encoder.fit_transform(y)
        self.classes_ = encoder.classes_
        self.n_features_in_ = X.shape[1]

        weights = None
        if sample_weight is not None:
            weights = np.asarray(sample_weight, dtype=np.float64)
            check_consistent_length(X, weights)
        if self.class_weight is not None:
            class_sample_weight = compute_sample_weight(self.class_weight, y)
            weights = class_sample_weight if weights is None \
                else weights * class_sample_weight

        tree_params = dict(
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
        )

        rng = check_random_state(self.random_state)
        seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=self.n_estimators)]

        workers = effective_n_jobs(self.n_jobs)
        # Encode y as integers for the trees so every tree shares the same
        # class indexing as the forest.
        y_for_trees = y_encoded
        if workers <= 1 or self.n_estimators < 2 * workers:
            self.estimators_ = _fit_tree_batch(
                (tree_params, X, y_for_trees, weights, seeds, self.bootstrap))
        else:
            batches = [batch for batch in partition_evenly(seeds, workers) if batch]
            tasks = [(tree_params, X, y_for_trees, weights, batch, self.bootstrap)
                     for batch in batches]
            results = parallel_map(_fit_tree_batch, tasks, n_jobs=workers,
                                   chunksize=1, min_items_per_worker=1)
            self.estimators_ = [tree for batch in results for tree in batch]

        trees = self.estimators_
        self._install({
            "tree_node_offsets": _offsets([tree.node_count for tree in trees]),
            "tree_class_offsets": _offsets([len(tree.classes_)
                                            for tree in trees]),
            "node_feature": np.concatenate([t._node_feature for t in trees]),
            "node_left": np.concatenate([t._node_left for t in trees]),
            "node_right": np.concatenate([t._node_right for t in trees]),
            "node_samples": np.concatenate([t._node_samples for t in trees]),
            "node_threshold": np.concatenate([t._node_threshold
                                              for t in trees]),
            "node_values": np.concatenate([t._node_values.ravel()
                                           for t in trees]),
            "tree_classes": np.concatenate([t.classes_ for t in trees]
                                           ).astype(np.int64),
            "tree_importances": np.stack([t.feature_importances_
                                          for t in trees]),
            "importances": self._aggregate_importances(),
        })
        return self

    # ------------------------------------------------------------- predict
    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "_table")
        X = check_array_2d(X, "X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}")
        table = self._table
        # One walker per (tree, sample), advanced together: the loop runs
        # max-tree-depth times on one big array instead of per tree, so
        # NumPy dispatch overhead does not scale with forest size.
        leaves = walk(X, table["tree_node_offsets"][:-1], table["node_feature"],
                      table["node_threshold"], self._left, self._right)

        # Summing the per-tree leaf distributions in tree order keeps the
        # result bit-identical to the per-tree accumulation loop (absent
        # classes contribute exact zeros).  Accumulating tree by tree
        # caps the transient at one (n_samples, n_classes) gather instead
        # of materialising the full (n_trees, n_samples, n_classes) cube.
        total = np.zeros((X.shape[0], len(self.classes_)), dtype=np.float64)
        for tree_leaves in leaves:
            total += self._leaf_proba[tree_leaves]
        total /= len(leaves)
        return total

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        encoded = np.argmax(probabilities, axis=1)
        return self.classes_[encoded]

    # ---------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """The fitted forest: ``{"classes", "n_features_in", "table"}``.

        ``table`` maps the names of :data:`_TABLE_DTYPES`, in that
        order, to the arrays the forest predicts from (not copies); a
        model artifact writes them as they are, under ``forest.*``
        names.  A forest restored with :meth:`set_state` predicts
        bit-identically.
        """

        check_is_fitted(self, "_table")
        return {
            "classes": self.classes_,
            "n_features_in": int(self.n_features_in_),
            "table": dict(self._table),
        }

    def set_state(self, state: dict) -> "RandomForestClassifier":
        """Adopt a snapshot produced by :meth:`get_state`.

        The table is validated once and its arrays are adopted, copied
        only where they need a dtype conversion: a model loaded with
        ``mmap_mode="r"`` predicts from views of the file.  The restored
        forest has no ``estimators_``; nothing after a load needs tree
        objects.  Raises :class:`ValidationError` on an inconsistent
        table.
        """

        try:
            classes = np.asarray(state["classes"])
            n_features_in = int(state["n_features_in"])
            table = dict(state["table"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"invalid random-forest state: {exc}") from exc
        table = _checked_table(table, len(classes), n_features_in)
        vars(self).pop("estimators_", None)
        self.classes_ = classes
        self.n_features_in_ = n_features_in
        self._install(table)
        return self

    # ----------------------------------------------------------- internals
    def _install(self, table: dict) -> None:
        """Adopt ``table`` and derive the view ``predict_proba`` walks.

        Child pointers are rebased from tree-local to table-wide node
        ids (leaf sentinels stay ``-1``), and each tree's class masses
        are normalised per node and spread over the forest's class
        columns, so the leaves of different trees add up directly.
        """

        offsets = table["tree_node_offsets"]
        class_offsets = table["tree_class_offsets"]
        sizes = np.diff(offsets)
        first_node = np.repeat(offsets[:-1], sizes)
        left, right = table["node_left"], table["node_right"]
        self._left = np.where(left >= 0, left + first_node, left)
        self._right = np.where(right >= 0, right + first_node, right)
        tree_classes = np.split(table["tree_classes"], class_offsets[1:-1])
        tree_values = np.split(table["node_values"],
                               np.cumsum(sizes * np.diff(class_offsets))[:-1])
        self._leaf_proba = np.zeros((len(first_node), len(self.classes_)),
                                    dtype=np.float64)
        for lo, hi, classes, values in zip(offsets[:-1], offsets[1:],
                                           tree_classes, tree_values):
            self._leaf_proba[lo:hi, classes] = class_distributions(
                values.reshape(hi - lo, len(classes)))
        self._table = table
        self.feature_importances_ = table["importances"]

    def _aggregate_importances(self) -> np.ndarray:
        importances = np.zeros(self.n_features_in_, dtype=np.float64)
        for tree in self.estimators_:
            importances += tree.feature_importances_
        importances /= max(len(self.estimators_), 1)
        total = importances.sum()
        return importances / total if total > 0 else importances
