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

Trees can be fitted in parallel worker processes (``n_jobs``); each
worker receives a batch of tree seeds to amortise the cost of shipping
the training matrix.
"""

from __future__ import annotations

from typing import Sequence

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
from .tree import DecisionTreeClassifier, encode_columns

__all__ = ["RandomForestClassifier"]


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
        self._encoder = encoder
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

        self.feature_importances_ = self._aggregate_importances()
        self.__dict__.pop("_stacked_nodes", None)   # rebuilt lazily on predict
        return self

    # ------------------------------------------------------------- predict
    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array_2d(X, "X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}")
        if not hasattr(self, "_stacked_nodes"):
            self._stack_estimators()
        feature, threshold, left, right, roots, leaf_proba = self._stacked_nodes
        n_trees = len(self.estimators_)
        n_samples = X.shape[0]

        # Advance every (tree, sample) walker together: the loop runs
        # max-tree-depth times on one big array instead of per tree, so
        # NumPy dispatch overhead no longer scales with forest size.
        nodes = np.broadcast_to(roots[:, None], (n_trees, n_samples)).copy()
        sample_idx = np.broadcast_to(np.arange(n_samples, dtype=np.int64),
                                     (n_trees, n_samples))
        active = feature[nodes] >= 0
        while np.any(active):
            current = nodes[active]
            go_left = X[sample_idx[active], feature[current]] <= threshold[current]
            nodes[active] = np.where(go_left, left[current], right[current])
            active = feature[nodes] >= 0

        # Summing the per-tree leaf distributions in tree order keeps the
        # result bit-identical to the per-tree accumulation loop (absent
        # classes contribute exact zeros).  Accumulating tree by tree
        # caps the transient at one (n_samples, n_classes) gather instead
        # of materialising the full (n_trees, n_samples, n_classes) cube.
        total = np.zeros((n_samples, len(self.classes_)), dtype=np.float64)
        for t in range(n_trees):
            total += leaf_proba[nodes[t]]
        total /= n_trees
        return total

    def _stack_estimators(self) -> None:
        """Concatenate all tree node tables for the batched predict.

        Child pointers are rebased to global node ids (leaf sentinels
        stay negative); each node's class distribution is scattered into
        the forest's class columns so leaves from different trees sum
        directly.
        """

        n_classes = len(self.classes_)
        features, thresholds, lefts, rights, probas = [], [], [], [], []
        roots = np.zeros(len(self.estimators_), dtype=np.int64)
        offset = 0
        for t, tree in enumerate(self.estimators_):
            n_nodes = len(tree._node_feature)
            roots[t] = offset
            features.append(tree._node_feature)
            thresholds.append(tree._node_threshold)
            # Rebase internal children; keep -1 leaf sentinels as-is.
            lefts.append(np.where(tree._node_left >= 0,
                                  tree._node_left + offset, tree._node_left))
            rights.append(np.where(tree._node_right >= 0,
                                   tree._node_right + offset, tree._node_right))
            padded = np.zeros((n_nodes, n_classes), dtype=np.float64)
            padded[:, tree.classes_.astype(np.int64)] = tree._leaf_proba
            probas.append(padded)
            offset += n_nodes
        self._stacked_nodes = (
            np.concatenate(features),
            np.concatenate(thresholds),
            np.concatenate(lefts),
            np.concatenate(rights),
            roots,
            np.vstack(probas),
        )

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        encoded = np.argmax(probabilities, axis=1)
        return self.classes_[encoded]

    # ---------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """Serialisable snapshot of the fitted forest (model artifacts).

        Tree node tables are exported through
        :meth:`~repro.ml.tree.DecisionTreeClassifier.get_state`; the
        forest adds its class index and aggregated importances.  A forest
        restored with :meth:`set_state` predicts bit-identically.
        """

        check_is_fitted(self, "estimators_")
        return {
            "classes": np.asarray(self.classes_).copy(),
            "n_features_in": int(self.n_features_in_),
            "feature_importances": np.asarray(self.feature_importances_,
                                              dtype=np.float64).copy(),
            "trees": [tree.get_state() for tree in self.estimators_],
        }

    def set_state(self, state: dict) -> "RandomForestClassifier":
        """Restore a snapshot produced by :meth:`get_state`."""

        try:
            classes = np.asarray(state["classes"])
            n_features_in = int(state["n_features_in"])
            importances = np.asarray(state["feature_importances"],
                                     dtype=np.float64)
            tree_states = list(state["trees"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"invalid random-forest state: {exc}") from exc
        if not tree_states:
            raise ValidationError("random-forest state holds no trees")
        tree_params = dict(
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
        )
        estimators = []
        n_classes = len(classes)
        for tree_state in tree_states:
            tree = DecisionTreeClassifier(**tree_params).set_state(tree_state)
            # Trees carry integer-encoded class indices into the forest's
            # class table; reject pointers outside it.
            tree_classes = np.asarray(tree.classes_)
            if tree_classes.size and (not np.issubdtype(tree_classes.dtype,
                                                        np.integer)
                                      or tree_classes.min() < 0
                                      or tree_classes.max() >= n_classes):
                raise ValidationError(
                    "random-forest state has a tree whose classes fall "
                    "outside the forest's class table")
            if tree.n_features_in_ != n_features_in:
                raise ValidationError(
                    "random-forest state has a tree with a mismatched "
                    "feature count")
            estimators.append(tree)
        self.estimators_ = estimators
        self.classes_ = classes
        self.n_features_in_ = n_features_in
        self.feature_importances_ = importances
        self._encoder = LabelEncoder().set_state({"classes": classes.tolist()})
        self.__dict__.pop("_stacked_nodes", None)   # rebuilt lazily on predict
        return self

    # ----------------------------------------------------------- internals
    def _aggregate_importances(self) -> np.ndarray:
        importances = np.zeros(self.n_features_in_, dtype=np.float64)
        for tree in self.estimators_:
            importances += tree.feature_importances_
        importances /= max(len(self.estimators_), 1)
        total = importances.sum()
        return importances / total if total > 0 else importances
