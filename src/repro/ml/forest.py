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
trees' structure arrays concatenated tree after tree, with their offsets,
then each leaf's non-zero class probabilities in compressed rows (one
offsets array over the nodes plus flat class and probability arrays),
and the importances.  These are the arrays a model artifact stores under
``forest.*`` names (:mod:`repro.api.artifact`).  ``fit`` builds the
table once from the grown trees; ``set_state`` validates a saved one
(model formats 1–5 are upgraded to it first, :mod:`repro.upgrade`) and
adopts it.  Both then derive, once, the self-looping view
``predict_proba`` walks (:func:`repro.ml.tree.walk`); the leaves reached
add their entries with one ``np.bincount``.

Trees can be fitted in parallel worker processes (``n_jobs``); each
worker receives a batch of tree seeds, to amortise the cost of shipping
the training matrix, and grows the batch's trees together in lockstep
(:func:`repro.ml.tree._grow_trees`).
"""

from __future__ import annotations

from typing import Iterable, Mapping

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
    _offsets,
    class_distributions,
    encode_columns,
    loop_leaves,
    walk,
)

__all__ = ["RandomForestClassifier"]

#: The node table's arrays and their dtypes, in the order a model
#: artifact stores them.  Tree ``t`` owns nodes ``tree_node_offsets[t]``
#: up to ``tree_node_offsets[t + 1]``, numbered from 0 inside the tree
#: (child pointers are tree-local; leaves have feature ``-2`` and
#: children ``-1``).  Node ``i`` owns the leaf entries
#: ``leaf_offsets[i]`` up to ``leaf_offsets[i + 1]``: a leaf's non-zero
#: class probabilities, as forest class indices (``leaf_classes``,
#: ascending within the leaf) and values (``leaf_proba``).  An internal
#: node owns none, since prediction never reads it.
_TABLE_DTYPES = {
    "tree_node_offsets": np.int64,
    "node_feature": np.int64,
    "node_left": np.int64,
    "node_right": np.int64,
    "node_threshold": np.float64,
    "leaf_offsets": np.int64,
    "leaf_classes": np.int64,
    "leaf_proba": np.float64,
    "importances": np.float64,
}

def _leaf_arrays(trees: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]
                 ) -> dict:
    """The leaf entries of trees given as ``(values, classes, leaf)``.

    ``values`` holds one tree's (nodes x classes) class masses,
    ``classes`` its forest class indices and ``leaf`` marks its leaves.
    Each row is normalised by :func:`~repro.ml.tree.class_distributions`
    and a leaf keeps its non-zero entries, in class-column order; an
    internal node keeps none.  ``fit`` and the upgrade of a dense table
    (:mod:`repro.upgrade`) both go through here, so the same rows give
    the same bits.
    """

    counts, classes, proba = [], [], []
    for values, tree_classes, leaf in trees:
        distributions = class_distributions(values)
        distributions[~leaf] = 0.0
        nodes, columns = distributions.nonzero()
        counts.append(np.bincount(nodes, minlength=len(values)))
        classes.append(tree_classes[columns])
        proba.append(distributions[nodes, columns])
    return {"leaf_offsets": _offsets(np.concatenate(counts)),
            "leaf_classes": np.concatenate(classes).astype(np.int64),
            "leaf_proba": np.concatenate(proba)}


def _typed(table: Mapping, dtypes: dict, classes: str) -> dict:
    """``table``'s arrays of ``dtypes``, converted; ``classes`` names the
    array of class indices, which must already be integers.

    An array that already has its dtype is not copied, so mapped views
    stay views.
    """

    missing = [name for name in dtypes if name not in table]
    if missing:
        raise ValidationError(f"forest node table is missing {missing}")
    if not np.issubdtype(np.asarray(table[classes]).dtype, np.integer):
        raise ValidationError(
            f"forest node table has {classes.replace('_', ' ')} that are "
            "not integer indices into the class table")
    try:
        return {name: np.asarray(table[name], dtype=dtype)
                for name, dtype in dtypes.items()}
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid forest node table: {exc}") from exc


def _check_shapes(arrays: dict, shapes: dict) -> None:
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValidationError(
                f"forest node table array {name!r} has shape "
                f"{arrays[name].shape}, expected {shape}")


def _check_classes(classes: np.ndarray, n_classes: int, what: str) -> None:
    if classes.size and (classes.min() < 0 or classes.max() >= n_classes):
        raise ValidationError(f"forest node table has {what} outside the "
                              "forest's class table")


def _checked_nodes(arrays: dict, n_features: int) -> np.ndarray:
    """Check the tree structure of a table typed by :func:`_typed`;
    returns which nodes are internal.

    Every internal node's children must point forward inside its own
    tree, and no node may have two parents, which is how ``fit`` builds
    trees; this also bounds the depth every walk runs.  Raises
    :class:`ValidationError` on the first inconsistency.
    """

    node_offsets = arrays["tree_node_offsets"]
    if node_offsets.ndim != 1:
        raise ValidationError("forest node table has inconsistent tree offsets")
    if len(node_offsets) < 2:
        raise ValidationError("forest node table holds no trees")
    if node_offsets[0] != 0:
        raise ValidationError("forest node table has tree offsets that do "
                              "not start at 0")
    sizes = np.diff(node_offsets)
    if np.any(sizes < 0):
        raise ValidationError("forest node table has decreasing tree offsets")
    if np.any(sizes == 0):
        raise ValidationError("forest node table has a tree with no nodes")
    n_nodes = int(node_offsets[-1])
    _check_shapes(arrays, {"node_feature": (n_nodes,), "node_left": (n_nodes,),
                           "node_right": (n_nodes,),
                           "node_threshold": (n_nodes,),
                           "importances": (n_features,)})
    feature = arrays["node_feature"]
    if feature.min() < -2 or feature.max() >= n_features:
        raise ValidationError("forest node table references an invalid "
                              "feature")
    first = np.repeat(node_offsets[:-1], sizes)
    local = np.arange(n_nodes) - first
    size = np.repeat(sizes, sizes)
    internal = feature >= 0
    children = []
    for child in (arrays["node_left"], arrays["node_right"]):
        if np.any(internal & ((child <= local) | (child >= size))):
            raise ValidationError(
                "forest node table has a child pointer that does not point "
                "forward inside its own tree")
        children.append((child + first)[internal])
    if np.bincount(np.concatenate(children), minlength=n_nodes).max() > 1:
        raise ValidationError("forest node table has a node with two parents")
    return internal


def _checked_table(table: Mapping, n_classes: int, n_features: int) -> dict:
    """``table``'s arrays in their table dtypes, once they are shown to
    describe a forest of ``n_classes`` classes over ``n_features``
    (:func:`_checked_nodes`, then the leaf entries).  Raises
    :class:`ValidationError` on the first inconsistency.
    """

    arrays = _typed(table, _TABLE_DTYPES, "leaf_classes")
    internal = _checked_nodes(arrays, n_features)
    leaf_offsets, leaf_classes = arrays["leaf_offsets"], arrays["leaf_classes"]
    _check_shapes(arrays, {"leaf_offsets": (len(internal) + 1,),
                           "leaf_classes": (leaf_classes.size,),
                           "leaf_proba": (leaf_classes.size,)})
    counts = np.diff(leaf_offsets)
    if (leaf_offsets[0] != 0 or np.any(counts < 0)
            or leaf_offsets[-1] != leaf_classes.size):
        raise ValidationError("forest node table has leaf offsets that do "
                              "not rise from 0 to the number of leaf entries")
    if np.any(counts[internal] > 0):
        raise ValidationError("forest node table has an internal node that "
                              "owns leaf entries")
    _check_classes(leaf_classes, n_classes, "leaf classes")
    return arrays


def _fit_tree_batch(args) -> list[DecisionTreeClassifier]:
    """Fit a batch of trees, grown together in lockstep (module-level so
    it can cross process boundaries)."""

    (tree_params, X, y, sample_weight, seeds, bootstrap) = args
    n_samples = X.shape[0]
    # One encoding serves every tree: each grows on the rows of its
    # bootstrap sample.
    ranks, values = encode_columns(X)
    trees: list[DecisionTreeClassifier] = []
    sets = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        tree = DecisionTreeClassifier(random_state=int(rng.integers(0, 2**31 - 1)),
                                      **tree_params)
        rows = (rng.integers(0, n_samples, size=n_samples) if bootstrap
                else np.arange(n_samples))
        sets.append(tree._training_set(
            rows, y[rows],
            None if sample_weight is None else sample_weight[rows]))
        trees.append(tree)
    DecisionTreeClassifier._grow(trees, ranks, values, sets)
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
            "node_feature": np.concatenate([t._node_feature for t in trees]),
            "node_left": np.concatenate([t._node_left for t in trees]),
            "node_right": np.concatenate([t._node_right for t in trees]),
            "node_threshold": np.concatenate([t._node_threshold
                                              for t in trees]),
            **_leaf_arrays((t._node_values, t.classes_, t._node_feature < 0)
                           for t in trees),
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
        # the forest's depth times on one big array instead of per tree,
        # so NumPy dispatch overhead does not scale with forest size.
        leaves = walk(X, self._trees).ravel()

        # Every reached leaf's entries, in (tree, sample) order, go into
        # one bincount, which adds them in input order: each cell gets
        # its non-zero terms in tree order, starting from 0.0, as a
        # tree-by-tree sum of dense leaf rows would (the terms left out
        # are exact zeros), so the result is bit-identical to it.
        offsets = table["leaf_offsets"]
        first = offsets[leaves]
        counts = offsets[leaves + 1] - first
        entries = np.arange(counts.sum()) + np.repeat(
            first - np.cumsum(counts) + counts, counts)
        n_samples, n_classes = X.shape[0], len(self.classes_)
        n_trees = len(self._trees.roots)
        samples = np.repeat(np.tile(np.arange(n_samples), n_trees), counts)
        total = np.bincount(samples * n_classes
                            + table["leaf_classes"][entries],
                            weights=table["leaf_proba"][entries],
                            minlength=n_samples * n_classes)
        # Over no entries at all (every leaf's class mass was 0) bincount
        # counts in integers; the forest then predicts zero rows, as each
        # of its trees does.
        total = total.astype(np.float64, copy=False).reshape(n_samples,
                                                             n_classes)
        total /= n_trees
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
        ``mmap_mode="r"`` predicts from views of the file.  Only the leaf
        table is read; :func:`repro.upgrade.upgrade_model` converts the
        dense table of model formats 1–5 to it first.  The restored
        forest has no ``estimators_``;
        nothing after a load needs tree objects.  Raises
        :class:`ValidationError` on an inconsistent table.
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
        """Adopt ``table`` and derive the view ``predict_proba`` walks:
        child pointers rebased to table-wide node ids, leaves that loop
        on themselves, and the forest's depth
        (:func:`~repro.ml.tree.loop_leaves`)."""

        self._trees = loop_leaves(table["tree_node_offsets"],
                                  table["node_feature"],
                                  table["node_threshold"], table["node_left"],
                                  table["node_right"])
        self._table = table
        self.feature_importances_ = table["importances"]

    def _aggregate_importances(self) -> np.ndarray:
        importances = np.zeros(self.n_features_in_, dtype=np.float64)
        for tree in self.estimators_:
            importances += tree.feature_importances_
        importances /= max(len(self.estimators_), 1)
        total = importances.sum()
        return importances / total if total > 0 else importances
