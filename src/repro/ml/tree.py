"""CART decision-tree classifier.

A NumPy-vectorised implementation of the classification tree used
inside the Random Forest:

* binary splits on ``feature <= threshold``,
* Gini impurity (default) or entropy,
* per-sample weights (used to implement balanced class weights),
* random feature subsampling per split (``max_features``), which is
  what de-correlates the trees of a forest,
* Gini-importance accumulation per feature.

The split search is a histogram kernel (the split search of LightGBM,
Ke et al., NeurIPS 2017).  At fit time every column of ``X`` is
encoded once as value ranks — a similarity column holds integer scores
in [0, 100], so it has at most 101 ranks — and every sample joins a
(slot, class) group of samples with the same class and the same
weight.  Per node, one ``np.bincount`` over (candidate feature, rank,
group) yields the integer group counts of every value bin of every
candidate feature; a cumulative sum along the ranks gives every left
partition, and :func:`split_gains` scores all (feature, threshold)
pairs at once.  Weights enter once per group, as count × weight, so a
score depends on the partition alone and not on the order samples were
visited in.  The only Python-level loop left is over tree nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import (
    check_array_1d,
    check_array_2d,
    check_consistent_length,
    check_random_state,
)
from ..exceptions import ValidationError
from .base import BaseEstimator, ClassifierMixin, check_is_fitted
from .class_weight import compute_sample_weight
from .encoding import LabelEncoder

__all__ = ["DecisionTreeClassifier"]

_CRITERIA = ("gini", "entropy")

#: A split must decrease the impurity by more than this to be taken.
_MIN_GAIN = 1e-12


@dataclass
class _Split:
    """Best split found for one node: samples with ``rank <= rank`` go left."""

    feature: int
    threshold: float
    rank: int
    impurity_decrease: float


@dataclass
class _TrainingSet:
    """The training data in the form the split search reads.

    ``ranks`` and ``values`` are an :func:`encode_columns` encoding of
    ``X`` (or of a matrix ``X``'s rows are drawn from, so some ranks may
    be unused).  ``groups[i]`` is sample ``i``'s group,
    ``slot * n_classes + class``: the samples of one class with the same
    weight share a slot, whose weight is ``weight_table[slot, class]``.
    """

    ranks: np.ndarray
    values: np.ndarray
    groups: np.ndarray
    weight_table: np.ndarray
    max_features: int


@dataclass
class _Node:
    """One node's samples with their groups renumbered to its classes.

    ``groups`` codes each sample as ``slot * n_local + local class``
    over the classes present in the node; ``counts`` holds the integer
    size of each such group and ``weight_table`` their weights, of shape
    ``(n_slots, n_local)``.  ``impurity`` and ``weight`` are the node's
    own, computed from the same counts.
    """

    indices: np.ndarray
    groups: np.ndarray
    counts: np.ndarray
    weight_table: np.ndarray
    impurity: float
    weight: float


def encode_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column value ranks of a non-empty ``X``: ``(ranks, values)``.

    ``values[j, ranks[i, j]] == X[i, j]``, equal values share a rank and
    ranks follow the order of the values, so ``X[i, j] <= values[j, r]``
    exactly when ``ranks[i, j] <= r``.  Rows of ``values`` are padded to
    the largest number of distinct values in a column.
    """

    n_samples, n_features = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    new_value = np.ones(ordered.shape, dtype=bool)
    new_value[1:] = ordered[1:] != ordered[:-1]
    ordered_ranks = np.cumsum(new_value, axis=0) - 1
    ranks = np.empty((n_samples, n_features), dtype=np.intp)
    np.put_along_axis(ranks, order, ordered_ranks, axis=0)
    values = np.zeros((n_features, int(ordered_ranks[-1].max()) + 1),
                      dtype=np.float64)
    values[np.arange(n_features), ordered_ranks] = ordered
    return ranks, values


def weight_groups(classes: np.ndarray, weights: np.ndarray, n_classes: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Group samples by (class, weight): ``(slots, weight_table)``.

    ``slots[i]`` numbers sample ``i``'s weight among the distinct weights
    of its class, in increasing order, and ``weight_table[slot, class]``
    is that weight (0 where a class has fewer slots).  Balanced class
    weights, constant per class, give a single slot.
    """

    pairs, inverse = np.unique(np.column_stack([classes, weights]), axis=0,
                               return_inverse=True)
    pair_class = pairs[:, 0].astype(np.intp)
    pair_slot = np.arange(len(pairs)) - np.searchsorted(pair_class, pair_class)
    weight_table = np.zeros((int(pair_slot.max()) + 1, n_classes),
                            dtype=np.float64)
    weight_table[pair_slot, pair_class] = pairs[:, 1]
    return pair_slot[inverse.reshape(-1)], weight_table


def class_mass(counts: np.ndarray, weight_table: np.ndarray) -> np.ndarray:
    """Weighted class mass of integer group counts.

    ``counts`` has the group axis (``n_slots * n_classes``) last; the
    result has it replaced by the class axis.  Each group's count is
    multiplied by its weight once and the slots of a class are added in
    slot order, so equal counts always give bit-equal masses.
    """

    n_slots, n_classes = weight_table.shape
    counts = counts.reshape(counts.shape[:-1] + (n_slots, n_classes))
    mass = counts[..., 0, :] * weight_table[0]
    for slot in range(1, n_slots):
        mass += counts[..., slot, :] * weight_table[slot]
    return mass


def impurity(mass: np.ndarray, criterion: str) -> np.ndarray:
    """Gini or entropy impurity of class masses (class axis last)."""

    totals = mass.sum(axis=-1, keepdims=True)
    proportions = mass / np.where(totals > 0, totals, 1.0)
    if criterion == "gini":
        result = 1.0 - np.sum(proportions ** 2, axis=-1)
    else:  # entropy
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(proportions > 0, np.log2(proportions), 0.0)
        result = -np.sum(proportions * logs, axis=-1)
    return np.where(totals[..., 0] > 0, result, 0.0)


def split_gains(left_counts: np.ndarray, node: _Node, criterion: str
                ) -> np.ndarray:
    """Impurity decrease of each candidate split of ``node``.

    ``left_counts`` holds one row of integer group counts (the node's
    local groups) per candidate left child; the right child is the rest
    of the node.  Rows are scored independently, so a candidate's gain
    does not depend on which other candidates share the call.
    """

    children = class_mass(np.stack([left_counts, node.counts - left_counts]),
                          node.weight_table)
    weighted = children.sum(axis=-1) * impurity(children, criterion)
    return node.impurity - (weighted[0] + weighted[1]) / max(node.weight, 1e-12)


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """Classification tree with the scikit-learn-style interface.

    Parameters
    ----------
    criterion:
        ``"gini"`` or ``"entropy"``.
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or too
        small to split.
    min_samples_split:
        Minimum number of samples a node must have to be considered for
        splitting.
    min_samples_leaf:
        Minimum number of samples required in each child.
    max_features:
        Number of features examined per split: ``None`` (all),
        ``"sqrt"``, ``"log2"``, an int, or a float fraction.
    class_weight:
        ``None``, ``"balanced"`` or a mapping; converted to sample
        weights at ``fit`` time (multiplied with any explicit
        ``sample_weight``).
    random_state:
        Seed controlling feature subsampling.
    """

    def __init__(self, *, criterion: str = "gini", max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features=None, class_weight=None, random_state=None) -> None:
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.class_weight = class_weight
        self.random_state = random_state

    # ------------------------------------------------------------------ fit
    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        X = check_array_2d(X, "X")
        if X.shape[0] == 0:
            raise ValidationError("cannot fit a tree on an empty data set")
        return self._fit_encoded(*encode_columns(X), y, sample_weight)

    def _fit_encoded(self, ranks: np.ndarray, values: np.ndarray, y,
                     sample_weight=None) -> "DecisionTreeClassifier":
        """Fit on ``X`` given as its :func:`encode_columns` encoding.

        The rows of an encoding are an encoding of those rows, so a
        forest encodes its matrix once and passes each tree the rows of
        its bootstrap sample.
        """

        y = check_array_1d(y, "y")
        check_consistent_length(ranks, y)
        if self.criterion not in _CRITERIA:
            raise ValidationError(
                f"criterion must be one of {_CRITERIA}, got {self.criterion!r}")
        if self.min_samples_split < 2:
            raise ValidationError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")

        encoder = LabelEncoder()
        y_encoded = encoder.fit_transform(y)
        self.classes_ = encoder.classes_
        self._encoder = encoder
        n_samples, n_features = ranks.shape
        n_classes = len(self.classes_)
        self.n_features_in_ = n_features

        weights = np.ones(n_samples, dtype=np.float64)
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
            check_consistent_length(ranks, sample_weight)
            if not np.all(np.isfinite(sample_weight)):
                raise ValidationError("sample_weight must be finite")
            if np.any(sample_weight < 0):
                raise ValidationError("sample_weight must be non-negative")
            weights *= sample_weight
        if self.class_weight is not None:
            weights *= compute_sample_weight(self.class_weight, y)

        rng = check_random_state(self.random_state)
        slots, weight_table = weight_groups(y_encoded, weights, n_classes)
        data = _TrainingSet(ranks=ranks, values=values,
                            groups=slots * n_classes + y_encoded,
                            weight_table=weight_table,
                            max_features=self._resolve_max_features(n_features))

        # Flat node storage (grown dynamically).
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[np.ndarray] = []
        self._n_node_samples: list[int] = []
        self._importances = np.zeros(n_features, dtype=np.float64)

        self._build(data, np.arange(n_samples), depth=0, rng=rng)

        self.feature_importances_ = self._normalized_importances()
        self.tree_node_count_ = len(self._feature)
        self._finalize_nodes()
        return self

    # ------------------------------------------------------------- predict
    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "classes_")
        X = check_array_2d(X, "X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}")
        return self._predict_proba_raw(X)

    def _predict_proba_raw(self, X: np.ndarray) -> np.ndarray:
        """Probabilities for pre-validated input (forest hot path)."""

        return self._leaf_proba[self._apply(X)]

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def apply(self, X) -> np.ndarray:
        """Return the leaf node index reached by each sample."""

        check_is_fitted(self, "classes_")
        X = check_array_2d(X, "X")
        return self._apply(X)

    @property
    def node_count(self) -> int:
        """Total number of nodes in the fitted tree."""

        check_is_fitted(self, "classes_")
        return len(self._feature)

    def get_depth(self) -> int:
        """Depth of the fitted tree (root = depth 0)."""

        check_is_fitted(self, "classes_")
        depths = {0: 0}
        max_depth = 0
        for node in range(len(self._feature)):
            depth = depths[node]
            left, right = self._left[node], self._right[node]
            if left >= 0:
                depths[left] = depth + 1
                depths[right] = depth + 1
                max_depth = max(max_depth, depth + 1)
        return max_depth

    # ---------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """Arrays describing the fitted tree (for model artifacts).

        The snapshot holds exactly what prediction needs — the flat node
        arrays, the class index and the per-feature importances — so a
        tree restored with :meth:`set_state` predicts bit-identically.
        """

        check_is_fitted(self, "classes_")
        n_classes = len(self.classes_)
        values = (np.vstack(self._value) if self._value
                  else np.zeros((0, n_classes), dtype=np.float64))
        return {
            "feature": np.asarray(self._feature, dtype=np.int64),
            "threshold": np.asarray(self._threshold, dtype=np.float64),
            "left": np.asarray(self._left, dtype=np.int64),
            "right": np.asarray(self._right, dtype=np.int64),
            "values": values.astype(np.float64, copy=True),
            "n_node_samples": np.asarray(self._n_node_samples, dtype=np.int64),
            "classes": np.asarray(self.classes_).copy(),
            "n_features_in": int(self.n_features_in_),
            "feature_importances": np.asarray(self.feature_importances_,
                                              dtype=np.float64).copy(),
        }

    def set_state(self, state: dict) -> "DecisionTreeClassifier":
        """Restore a snapshot produced by :meth:`get_state`."""

        try:
            feature = np.asarray(state["feature"], dtype=np.int64)
            threshold = np.asarray(state["threshold"], dtype=np.float64)
            left = np.asarray(state["left"], dtype=np.int64)
            right = np.asarray(state["right"], dtype=np.int64)
            values = np.asarray(state["values"], dtype=np.float64)
            n_node_samples = np.asarray(state["n_node_samples"], dtype=np.int64)
            classes = np.asarray(state["classes"])
            n_features_in = int(state["n_features_in"])
            importances = np.asarray(state["feature_importances"],
                                     dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"invalid decision-tree state: {exc}") from exc
        n_nodes = len(feature)
        if not (len(threshold) == len(left) == len(right)
                == len(n_node_samples) == n_nodes) \
                or values.ndim != 2 or values.shape[0] != n_nodes \
                or values.shape[1] != len(classes):
            raise ValidationError("decision-tree state arrays are inconsistent")
        if n_nodes == 0:
            raise ValidationError("decision-tree state has no nodes")
        # Child pointers must stay inside the node table (leaves use -1,
        # leaf feature slots use -2): a corrupt artifact must fail here,
        # not crash inside the vectorised predict loop.
        internal = feature >= 0
        if np.any(feature >= n_features_in) or np.any(feature < -2):
            raise ValidationError("decision-tree state references an invalid feature")
        for child in (left[internal], right[internal]):
            if child.size and (child.min() < 0 or child.max() >= n_nodes):
                raise ValidationError(
                    "decision-tree state has out-of-range child pointers")
        self._feature = feature.tolist()
        self._threshold = threshold.tolist()
        self._left = left.tolist()
        self._right = right.tolist()
        self._value = [values[i] for i in range(n_nodes)]
        self._n_node_samples = n_node_samples.tolist()
        self.classes_ = classes
        self.n_features_in_ = n_features_in
        self.feature_importances_ = importances
        self._importances = importances.copy()
        self.tree_node_count_ = n_nodes
        encoder = LabelEncoder()
        encoder.set_state({"classes": classes.tolist()})
        self._encoder = encoder
        self._finalize_nodes()
        return self

    # ----------------------------------------------------------- internals
    def _resolve_max_features(self, n_features: int) -> int:
        value = self.max_features
        if value is None:
            return n_features
        if value == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if value == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            if value < 1:
                raise ValidationError("max_features as an int must be >= 1")
            return min(int(value), n_features)
        if isinstance(value, float):
            if not 0.0 < value <= 1.0:
                raise ValidationError("max_features as a float must be in (0, 1]")
            return max(1, int(value * n_features))
        raise ValidationError(f"invalid max_features: {value!r}")

    def _new_node(self, value: np.ndarray, n_samples: int) -> int:
        node_id = len(self._feature)
        self._feature.append(-2)       # -2 marks a leaf
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(value)
        self._n_node_samples.append(n_samples)
        return node_id

    def _build(self, data: _TrainingSet, indices: np.ndarray, depth: int,
               rng: np.random.Generator) -> int:
        """Grow the subtree for ``indices``; returns its root node id."""

        counts = np.bincount(data.groups[indices],
                             minlength=data.weight_table.size)
        node_value = class_mass(counts, data.weight_table)
        node_id = self._new_node(node_value, len(indices))

        if self._should_stop(indices, node_value, depth):
            return node_id

        split = self._best_split(data, self._node(data, indices, counts), rng)
        if split is None:
            return node_id

        self._feature[node_id] = split.feature
        self._threshold[node_id] = split.threshold
        self._importances[split.feature] += split.impurity_decrease

        left_mask = data.ranks[indices, split.feature] <= split.rank
        left_id = self._build(data, indices[left_mask], depth + 1, rng)
        right_id = self._build(data, indices[~left_mask], depth + 1, rng)
        self._left[node_id] = left_id
        self._right[node_id] = right_id
        return node_id

    def _should_stop(self, indices: np.ndarray, node_value: np.ndarray,
                     depth: int) -> bool:
        if len(indices) < self.min_samples_split:
            return True
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        # Pure node: all weight concentrated in one class.
        return np.count_nonzero(node_value > 0) <= 1

    def _node(self, data: _TrainingSet, indices: np.ndarray,
              counts: np.ndarray) -> _Node:
        """Renumber the node's groups over the classes present in it."""

        n_slots, n_classes = data.weight_table.shape
        counts = counts.reshape(n_slots, n_classes)
        present = counts.any(axis=0).nonzero()[0]
        local_class = np.zeros(n_classes, dtype=np.intp)
        local_class[present] = np.arange(len(present))
        local_group = (np.arange(n_slots)[:, None] * len(present)
                       + local_class).ravel()
        local_counts = counts[:, present].ravel()
        weight_table = data.weight_table[:, present]
        mass = class_mass(local_counts, weight_table)
        return _Node(indices=indices, groups=local_group[data.groups[indices]],
                     counts=local_counts, weight_table=weight_table,
                     impurity=float(impurity(mass, self.criterion)),
                     weight=float(mass.sum()))

    def _best_split(self, data: _TrainingSet, node: _Node,
                    rng: np.random.Generator) -> _Split | None:
        """The best split of ``node`` over the features ``rng`` draws.

        The first ``max_features`` draws of one permutation form a block,
        constant features included, and the best gain in the block wins
        (ties: the earlier draw, then the lower threshold).  If nothing
        in the block gains more than ``_MIN_GAIN``, the first later draw
        that does is taken instead.
        """

        draws = rng.permutation(data.ranks.shape[1])
        block = data.max_features
        split = self._search(data, node, draws[:block], first=False)
        if split is None and block < len(draws):
            split = self._search(data, node, draws[block:], first=True)
        return split

    def _search(self, data: _TrainingSet, node: _Node, features: np.ndarray,
                first: bool) -> _Split | None:
        """Score every threshold of ``features`` from one histogram.

        Returns the best split over all of them, or with ``first`` the
        best split of the earliest feature that has one.
        """

        n_node = len(node.indices)
        n_groups = node.counts.size
        n_bins = data.values.shape[1]
        # One bin per (draw, rank); the occupied bins get one histogram
        # row each, in (draw, rank) order.
        bins = data.ranks[node.indices[:, None], features]
        bins += np.arange(len(features)) * n_bins
        occupancy = np.bincount(bins.ravel(), minlength=len(features) * n_bins)
        occupied = occupancy.nonzero()[0]
        row = np.zeros(len(features) * n_bins, dtype=np.intp)
        row[occupied] = np.arange(len(occupied))
        codes = row[bins]
        codes *= n_groups
        codes += node.groups[:, None]
        histogram = np.bincount(codes.ravel(),
                                minlength=len(occupied) * n_groups)

        # A threshold lies between two adjacent occupied bins of one draw.
        # Each draw's rows hold every sample of the node once, so the
        # running sum enters draw d at d times the node's counts.
        draw = occupied // n_bins
        candidates = (draw[1:] == draw[:-1]).nonzero()[0]
        if not len(candidates):
            return None
        draw = draw[candidates]
        left = np.cumsum(histogram.reshape(-1, n_groups), axis=0)[candidates]
        left -= draw[:, None] * node.counts
        n_left = np.cumsum(occupancy[occupied])[candidates] - draw * n_node

        rank = occupied % n_bins
        feature = features[draw]
        high = data.values[feature, rank[candidates + 1]]
        rank = rank[candidates]
        threshold = (data.values[feature, rank] + high) / 2.0
        min_leaf = self.min_samples_leaf
        # The midpoint must still fall below the upper value once rounded.
        valid = ((n_left >= min_leaf) & (n_left <= n_node - min_leaf)
                 & (threshold < high)).nonzero()[0]
        if not len(valid):
            return None
        gains = split_gains(left[valid], node, self.criterion)
        if first:
            useful = gains > _MIN_GAIN
            if not useful.any():
                return None
            draw = draw[valid]
            earliest = (draw == draw[np.argmax(useful)]).nonzero()[0]
            best = earliest[int(np.argmax(gains[earliest]))]
        else:
            best = int(np.argmax(gains))
            if gains[best] <= _MIN_GAIN:
                return None
        chosen = valid[best]
        return _Split(feature=int(feature[chosen]),
                      threshold=float(threshold[chosen]),
                      rank=int(rank[chosen]),
                      impurity_decrease=node.weight * float(gains[best]))

    def _finalize_nodes(self) -> None:
        """Freeze the grown node lists into the arrays prediction uses.

        Called once at the end of ``fit``/``set_state``; prediction then
        never converts Python lists again.  ``_leaf_proba`` holds each
        node's normalised class distribution, so ``predict_proba`` is a
        single fancy-index after the leaf walk.
        """

        self._node_feature = np.array(self._feature, dtype=np.int64)
        self._node_threshold = np.array(self._threshold, dtype=np.float64)
        self._node_left = np.array(self._left, dtype=np.int64)
        self._node_right = np.array(self._right, dtype=np.int64)
        values = np.vstack(self._value)
        sums = values.sum(axis=1, keepdims=True)
        sums[sums == 0] = 1.0
        self._leaf_proba = values / sums

    def _apply(self, X: np.ndarray) -> np.ndarray:
        """Vectorised leaf lookup: advance all samples one level at a time."""

        feature = self._node_feature
        threshold = self._node_threshold
        left = self._node_left
        right = self._node_right

        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = feature[nodes] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            current = nodes[idx]
            go_left = X[idx, feature[current]] <= threshold[current]
            nodes[idx] = np.where(go_left, left[current], right[current])
            active = feature[nodes] >= 0
        return nodes

    def _normalized_importances(self) -> np.ndarray:
        total = self._importances.sum()
        if total <= 0:
            return np.zeros_like(self._importances)
        return self._importances / total
