"""The per-node tree grower, kept as the reference for the lockstep one.

``repro.ml.tree._grow_trees`` grows every tree of a batch together, one
depth-first node per tree and step.  Before it, each tree was grown on
its own by the recursion below: ``_build`` made a node, ``_node``
renumbered its groups over its classes, ``_best_split`` drew the
node's feature permutation, and ``_search`` scored every threshold of
the drawn features from one histogram.  :class:`SortGrower` swaps in
the older per-feature argsort/cumsum search the histogram replaced.
The gain arithmetic (``class_mass``, ``impurity``, ``split_gains``) is
the per-node code's own copy, so a change to the library's helpers
cannot move the reference with it.

:func:`per_node_grow` stands in for ``DecisionTreeClassifier._grow``;
patching it in (:func:`reference`, :func:`fit_with`) fits trees and
forests through the reference.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import numpy as np

from repro.ml.tree import _MIN_GAIN, DecisionTreeClassifier, _Grown


def class_mass(counts, weight_table):
    n_slots, n_classes = weight_table.shape
    counts = counts.reshape(counts.shape[:-1] + (n_slots, n_classes))
    mass = counts[..., 0, :] * weight_table[0]
    for slot in range(1, n_slots):
        mass += counts[..., slot, :] * weight_table[slot]
    return mass


def impurity(mass, criterion):
    totals = mass.sum(axis=-1, keepdims=True)
    proportions = mass / np.where(totals > 0, totals, 1.0)
    if criterion == "gini":
        result = 1.0 - np.sum(proportions ** 2, axis=-1)
    else:  # entropy
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(proportions > 0, np.log2(proportions), 0.0)
        result = -np.sum(proportions * logs, axis=-1)
    return np.where(totals[..., 0] > 0, result, 0.0)


def split_gains(left_counts, node, criterion):
    children = class_mass(np.stack([left_counts, node.counts - left_counts]),
                          node.weight_table)
    weighted = children.sum(axis=-1) * impurity(children, criterion)
    return node.impurity - (weighted[0] + weighted[1]) / max(node.weight, 1e-12)


@dataclass
class Split:
    """Best split found for one node: samples with ``rank <= rank`` go left."""

    feature: int
    threshold: float
    rank: int
    impurity_decrease: float


@dataclass
class TrainingSet:
    """One tree's samples: ``ranks`` holds their rows of the encoding."""

    ranks: np.ndarray
    values: np.ndarray
    groups: np.ndarray
    weight_table: np.ndarray
    max_features: int


@dataclass
class Node:
    """One node's samples with their groups renumbered to its classes."""

    indices: np.ndarray
    groups: np.ndarray
    counts: np.ndarray
    weight_table: np.ndarray
    impurity: float
    weight: float


class PerNodeGrower:
    """Grows one tree recursively, one node at a time."""

    def __init__(self, tree: DecisionTreeClassifier, max_features: int):
        self.criterion = tree.criterion
        self.max_depth = tree.max_depth
        self.min_samples_split = tree.min_samples_split
        self.min_samples_leaf = tree.min_samples_leaf
        self.max_features = max_features

    def grow(self, ranks, values, training_set) -> _Grown:
        table = training_set.weight_table
        data = TrainingSet(
            ranks=ranks[training_set.rows], values=values,
            groups=training_set.slots * table.shape[1] + training_set.classes,
            weight_table=table, max_features=self.max_features)
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self._importances = np.zeros(ranks.shape[1])
        self._build(data, np.arange(len(training_set.rows)), 0,
                    training_set.rng)
        return _Grown(feature=np.array(self._feature, dtype=np.int64),
                      threshold=np.array(self._threshold, dtype=np.float64),
                      left=np.array(self._left, dtype=np.int64),
                      right=np.array(self._right, dtype=np.int64),
                      values=np.vstack(self._value),
                      importances=self._importances)

    def _build(self, data, indices, depth, rng) -> int:
        counts = np.bincount(data.groups[indices],
                             minlength=data.weight_table.size)
        node_value = class_mass(counts, data.weight_table)
        node_id = len(self._feature)
        self._feature.append(-2)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(node_value)
        if self._should_stop(indices, node_value, depth):
            return node_id
        split = self._best_split(data, self._node(data, indices, counts), rng)
        if split is None:
            return node_id
        self._feature[node_id] = split.feature
        self._threshold[node_id] = split.threshold
        self._importances[split.feature] += split.impurity_decrease
        left_mask = data.ranks[indices, split.feature] <= split.rank
        self._left[node_id] = self._build(data, indices[left_mask],
                                          depth + 1, rng)
        self._right[node_id] = self._build(data, indices[~left_mask],
                                           depth + 1, rng)
        return node_id

    def _should_stop(self, indices, node_value, depth) -> bool:
        if len(indices) < self.min_samples_split:
            return True
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        return np.count_nonzero(node_value > 0) <= 1

    def _node(self, data, indices, counts) -> Node:
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
        return Node(indices=indices, groups=local_group[data.groups[indices]],
                    counts=local_counts, weight_table=weight_table,
                    impurity=float(impurity(mass, self.criterion)),
                    weight=float(mass.sum()))

    def _best_split(self, data, node, rng) -> Split | None:
        draws = rng.permutation(data.ranks.shape[1])
        block = data.max_features
        split = self._search(data, node, draws[:block], first=False)
        if split is None and block < len(draws):
            split = self._search(data, node, draws[block:], first=True)
        return split

    def _search(self, data, node, features, first) -> Split | None:
        n_node = len(node.indices)
        n_groups = node.counts.size
        n_bins = data.values.shape[1]
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
        return Split(feature=int(feature[chosen]),
                     threshold=float(threshold[chosen]),
                     rank=int(rank[chosen]),
                     impurity_decrease=node.weight * float(gains[best]))


class SortGrower(PerNodeGrower):
    """The per-node grower with the per-feature argsort/cumsum search."""

    def _best_split(self, data, node, rng) -> Split | None:
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
                     & (positions >= min_leaf)
                     & (n_node - positions >= min_leaf)
                     & (thresholds < high))
            if not valid.any():
                continue
            gains = split_gains(cumulative[valid], node, self.criterion)
            local = int(np.argmax(gains))
            if gains[local] <= _MIN_GAIN:
                continue
            if gains[local] > best_gain:
                best_gain = float(gains[local])
                best = Split(feature=int(feature),
                             threshold=float(thresholds[valid][local]),
                             rank=int(sorted_ranks[:-1][valid][local]),
                             impurity_decrease=node.weight * best_gain)
        return best


def per_node_grow(grower_type):
    """A stand-in for ``DecisionTreeClassifier._grow`` that grows each
    tree alone with ``grower_type``, in the order the trees are given."""

    def grow(trees, ranks, values, sets):
        params = trees[0]
        max_features = params._resolve_max_features(ranks.shape[1])
        for tree, training_set in zip(trees, sets):
            tree._install(grower_type(params, max_features).grow(
                ranks, values, training_set))

    return staticmethod(grow)


@contextmanager
def reference(grower_type=PerNodeGrower):
    """Fit trees and forests through the per-node grower (in this
    process: forests here run with ``n_jobs=1``)."""

    with mock.patch.object(DecisionTreeClassifier, "_grow",
                           per_node_grow(grower_type)):
        yield


def fit_with(grower_type, estimator, *args, **kwargs):
    with reference(grower_type):
        return estimator.fit(*args, **kwargs)
