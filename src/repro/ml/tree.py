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
weight.  One ``np.bincount`` over (node, drawn feature, rank, group)
yields the integer group counts of every value bin of every drawn
feature; a cumulative sum along the ranks gives every left partition,
and :func:`split_gains` scores all (feature, threshold) pairs at once.
Weights enter once per group, as count × weight, so a score depends on
the partition alone and not on the order samples were visited in.

:func:`_grow_trees` grows a batch of trees in lockstep: at each step
every unfinished tree expands its next node in depth-first order, and
one batched search serves all of them, so the number of NumPy calls
follows the depth-first steps of the largest tree rather than the
number of nodes.  Each tree keeps its own generator and draw order, and
every gain is reduced over its own node's classes, so a tree's arrays
are bit-identical to growing it alone, one node at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


#: Cells one batched split search may fill at once: a step searches its
#: nodes in chunks whose bound on samples x draws, (node, draw, rank)
#: bins and histogram rows x class groups stays under it, and the node
#: masses are counted in chunks under it too, so the temporaries stay a
#: few MiB however many trees grow together.
_CELL_BUDGET = 1 << 18


@dataclass
class _TrainingSet:
    """One tree's samples, in the form the grower reads.

    Sample ``i`` is row ``rows[i]`` of the encoding the trees share (a
    bootstrap sample repeats rows), of class ``classes[i]`` among the
    tree's ``n_classes``, and in weight slot ``slots[i]``
    (:func:`weight_groups`), whose weight is ``weight_table[slot,
    class]``.  ``rng`` draws one feature permutation per searched node,
    in depth-first order.
    """

    rows: np.ndarray
    classes: np.ndarray
    slots: np.ndarray
    weight_table: np.ndarray
    rng: np.random.Generator


class _Grown(NamedTuple):
    """A grown tree's node arrays, nodes numbered depth first, and its
    unnormalised importances (see ``DecisionTreeClassifier._install``)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    values: np.ndarray
    importances: np.ndarray


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


def class_mass(counts: np.ndarray, weight_table: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Weighted class mass of integer group counts (into ``out``).

    ``counts`` has the group axis (``n_slots * n_classes``) last; the
    result has it replaced by the class axis.  ``weight_table`` is
    ``(..., n_slots, n_classes)``, one table or one per row of
    ``counts``.  Each group's count is multiplied by its weight once and
    the slots of a class are added in slot order, so equal counts always
    give bit-equal masses.
    """

    n_slots, n_classes = weight_table.shape[-2:]
    counts = counts.reshape(counts.shape[:-1] + (n_slots, n_classes))
    mass = np.multiply(counts[..., 0, :], weight_table[..., 0, :], out=out)
    for slot in range(1, n_slots):
        mass += counts[..., slot, :] * weight_table[..., slot, :]
    return mass


def impurity(mass: np.ndarray, criterion: str) -> np.ndarray:
    """Gini or entropy impurity of class masses (class axis last)."""

    totals = mass.sum(axis=-1)
    return _impurity(mass / np.where(totals > 0, totals, 1.0)[..., None],
                     totals, criterion)


def _impurity(proportions: np.ndarray, totals: np.ndarray, criterion: str
              ) -> np.ndarray:
    """:func:`impurity` from the class proportions, which it overwrites,
    and the masses' totals."""

    if criterion == "gini":
        result = 1.0 - np.sum(np.square(proportions, out=proportions),
                              axis=-1)
    else:  # entropy
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(proportions > 0, np.log2(proportions), 0.0)
        result = -np.sum(np.multiply(proportions, logs, out=logs), axis=-1)
    return np.where(totals > 0, result, 0.0)


def split_gains(left: np.ndarray, counts: np.ndarray, weight_table: np.ndarray,
                node_impurity: np.ndarray, node_weight: np.ndarray,
                criterion: str) -> np.ndarray:
    """Impurity decrease of candidate splits, one per row.

    Row ``i`` splits a node whose local group counts are ``counts[i]``
    (overwritten), with weights ``weight_table[i]`` (``n_slots x
    n_local``), impurity ``node_impurity[i]`` and weight
    ``node_weight[i]``, into ``left[i]`` and the rest.  Every reduction
    runs along the class axis of a block whose rows all have the node's
    own number of local classes: np.sum gives a row of such a block the
    bits it gives the row alone, while padding a row with zero classes
    can change them.
    """

    children = np.empty((2, len(left), weight_table.shape[-1]))
    class_mass(left, weight_table, out=children[0])
    class_mass(np.subtract(counts, left, out=counts), weight_table,
               out=children[1])
    totals = children.sum(axis=-1)
    children /= np.where(totals > 0, totals, 1.0)[..., None]
    weighted = totals * _impurity(children, totals, criterion)
    return node_impurity - ((weighted[0] + weighted[1])
                            / np.maximum(node_weight, 1e-12))


class LoopedTrees(NamedTuple):
    """Trees stored back to back, in the form :func:`walk` reads.

    ``roots`` holds each tree's root.  Child ids index the whole node
    arrays, and every leaf loops on itself: its feature is 0, its
    threshold ``+inf`` and both its children are the leaf.  ``depth``
    is the number of levels from a root to the deepest leaf.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    depth: int


def tree_depth(roots: np.ndarray, internal: np.ndarray, left: np.ndarray,
               right: np.ndarray) -> int:
    """Levels from ``roots`` to the deepest leaf below them.

    ``internal`` marks the internal nodes, whose children index the same
    arrays as ``roots``; the children of a leaf are never read.  One
    vectorised step per level: each level's internal nodes give the
    next level's nodes.  Every node is visited once, and the pass ends,
    because each node below a root has exactly one parent and a greater
    id than it: ``fit`` builds trees that way, and a forest checks both
    on a loaded node table.
    """

    depth, nodes = 0, roots[internal[roots]]
    while len(nodes):
        depth += 1
        nodes = np.concatenate([left[nodes], right[nodes]])
        nodes = nodes[internal[nodes]]
    return depth


def loop_leaves(offsets: np.ndarray, feature: np.ndarray,
                threshold: np.ndarray, left: np.ndarray, right: np.ndarray
                ) -> LoopedTrees:
    """The :class:`LoopedTrees` view of trees stored back to back.

    Tree ``t`` owns nodes ``offsets[t]`` up to ``offsets[t + 1]``, with
    tree-local child ids, and a leaf is a node with a negative feature
    (``fit`` gives it feature ``-2`` and children ``-1``).  The arrays
    are not modified.
    """

    sizes = np.diff(offsets)
    leaf = feature < 0
    node = np.arange(len(feature), dtype=np.int64)
    first = np.repeat(offsets[:-1], sizes)
    looped_left = np.where(leaf, node, left + first)
    looped_right = np.where(leaf, node, right + first)
    return LoopedTrees(
        roots=offsets[:-1], feature=np.where(leaf, 0, feature),
        threshold=np.where(leaf, np.inf, threshold),
        left=looped_left, right=looped_right,
        depth=tree_depth(offsets[:-1], ~leaf, looped_left, looped_right))


def walk(X: np.ndarray, trees: LoopedTrees) -> np.ndarray:
    """The leaf each (tree, sample) pair reaches: ``(len(roots), len(X))``.

    One walker per tree and sample starts at the tree's root and moves
    one level per step: left when ``X[sample, feature[node]] <=
    threshold[node]``, else right.  A walker that reached its leaf stays
    there, because the leaf loops on itself, so every walker takes
    exactly ``trees.depth`` steps, with no test for which have stopped.
    """

    n_samples, n_features = X.shape
    nodes = np.repeat(trees.roots[:, None], n_samples, axis=1)
    # Row starts in the flat X, so one gather reads each walker's value.
    row_start = np.arange(n_samples, dtype=np.int64) * n_features
    flat = X.ravel()
    for _ in range(trees.depth):
        go_left = (flat[row_start + trees.feature[nodes]]
                   <= trees.threshold[nodes])
        nodes = np.where(go_left, trees.left[nodes], trees.right[nodes])
    return nodes


def class_distributions(values: np.ndarray) -> np.ndarray:
    """Rows of class masses scaled to sum to one (all-zero rows stay 0)."""

    sums = values.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    return values / sums


def _offsets(counts) -> np.ndarray:
    """Start offsets of consecutive blocks of ``counts``, plus the end."""

    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The positions ``starts[i]`` up to ``ends[i]``, range after range."""

    sizes = ends - starts
    return (np.arange(sizes.sum(), dtype=np.intp)
            + np.repeat(starts - np.cumsum(sizes) + sizes, sizes))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal, adjacent ``keys`` starts."""

    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return new.nonzero()[0]


def _bounds(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of the runs of equal, adjacent ``keys``."""

    starts = _run_starts(keys)
    return starts, np.append(starts[1:], len(keys))


def _chunks(cells: np.ndarray) -> list[np.ndarray]:
    """Consecutive index blocks whose ``cells`` sum to at most
    :data:`_CELL_BUDGET` (a larger single entry is a block alone)."""

    chunks, first, total = [], 0, 0
    for i, size in enumerate(cells.tolist()):
        if total and total + size > _CELL_BUDGET:
            chunks.append(np.arange(first, i))
            first, total = i, 0
        total += size
    chunks.append(np.arange(first, len(cells)))
    return chunks


def _search(ranks: np.ndarray, values: np.ndarray, rows: np.ndarray,
            codes: np.ndarray, sizes: np.ndarray, features: np.ndarray,
            n_groups: np.ndarray, runs: list, node_impurity: np.ndarray,
            node_weight: np.ndarray, criterion: str, min_leaf: int,
            first: bool) -> tuple:
    """Best splits of a chunk of nodes, from one histogram.

    Node ``i`` holds ``sizes[i]`` samples, listed node after node as
    rows of the shared encoding ``ranks`` (``rows``) and local group
    codes (``codes``: ``slot * n_local + local class``, below
    ``n_groups[i]``).  ``features[i]`` holds its drawn features in draw
    order, and ``node_impurity[i]`` and ``node_weight[i]`` are its
    impurity and weight.  The nodes come in runs of one width: ``runs``
    holds an ``(end, counts, weight_table)`` triple per run, which ends
    before node ``end`` and whose nodes' local group counts and weights
    are the rows of ``counts`` and ``weight_table``.

    A node's best split is its best gain (ties: the earlier draw, then
    the lower threshold) or, with ``first``, the best gain of its
    earliest draw that has a useful one; the gain must exceed
    :data:`_MIN_GAIN`.  Returns ``(found, feature, threshold, rank,
    gain)``, one entry per node.
    """

    n_nodes, n_draws = features.shape
    n_bins = values.shape[1]
    n_features = ranks.shape[1]
    n_segments = n_nodes * n_draws
    found = np.zeros(n_nodes, dtype=bool)
    best_feature = np.zeros(n_nodes, dtype=np.int64)
    best_threshold = np.zeros(n_nodes)
    best_rank = np.zeros(n_nodes, dtype=np.intp)
    best_gain = np.zeros(n_nodes)
    result = (found, best_feature, best_threshold, best_rank, best_gain)

    # One bin per (node, draw, rank), a (node, draw) pair being a
    # segment; the occupied bins are the histogram's rows, in (node,
    # draw, rank) order.
    node = np.repeat(np.arange(n_nodes), sizes)
    bins = features[node]
    bins += (rows * n_features)[:, None]
    bins = ranks.ravel().take(bins)
    bins += (node * (n_draws * n_bins))[:, None]
    bins += np.arange(n_draws) * n_bins
    occupancy = np.bincount(bins.ravel(), minlength=n_segments * n_bins)
    occupied = occupancy.nonzero()[0]
    occupancy = occupancy[occupied]
    segment = occupied // n_bins
    row_node = segment // n_draws
    n_rows = np.bincount(row_node, minlength=n_nodes)
    first_row = _offsets(n_rows)[:-1]
    # Node i's histogram is a (rows x groups) block from base[i] on, and
    # the blocks of a run of one width form one matrix.
    base = _offsets(n_rows * n_groups)
    row = np.zeros(n_segments * n_bins, dtype=np.intp)
    row[occupied] = base[row_node] + ((np.arange(len(occupied))
                                       - first_row[row_node])
                                      * n_groups[row_node])
    bins = row.take(bins)
    bins += codes[:, None]
    histogram = np.bincount(bins.ravel(), minlength=base[-1])
    del bins

    # A threshold lies between two adjacent occupied bins of one
    # (node, draw) segment; running sums restart at each segment.
    rank = occupied % n_bins
    candidates = (segment[1:] == segment[:-1]).nonzero()[0]
    if not len(candidates):
        return result
    segment_first = np.zeros(len(occupied), dtype=np.intp)
    segment_starts = _run_starts(segment)
    segment_first[segment_starts] = segment_starts
    np.maximum.accumulate(segment_first, out=segment_first)
    running = np.cumsum(occupancy)
    n_left = (running[candidates]
              - (running - occupancy)[segment_first[candidates]])
    segment = segment[candidates]
    owner = segment // n_draws
    feature = features.ravel()[segment]
    high = values[feature, rank[candidates + 1]]
    rank = rank[candidates]
    threshold = (values[feature, rank] + high) / 2.0
    # The midpoint must still fall below the upper value once rounded.
    valid = ((n_left >= min_leaf) & (n_left <= sizes[owner] - min_leaf)
             & (threshold < high)).nonzero()[0]
    if not len(valid):
        return result
    candidates, segment = candidates[valid], segment[valid]
    owner, feature = owner[valid], feature[valid]
    threshold, rank = threshold[valid], rank[valid]

    # Gains, one run of one width at a time (see split_gains).
    gains = np.empty(len(candidates))
    run_start = 0
    for run_end, counts, weight_table in runs:
        begin, end = np.searchsorted(owner, (run_start, run_end))
        if begin < end:
            block = histogram[base[run_start]:base[run_end]].reshape(
                -1, counts.shape[1])
            cumulative = np.cumsum(block, axis=0)
            last = candidates[begin:end] - first_row[run_start]
            head = segment_first[candidates[begin:end]] - first_row[run_start]
            left = cumulative[last]
            left -= cumulative[head]
            left += block[head]
            nodes = owner[begin:end]
            gains[begin:end] = split_gains(
                left, counts[nodes - run_start],
                weight_table[nodes - run_start], node_impurity[nodes],
                node_weight[nodes], criterion)
        run_start = run_end

    if first:
        # Each node's first useful candidate names its earliest useful
        # draw; only that draw's candidates compete.
        useful = (gains > _MIN_GAIN).nonzero()[0]
        if not len(useful):
            return result
        lead = useful[_run_starts(owner[useful])]
        earliest = np.full(n_nodes, -1, dtype=np.int64)
        earliest[owner[lead]] = segment[lead]
        keep = (segment == earliest[owner]).nonzero()[0]
        owner, gains = owner[keep], gains[keep]
        feature, threshold, rank = feature[keep], threshold[keep], rank[keep]
    # Each node's first candidate with its highest gain.
    node_starts, node_ends = _bounds(owner)
    top = np.maximum.reduceat(gains, node_starts)
    at = (gains == np.repeat(top, node_ends - node_starts)).nonzero()[0]
    best = at[_run_starts(owner[at])]
    best = best[gains[best] > _MIN_GAIN]
    nodes = owner[best]
    found[nodes] = True
    best_feature[nodes] = feature[best]
    best_threshold[nodes] = threshold[best]
    best_rank[nodes] = rank[best]
    best_gain[nodes] = gains[best]
    return result


def _grow_trees(ranks: np.ndarray, values: np.ndarray,
               sets: list[_TrainingSet], *, criterion: str,
               max_depth: int | None, min_samples_split: int,
               min_samples_leaf: int, max_features: int) -> list[_Grown]:
    """Grow one tree per training set, all in lockstep.

    ``ranks`` and ``values`` are an :func:`encode_columns` encoding the
    sets' rows index.  At step ``k`` every unfinished tree expands its
    ``k``-th node in depth-first order, so a node's id is the step that
    made it, and one batched pass per step counts the groups of every
    expanded node, applies the stop tests and searches the splits.

    A searched node draws one feature permutation from its tree's
    generator, in depth-first order.  The first ``max_features`` draws
    form a block, constant features included, and the best gain in the
    block wins (ties: the earlier draw, then the lower threshold).  If
    nothing in the block gains more than :data:`_MIN_GAIN`, the first
    later draw that does is taken instead; those nodes get a second
    batched pass.  A step's nodes share one histogram per chunk under
    :data:`_CELL_BUDGET`, and their gains are scored in runs of one
    local width (weight slots and classes present), so every gain is
    reduced over its node's own classes (:func:`split_gains`).
    Importances accumulate in step order, which is each tree's
    depth-first order.  So a tree's arrays depend on its own set alone,
    not on which trees share the call.
    """

    n_trees, n_features = len(sets), ranks.shape[1]
    ranks = np.ascontiguousarray(ranks)
    tree_slots = np.array([s.weight_table.shape[0] for s in sets])
    n_slots = int(tree_slots.max())
    n_classes = max(s.weight_table.shape[1] for s in sets)
    # Weights padded to the batch's slots and classes with -0.0: a
    # padded slot adds 0 x -0.0 = -0.0 to a class mass, which keeps the
    # mass's bits (+0.0 would turn a -0.0 mass into +0.0).
    weight_table = np.full((n_trees, n_slots, n_classes), -0.0)
    for t, s in enumerate(sets):
        table = s.weight_table
        weight_table[t, :table.shape[0], :table.shape[1]] = table
    # Every tree's samples, tree after tree.  A node owns a range of
    # them, which its split reorders in place: left samples first.
    bounds = _offsets([len(s.rows) for s in sets])
    n_ranks = ranks.max(axis=0) + 1
    rows = np.concatenate([s.rows for s in sets]).astype(np.intp)
    groups = np.concatenate([s.slots * n_classes + s.classes for s in sets])
    n_groups = n_slots * n_classes
    # A stack of (start, end, depth, parent of a right child) per tree.
    stacks = [[(int(bounds[t]), int(bounds[t + 1]), 0, -1)]
              for t in range(n_trees)]
    importances = np.zeros((n_trees, n_features))
    n_nodes = np.zeros(n_trees, dtype=np.int64)
    steps = []
    while True:
        active = [t for t in range(n_trees) if stacks[t]]
        if not active:
            break
        tree = np.array(active)
        n_nodes[tree] += 1
        start, end, depth, right_of = np.array(
            [stacks[t].pop() for t in active], dtype=np.int64).T
        size = end - start
        counts = _group_counts(groups, start, end, n_groups).reshape(
            len(tree), n_slots, n_classes)
        stop = size < min_samples_split
        if max_depth is not None:
            stop |= depth >= max_depth
        # Pure node: all weight concentrated in one class (a class has
        # mass when one of its groups has samples and a positive weight).
        has_mass = ((counts > 0) & (weight_table[tree] > 0)).any(axis=1)
        stop |= np.count_nonzero(has_mass, axis=1) <= 1
        feature = np.full(len(tree), -2, dtype=np.int64)
        threshold = np.zeros(len(tree))
        searched = (~stop).nonzero()[0]
        if len(searched):
            draws = np.tile(np.arange(n_features), (len(searched), 1))
            for row, t in zip(draws, tree[searched].tolist()):
                sets[t].rng.shuffle(row)  # as rng.permutation(n_features)
            found, split_feature, split_threshold, split_rank, decrease = \
                _split_nodes(
                    ranks, values, n_ranks, rows, groups, start[searched],
                    end[searched], draws, counts[searched],
                    weight_table[tree[searched]], tree_slots[tree[searched]],
                    criterion, min_samples_leaf, max_features)
            split = searched[found]
            feature[split] = split_feature[found]
            threshold[split] = split_threshold[found]
            importances[tree[split], feature[split]] += decrease[found]
            middle = _partition(ranks, rows, groups, start[split],
                                end[split], feature[split], split_rank[found])
            for t, first, mid, last, level in zip(
                    tree[split].tolist(), start[split].tolist(),
                    middle.tolist(), end[split].tolist(),
                    depth[split].tolist()):
                stacks[t].append((mid, last, level + 1, len(steps)))
                stacks[t].append((first, mid, level + 1, -1))
        steps.append((tree, right_of, feature, threshold, start, end))

    # Node arrays tree after tree: tree t expanded a node at each of its
    # first n_nodes[t] steps, and the node step k made is node k.
    offsets = _offsets(n_nodes)
    feature = np.empty(offsets[-1], dtype=np.int64)
    threshold = np.empty(offsets[-1])
    right = np.full(offsets[-1], -1, dtype=np.int64)
    start = np.empty(offsets[-1], dtype=np.int64)
    end = np.empty(offsets[-1], dtype=np.int64)
    for k, (tree, right_of, *arrays) in enumerate(steps):
        node = offsets[tree] + k
        feature[node], threshold[node], start[node], end[node] = arrays
        is_right = right_of >= 0
        right[offsets[tree[is_right]] + right_of[is_right]] = k
    del steps
    node_id = np.arange(offsets[-1]) - np.repeat(offsets[:-1], n_nodes)
    left = np.where(feature >= 0, node_id + 1, -1)
    grown = []
    for t, s in enumerate(sets):
        # A split only reorders its own node's samples, so each node's
        # samples still fill its range of the final order: its class
        # mass is counted there, straight into the array the tree keeps.
        nodes = np.arange(offsets[t], offsets[t + 1])
        mass = np.empty((len(nodes), s.weight_table.shape[1]))
        for chunk in _chunks(n_groups + end[nodes] - start[nodes]):
            counts = _group_counts(groups, start[nodes[chunk]],
                                   end[nodes[chunk]], n_groups)
            mass[chunk] = class_mass(counts, weight_table[t])[
                :, :mass.shape[1]]
        grown.append(_Grown(
            feature=feature[nodes], threshold=threshold[nodes],
            left=left[nodes], right=right[nodes], values=mass,
            importances=importances[t]))
    return grown


def _group_counts(groups: np.ndarray, start: np.ndarray, end: np.ndarray,
                  n_groups: int) -> np.ndarray:
    """Group counts of the nodes owning samples ``start[i]`` up to
    ``end[i]`` of ``groups``: ``(len(start), n_groups)``."""

    owner = np.repeat(np.arange(len(start)), end - start)
    return np.bincount(owner * n_groups + groups[_ranges(start, end)],
                       minlength=len(start) * n_groups
                       ).reshape(len(start), n_groups)


def _partition(ranks: np.ndarray, rows: np.ndarray, groups: np.ndarray,
               start: np.ndarray, end: np.ndarray, feature: np.ndarray,
               rank: np.ndarray) -> np.ndarray:
    """Reorder each split node's samples in place, those that go left
    (rank at most ``rank`` in ``feature``) first and each side in its old
    order; returns where each node's right samples start."""

    size = end - start
    positions = _ranges(start, end)
    owner = np.repeat(np.arange(len(start)), size)
    go_left = ranks[rows[positions], feature[owner]] <= rank[owner]
    n_left = np.bincount(owner[go_left], minlength=len(start))
    first = _offsets(size)[:-1]
    lefts_before = np.cumsum(go_left) - go_left
    lefts_before -= lefts_before[first][owner]
    rights_before = np.arange(len(positions)) - first[owner] - lefts_before
    destination = start[owner] + np.where(go_left, lefts_before,
                                          n_left[owner] + rights_before)
    rows[destination] = rows[positions]
    groups[destination] = groups[positions]
    return start + n_left


def _split_nodes(ranks, values, n_ranks, rows, groups, start, end, draws,
                 counts, weight_table, tree_slots, criterion, min_leaf,
                 max_features) -> tuple:
    """Best splits of one step's searched nodes.

    Node ``i`` owns samples ``start[i]`` up to ``end[i]`` of ``rows``
    (rows of the shared encoding ``ranks``) and ``groups`` (``slot *
    n_classes + class``), has group counts ``counts[i]`` (``n_slots x
    n_classes``), weights ``weight_table[i]`` of which its tree uses
    ``tree_slots[i]`` slots, and drew ``draws[i]``; feature ``f`` has
    ``n_ranks[f]`` ranks.  Returns ``(found, feature, threshold, rank,
    decrease)``, where ``decrease`` is the node's weight times the
    split's gain.
    """

    n_nodes, n_features = draws.shape
    n_classes = counts.shape[2]
    n_bins = values.shape[1]
    present = counts.any(axis=1)
    n_local = present.sum(axis=1)
    # The nodes in runs of one width (slots, classes present): a run
    # shares one block of local counts and weights, and its impurities
    # and weights are reduced together over exactly its own classes.
    width = tree_slots * (n_classes + 1) + n_local
    order = np.argsort(width, kind="stable")
    start, end, draws = start[order], end[order], draws[order]
    counts = counts[order]
    weight_table, tree_slots = weight_table[order], tree_slots[order]
    present, n_local = present[order], n_local[order]
    run_starts = _run_starts(width[order])
    run_bounds = np.append(run_starts, n_nodes)
    run_of = np.repeat(np.arange(len(run_starts)), np.diff(run_bounds))
    node_impurity = np.empty(n_nodes)
    node_weight = np.empty(n_nodes)
    blocks = []
    for low, high in zip(run_bounds[:-1].tolist(), run_bounds[1:].tolist()):
        n_slots, n_present = int(tree_slots[low]), int(n_local[low])
        # The node's groups renumbered over the classes present in it.
        mask = np.broadcast_to(present[low:high, None, :],
                               (high - low, n_slots, n_classes))
        local_counts = counts[low:high, :n_slots][mask].reshape(
            high - low, n_slots * n_present)
        local_table = weight_table[low:high, :n_slots][mask].reshape(
            high - low, n_slots, n_present)
        mass = class_mass(local_counts, local_table)
        node_impurity[low:high] = impurity(mass, criterion)
        node_weight[low:high] = mass.sum(axis=-1)
        blocks.append((local_counts, local_table))

    n_groups = tree_slots * n_local
    local_class = np.cumsum(present, axis=1) - 1
    sizes = end - start
    first_sample = _offsets(sizes)
    positions = _ranges(start, end)
    code = groups[positions]
    owner = np.repeat(np.arange(n_nodes), sizes)
    code = ((code // n_classes) * n_local[owner]
            + local_class[owner, code % n_classes])
    sample_rows = rows[positions]
    result = (np.zeros(n_nodes, dtype=bool),
              np.zeros(n_nodes, dtype=np.int64), np.zeros(n_nodes),
              np.zeros(n_nodes, dtype=np.intp), np.zeros(n_nodes))

    def search(nodes, features, first):
        # Cells: samples x draws, bins, and histogram rows (at most one
        # per sample or per rank of each drawn feature) x groups.
        n_draws = features.shape[1]
        bins = np.minimum(sizes[nodes, None], n_ranks[features]).sum(axis=1)
        cells = (sizes[nodes] * n_draws + n_draws * n_bins
                 + bins * n_groups[nodes])
        for chunk in _chunks(cells):
            picked = nodes[chunk]
            runs = []
            for low, high in zip(*_bounds(run_of[picked])):
                run = run_of[picked[low]]
                members = picked[low:high] - run_bounds[run]
                runs.append((high, blocks[run][0][members],
                             blocks[run][1][members]))
            samples = _ranges(first_sample[picked], first_sample[picked + 1])
            found, feature, threshold, rank, gain = _search(
                ranks, values, sample_rows[samples], code[samples],
                sizes[picked], features[chunk], n_groups[picked], runs,
                node_impurity[picked], node_weight[picked], criterion,
                min_leaf, first)
            result[0][picked] = found
            result[1][picked] = feature
            result[2][picked] = threshold
            result[3][picked] = rank
            result[4][picked] = node_weight[picked] * gain

    search(np.arange(n_nodes), draws[:, :max_features], first=False)
    # A node whose block has no useful split takes its earliest later
    # draw that has one.
    failed = (~result[0]).nonzero()[0]
    if max_features < n_features and len(failed):
        search(failed, draws[failed, max_features:], first=True)
    unsorted = tuple(np.empty_like(array) for array in result)
    for target, array in zip(unsorted, result):
        target[order] = array
    return unsorted


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
        forest encodes its matrix once and grows each tree on the rows
        of its bootstrap sample.
        """

        check_consistent_length(ranks, y)
        training_set = self._training_set(np.arange(len(ranks)), y,
                                          sample_weight)
        self._grow([self], ranks, values, [training_set])
        return self

    def _training_set(self, rows: np.ndarray, y, sample_weight=None
                      ) -> _TrainingSet:
        """Check the parameters, ``y`` and ``sample_weight`` and set
        ``classes_``; the tree's samples are rows ``rows`` of the shared
        encoding."""

        if self.criterion not in _CRITERIA:
            raise ValidationError(
                f"criterion must be one of {_CRITERIA}, got {self.criterion!r}")
        if self.min_samples_split < 2:
            raise ValidationError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")
        y = check_array_1d(y, "y")
        check_consistent_length(rows, y)
        encoder = LabelEncoder()
        y_encoded = encoder.fit_transform(y)
        self.classes_ = encoder.classes_
        weights = np.ones(len(y), dtype=np.float64)
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
            check_consistent_length(y, sample_weight)
            if not np.all(np.isfinite(sample_weight)):
                raise ValidationError("sample_weight must be finite")
            if np.any(sample_weight < 0):
                raise ValidationError("sample_weight must be non-negative")
            weights *= sample_weight
        if self.class_weight is not None:
            weights *= compute_sample_weight(self.class_weight, y)
        slots, weight_table = weight_groups(y_encoded, weights,
                                            len(self.classes_))
        return _TrainingSet(rows=rows, classes=y_encoded, slots=slots,
                            weight_table=weight_table,
                            rng=check_random_state(self.random_state))

    @staticmethod
    def _grow(trees: list["DecisionTreeClassifier"], ranks: np.ndarray,
              values: np.ndarray, sets: list[_TrainingSet]) -> None:
        """Grow ``trees[i]`` on ``sets[i]``, all in lockstep
        (:func:`_grow_trees`), and install their node arrays.  The trees
        share their parameters; the first tree's are read."""

        params = trees[0]
        grown = _grow_trees(
            ranks, values, sets, criterion=params.criterion,
            max_depth=params.max_depth,
            min_samples_split=params.min_samples_split,
            min_samples_leaf=params.min_samples_leaf,
            max_features=params._resolve_max_features(ranks.shape[1]))
        for tree, arrays in zip(trees, grown):
            tree._install(arrays)

    # ------------------------------------------------------------- predict
    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "classes_")
        X = check_array_2d(X, "X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}")
        return class_distributions(self._node_values[self._apply(X)])

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
        return len(self._node_feature)

    def get_depth(self) -> int:
        """Depth of the fitted tree (root = depth 0)."""

        check_is_fitted(self, "classes_")
        return tree_depth(np.zeros(1, dtype=np.int64), self._node_feature >= 0,
                          self._node_left, self._node_right)

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

    def _install(self, grown: _Grown) -> None:
        """Adopt a grown tree's node arrays.

        A fitted tree holds one row per node in ``_node_feature``,
        ``_node_threshold``, ``_node_left``, ``_node_right`` and
        ``_node_values`` (the node's weighted class mass over
        ``classes_``).  Nodes are numbered depth first, a node before its
        subtrees, so a child's id is always greater than its parent's.
        Leaves have feature ``-2`` and children ``-1``.  A forest
        concatenates the structure arrays into its node table and keeps
        only the leaves' non-zero class probabilities of
        ``_node_values``.
        """

        self.n_features_in_ = len(grown.importances)
        self._node_feature = grown.feature
        self._node_threshold = grown.threshold
        self._node_left = grown.left
        self._node_right = grown.right
        self._node_values = grown.values
        total = grown.importances.sum()
        self.feature_importances_ = (grown.importances / total if total > 0
                                     else np.zeros_like(grown.importances))

    def _apply(self, X: np.ndarray) -> np.ndarray:
        """The leaf each row of ``X`` reaches."""

        looped = loop_leaves(np.array([0, self.node_count], dtype=np.int64),
                             self._node_feature, self._node_threshold,
                             self._node_left, self._node_right)
        return walk(X, looped)[0]
