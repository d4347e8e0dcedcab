"""Similarity feature matrices.

The classifier never sees digests directly; it sees *similarity scores*
("We compute a feature matrix for our dataset based on the SSDeep fuzzy
hash similarity between sample features", Section 3).  This module
builds that matrix:

* the **anchors** are the training samples (grouped by class);
* for every query sample and every fuzzy-hash type, the feature value
  of column ``(type, class)`` is the maximum SSDeep similarity between
  the query's digest and the digests of that class's anchors
  (``class-max`` strategy).  Alternative strategies keep one column per
  anchor (``all-train``) or per class medoid (``class-medoids``).

Candidate generation and scoring are delegated to the persistent
:class:`~repro.index.SimilarityIndex`: ``fit`` indexes the anchors once
(block-size buckets, 7-gram inverted postings, bit-parallel
edit-distance scoring with :func:`~repro.distance.scoring.indel_distance`)
and every ``transform`` reuses that index.  A builder can also adopt an
index loaded from disk (:meth:`SimilarityFeatureBuilder.fit_from_index`),
so a restarted workflow skips re-indexing its anchors (pair it with a
persisted feature store to avoid re-hashing the corpus as well).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import NotFittedError, ValidationError
from ..hashing.rolling import ROLLING_WINDOW
from ..index import SimilarityIndex
from ..logging_utils import get_logger
from .extractors import FEATURE_TYPES
from .records import SampleFeatures

__all__ = ["SimilarityMatrix", "SimilarityFeatureBuilder"]

_LOG = get_logger("features.similarity")

_ANCHOR_STRATEGIES = ("class-max", "class-medoids", "all-train")


@dataclass
class SimilarityMatrix:
    """A feature matrix plus the metadata needed to interpret it."""

    X: np.ndarray
    feature_names: list[str]
    feature_groups: dict[str, list[int]]
    sample_ids: list[str]

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def columns_for(self, feature_type: str) -> np.ndarray:
        """The sub-matrix of columns belonging to one fuzzy-hash type."""

        indices = self.feature_groups.get(feature_type, [])
        return self.X[:, indices]


class SimilarityFeatureBuilder:
    """Build similarity feature matrices against a set of anchor samples.

    Parameters
    ----------
    feature_types:
        Fuzzy-hash types to use (columns are grouped by type).
    anchor_strategy:
        ``"class-max"`` (default, one column per class and type),
        ``"class-medoids"`` (like class-max but only ``medoids_per_class``
        anchors per class are retained, cutting comparison cost), or
        ``"all-train"`` (one column per anchor and type).
    medoids_per_class:
        Anchors retained per class under ``class-medoids``.
    ngram_length:
        Length of the common-substring gate (7, like SSDeep).
    """

    def __init__(self, feature_types: Sequence[str] = FEATURE_TYPES, *,
                 anchor_strategy: str = "class-max",
                 medoids_per_class: int = 5,
                 ngram_length: int = ROLLING_WINDOW) -> None:
        if anchor_strategy not in _ANCHOR_STRATEGIES:
            raise ValidationError(
                f"anchor_strategy must be one of {_ANCHOR_STRATEGIES}, "
                f"got {anchor_strategy!r}")
        if medoids_per_class < 1:
            raise ValidationError("medoids_per_class must be >= 1")
        if ngram_length < 1:
            raise ValidationError("ngram_length must be >= 1")
        self.feature_types = tuple(feature_types)
        self.anchor_strategy = anchor_strategy
        self.medoids_per_class = int(medoids_per_class)
        self.ngram_length = int(ngram_length)

    # ------------------------------------------------------------------ fit
    def fit(self, anchors: Sequence[SampleFeatures]) -> "SimilarityFeatureBuilder":
        """Index the anchor (training) samples."""

        if not anchors:
            raise ValidationError("cannot fit on an empty anchor set")
        anchors = self._select_anchors(list(anchors))
        self.anchors_ = anchors
        index = SimilarityIndex(self.feature_types,
                                ngram_length=self.ngram_length)
        index.add_many(anchors)
        return self._adopt_index(index)

    def fit_from_index(self, index: SimilarityIndex
                       ) -> "SimilarityFeatureBuilder":
        """Adopt a prebuilt (e.g. loaded-from-disk) anchor index.

        The index must cover this builder's feature types, use the same
        n-gram length, and carry a class label on every surviving
        member.  Anchor selection
        (``class-medoids``) is *not* re-applied — the index is trusted
        to already hold the intended anchor set.
        """

        missing = set(self.feature_types) - set(index.feature_types)
        if missing:
            raise ValidationError(
                f"index does not cover feature types {sorted(missing)}")
        if index.ngram_length != self.ngram_length:
            raise ValidationError(
                f"index n-gram length {index.ngram_length} does not match "
                f"builder n-gram length {self.ngram_length}")
        if index.n_members == 0:
            raise ValidationError("cannot adopt an empty index")
        unlabelled = sum(1 for name in index.class_names if not name)
        if unlabelled:
            raise ValidationError(
                f"{unlabelled} index members carry no class label; the "
                "feature builder needs labelled anchors")
        return self._adopt_index(index)

    def refresh_from_index(self, index=None) -> "SimilarityFeatureBuilder":
        """Re-adopt the (mutated) anchor index without changing columns.

        Online ingestion appends members to — and age-off tombstones
        members of — the already-adopted index; this recomputes the
        anchor bookkeeping (``anchor_ids_``, the per-class grouping used
        by ``_aggregate``) from the index's current membership.  The
        class set must be unchanged: under ``class-max`` /
        ``class-medoids`` the feature columns are one per (type, class),
        so new or vanished classes would silently change the matrix
        layout under a forest trained on the old one.
        """

        if not hasattr(self, "index_"):
            raise NotFittedError("SimilarityFeatureBuilder is not fitted")
        if index is None:
            index = self.index_
        if index.n_members == 0:
            raise ValidationError("cannot refresh from an empty index")
        classes = sorted(set(index.class_names))
        if classes != self.classes_:
            raise ValidationError(
                f"refresh would change the class set from {self.classes_} "
                f"to {classes}; feature columns are per class, so the "
                "forest trained on the old layout would mis-read them")
        return self._adopt_index(index)

    def fit_transform(self, anchors: Sequence[SampleFeatures], *,
                      exclude_self: bool = True) -> SimilarityMatrix:
        """Fit on ``anchors`` and transform them (excluding self matches).

        ``exclude_self`` prevents the trivial 100-similarity of a sample
        with itself from leaking into the training matrix.
        """

        self.fit(anchors)
        return self.transform(anchors, exclude_self=exclude_self)

    # ------------------------------------------------------------ transform
    def transform(self, queries: Sequence[SampleFeatures], *,
                  exclude_self: bool = False) -> SimilarityMatrix:
        """Similarity feature matrix of ``queries`` against the anchors."""

        if not hasattr(self, "index_"):
            raise NotFittedError("SimilarityFeatureBuilder is not fitted")
        queries = list(queries)
        n_anchors = self.index_.n_members
        n_anchor_cols = (len(self.classes_)
                         if self.anchor_strategy != "all-train"
                         else n_anchors)
        X = np.zeros((len(queries), n_anchor_cols * len(self.feature_types)),
                     dtype=np.float64)

        exclude = None
        if exclude_self:
            exclude = [self.index_.members_for_id(q.sample_id) for q in queries]

        # One batched pass over all feature types: candidate pairs are
        # de-duplicated across types and each is scored once.
        matrices = self.index_.score_matrices(
            {ft: [q.digest(ft) for q in queries] for ft in self.feature_types},
            exclude=exclude)
        for type_offset, feature_type in enumerate(self.feature_types):
            # ``scores`` is (n_queries, n_anchors); aggregate into columns.
            block = self._aggregate(matrices[feature_type])
            start = type_offset * n_anchor_cols
            X[:, start:start + n_anchor_cols] = block

        return SimilarityMatrix(
            X=X,
            feature_names=list(self.feature_names_),
            feature_groups=self._feature_groups(n_anchor_cols),
            sample_ids=[q.sample_id for q in queries],
        )

    # ---------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """Serialisable snapshot of the fitted builder (model artifacts).

        The fitted state *is* the anchor index, exported through
        :meth:`repro.index.SimilarityIndex.get_state`; the builder's
        configuration lives in its constructor parameters and is stored
        separately by the artifact writer.
        """

        if not hasattr(self, "index_"):
            raise NotFittedError("SimilarityFeatureBuilder is not fitted")
        header, arrays = self.index_.get_state()
        return {"index_header": header, "index_arrays": arrays}

    def set_state(self, state: dict, *,
                  source: str = "builder state") -> "SimilarityFeatureBuilder":
        """Restore a snapshot produced by :meth:`get_state`.

        Runs the full :meth:`fit_from_index` validation (feature-type
        coverage, n-gram length, labelled anchors), so corrupt or
        mismatched state fails loudly instead of mis-scoring.  A caller
        that has already restored the anchor index (the model-artifact
        reader, which controls copy/mmap semantics itself) may pass it
        directly under an ``"index"`` key instead of header/arrays.
        """

        ready = state.get("index") if isinstance(state, dict) else None
        if ready is not None:
            if not isinstance(ready, SimilarityIndex):
                raise ValidationError(
                    f"invalid feature-builder state: 'index' must be a "
                    f"similarity index, got {type(ready).__name__}")
            return self.fit_from_index(ready)
        try:
            header = state["index_header"]
            arrays = state["index_arrays"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"invalid feature-builder state: {exc}") from exc
        return self.fit_from_index(
            SimilarityIndex.from_state(header, arrays, source=source))

    # ----------------------------------------------------------- internals
    def _adopt_index(self, index: SimilarityIndex) -> "SimilarityFeatureBuilder":
        self.index_ = index
        self.anchor_ids_ = list(index.sample_ids)
        self.anchor_classes_ = list(index.class_names)
        self.classes_ = sorted(set(self.anchor_classes_))
        self._class_index = {name: i for i, name in enumerate(self.classes_)}
        self._anchor_class_idx = np.array(
            [self._class_index[c] for c in self.anchor_classes_], dtype=np.int64)
        # Anchors grouped by class for the vectorised per-class max in
        # _aggregate: one stable sort at fit time, one reduceat per
        # transform (every class has at least one anchor by
        # construction, so the group starts are always valid).
        self._class_order = np.argsort(self._anchor_class_idx, kind="stable")
        counts = np.bincount(self._anchor_class_idx,
                             minlength=len(self.classes_))
        self._class_starts = np.zeros(len(self.classes_), dtype=np.int64)
        np.cumsum(counts[:-1], out=self._class_starts[1:])
        self.feature_names_ = self._build_feature_names()
        _LOG.debug("builder adopted index with %d anchors across %d classes",
                   index.n_members, len(self.classes_))
        return self

    def _select_anchors(self, anchors: list[SampleFeatures]) -> list[SampleFeatures]:
        if self.anchor_strategy != "class-medoids":
            return anchors
        by_class: dict[str, list[SampleFeatures]] = defaultdict(list)
        for anchor in anchors:
            by_class[anchor.class_name].append(anchor)
        selected: list[SampleFeatures] = []
        for class_name in sorted(by_class):
            members = sorted(by_class[class_name], key=lambda a: a.sample_id)
            if len(members) <= self.medoids_per_class:
                selected.extend(members)
                continue
            # Deterministic spread across the class (different versions end
            # up adjacent after sorting by id, so an even stride samples a
            # representative cross-section).
            positions = np.linspace(0, len(members) - 1,
                                    self.medoids_per_class).astype(int)
            selected.extend(members[p] for p in sorted(set(positions.tolist())))
        return selected

    def _aggregate(self, scores: np.ndarray) -> np.ndarray:
        """Aggregate per-anchor scores into the configured column layout."""

        if self.anchor_strategy == "all-train":
            return scores
        # Per-class max in one pass: anchors were grouped by class at
        # fit time, so a single reduceat replaces the per-class Python
        # loop over column subsets.
        return np.maximum.reduceat(scores[:, self._class_order],
                                   self._class_starts, axis=1)

    def _build_feature_names(self) -> list[str]:
        names = []
        if self.anchor_strategy == "all-train":
            for feature_type in self.feature_types:
                names.extend(f"{feature_type}|{anchor_id}"
                             for anchor_id in self.anchor_ids_)
        else:
            for feature_type in self.feature_types:
                names.extend(f"{feature_type}|{class_name}"
                             for class_name in self.classes_)
        return names

    def _feature_groups(self, n_anchor_cols: int) -> dict[str, list[int]]:
        groups: dict[str, list[int]] = {}
        for type_offset, feature_type in enumerate(self.feature_types):
            start = type_offset * n_anchor_cols
            groups[feature_type] = list(range(start, start + n_anchor_cols))
        return groups
