"""The batched classification service facade.

:class:`ClassificationService` is the serve-oriented front door of the
library: one object that owns a fitted
:class:`~repro.core.classifier.FuzzyHashClassifier`, an extraction
pipeline and an allocation policy, and turns executables — file paths,
raw bytes, pre-extracted feature records, or an unbounded stream — into
typed :class:`Decision` records.

Construction paths mirror the deployment lifecycle:

* ``ClassificationService.train(features, ...)`` — fit from labelled
  feature records (one-off, expensive);
* ``service.save("model.rpm")`` — persist the fitted model as a
  versioned artifact (:mod:`repro.api.artifact`);
* ``ClassificationService.load("model.rpm")`` — cold-start a serving
  process without retraining.

Classification is batched end to end: feature extraction fans out over
``n_jobs`` worker processes (:func:`repro.parallel.parallel_map`), and
each batch runs the anchor index's candidate generation plus
its edit-distance scoring
(:func:`~repro.distance.scoring.indel_distance`) once, followed by a
single forest pass (labels and confidences come from the same
probability matrix).  ``classify_stream`` applies the same
micro-batching to an iterable of arbitrary length while yielding
decisions in input order.

The serving hot path keeps two LRU caches, both bounded by
``cache_size`` (``0`` turns both off):

* an **extraction cache**, SHA-256 of the uploaded bytes →
  :class:`SampleFeatures`, ahead of the extraction pipeline: many HPC
  jobs launch the same binary, and a resubmitted executable skips
  extraction.  ``classify_bytes``, the byte items of
  ``classify_stream`` and ``ingest_bytes`` go through it, and each
  distinct content of a batch is extracted once.  A hit equals a fresh
  extraction under the request's own ``sample_id``.  It is never
  invalidated: extraction is a pure function of the bytes and the
  service's fixed pipeline, whatever the corpus or threshold.
* a **digest→score cache**: an executable whose digests were already
  scored (same binary resubmitted, a re-scanned allocation, a polling
  collector) skips the similarity transform and the forest entirely.
  It stores threshold-independent ``(best class, confidence)`` pairs,
  so changing ``confidence_threshold`` after load never serves stale
  decisions, and every ingest or purge clears it.  It also serves
  records that arrive already extracted, and binaries whose bytes
  differ but whose digests are equal.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..core.classifier import FuzzyHashClassifier
from ..exceptions import EvaluationError, NotFittedError, ValidationError
from ..features.pipeline import FeatureExtractionPipeline
from ..features.records import SampleFeatures
from ..hashing.crypto import crypto_digest
from ..index import SimilarityIndex
from ..logging_utils import get_logger
from ..observability.trace import span

__all__ = ["Decision", "ClassificationService", "render_report",
           "list_directory",
           "DECISION_EXPECTED", "DECISION_UNEXPECTED", "DECISION_UNKNOWN"]

_LOG = get_logger("api.service")

#: Decision labels attached to classified executables.
DECISION_EXPECTED = "within-allocation"
DECISION_UNEXPECTED = "unexpected-application"
DECISION_UNKNOWN = "unknown-application"

#: Default micro-batch size for ``classify_stream``.
DEFAULT_BATCH_SIZE = 64

#: Default capacity of each serving LRU, the extraction cache and the
#: digest→score cache (0 disables both).
DEFAULT_CACHE_SIZE = 1024


@dataclass(frozen=True)
class Decision:
    """Outcome for one classified executable."""

    sample_id: str
    predicted_class: object
    confidence: float
    decision: str

    def is_suspicious(self) -> bool:
        """True if an operator should take a closer look."""

        return self.decision in (DECISION_UNEXPECTED, DECISION_UNKNOWN)


def list_directory(directory: str | os.PathLike,
                   pattern: str = "**/*") -> list[str]:
    """Every regular file below ``directory``, sorted.

    The one directory-walk rule shared by
    :meth:`ClassificationService.classify_directory` and the CLI's
    streaming ``classify --jsonl`` path; raises
    :class:`~repro.exceptions.EvaluationError` for a missing directory
    or an empty match.
    """

    root = Path(directory)
    if not root.is_dir():
        raise EvaluationError(f"{root} is not a directory")
    paths = sorted(str(p) for p in root.glob(pattern) if p.is_file())
    if not paths:
        raise EvaluationError(f"no files found under {root}")
    return paths


def render_report(items: Sequence) -> str:
    """Multi-line operator-facing summary of classification outcomes.

    Accepts :class:`Decision` records or any objects exposing
    ``sample_id`` / ``predicted_class`` / ``confidence`` / ``decision``
    — the formatter behind the CLI report.
    """

    lines = [f"{'decision':<24} {'class':<24} {'conf':>5}  path"]
    for item in sorted(items,
                       key=lambda i: (i.decision, str(i.predicted_class))):
        lines.append(f"{item.decision:<24} {str(item.predicted_class):<24} "
                     f"{item.confidence:>5.2f}  {item.sample_id}")
    return "\n".join(lines)


class ClassificationService:
    """Facade: fitted model + extraction pipeline + allocation policy.

    Parameters
    ----------
    classifier:
        A fitted :class:`FuzzyHashClassifier`.
    allowed_classes:
        Application classes this allocation is expected to run; ``None``
        accepts every known class and only flags unknown applications.
    n_jobs:
        Worker processes for feature extraction (and, in
        :meth:`train`, for the forest fit).  A batch of fewer than
        eight uncached items per worker is extracted in-process; a
        larger one forks a process pool for that batch, so a
        long-running server keeps the default of 1 and scales with
        scoring workers instead (:mod:`repro.serving.workers`).
    batch_size:
        Default micro-batch size for :meth:`classify_stream`.
    cache_size:
        Capacity of each of the two LRU caches on the classify hot
        path, the extraction cache and the digest→score cache (0
        disables both).
    """

    def __init__(self, classifier: FuzzyHashClassifier, *,
                 allowed_classes: Iterable[str] | None = None,
                 n_jobs: int = 1,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        if not hasattr(classifier, "model_"):
            raise NotFittedError(
                "ClassificationService needs a fitted classifier; use "
                "ClassificationService.train(...) or .load(...)")
        if batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if cache_size < 0:
            raise ValidationError("cache_size must be >= 0")
        self.classifier = classifier
        self.allowed_classes = (set(allowed_classes)
                                if allowed_classes is not None else None)
        self.n_jobs = n_jobs
        self.batch_size = int(batch_size)
        self.cache_size = int(cache_size)
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache: OrderedDict[tuple, tuple[object, float]] = OrderedDict()
        self.extraction_hits = 0
        self.extraction_misses = 0
        self._extracted: OrderedDict[str, SampleFeatures] = OrderedDict()
        # Both caches (and their counters) are shared by every thread of
        # a serving process; OrderedDict mutation is not atomic, so all
        # lookup/insert/evict passes run under this lock.
        self._cache_lock = threading.Lock()
        # Family-aware classifiers expand their base feature types
        # (``family="both"`` adds the vector siblings); extraction must
        # produce every digest the model's anchor index will score.
        active_types = getattr(classifier, "active_feature_types",
                               classifier.feature_types)
        self._pipeline = FeatureExtractionPipeline(active_types,
                                                   n_jobs=n_jobs)
        anchor = getattr(getattr(classifier, "builder_", None),
                         "index_", None)
        # Seal pending posting tails up front: the index merges them
        # lazily on first query, and a serving process should pay that
        # once at start-up, not on its first request.
        if anchor is not None and hasattr(anchor, "seal"):
            anchor.seal()

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def train(cls, features: Sequence[SampleFeatures], *,
              allowed_classes: Iterable[str] | None = None,
              n_jobs: int = 1,
              batch_size: int = DEFAULT_BATCH_SIZE,
              cache_size: int = DEFAULT_CACHE_SIZE,
              index: SimilarityIndex | None = None,
              **classifier_params) -> "ClassificationService":
        """Fit a fresh model on labelled feature records.

        ``classifier_params`` are forwarded to
        :class:`FuzzyHashClassifier` (``n_estimators``,
        ``confidence_threshold``, ``random_state``, ...); ``index``
        optionally supplies a prebuilt anchor index.
        """

        classifier = FuzzyHashClassifier(n_jobs=n_jobs, **classifier_params)
        classifier.fit(list(features), index=index)
        return cls(classifier, allowed_classes=allowed_classes,
                   n_jobs=n_jobs, batch_size=batch_size,
                   cache_size=cache_size)

    @classmethod
    def load(cls, path: str | os.PathLike, *,
             allowed_classes: Iterable[str] | None = None,
             n_jobs: int = 1,
             batch_size: int = DEFAULT_BATCH_SIZE,
             cache_size: int = DEFAULT_CACHE_SIZE,
             index: "SimilarityIndex | str | os.PathLike | None" = None,
             mmap: bool = False
             ) -> "ClassificationService":
        """Cold-start from a model artifact — no retraining.

        ``index`` is only needed for headless artifacts saved with
        ``include_index=False``.  ``mmap=True`` memory-maps the bulk
        arrays instead of materialising them (O(header) load; N
        processes loading the same file share its pages through the OS
        page cache).  Older, unaligned artifacts silently fall back to
        the materialising path.
        """

        from .artifact import load_model

        return cls(load_model(path, index=index,
                              mmap_mode="r" if mmap else None),
                   allowed_classes=allowed_classes, n_jobs=n_jobs,
                   batch_size=batch_size, cache_size=cache_size)

    def save(self, path: str | os.PathLike, *,
             include_index: bool = True,
             wal_checkpoint: dict | None = None) -> Path:
        """Persist the fitted model as a versioned artifact file.

        ``wal_checkpoint`` stamps the artifact with the last
        write-ahead-log sequence it contains (see
        :func:`repro.api.artifact.save_model`); the serving tier's
        publish path supplies it so crash recovery can tell which log
        records the artifact already absorbed.
        """

        from .artifact import save_model

        return save_model(self.classifier, path, include_index=include_index,
                          wal_checkpoint=wal_checkpoint)

    # ------------------------------------------------------------ properties
    @property
    def classes_(self):
        """Known application classes of the underlying model."""

        return self.classifier.classes_

    @property
    def similarity_index(self) -> SimilarityIndex:
        """The model's fitted anchor index."""

        builder = getattr(self.classifier, "builder_", None)
        index = getattr(builder, "index_", None)
        if index is None:
            raise EvaluationError(
                "this service's classifier carries no similarity index")
        return index

    def cache_info(self) -> dict:
        """Consistent snapshot of the digest-cache counters.

        ``hits``/``misses``/``size`` are read under the cache lock, so a
        metrics scrape during concurrent traffic never sees counters
        mid-update; the serving tier surfaces this under
        ``service_cache`` in ``GET /metrics``.
        """

        with self._cache_lock:
            return {"hits": self.cache_hits, "misses": self.cache_misses,
                    "size": len(self._cache), "capacity": self.cache_size}

    def extraction_cache_info(self) -> dict:
        """Consistent snapshot of the extraction-cache counters.

        A miss is one extraction run; a duplicate of a content already
        extracted in the same batch counts as a hit.  The serving tier
        surfaces this under ``extraction_cache`` in ``GET /metrics``.
        """

        with self._cache_lock:
            return {"hits": self.extraction_hits,
                    "misses": self.extraction_misses,
                    "size": len(self._extracted),
                    "capacity": self.cache_size}

    # ------------------------------------------------------------- mutation
    @property
    def mutable(self) -> bool:
        """True once :meth:`enable_mutation` has run."""

        return getattr(self, "_mutable", False)

    def enable_mutation(self) -> None:
        """Switch the service into mutable-corpus mode (idempotent).

        Unlocks :meth:`ingest_features` / :meth:`ingest_bytes` /
        :meth:`purge` / :meth:`compact` on the anchor index (members are
        added in place and purged through tombstones).  The feature
        columns are one per (hash type, class), so adding or removing
        anchors of known classes leaves the layout the forest was
        trained on unchanged.

        Mutations themselves are **not** internally synchronised against
        concurrent classification — the serving tier
        (:class:`~repro.serving.model_manager.ModelManager`) serialises
        them against model passes.
        """

        if self.mutable:
            return
        builder = getattr(self.classifier, "builder_", None)
        if builder is None or not hasattr(builder, "index_"):
            raise ValidationError(
                "this service's classifier carries no similarity index; "
                "online ingestion needs one")
        builder.index_.seal()
        self._mutable = True

    def _check_mutable(self) -> SimilarityIndex:
        if not self.mutable:
            raise ValidationError(
                "this service is immutable; call enable_mutation() first")
        return self.classifier.builder_.index_

    def ingest_features(self, records: Sequence[SampleFeatures]
                        ) -> list[dict]:
        """Add labelled feature records to the live corpus.

        Every record's class must already be known to the model: the
        forest's feature columns are per (type, class), so a brand-new
        class cannot be learned online — it needs a retrain.  Validation
        runs before any mutation, so a rejected batch leaves the corpus
        untouched.  Returns one report dict per record.
        """

        index = self._check_mutable()
        records = list(records)
        if not records:
            return []
        builder = self.classifier.builder_
        known = set(builder.classes_)
        for record in records:
            if not record.class_name:
                raise ValidationError(
                    f"ingest sample {record.sample_id!r} carries no class "
                    "label; online samples must be labelled")
            if record.class_name not in known:
                raise ValidationError(
                    f"ingest sample {record.sample_id!r} has unknown class "
                    f"{record.class_name!r}; known classes are "
                    f"{sorted(known)} (new classes need a retrain)")
        reports = []
        for record in records:
            index.add(record.sample_id, record.digests,
                      class_name=record.class_name)
            # The corpus sequence counts tombstoned members until the
            # next compaction, so it never repeats between compactions.
            reports.append({"sample_id": record.sample_id,
                            "class": record.class_name,
                            "sequence": index.total_members - 1})
        builder.refresh_from_index()
        self._invalidate_cache()
        _LOG.info("ingested %d samples; corpus now holds %d members",
                  len(records), index.n_members)
        return reports

    def ingest_bytes(self, items: Sequence[tuple[str, bytes, str]]
                     ) -> list[dict]:
        """Extract and ingest ``(sample_id, data, class_name)`` triples."""

        items = list(items)
        if not items:
            return []
        self._check_mutable()
        with span("extract_features"):
            extracted = self._extract_bytes(
                [(sample_id, data) for sample_id, data, _ in items])
        labelled = [replace(record, class_name=str(class_name))
                    for record, (_, _, class_name) in zip(extracted, items)]
        # ingest_apply covers only the corpus application, a *sibling*
        # of extract_features — nesting one top-level span inside
        # another would double-count the time in stage rollups.
        with span("ingest_apply"):
            return self.ingest_features(labelled)

    def purge(self, sample_id: str) -> int:
        """Tombstone every corpus member under ``sample_id``.

        Refuses to drop the last surviving anchors of a class (the
        per-class feature columns must keep at least one anchor each);
        returns how many members were newly tombstoned (0 when the id
        is unknown).
        """

        index = self._check_mutable()
        members = index.members_for_id(sample_id)
        if not members:
            return 0
        class_names = index.class_names
        doomed: dict[str, int] = {}
        for member in members:
            name = class_names[member]
            doomed[name] = doomed.get(name, 0) + 1
        totals: dict[str, int] = {}
        for name in class_names:
            totals[name] = totals.get(name, 0) + 1
        for name, count in doomed.items():
            if count >= totals.get(name, 0):
                raise ValidationError(
                    f"cannot purge {sample_id!r}: it holds the last "
                    f"surviving anchors of class {name!r}, and every "
                    "class needs at least one anchor")
        removed = index.remove(sample_id)
        self.classifier.builder_.refresh_from_index()
        self._invalidate_cache()
        _LOG.info("purged %r (%d members tombstoned); %d survive",
                  sample_id, removed, index.n_members)
        return removed

    def compact(self) -> int:
        """Physically drop tombstoned members; returns how many."""

        # Member indices are already dense over the survivors and do not
        # change, so the anchor bookkeeping and digest cache stay valid.
        return self._check_mutable().compact()

    def corpus_info(self) -> dict:
        """Live corpus statistics for lifecycle policies and /healthz."""

        index = self.similarity_index
        classes: dict[str, int] = {}
        for name in index.class_names:
            classes[name] = classes.get(name, 0) + 1
        return {"members": int(index.n_members), "classes": classes,
                "mutable": self.mutable,
                "total_members": int(index.total_members),
                "tombstones": int(index.n_tombstones),
                "tombstone_ratio": float(index.tombstone_ratio)}

    def _invalidate_cache(self) -> None:
        # A corpus mutation changes similarity scores (a new anchor can
        # raise its class's max; a purge can lower it), so every cached
        # (best class, confidence) pair is suspect.  Extracted features
        # do not depend on the corpus and stay cached.
        with self._cache_lock:
            self._cache.clear()

    # -------------------------------------------------------------- classify
    def classify_features(self, features: Sequence[SampleFeatures]
                          ) -> list[Decision]:
        """Classify pre-extracted feature records (e.g. a prolog hook)."""

        features = list(features)
        if not features:
            return []
        return self._decide(features)

    def classify_paths(self, paths: Sequence[str | os.PathLike]
                       ) -> list[Decision]:
        """Classify explicit executable paths."""

        paths = [str(p) for p in paths]
        if not paths:
            return []
        return self._decide(self._pipeline.extract_paths(paths))

    def classify_bytes(self, items: Mapping[str, bytes]
                       | Iterable[tuple[str, bytes]]) -> list[Decision]:
        """Classify in-memory executables, given ``(sample_id, bytes)``
        pairs or a mapping of ids to bytes."""

        pairs = list(items.items()) if isinstance(items, Mapping) else list(items)
        if not pairs:
            return []
        with span("extract_features"):
            features = self._extract_bytes(pairs)
        return self._decide(features)

    def classify_directory(self, directory: str | os.PathLike,
                           pattern: str = "**/*") -> list[Decision]:
        """Classify every regular file below ``directory``."""

        return self.classify_paths(list_directory(directory, pattern))

    def classify_stream(self, items: Iterable, *,
                        batch_size: int | None = None) -> Iterator[Decision]:
        """Classify an iterable of arbitrary length, in input order.

        Items may be mixed: :class:`SampleFeatures` records,
        ``(sample_id, bytes)`` pairs, or path strings /
        :class:`os.PathLike`.  The stream is consumed in micro-batches of
        ``batch_size`` (default: the service's ``batch_size``), so each
        batch pays one vectorised scoring-plus-forest pass and memory
        stays bounded regardless of stream length.
        """

        batch_size = self.batch_size if batch_size is None else int(batch_size)
        if batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        batch: list = []
        for item in items:
            batch.append(item)
            if len(batch) >= batch_size:
                yield from self._classify_batch(batch)
                batch = []
        if batch:
            yield from self._classify_batch(batch)

    # ----------------------------------------------------------- internals
    def _classify_batch(self, batch: list) -> list[Decision]:
        features: list[SampleFeatures | None] = [None] * len(batch)
        paths: list[tuple[int, str]] = []
        blobs: list[tuple[int, tuple[str, bytes]]] = []
        for position, item in enumerate(batch):
            if isinstance(item, SampleFeatures):
                features[position] = item
            elif isinstance(item, tuple) and len(item) == 2:
                blobs.append((position, (str(item[0]), item[1])))
            elif isinstance(item, (str, os.PathLike)):
                paths.append((position, str(item)))
            else:
                raise ValidationError(
                    "classify_stream items must be SampleFeatures, "
                    "(sample_id, bytes) pairs or paths, got "
                    f"{type(item).__name__}")
        if paths:
            extracted = self._pipeline.extract_paths([p for _, p in paths])
            for (position, _), record in zip(paths, extracted):
                features[position] = record
        if blobs:
            with span("extract_features"):
                extracted = self._extract_bytes([b for _, b in blobs])
            for (position, _), record in zip(blobs, extracted):
                features[position] = record
        return self._decide(features)

    def _extract_bytes(self, pairs: Sequence[tuple[str, bytes]]
                       ) -> list[SampleFeatures]:
        """Features of ``(sample_id, bytes)`` pairs, through the
        SHA-256 → :class:`SampleFeatures` LRU.

        Each distinct uncached content is extracted once.  Every
        position gets a copy of its content's record under its own
        ``sample_id`` (the content's ``sha256[:16]`` when empty) and
        ``executable``, with its own ``digests`` dict, so the result
        equals :meth:`FeatureExtractionPipeline.extract_bytes` and
        shares nothing mutable with the cache.  A failed extraction
        caches nothing and raises as the pipeline would.
        """

        if not self.cache_size:
            with self._cache_lock:
                self.extraction_misses += len(pairs)
            return self._pipeline.extract_bytes(pairs)

        keys = [crypto_digest(data) for _, data in pairs]
        records: dict[str, SampleFeatures] = {}
        misses: dict[str, int] = {}      # uncached content -> first position
        # The same two locked phases as _predict_cached: extraction runs
        # unlocked, and concurrent misses of one content each extract it.
        with self._cache_lock:
            for position, key in enumerate(keys):
                if key in records or key in misses:
                    continue
                entry = self._extracted.get(key)
                if entry is None:
                    misses[key] = position
                else:
                    self._extracted.move_to_end(key)
                    records[key] = entry
            self.extraction_hits += len(pairs) - len(misses)
            self.extraction_misses += len(misses)
        if misses:
            records.update(zip(misses, self._pipeline.extract_bytes(
                [pairs[position] for position in misses.values()])))
            with self._cache_lock:
                for key in misses:
                    self._extracted[key] = records[key]
                    self._extracted.move_to_end(key)
                while len(self._extracted) > self.cache_size:
                    self._extracted.popitem(last=False)
        features = []
        for (sample_id, _), key in zip(pairs, keys):
            sample_id = str(sample_id)
            features.append(replace(records[key],
                                    sample_id=sample_id or key[:16],
                                    executable=sample_id.rsplit("/", 1)[-1],
                                    digests=dict(records[key].digests)))
        return features

    def _decide(self, features: Sequence[SampleFeatures]) -> list[Decision]:
        known_labels, confidences = self._predict_cached(features)
        # Duck-typed classifiers without a thresholded model are taken
        # at their word (threshold None); the real FuzzyHashClassifier
        # path defers rejection to here so cached scores stay valid.
        threshold = getattr(self.classifier.model_,
                            "confidence_threshold", None)
        unknown = self.classifier.unknown_label
        allowed = self.allowed_classes
        decisions: list[Decision] = []
        for record, known, confidence in zip(features, known_labels,
                                             confidences):
            # The cache stores the pre-threshold best class, so the
            # rejection rule is applied fresh on every call — a
            # threshold changed after load takes effect immediately.
            predicted = unknown if (threshold is not None
                                    and confidence < threshold) else known
            if predicted == unknown:
                decision = DECISION_UNKNOWN
            elif allowed is not None and predicted not in allowed:
                decision = DECISION_UNEXPECTED
            else:
                decision = DECISION_EXPECTED
            decisions.append(Decision(
                sample_id=record.sample_id, predicted_class=predicted,
                confidence=float(confidence), decision=decision))
        flagged = sum(1 for d in decisions if d.is_suspicious())
        _LOG.info("service classified %d executables (%d flagged)",
                  len(decisions), flagged)
        return decisions

    def _predict_cached(self, features: Sequence[SampleFeatures]
                        ) -> tuple[list, np.ndarray]:
        """``(best class, confidence)`` per record, through the LRU cache.

        Predictions are computed with the rejection threshold disabled
        (``confidence_threshold=0.0``), so cached values stay valid when
        the service's threshold is tuned later; only cache misses pay
        the similarity transform and the forest pass.  Duck-typed
        classifiers whose ``model_`` carries no threshold are called
        with their own default instead.
        """

        threshold = getattr(self.classifier.model_,
                            "confidence_threshold", None)
        override = None if threshold is None else 0.0
        if not self.cache_size:
            labels, confidences = self.classifier.predict_with_confidence(
                features, confidence_threshold=override)
            with self._cache_lock:
                self.cache_misses += len(features)
            return list(labels), np.asarray(confidences, dtype=np.float64)

        feature_types = getattr(self.classifier, "active_feature_types",
                                self.classifier.feature_types)
        keys = [tuple(record.digest(ft) for ft in feature_types)
                for record in features]
        known: list = [None] * len(features)
        confidence = np.zeros(len(features), dtype=np.float64)
        misses: list[int] = []
        # Two locked phases around the (expensive, unlocked) model pass:
        # concurrent callers missing the same key both compute it — a
        # harmless duplicate pass, each honestly counted as a miss —
        # but the OrderedDict itself is never touched concurrently and
        # the hit/miss counters stay exact.
        with self._cache_lock:
            for position, key in enumerate(keys):
                hit = self._cache.get(key)
                if hit is None:
                    misses.append(position)
                else:
                    self._cache.move_to_end(key)
                    known[position], confidence[position] = hit
            self.cache_hits += len(features) - len(misses)
            self.cache_misses += len(misses)
        if misses:
            labels, scores = self.classifier.predict_with_confidence(
                [features[i] for i in misses], confidence_threshold=override)
            with self._cache_lock:
                for position, label, score in zip(misses, labels, scores):
                    known[position] = label
                    confidence[position] = float(score)
                    self._cache[keys[position]] = (label, float(score))
                    self._cache.move_to_end(keys[position])
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        return known, confidence
