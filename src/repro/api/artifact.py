"""Versioned single-file model artifacts (``.rpm``).

A saved model is one container file (same physical layout as the
similarity index, :mod:`repro.index.storage`) with magic ``RPROMODL``:
a JSON header carrying everything that is not bulk data, followed by
raw little-endian array payloads.

Header fields::

    kind                   "repro.fuzzy-hash-classifier"
    format_version         written by the container (currently 6)
    library_version        repro.__version__ that wrote the file
    params                 FuzzyHashClassifier hyper-parameters (not n_jobs)
    classes                {"kind": "str"|"int"|"float", "values": [...]}
    feature_names          column names of the similarity matrix
    feature_groups         feature type -> column indices
    forest                 {"classes", "n_features_in", "n_trees"}
    index                  {"included": bool, "header": ... | null}

Array payloads hold the forest's node table, the arrays the forest
predicts from (:meth:`repro.ml.forest.RandomForestClassifier.get_state`),
under ``forest.*`` names, and, when ``include_index`` is left on, the
anchor index under ``index.*`` names.

Version history:

* **v1** — a single anchor index.
* **v2** — the embedded anchor index may be sharded: its header (under
  ``index.header``) carries ``"sharded": true`` plus the shard layout,
  and its arrays are prefixed ``index.shardN.*``.  This build no longer
  writes that layout; it reads it into one index over the surviving
  members.
* **v3** — the second hash family: the classifier may carry a
  ``family`` parameter (``"ctph"``/``"vector"``/``"both"``) and the
  embedded index may hold packed ``uint64`` vector-digest matrices
  (``v{idx}.*`` sections, :mod:`repro.index.knn`).
* **v4** — only the physical layout changes: array payloads are padded
  so each starts on a 64-byte boundary (``payload_alignment`` in the
  container header), which lets :func:`load_model` with
  ``mmap_mode="r"`` adopt the bulk arrays as zero-copy memory-mapped
  views — an O(header) load whose pages N serving processes share
  through the OS page cache.
* **v5** — the embedded index keys its postings exactly and drops the
  two arrays per hash type that held each hashed key's block size and
  gram (:data:`repro.index.storage.FORMAT_VERSION`, still 5).
* **v6** (this build) — the forest stores a leaf table: each leaf's
  non-zero class probabilities in compressed rows (``leaf_offsets``,
  ``leaf_classes``, ``leaf_proba``) in place of the dense per-node
  ``node_values`` and the ``node_samples``, ``tree_classes``,
  ``tree_class_offsets`` and ``tree_importances`` nothing read.

Version 1–5 artifacts load and predict identically: the upgrade steps
(:mod:`repro.upgrade`) first turn a dense forest table into the leaf
table, re-key a v1–v4 anchor index from its entries, and drop the
``anchor_strategy: "class-max"`` and ``medoids_per_class`` params (any
other strategy is refused), so the rest of this module reads v6 only.
v1–v3 files load materialised.  A re-save writes v6; readers accept any
version up to the current one.

Validation on load is strict: bad magic, truncation, a future format
version, unknown feature types, a forest node table that is
inconsistent or that a walk could loop in (every internal node's
children must point forward inside its own tree), or a feature layout
that does not match the embedded (or supplied) anchor index all raise
:class:`~repro.exceptions.ModelFormatError` — the CLI turns that into a
one-line message and exit status 2.  A model restored by
:func:`load_model` predicts **bit-identically** to the instance passed
to :func:`save_model`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from .. import __version__
from ..core.classifier import FuzzyHashClassifier
from ..exceptions import (
    ModelArtifactError,
    ModelFormatError,
    NotFittedError,
    ReproError,
)
from ..features.extractors import (
    ALL_FEATURE_TYPES,
    resolve_family_feature_types,
)
from ..index import SimilarityIndex, load_index
from ..index.storage import (
    ContainerFormat,
    read_container,
    read_container_header,
    write_container,
)
from ..logging_utils import get_logger
from ..upgrade import upgrade_model

__all__ = ["MODEL_FORMAT_VERSION", "MODEL_MAGIC", "MODEL_SUFFIX", "MODEL_KIND",
           "save_model", "load_model", "inspect_model", "validate_model",
           "read_wal_checkpoint"]

_LOG = get_logger("api.artifact")

#: Current model artifact format version (a leaf table for the forest);
#: v1 (single-index anchors only), v2 (sharded anchors allowed,
#: CTPH-only), v3 (unaligned payloads), v4 (hashed posting keys) and v5
#: (a dense forest table) files remain readable.
MODEL_FORMAT_VERSION = 6

#: File magic identifying a repro model artifact.
MODEL_MAGIC = b"RPROMODL"

#: Conventional file suffix for model artifacts ("repro model").
MODEL_SUFFIX = ".rpm"

#: The ``kind`` string a readable artifact must declare.
MODEL_KIND = "repro.fuzzy-hash-classifier"

#: Container format of model artifact files (adds float64 for the
#: forest's thresholds, leaf probabilities and importances, and uint64
#: for packed vector-digest matrices).
MODEL_CONTAINER = ContainerFormat(
    magic=MODEL_MAGIC,
    version=MODEL_FORMAT_VERSION,
    allowed_dtypes=("<i2", "<i4", "<i8", "|u1", "<f8", "<u8"),
    kind="model artifact",
    format_error=ModelFormatError,
    io_error=ModelArtifactError,
)


# --------------------------------------------------------------- label codec
def _encode_labels(arr: np.ndarray) -> dict:
    """JSON-safe encoding of a class-label array, tagged with its kind."""

    values = np.asarray(arr).tolist()
    if all(isinstance(v, str) for v in values):
        kind = "str"
    elif all(isinstance(v, bool) for v in values):
        raise ModelArtifactError("boolean class labels are not supported "
                                 "by the model artifact format")
    elif all(isinstance(v, int) for v in values):
        kind = "int"
    elif all(isinstance(v, (int, float)) for v in values):
        kind = "float"
    else:
        raise ModelArtifactError(
            "class labels must be uniformly str, int or float to be saved "
            f"in a model artifact, got {sorted({type(v).__name__ for v in values})}")
    return {"kind": kind, "values": values}


def _decode_labels(payload: Mapping, *, source: str) -> np.ndarray:
    try:
        kind = payload["kind"]
        values = list(payload["values"])
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(
            f"{source} has a malformed class-label block: {exc}") from exc
    if kind == "str":
        return np.array([str(v) for v in values])
    if kind == "int":
        return np.array(values, dtype=np.int64)
    if kind == "float":
        return np.array(values, dtype=np.float64)
    raise ModelFormatError(
        f"{source} declares unknown class-label kind {kind!r}")


# ------------------------------------------------------------------- save
def save_model(classifier: FuzzyHashClassifier, path: str | os.PathLike, *,
               include_index: bool = True,
               wal_checkpoint: Mapping | None = None) -> Path:
    """Persist a fitted classifier as one versioned artifact file.

    ``include_index=False`` writes a *headless* artifact without the
    anchor index (much smaller); loading one requires passing the
    matching index explicitly to :func:`load_model`.

    ``wal_checkpoint`` (``{"sequence": N, "generation": G}``) stamps
    the artifact as already containing every write-ahead-log mutation
    with seq <= N — the durable half of the serving tier's
    publish/checkpoint protocol (:mod:`repro.serving.wal`).  The field
    is an optional header entry: artifacts without it (every pre-WAL
    file) load unchanged, and readers that don't know it ignore it.
    """

    if not isinstance(classifier, FuzzyHashClassifier):
        raise ModelArtifactError(
            f"save_model expects a FuzzyHashClassifier, got "
            f"{type(classifier).__name__}")
    if not hasattr(classifier, "model_"):
        raise NotFittedError("cannot save an unfitted classifier; call fit "
                             "(or ClassificationService.train) first")
    path = Path(path)
    # n_jobs is a run-time setting, not a model property: an artifact's
    # bytes must not depend on how many processes trained it.  Older
    # artifacts that carry it still load (the constructor accepts it).
    params = {key: (list(value) if isinstance(value, tuple) else value)
              for key, value in classifier.get_params(deep=False).items()
              if key != "n_jobs"}
    try:
        json.dumps(params)
        json.dumps(classifier.unknown_label)
    except (TypeError, ValueError) as exc:
        raise ModelArtifactError(
            f"classifier parameters are not JSON-serialisable: {exc}") from exc

    forest = classifier.model_.get_state()["forest"]
    arrays = {f"forest.{name}": array
              for name, array in forest["table"].items()}
    forest_header = {
        "classes": _encode_labels(forest["classes"]),
        "n_features_in": forest["n_features_in"],
        "n_trees": len(forest["table"]["tree_node_offsets"]) - 1,
    }
    header = {
        "kind": MODEL_KIND,
        "library_version": __version__,
        "params": params,
        "classes": _encode_labels(np.asarray(classifier.classes_)),
        "feature_names": list(classifier.feature_names_),
        "feature_groups": {k: list(v)
                           for k, v in classifier.feature_groups_.items()},
        "forest": forest_header,
        "index": {"included": bool(include_index), "header": None},
    }
    if wal_checkpoint is not None:
        try:
            header["wal_checkpoint"] = {
                "sequence": int(wal_checkpoint["sequence"]),
                "generation": int(wal_checkpoint["generation"]),
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelArtifactError(
                f"wal_checkpoint needs integer 'sequence' and "
                f"'generation' fields: {exc}") from exc
    if include_index:
        # Serialised only on demand: a headless save skips the (large)
        # anchor-index payload entirely, not just its write.
        builder_state = classifier.builder_.get_state()
        header["index"]["header"] = builder_state["index_header"]
        for name, array in builder_state["index_arrays"].items():
            arrays[f"index.{name}"] = array

    path = write_container(path, header, arrays, fmt=MODEL_CONTAINER)
    _LOG.info("saved model artifact (%d classes, %d trees%s) to %s",
              len(classifier.classes_), forest_header["n_trees"],
              ", with index" if include_index else "", path)
    return path


# ------------------------------------------------------------------- load
def load_model(path: str | os.PathLike,
               index: "SimilarityIndex | str | os.PathLike | None" = None,
               *,
               mmap_mode: str | None = None) -> FuzzyHashClassifier:
    """Load a model artifact; the result predicts bit-identically.

    ``index`` supplies the anchor index for headless artifacts (a loaded
    :class:`~repro.index.SimilarityIndex`, or a path that
    :func:`~repro.index.load_index` opens); it is ignored with a warning
    when the artifact embeds its own.
    ``mmap_mode="r"`` adopts the bulk arrays as read-only zero-copy
    views into a shared memory map (v4+ aligned artifacts; older files
    transparently fall back to the materialising path, a v4 file's
    anchor index re-keys its postings, and a v1–v5 file's dense forest
    table converts to private leaf arrays).  Raises
    :class:`~repro.exceptions.ModelFormatError` on missing, corrupt,
    truncated, version- or feature-type-incompatible files.
    """

    return _restore(Path(path), index, mmap_mode=mmap_mode)[0]


def _restore(path: Path,
             index: "SimilarityIndex | str | os.PathLike | None",
             mmap_mode: str | None = None
             ) -> tuple[FuzzyHashClassifier, dict]:
    """Fully restore an artifact; returns ``(classifier, header)``."""

    source = f"model artifact {path}"
    header, arrays = read_container(path, fmt=MODEL_CONTAINER,
                                    mmap_mode=mmap_mode)

    kind = header.get("kind")
    if kind != MODEL_KIND:
        raise ModelFormatError(
            f"{source} holds a {kind!r} model; this build reads {MODEL_KIND!r}")
    header, embedded, table = upgrade_model(header, arrays, source=source)
    try:
        params = dict(header["params"])
        feature_names = list(header["feature_names"])
        feature_groups = dict(header["feature_groups"])
        forest_header = header["forest"]
        index_block = dict(header["index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(
            f"{source} is missing required header fields: {exc}") from exc

    feature_types = params.get("feature_types", ())
    unknown_types = [ft for ft in feature_types
                     if ft not in ALL_FEATURE_TYPES]
    if not feature_types or unknown_types:
        raise ModelFormatError(
            f"{source} uses feature types {unknown_types or '[]'} unknown to "
            f"this build (supported: {list(ALL_FEATURE_TYPES)})")

    try:
        classifier = FuzzyHashClassifier(**params)
    except (TypeError, ReproError) as exc:
        raise ModelFormatError(
            f"{source} declares invalid classifier parameters: {exc}") from exc

    if index_block.get("included"):
        if index is not None:
            _LOG.warning("%s embeds its anchor index; ignoring the explicitly "
                         "supplied one", source)
        index_header = index_block.get("header")
        if not isinstance(index_header, dict) or not embedded:
            raise ModelFormatError(
                f"{source} declares an embedded index but carries no "
                "index payload")
        # The container arrays are exclusively owned (eager read) or
        # immutable mapped views, so the index adopts them without a
        # second copy; a mapped load also defers the O(payload) content
        # scans (the file was validated when written).
        try:
            anchor = SimilarityIndex.from_state(
                index_header, embedded, source=source,
                copy=False, deep_validate=mmap_mode is None)
        except ReproError as exc:
            raise ModelFormatError(
                f"{source} cannot be restored: {exc}") from exc
        builder_state: dict = {"index": anchor}
    else:
        if index is None:
            raise ModelFormatError(
                f"{source} was saved without its anchor index "
                "(include_index=False); pass index=<SimilarityIndex or path>")
        if not isinstance(index, SimilarityIndex):
            # A path: we own the freshly-loaded index, so the builder
            # can adopt it directly (mmap_mode flows through).
            builder_state = {"index": load_index(index, mmap_mode=mmap_mode)}
        else:
            # A caller-owned index object: snapshot it so the restored
            # model never aliases (and is never mutated through) the
            # caller's instance.
            index_header, index_arrays = index.get_state()
            builder_state = {"index_header": index_header,
                             "index_arrays": index_arrays}

    try:
        n_trees = int(forest_header["n_trees"])
        forest_state = {
            "classes": _decode_labels(forest_header["classes"], source=source),
            "n_features_in": int(forest_header["n_features_in"]),
            "table": table,
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(
            f"{source} is missing forest payload fields: {exc}") from exc
    offsets = forest_state["table"].get("tree_node_offsets")
    if offsets is not None and offsets.shape != (n_trees + 1,):
        raise ModelFormatError(f"{source} has inconsistent forest offsets")
    try:
        classifier.set_state({
            "builder": builder_state,
            "model": {"forest": forest_state},
            "feature_names": feature_names,
            "feature_groups": feature_groups,
        })
    except ReproError as exc:
        raise ModelFormatError(f"{source} cannot be restored: {exc}") from exc

    # The feature layout the forest was trained on must be exactly what
    # the restored builder produces — this is what catches a headless
    # artifact paired with the wrong index, or tampered anchor labels.
    restored_names = list(classifier.builder_.feature_names_)
    if restored_names != feature_names:
        raise ModelFormatError(
            f"{source} feature layout does not match its anchor index "
            f"({len(feature_names)} declared vs {len(restored_names)} "
            "reconstructed columns)")
    _LOG.info("loaded model artifact (%d classes, %d trees) from %s",
              len(classifier.classes_), forest_header.get("n_trees"), path)
    return classifier, header


# ---------------------------------------------------------------- inspect
def _summarise(path: Path, header: Mapping) -> dict:
    """Build the inspect summary from an already-read header."""

    source = f"model artifact {path}"
    if header.get("kind") != MODEL_KIND:
        raise ModelFormatError(
            f"{source} holds a {header.get('kind')!r} model; this build "
            f"reads {MODEL_KIND!r}")
    try:
        params = dict(header["params"])
        classes = _decode_labels(header["classes"], source=source)
        forest = dict(header["forest"])
        index_block = dict(header["index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(
            f"{source} is missing required header fields: {exc}") from exc
    index_header = index_block.get("header") or {}
    index_members = len(index_header.get("sample_ids", [])) \
        if index_block.get("included") else 0
    family = str(params.get("family", "ctph"))
    try:
        active_types = list(resolve_family_feature_types(
            params.get("feature_types", ()), family))
    except ReproError:
        active_types = list(params.get("feature_types", []))
    families = {
        "ctph": [ft for ft in active_types if not ft.startswith("vector-")],
        "vector": [ft for ft in active_types if ft.startswith("vector-")],
    }
    return {
        "path": str(path),
        "file_bytes": path.stat().st_size,
        "format_version": header.get("format_version"),
        "library_version": header.get("library_version"),
        "kind": header["kind"],
        "feature_types": list(params.get("feature_types", [])),
        "family": family,
        "active_feature_types": active_types,
        "families": families,
        "classes": [str(c) for c in classes.tolist()],
        "n_classes": len(classes),
        "n_trees": int(forest.get("n_trees", 0)),
        "n_features": int(forest.get("n_features_in", 0)),
        "confidence_threshold": params.get("confidence_threshold"),
        "index_included": bool(index_block.get("included")),
        "index_members": index_members,
        "wal_checkpoint": header.get("wal_checkpoint"),
    }


def read_wal_checkpoint(path: str | os.PathLike) -> dict | None:
    """The artifact's ``wal_checkpoint`` header field, or ``None``.

    O(header): only the container preamble and JSON header are read.
    ``None`` means the artifact predates (or was published outside) the
    WAL protocol, i.e. the whole log must be replayed over it.
    """

    header = read_container_header(Path(path), fmt=MODEL_CONTAINER)
    checkpoint = header.get("wal_checkpoint")
    if checkpoint is None:
        return None
    try:
        return {"sequence": int(checkpoint["sequence"]),
                "generation": int(checkpoint["generation"])}
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(
            f"model artifact {path} carries a malformed wal_checkpoint "
            f"header: {checkpoint!r} ({exc})") from exc


def inspect_model(path: str | os.PathLike) -> dict:
    """Header-level summary of an artifact (no model reconstruction)."""

    path = Path(path)
    # Mapped read: a current file's payloads are never faulted in on v4
    # aligned files; an older one's run through the upgrade steps.
    header, arrays = read_container(path, fmt=MODEL_CONTAINER,
                                    mmap_mode="r")
    return _summarise(path, upgrade_model(
        header, arrays, source=f"model artifact {path}")[0])


def validate_model(path: str | os.PathLike,
                   index: "SimilarityIndex | str | os.PathLike | None" = None
                   ) -> dict:
    """Fully restore an artifact, then return its :func:`inspect_model`
    summary — the load exercises every structural check, so success
    means the file will serve.  The container is read and parsed once."""

    path = Path(path)
    _classifier, header = _restore(path, index)
    return _summarise(path, header)
