"""Upgrades from every retired file layout to the current one.

:meth:`SimilarityIndex.load <repro.index.core.SimilarityIndex.load>`,
:func:`~repro.index.core.load_index` and the model artifact reader
(:mod:`repro.api.artifact`) pass what they read through the steps here
first, so ``from_state`` and ``set_state`` read the current layout only.
A step recognises its input by content, the arrays and header keys it
converts, never by the stamped version; a current ``(header, arrays)``
passes through untouched, no array copied.  The steps:

* **sharded index** (``"sharded": true`` snapshots, ``manifest.json``
  directories): each shard is checked and brought to entry columns, and
  the survivors are copied in insertion order
  (:func:`repro.index.core._copy_members`);
* **flat entries** (``entry_type``, index format 1): entry columns, the
  pool interned in entry order;
* **hashed keys** (``post_blocks``/``post_grams``, formats 2–4): the
  pool and entries are kept and the ``post_*`` arrays dropped;
* **dense forest table** (``node_values``, model formats 1–5): the leaf
  table, through the function ``fit`` uses, after the structure checks;
* **anchor strategy** (model formats 1–5): ``anchor_strategy:
  "class-max"`` and ``medoids_per_class`` are dropped, any other
  strategy refused.

Every index step ends in one keying, :func:`repro.index.core._keyed`.
Steps check what they read whatever deep validation was asked for, and
their errors name the file.  A new format version is one more step
here, plus a fixture under ``tests/data`` written by the code before it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from .exceptions import IndexFormatError, ModelFormatError, ReproError, \
    ValidationError
from .hashing.vector import is_vector_feature_type
from .index.core import _ENTRY_ARRAYS, _check_block_sizes, \
    _check_signature_bytes, _checked_state, _copy_members, _keyed, \
    _read_header, _section, _section_of
from .index.postings import SignaturePool
from .index.storage import read_container
from .logging_utils import get_logger
from .ml.forest import _TABLE_DTYPES, _check_classes, _check_shapes, \
    _checked_nodes, _leaf_arrays, _typed
from .ml.tree import _offsets

__all__ = ["read_sharded_directory", "upgrade_index", "upgrade_model"]

_LOG = get_logger("upgrade")

#: What a readable sharded layout declares.
MANIFEST_FORMAT, SHARDED_FORMAT_VERSION, ROUTING = \
    "repro-sharded-index", 1, "fnv32"

#: What a dense forest table stores in place of the leaf entries: tree
#: ``t``'s classes are ``tree_classes[tree_class_offsets[t]:
#: tree_class_offsets[t + 1]]``, and ``node_values`` holds each tree's
#: (nodes x classes) class masses, tree after tree.  ``node_samples``
#: and ``tree_importances`` are checked but never read.
_DENSE_FOREST = {"tree_class_offsets": np.int64, "node_samples": np.int64,
                 "node_values": np.float64, "tree_classes": np.int64,
                 "tree_importances": np.float64}

#: The ``params`` that named the feature layout before it was fixed.
_LAYOUT_PARAMS = ("anchor_strategy", "medoids_per_class")


def upgrade_index(header: Mapping, arrays: Mapping[str, np.ndarray], *,
                  source: str = "index state"
                  ) -> tuple[Mapping, Mapping[str, np.ndarray]]:
    """An index's ``(header, arrays)`` in the current layout; ``source``
    names it in the :class:`~repro.exceptions.IndexFormatError` an
    inconsistent old state raises."""

    if isinstance(header, Mapping) and header.get("sharded"):
        try:
            n_shards = int(header["n_shards"])
            order = [int(shard) for shard in header["order"]]
            tombstones = [[int(m) for m in dead]
                          for dead in header["tombstones"]]
            shard_headers = list(header["shard_headers"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(
                f"{source} is missing required fields: {exc}") from exc
        version = header.get("sharded_format_version")
        if not isinstance(version, int) or version > SHARDED_FORMAT_VERSION:
            raise IndexFormatError(
                f"{source} uses sharded format version {version!r}; this "
                f"build reads up to version {SHARDED_FORMAT_VERSION}")
        if len(shard_headers) != n_shards or len(tombstones) != n_shards \
                or n_shards < 1:
            raise IndexFormatError(
                f"{source} declares {n_shards} shards but carries "
                f"{len(shard_headers)} shard headers and {len(tombstones)} "
                "tombstone sets")
        shards = []
        for i, shard_header in enumerate(shard_headers):
            if not isinstance(shard_header, Mapping) \
                    or shard_header.get("sharded"):
                raise IndexFormatError(f"{source} carries an invalid header "
                                       f"for shard {i}")
            shards.append(_entries(shard_header, _section_of(
                arrays, f"shard{i}."), f"{source} (shard {i})"))
        return _survivors(shards, order, tombstones, source)
    if "pool_offsets" in arrays and not any(
            name.endswith((".post_blocks", ".post_grams")) for name in arrays):
        return header, arrays
    header, entries = _entries(header, arrays, source)
    return header, _keyed(entries)


def read_sharded_directory(path: str | os.PathLike, *,
                           mmap_mode: str | None = None
                           ) -> tuple[dict, dict[str, np.ndarray]]:
    """The current ``(header, arrays)`` of a sharded-index directory, one
    index over its survivors; ``mmap_mode`` applies to reading the shard
    files.  Raises :class:`~repro.exceptions.IndexFormatError` on a
    missing, corrupt, inconsistent or unsupported directory."""

    path = Path(path)
    source = f"sharded index directory {path}"
    if not path.is_dir():
        raise IndexFormatError(f"{source} does not exist")
    if not (path / "manifest.json").is_file():
        raise IndexFormatError(f"{source} has no manifest.json")
    try:
        manifest = json.loads((path / "manifest.json").read_text(
            encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexFormatError(
            f"{source} has a corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict) \
            or manifest.get("format") != MANIFEST_FORMAT:
        raise IndexFormatError(
            f"{source} is not a {MANIFEST_FORMAT} manifest")
    version = manifest.get("format_version")
    if not isinstance(version, int) or version > SHARDED_FORMAT_VERSION:
        raise IndexFormatError(
            f"{source} uses manifest version {version!r}; this build "
            f"reads up to version {SHARDED_FORMAT_VERSION}")
    routing = manifest.get("routing")
    if routing != ROUTING:
        raise IndexFormatError(
            f"{source} declares unknown routing {routing!r}; this build "
            f"supports {ROUTING!r}")
    try:
        shard_files = [str(name) for name in manifest["shards"]]
        n_shards = int(manifest["n_shards"])
        order = [int(shard) for shard in manifest["order"]]
        tombstones = [[int(m) for m in dead]
                      for dead in manifest["tombstones"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexFormatError(
            f"{source} manifest is missing required fields: {exc}"
        ) from exc
    if len(shard_files) != n_shards or len(tombstones) != n_shards \
            or n_shards < 1:
        raise IndexFormatError(
            f"{source} manifest declares {n_shards} shards but lists "
            f"{len(shard_files)} shard files and {len(tombstones)} "
            "tombstone sets")
    shards = [_entries(*read_container(path / name, mmap_mode=mmap_mode),
                       f"index file {path / name}") for name in shard_files]
    header, arrays = _survivors(shards, order, tombstones, source)
    _LOG.info("read sharded index directory %s (%d shards) as one index "
              "of %d members", path, n_shards, len(header["sample_ids"]))
    return header, arrays


def _survivors(shards: list[tuple[dict, dict]], order: list[int],
               tombstones: list[list[int]], source: str
               ) -> tuple[dict, dict[str, np.ndarray]]:
    """Check a shard layout, then copy the survivors, in global insertion
    order, into one index's state."""

    types = [tuple(map(str, header["feature_types"])) for header, _ in shards]
    sizes = [len(header["sample_ids"]) for header, _ in shards]
    for shard_idx, shard_types in enumerate(types):
        if shard_types != types[0]:
            raise IndexFormatError(
                f"{source}: shard {shard_idx} disagrees with shard 0 on "
                "feature types")
    counts = [0] * len(shards)
    for shard_idx in order:
        if not 0 <= shard_idx < len(shards):
            raise IndexFormatError(
                f"{source} order references shard #{shard_idx} but only "
                f"{len(shards)} exist")
        counts[shard_idx] += 1
    for shard_idx, size in enumerate(sizes):
        if counts[shard_idx] != size:
            raise IndexFormatError(
                f"{source} order assigns {counts[shard_idx]} members to "
                f"shard {shard_idx}, which holds {size}")
    dead_sets = [set(dead) for dead in tombstones]
    for shard_idx, dead in enumerate(dead_sets):
        if not all(0 <= m < sizes[shard_idx] for m in dead):
            raise IndexFormatError(
                f"{source} tombstones reference members outside shard "
                f"{shard_idx}")
    # The k-th time ``order`` names a shard, it names its member k.
    local = [iter(range(size)) for size in sizes]
    picks = [(shard_idx, member) for shard_idx in order
             if (member := next(local[shard_idx])) not in dead_sets[shard_idx]]
    return _copy_members(types[0], shards, picks)


def _entries(header: Mapping, arrays: Mapping[str, np.ndarray], source: str
             ) -> tuple[Mapping, dict[str, np.ndarray]]:
    """An old state's members as entry columns, without postings, checked
    as a deep load checks them."""

    if "pool_offsets" not in arrays:
        feature_types, sample_ids, _ = _read_header(header, source)
        return header, _flat_entries(feature_types, len(sample_ids), arrays,
                                     source)
    feature_types, _, _, pool, sections, _ = _checked_state(
        header, arrays, source, postings=False)
    entries = dict(zip(("pool_bytes", "pool_offsets"), pool))
    for type_idx, cols in enumerate(sections):
        entries |= {f"t{type_idx}.{name}": array
                    for name, array in cols.items()}
    vector = tuple(f"v{i}." for i in range(len(feature_types) - len(sections)))
    return header, entries | {name: array for name, array in arrays.items()
                              if name.startswith(vector)}


def _flat_entries(feature_types: tuple[str, ...], n_members: int,
                  arrays: Mapping[str, np.ndarray], source: str
                  ) -> dict[str, np.ndarray]:
    """The entry columns of a flat-entry state (index format 1)."""

    if any(map(is_vector_feature_type, feature_types)):
        raise IndexFormatError(
            f"{source} uses the legacy flat-entry layout, which predates "
            "vector feature types")
    entry_type, member, block, offsets, sig_bytes = _section(
        arrays, "", ("entry_type", "entry_member", "entry_block",
                     "sig_offsets", "sig_bytes"), source).values()
    n_entries = len(entry_type)
    if len(member) != n_entries or len(block) != n_entries \
            or len(offsets) != n_entries + 1:
        raise IndexFormatError(f"{source} has inconsistent "
                               "entry array lengths")
    if n_entries and (np.any(np.diff(offsets) < 0) or offsets[0] != 0
                      or offsets[-1] != len(sig_bytes)):
        raise IndexFormatError(f"{source} has corrupt signature offsets")
    _check_signature_bytes(sig_bytes, source)
    _check_block_sizes(np.unique(block).tolist(), source)
    bad_type = (entry_type < 0) | (entry_type >= len(feature_types))
    bad = bad_type | (member < 0) | (member >= n_members)
    if bad.any():
        first = int(np.argmax(bad))
        if bad_type[first]:
            raise IndexFormatError(
                f"{source} references feature type #{int(entry_type[first])}"
                f" but only {len(feature_types)} are declared")
        raise IndexFormatError(f"{source} references member "
                               f"#{int(member[first])} but only {n_members} "
                               "are declared")
    pool = SignaturePool()
    sig = np.array([pool.intern(signature) for signature in SignaturePool
                    .from_packed(sig_bytes, offsets).strings], dtype=np.int32)
    entries = dict(zip(("pool_bytes", "pool_offsets"), pool.packed()))
    for type_idx in range(len(feature_types)):
        mine = entry_type == type_idx
        for (name, dtype), column in zip(_ENTRY_ARRAYS.items(),
                                         (member, block, sig)):
            entries[f"t{type_idx}.{name}"] = column[mine].astype(dtype)
    return entries


def upgrade_model(header: Mapping, arrays: Mapping[str, np.ndarray], *,
                  source: str) -> tuple[Mapping, dict, dict]:
    """A model artifact's header, embedded index arrays (``index.*``) and
    forest table (``forest.*``), prefixes stripped, in the current layout.

    Raises :class:`~repro.exceptions.ModelFormatError`; a header field a
    step cannot read is left for the artifact reader to report.
    """

    params = header.get("params")
    if isinstance(params, Mapping) and any(map(params.__contains__,
                                               _LAYOUT_PARAMS)):
        # "class-max", one column per hash type and class, is the only
        # feature layout this build computes.
        strategy = params.get("anchor_strategy", "class-max")
        if strategy != "class-max":
            raise ModelFormatError(
                f"{source} uses anchor strategy {strategy!r}; this build "
                "computes the 'class-max' feature layout only")
        header = {**header, "params": {key: value
                                       for key, value in params.items()
                                       if key not in _LAYOUT_PARAMS}}
    index_block = header.get("index")
    embedded = _section_of(arrays, "index.")
    table = _section_of(arrays, "forest.")
    try:
        if embedded and isinstance(index_block, Mapping) \
                and index_block.get("included") \
                and isinstance(index_block.get("header"), dict):
            index_header, embedded = upgrade_index(
                index_block["header"], embedded, source=source)
            header = {**header, "index": {**index_block,
                                          "header": index_header}}
        if "node_values" in table:
            table = _leaf_table(table, header.get("forest"))
    except ReproError as exc:
        raise ModelFormatError(f"{source} cannot be restored: {exc}") from exc
    return header, embedded, table


def _leaf_table(table: Mapping[str, np.ndarray], forest: Mapping
                ) -> Mapping[str, np.ndarray]:
    """The leaf table of a dense forest table: the tree structure is
    checked as a leaf table's is, then the dense arrays as model formats
    1–5 checked them, and each tree's rows become leaf entries.  Node
    arrays are kept as they are (views stay views); the leaf arrays are
    new.  Raises :class:`ValidationError` on the first inconsistency."""

    try:
        n_classes = len(forest["classes"]["values"])
        n_features = int(forest["n_features_in"])
    except (KeyError, TypeError, ValueError):
        return table    # the artifact reader names the missing field
    node_dtypes = {name: dtype for name, dtype in _TABLE_DTYPES.items()
                   if not name.startswith("leaf_")}
    arrays = _typed(table, node_dtypes | _DENSE_FOREST, "tree_classes")
    leaf = ~_checked_nodes(arrays, n_features)
    node_offsets = arrays["tree_node_offsets"]
    class_offsets = arrays["tree_class_offsets"]
    if class_offsets.shape != node_offsets.shape:
        raise ValidationError("forest node table has inconsistent tree offsets")
    if class_offsets[0] != 0:
        raise ValidationError("forest node table has tree offsets that do "
                              "not start at 0")
    sizes, class_counts = np.diff(node_offsets), np.diff(class_offsets)
    if np.any(class_counts < 0):
        raise ValidationError("forest node table has decreasing tree offsets")
    _check_shapes(arrays, {"node_samples": (int(node_offsets[-1]),),
                           "node_values": (int(np.dot(sizes, class_counts)),),
                           "tree_classes": (int(class_offsets[-1]),),
                           "tree_importances": (len(sizes), n_features)})
    tree_classes = arrays["tree_classes"]
    _check_classes(tree_classes, n_classes, "tree classes")
    value_offsets = _offsets(sizes * class_counts)
    leaves = _leaf_arrays(
        (arrays["node_values"][value_offsets[t]:value_offsets[t + 1]]
         .reshape(sizes[t], class_counts[t]),
         tree_classes[class_offsets[t]:class_offsets[t + 1]],
         leaf[node_offsets[t]:node_offsets[t + 1]])
        for t in range(len(sizes)))
    return {name: arrays[name] if name in arrays else leaves[name]
            for name in _TABLE_DTYPES}
