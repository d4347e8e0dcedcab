"""Readers for the retired sharded-index layouts.

Older builds could split an index across N shards and persist it two
ways: as a directory (``manifest.json`` plus one ``shard-NNNN-*.rpsi``
container per shard), and — inside a model artifact — as one snapshot
whose header carries ``"sharded": true`` with the shard headers and
``shardN.*`` arrays.  Both record the global insertion order (the shard
of every member, in the order members were added) and per-shard
tombstones.

This module reads either layout into one :class:`SimilarityIndex` over
the surviving members, copied in that global order through the index's
one member-copy path (the one compaction uses), so the result is
byte-identical to a single index built from the survivors in insertion
order.  Every query on a sharded index answered exactly like that
index, so the result answers identically.  Only
:func:`~repro.index.core.load_index` (a directory) and
:meth:`SimilarityIndex.from_state` (a sharded header) call in here;
``repro-classify index merge OLD.rpsd -o NEW.rpsi`` rewrites a
directory as a single file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from ..exceptions import IndexFormatError
from ..logging_utils import get_logger
from .core import SimilarityIndex

__all__ = ["index_from_sharded_state", "load_sharded_directory"]

_LOG = get_logger("index.legacy")

#: Manifest file name inside a sharded-index directory.
MANIFEST_NAME = "manifest.json"

#: The ``format`` string a readable manifest declares.
MANIFEST_FORMAT = "repro-sharded-index"

#: Newest sharded layout version this build reads.
SHARDED_FORMAT_VERSION = 1

#: The only routing rule sharded layouts were written with.
ROUTING_NAME = "fnv32"


def load_sharded_directory(path: str | os.PathLike, *,
                           mmap_mode: str | None = None) -> SimilarityIndex:
    """Read a sharded-index directory into one index over its survivors.

    ``mmap_mode`` applies to reading the shard containers; the merged
    index is built in memory.  Raises
    :class:`~repro.exceptions.IndexFormatError` on a missing, corrupt,
    inconsistent or unsupported directory.
    """

    path = Path(path)
    source = f"sharded index directory {path}"
    if not path.is_dir():
        raise IndexFormatError(f"{source} does not exist")
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise IndexFormatError(f"{source} has no {MANIFEST_NAME}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
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
    if routing != ROUTING_NAME:
        raise IndexFormatError(
            f"{source} declares unknown routing {routing!r}; this build "
            f"supports {ROUTING_NAME!r}")
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
    shards = [SimilarityIndex.load(path / name, mmap_mode=mmap_mode)
              for name in shard_files]
    index = _merge_survivors(shards, order, tombstones, source=source)
    _LOG.info("read sharded index directory %s (%d shards) as one index "
              "of %d members", path, n_shards, index.n_members)
    return index


def index_from_sharded_state(header: Mapping,
                             arrays: Mapping[str, np.ndarray], *,
                             source: str = "sharded index state",
                             copy: bool = True,
                             deep_validate: bool = True) -> SimilarityIndex:
    """Rebuild a sharded snapshot (``"sharded": true`` header) as one
    index over its survivors.

    ``copy`` and ``deep_validate`` apply to restoring each shard (see
    :meth:`SimilarityIndex.from_state`).
    """

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
    for shard_idx, shard_header in enumerate(shard_headers):
        if not isinstance(shard_header, Mapping) \
                or shard_header.get("sharded"):
            raise IndexFormatError(
                f"{source} carries an invalid header for shard {shard_idx}")
        prefix = f"shard{shard_idx}."
        shard_arrays = {name[len(prefix):]: array
                        for name, array in arrays.items()
                        if name.startswith(prefix)}
        shards.append(SimilarityIndex.from_state(
            shard_header, shard_arrays,
            source=f"{source} (shard {shard_idx})",
            copy=copy, deep_validate=deep_validate))
    return _merge_survivors(shards, order, tombstones, source=source)


def _merge_survivors(shards: list[SimilarityIndex], order: list[int],
                     tombstones: list[list[int]], *,
                     source: str) -> SimilarityIndex:
    """Validate the shard layout and copy its survivors, in global
    insertion order, into one index."""

    first = shards[0]
    for shard_idx, shard in enumerate(shards):
        if shard.feature_types != first.feature_types:
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
    for shard_idx, shard in enumerate(shards):
        if counts[shard_idx] != shard.n_members:
            raise IndexFormatError(
                f"{source} order assigns {counts[shard_idx]} members to "
                f"shard {shard_idx}, which holds {shard.n_members}")
    dead_sets = [set(dead) for dead in tombstones]
    for shard_idx, dead in enumerate(dead_sets):
        if not all(0 <= m < shards[shard_idx].n_members for m in dead):
            raise IndexFormatError(
                f"{source} tombstones reference members outside shard "
                f"{shard_idx}")

    next_local = [0] * len(shards)
    survivors = []
    for shard_idx in order:
        local = next_local[shard_idx]
        next_local[shard_idx] += 1
        if local not in dead_sets[shard_idx]:
            survivors.append((shards[shard_idx], local))
    # A loaded shard holds no tombstones of its own, so its dense member
    # indices are its physical ones.
    return SimilarityIndex._copy_members(first.feature_types, survivors)
