"""On-disk feature cache.

Extracting fuzzy hashes for thousands of executables takes a while, so
experiments persist the extracted :class:`SampleFeatures` records as a
JSON file keyed by corpus fingerprint.  The cache is content-addressed:
if the corpus (paths and sizes) or the extraction settings change, a
different cache file is used.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterable, Sequence

from ..exceptions import FeatureExtractionError
from ..logging_utils import get_logger
from .records import SampleFeatures, features_from_json, features_to_json

__all__ = ["FeatureStore"]

_LOG = get_logger("features.store")


class FeatureStore:
    """Directory-backed cache of extracted feature records."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ----------------------------------------------------------------- API
    def key_for(self, sample_descriptors: Iterable[tuple[str, int]],
                feature_types: Sequence[str]) -> str:
        """Cache key derived from (sample id, size) pairs and settings."""

        hasher = hashlib.sha256()
        for sample_id, size in sorted(sample_descriptors):
            hasher.update(f"{sample_id}\x00{size}\x1e".encode("utf-8"))
        hasher.update("|".join(sorted(feature_types)).encode("utf-8"))
        return hasher.hexdigest()[:24]

    def path_for(self, key: str) -> Path:
        return self.directory / f"features-{key}.json"

    def load(self, key: str) -> list[SampleFeatures] | None:
        """Return cached records for ``key``, or ``None`` if absent/corrupt."""

        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            records = features_from_json(path.read_text(encoding="utf-8"))
        except (FeatureExtractionError, OSError) as exc:
            _LOG.warning("ignoring corrupt feature cache %s (%s)", path, exc)
            return None
        _LOG.info("loaded %d cached feature records from %s", len(records), path)
        return records

    def save(self, key: str, features: Sequence[SampleFeatures]) -> Path:
        """Persist records under ``key``; returns the file path.

        The write is atomic (temp file in the same directory +
        :func:`os.replace`), so an interrupted run can never leave a
        truncated cache entry that a later :meth:`load` half-reads.
        """

        path = self.path_for(key)
        tmp_path = path.with_name(path.name + ".tmp")
        try:
            tmp_path.write_text(features_to_json(features), encoding="utf-8")
            os.replace(tmp_path, path)
        except OSError:
            try:
                tmp_path.unlink()
            except OSError:
                pass
            raise
        _LOG.info("cached %d feature records to %s", len(features), path)
        return path

    def clear(self) -> int:
        """Delete all cache files; returns how many were removed."""

        removed = 0
        for path in self.directory.glob("features-*.json"):
            path.unlink()
            removed += 1
        return removed
