"""Per-sample feature records.

A :class:`SampleFeatures` holds everything the classifier ever needs to
know about one executable: its labels (class, version, executable name)
and its fuzzy-hash digests.  Raw file contents are *not* retained —
one of the practical advantages the paper claims for fuzzy hashes is
that storing digests "avoids integrity and privacy concerns of
accessing raw content of users' files" and keeps storage small.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from ..exceptions import FeatureExtractionError

__all__ = ["SampleFeatures", "features_to_json", "features_from_json"]


@dataclass(frozen=True)
class SampleFeatures:
    """Fuzzy-hash features and metadata of one application sample."""

    sample_id: str
    class_name: str
    version: str
    executable: str
    digests: Mapping[str, str]          # feature type -> SSDeep digest string
    sha256: str = ""
    file_size: int = 0
    n_symbols: int = 0
    n_strings: int = 0
    stripped: bool = False

    def digest(self, feature_type: str) -> str:
        """Digest for one feature type (empty string if unavailable)."""

        return self.digests.get(feature_type, "")

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["digests"] = dict(self.digests)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SampleFeatures":
        try:
            return cls(
                sample_id=str(payload["sample_id"]),
                class_name=str(payload["class_name"]),
                version=str(payload["version"]),
                executable=str(payload["executable"]),
                digests=dict(payload["digests"]),
                sha256=str(payload.get("sha256", "")),
                file_size=int(payload.get("file_size", 0)),
                n_symbols=int(payload.get("n_symbols", 0)),
                n_strings=int(payload.get("n_strings", 0)),
                stripped=bool(payload.get("stripped", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FeatureExtractionError(f"invalid SampleFeatures payload: {exc}") from exc


def features_to_json(features: Iterable[SampleFeatures]) -> str:
    """Serialise a sequence of feature records to a JSON string."""

    return json.dumps({"samples": [f.to_dict() for f in features]}, indent=2)


def features_from_json(text: str) -> list[SampleFeatures]:
    """Parse feature records serialised by :func:`features_to_json`."""

    try:
        payload = json.loads(text)
        items = payload["samples"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise FeatureExtractionError(f"invalid feature JSON: {exc}") from exc
    return [SampleFeatures.from_dict(item) for item in items]
