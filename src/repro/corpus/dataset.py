"""Sample table used by feature extraction and classification.

A :class:`CorpusDataset` is the bridge between the corpus (files on
disk, labels from directory structure) and the machine-learning
pipeline (ordered samples with string labels).  It deliberately knows
nothing about fuzzy hashes — features are attached later by
:mod:`repro.features`.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..exceptions import CorpusError

__all__ = ["SampleRecord", "CorpusDataset"]


@dataclass(frozen=True)
class SampleRecord:
    """One application sample (an executable file with its labels)."""

    sample_id: str
    path: str
    class_name: str
    version: str
    executable: str
    file_size: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SampleRecord":
        return cls(
            sample_id=str(payload["sample_id"]),
            path=str(payload["path"]),
            class_name=str(payload["class_name"]),
            version=str(payload["version"]),
            executable=str(payload["executable"]),
            file_size=int(payload.get("file_size", 0)),
        )


class CorpusDataset:
    """Ordered, labelled collection of :class:`SampleRecord` entries."""

    def __init__(self, records: Iterable[SampleRecord]) -> None:
        self.records: list[SampleRecord] = list(records)
        ids = [r.sample_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise CorpusError("dataset contains duplicate sample ids")

    # ------------------------------------------------------------ protocol
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SampleRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> SampleRecord:
        return self.records[index]

    # ----------------------------------------------------------------- API
    @property
    def labels(self) -> list[str]:
        """Class label of each sample, in order."""

        return [r.class_name for r in self.records]

    @property
    def paths(self) -> list[str]:
        """File path of each sample, in order."""

        return [r.path for r in self.records]

    @property
    def class_names(self) -> list[str]:
        """Sorted list of distinct class names."""

        return sorted({r.class_name for r in self.records})

    def class_counts(self) -> dict[str, int]:
        """Number of samples per class, sorted by descending count."""

        counts = Counter(r.class_name for r in self.records)
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def version_counts(self) -> dict[str, int]:
        """Number of distinct versions per class."""

        versions: dict[str, set[str]] = {}
        for record in self.records:
            versions.setdefault(record.class_name, set()).add(record.version)
        return {name: len(v) for name, v in sorted(versions.items())}

    def filter(self, predicate: Callable[[SampleRecord], bool]) -> "CorpusDataset":
        """Return a new dataset containing the records matching ``predicate``."""

        return CorpusDataset(r for r in self.records if predicate(r))

    def filter_classes(self, class_names: Sequence[str]) -> "CorpusDataset":
        """Return a new dataset restricted to the given classes."""

        wanted = set(class_names)
        return self.filter(lambda r: r.class_name in wanted)

    def subset(self, indices: Sequence[int]) -> "CorpusDataset":
        """Return a new dataset with the records at ``indices`` (in order)."""

        return CorpusDataset(self.records[i] for i in indices)

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""

        counts = self.class_counts()
        total_bytes = sum(r.file_size for r in self.records)
        top = ", ".join(f"{name} ({count})" for name, count in list(counts.items())[:5])
        return (f"{len(self.records)} samples across {len(counts)} classes "
                f"({total_bytes / 1e6:.1f} MB of executables); "
                f"largest classes: {top}")

    # ----------------------------------------------------------------- I/O
    def to_json(self, path: str | os.PathLike) -> None:
        """Serialise the dataset (records only, not file contents)."""

        payload = {"records": [r.to_dict() for r in self.records]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    @classmethod
    def from_json(cls, path: str | os.PathLike) -> "CorpusDataset":
        """Load a dataset previously written by :meth:`to_json`."""

        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        try:
            records = [SampleRecord.from_dict(item) for item in payload["records"]]
        except (KeyError, TypeError) as exc:
            raise CorpusError(f"invalid dataset file {path!r}") from exc
        return cls(records)
