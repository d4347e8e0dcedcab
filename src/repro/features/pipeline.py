"""Batch feature extraction over a corpus.

Feature extraction is embarrassingly parallel across samples (one
executable = three digests), so the pipeline fans the work out over
worker processes when ``n_jobs > 1``; each sample is extracted by a
:class:`~repro.features.extractors.FeatureExtractor` over the
pipeline's feature types, its only setting.  Inputs can be either a
:class:`~repro.corpus.dataset.CorpusDataset` (files on disk, the
production path of the paper's workflow) or in-memory
:class:`~repro.corpus.builder.GeneratedSample` objects (used by tests
and by benchmarks that skip the on-disk tree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..corpus.builder import GeneratedSample
from ..corpus.dataset import CorpusDataset
from ..exceptions import FeatureExtractionError
from ..logging_utils import get_logger
from ..parallel import parallel_map
from ..parallel.timing import Stopwatch
from .extractors import FEATURE_TYPES, FeatureExtractor
from .records import SampleFeatures

__all__ = ["FeatureExtractionPipeline"]

_LOG = get_logger("features.pipeline")


@dataclass(frozen=True)
class _FileTask:
    """Work item describing one on-disk sample."""

    sample_id: str
    path: str
    class_name: str
    version: str
    executable: str
    feature_types: tuple[str, ...]


@dataclass(frozen=True)
class _BytesTask:
    """Work item describing one in-memory sample."""

    sample_id: str
    data: bytes
    class_name: str
    version: str
    executable: str
    feature_types: tuple[str, ...]


def _run_task(task) -> SampleFeatures:
    """Extract the features of a single task (module-level for pickling)."""

    extractor = FeatureExtractor(task.feature_types)
    if isinstance(task, _FileTask):
        return extractor.extract_file(task.path, sample_id=task.sample_id,
                                      class_name=task.class_name,
                                      version=task.version,
                                      executable=task.executable)
    return extractor.extract(task.data, sample_id=task.sample_id,
                             class_name=task.class_name, version=task.version,
                             executable=task.executable)


class FeatureExtractionPipeline:
    """Extract fuzzy-hash features for every sample of a corpus.

    Parameters
    ----------
    feature_types:
        Which digests to compute (defaults to all three).
    n_jobs:
        Worker processes (1 = serial; see
        :func:`~repro.parallel.parallel_map`).  Batches of fewer than
        eight items per worker run serially.
    """

    def __init__(self, feature_types: Sequence[str] = FEATURE_TYPES, *,
                 n_jobs: int = 1) -> None:
        self.feature_types = tuple(feature_types)
        self.n_jobs = n_jobs
        self.last_timings: dict[str, float] = {}

    # ----------------------------------------------------------------- API
    def extract_dataset(self, dataset: CorpusDataset) -> list[SampleFeatures]:
        """Extract features for every record of an on-disk dataset."""

        tasks = [
            _FileTask(sample_id=r.sample_id, path=r.path, class_name=r.class_name,
                      version=r.version, executable=r.executable,
                      feature_types=self.feature_types)
            for r in dataset
        ]
        return self._run(tasks)

    def extract_generated(self, samples: Iterable[GeneratedSample]
                          ) -> list[SampleFeatures]:
        """Extract features for in-memory generated samples."""

        tasks = [
            _BytesTask(sample_id=s.relative_path, data=s.data,
                       class_name=s.class_name, version=s.version,
                       executable=s.executable,
                       feature_types=self.feature_types)
            for s in samples
        ]
        return self._run(tasks)

    def extract_bytes(self, items: Sequence[tuple[str, bytes]]
                      ) -> list[SampleFeatures]:
        """Extract features for ``(sample_id, bytes)`` pairs.

        Serving entry point for executables that arrive in memory (e.g.
        pushed over the wire) instead of as files; labels are left
        empty like :meth:`extract_paths`.
        """

        tasks = [
            _BytesTask(sample_id=str(sample_id), data=data, class_name="",
                       version="", executable=str(sample_id).rsplit("/", 1)[-1],
                       feature_types=self.feature_types)
            for sample_id, data in items
        ]
        return self._run(tasks)

    def extract_paths(self, paths: Sequence[str]) -> list[SampleFeatures]:
        """Extract features for bare file paths (labels left empty).

        This is the entry point of the envisioned production workflow
        (Figure 1), where executables collected from jobs arrive without
        trusted labels.
        """

        tasks = [
            _FileTask(sample_id=path, path=path, class_name="", version="",
                      executable=path.rsplit("/", 1)[-1],
                      feature_types=self.feature_types)
            for path in paths
        ]
        return self._run(tasks)

    # ----------------------------------------------------------- internals
    def _run(self, tasks: list) -> list[SampleFeatures]:
        if not tasks:
            raise FeatureExtractionError("no samples to extract features from")
        watch = Stopwatch().start("feature-extraction")
        results = parallel_map(_run_task, tasks, n_jobs=self.n_jobs,
                               min_items_per_worker=8)
        watch.stop()
        self.last_timings = watch.laps
        _LOG.info("extracted %d feature records (%d feature types) in %.2f s",
                  len(results), len(self.feature_types),
                  watch.laps.get("feature-extraction", 0.0))
        return results
