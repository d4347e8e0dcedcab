"""Fuzzy-hash feature extraction and similarity feature matrices.

This package implements the middle of the paper's pipeline: from
executable bytes to the numeric feature matrix the Random Forest is
trained on.

* :mod:`repro.features.extractors` — compute the three SSDeep digests
  (raw file, ``strings`` output, ``nm`` output) plus the cryptographic
  digest used by the exact-match baseline,
* :mod:`repro.features.records` — the :class:`SampleFeatures` record
  and its JSON (de)serialisation,
* :mod:`repro.features.pipeline` — batch extraction over a corpus
  (optionally in parallel worker processes),
* :mod:`repro.features.similarity` — turn digests into the similarity
  feature matrix (SSDeep scores against per-class anchors), with
  7-gram candidate pruning and a bit-parallel edit-distance kernel,
* :mod:`repro.features.store` — on-disk feature cache.
"""

from .extractors import FEATURE_TYPES, FeatureExtractor
from .records import SampleFeatures, features_to_json, features_from_json
from .pipeline import FeatureExtractionPipeline
from .similarity import SimilarityFeatureBuilder, SimilarityMatrix
from .store import FeatureStore

__all__ = [
    "FEATURE_TYPES",
    "FeatureExtractor",
    "SampleFeatures",
    "features_to_json",
    "features_from_json",
    "FeatureExtractionPipeline",
    "SimilarityFeatureBuilder",
    "SimilarityMatrix",
    "FeatureStore",
]
