"""repro — Fuzzy Hash Classifier for HPC application classification.

A from-scratch, dependency-light reproduction of

    Thomas Jakobsche and Florina M. Ciorba,
    "Using Malware Detection Techniques for HPC Application
    Classification", SC 2024 workshops (arXiv:2411.18327).

The library classifies HPC application executables into application
classes (or "unknown") by comparing SSDeep fuzzy hashes of the raw
binary, its embedded strings and its global symbols with a Random
Forest trained on similarity scores.  All substrates — the SSDeep/CTPH
implementation, the Damerau–Levenshtein engine, a minimal ELF toolkit
(``strings``/``nm``/``strip`` equivalents), the synthetic sciCORE-like
corpus and the Random-Forest / metrics / model-selection stack — are
implemented in this package; the only runtime dependency is NumPy.

Quick start
-----------
>>> from repro import (ClassificationService, CorpusBuilder,
...                    FeatureExtractionPipeline, default_config)
>>> config = default_config("small")
>>> samples = CorpusBuilder(config=config).build_samples()
>>> features = FeatureExtractionPipeline().extract_generated(samples)
>>> service = ClassificationService.train(features, n_estimators=30,
...                                       random_state=0)
>>> service.save("model.rpm")            # versioned single-file artifact
PosixPath('model.rpm')
>>> service = ClassificationService.load("model.rpm")   # no retraining
>>> decisions = service.classify_features(features[:5])
>>> decisions[0].decision                # 'within-allocation', or flagged
'within-allocation'

See ``examples/`` for runnable end-to-end scenarios and
``benchmarks/`` for the scripts that regenerate every table and figure
of the paper.
"""

from __future__ import annotations

__version__ = "1.0.0"

# Configuration
from .config import ExperimentConfig, ScalePreset, default_config, get_scale_preset

# Substrates
from .hashing import (
    FuzzyHasher,
    SsdeepDigest,
    compare_digests,
    crypto_digest,
    fuzzy_hash,
    fuzzy_hash_file,
)
from .binfmt import (
    ElfReader,
    ElfWriter,
    build_executable,
    extract_strings,
    nm_output,
    strings_output,
    strip_symbols,
)
from .distance import (
    damerau_levenshtein_distance,
    levenshtein_distance,
    osa_distance,
)

# Corpus
from .corpus import (
    ApplicationCatalog,
    CorpusBuilder,
    CorpusDataset,
    CorpusScanner,
    SampleRecord,
    default_catalog,
)

# Features
from .features import (
    FEATURE_TYPES,
    FeatureExtractionPipeline,
    FeatureExtractor,
    FeatureStore,
    SampleFeatures,
    SimilarityFeatureBuilder,
)

# Similarity index
from .index import (
    IndexMatch,
    PairScore,
    SimilarityIndex,
    load_index,
)

# Machine learning substrate
from .ml import (
    DecisionTreeClassifier,
    KNeighborsClassifier,
    LinearSVMClassifier,
    RandomForestClassifier,
    classification_report,
    f1_score,
    train_test_split,
)

# Core contribution
from .core import (
    ClassificationWorkflow,
    ExperimentResult,
    ExperimentRunner,
    FuzzyHashClassifier,
    FuzzyHashGridSearch,
    ThresholdRandomForest,
    TwoPhaseSplit,
    run_baseline_comparison,
    two_phase_split,
)

# Public API facade (model artifacts + classification service)
from .api import (
    ClassificationService,
    Decision,
    inspect_model,
    load_model,
    save_model,
)

# Analysis
from .analysis import build_usage_report, confused_pairs, group_importances

# Exceptions
from .exceptions import ReproError

__all__ = [
    "__version__",
    # config
    "ExperimentConfig",
    "ScalePreset",
    "default_config",
    "get_scale_preset",
    # hashing / binfmt / distance substrates
    "FuzzyHasher",
    "SsdeepDigest",
    "compare_digests",
    "crypto_digest",
    "fuzzy_hash",
    "fuzzy_hash_file",
    "ElfReader",
    "ElfWriter",
    "build_executable",
    "extract_strings",
    "strings_output",
    "nm_output",
    "strip_symbols",
    "damerau_levenshtein_distance",
    "osa_distance",
    "levenshtein_distance",
    # corpus
    "ApplicationCatalog",
    "default_catalog",
    "CorpusBuilder",
    "CorpusScanner",
    "CorpusDataset",
    "SampleRecord",
    # features
    "FEATURE_TYPES",
    "FeatureExtractor",
    "FeatureExtractionPipeline",
    "FeatureStore",
    "SampleFeatures",
    "SimilarityFeatureBuilder",
    # similarity index
    "SimilarityIndex",
    "load_index",
    "IndexMatch",
    "PairScore",
    # ml
    "RandomForestClassifier",
    "DecisionTreeClassifier",
    "KNeighborsClassifier",
    "LinearSVMClassifier",
    "classification_report",
    "f1_score",
    "train_test_split",
    # core
    "FuzzyHashClassifier",
    "ThresholdRandomForest",
    "FuzzyHashGridSearch",
    "ExperimentRunner",
    "ExperimentResult",
    "ClassificationWorkflow",
    "TwoPhaseSplit",
    "two_phase_split",
    "run_baseline_comparison",
    # api facade
    "ClassificationService",
    "Decision",
    "save_model",
    "load_model",
    "inspect_model",
    # analysis
    "group_importances",
    "confused_pairs",
    "build_usage_report",
    # errors
    "ReproError",
]
