"""The paper's contribution: the Fuzzy Hash Classifier and its evaluation.

* :mod:`repro.core.splits` — the two-phase train/test split (80/20
  class-level known/unknown split, then stratified 60/40 sample split),
* :mod:`repro.core.classifier` — :class:`ThresholdRandomForest` (Random
  Forest + confidence threshold + "-1" unknown label) and
  :class:`FuzzyHashClassifier` (the end-to-end model operating on
  fuzzy-hash feature records),
* :mod:`repro.core.thresholds` — confidence-threshold sweeps (Figure 3),
* :mod:`repro.core.gridsearch` — the joint Random-Forest/threshold grid
  search performed within the training set,
* :mod:`repro.core.evaluation` — the experiment runner that regenerates
  the paper's tables and figures end to end,
* :mod:`repro.core.baselines` — cryptographic-hash, executable-name,
  KNN and linear-SVM baselines,
* :mod:`repro.core.reporting` — text renderings of the paper's tables.

The envisioned production workflow (Figure 1: collect → hash →
classify → decide) is :class:`repro.api.ClassificationService`.
"""

from .splits import TwoPhaseSplit, two_phase_split
from .classifier import FuzzyHashClassifier, ThresholdRandomForest
from .thresholds import ThresholdSweep, sweep_thresholds, select_best_threshold
from .gridsearch import FuzzyHashGridSearch, GridSearchOutcome, default_param_grid
from .evaluation import ExperimentResult, ExperimentRunner
from .baselines import (
    BaselineOutcome,
    CryptoHashBaseline,
    ExecutableNameBaseline,
    run_baseline_comparison,
)

__all__ = [
    "TwoPhaseSplit",
    "two_phase_split",
    "FuzzyHashClassifier",
    "ThresholdRandomForest",
    "ThresholdSweep",
    "sweep_thresholds",
    "select_best_threshold",
    "FuzzyHashGridSearch",
    "GridSearchOutcome",
    "default_param_grid",
    "ExperimentResult",
    "ExperimentRunner",
    "BaselineOutcome",
    "CryptoHashBaseline",
    "ExecutableNameBaseline",
    "run_baseline_comparison",
]
