"""Public, serve-oriented facade of the library.

The paper's envisioned deployment (Figure 1) is a long-lived service
labelling executables collected from HPC jobs.  This package is the
stable surface that deployment programs against:

* :mod:`repro.api.artifact` — the versioned single-file **model
  artifact** format (``.rpm``): :func:`save_model` persists a fitted
  :class:`~repro.core.classifier.FuzzyHashClassifier` (forest, labels,
  confidence threshold, feature layout and — by default — the anchor
  :class:`~repro.index.SimilarityIndex`); :func:`load_model` restores it
  with strict version and feature-type validation, so a later process
  classifies without retraining and predicts bit-identically.
* :mod:`repro.api.service` — :class:`ClassificationService`, the
  batched classification facade: ``train`` / ``load`` / ``save`` plus
  ``classify_paths`` / ``classify_bytes`` / ``classify_stream``, all
  returning typed :class:`Decision` records, and ``render_report``, the
  operator-facing summary of a batch of them.
"""

from .artifact import (
    MODEL_FORMAT_VERSION,
    MODEL_MAGIC,
    MODEL_SUFFIX,
    inspect_model,
    load_model,
    save_model,
    validate_model,
)
from .service import (
    DECISION_EXPECTED,
    DECISION_UNEXPECTED,
    DECISION_UNKNOWN,
    ClassificationService,
    Decision,
)

__all__ = [
    "MODEL_FORMAT_VERSION",
    "MODEL_MAGIC",
    "MODEL_SUFFIX",
    "save_model",
    "load_model",
    "inspect_model",
    "validate_model",
    "ClassificationService",
    "Decision",
    "DECISION_EXPECTED",
    "DECISION_UNEXPECTED",
    "DECISION_UNKNOWN",
]
