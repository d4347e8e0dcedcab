"""Edit-distance substrate.

SSDeep similarity scores are derived from an edit distance between the
two digest strings (the paper uses the Damerau–Levenshtein distance,
Eq. 1).  This subpackage provides:

* :mod:`repro.distance.levenshtein` — classic Levenshtein distance
  (pure-Python reference),
* :mod:`repro.distance.damerau` — restricted (optimal string alignment)
  and unrestricted Damerau–Levenshtein distances, plus SSDeep's
  cost-weighted variant (the oracle the scoring kernel is tested
  against),
* :mod:`repro.distance.scoring` — :func:`indel_distance`, the one
  kernel every scoring path calls (a bit-parallel LCS equal to SSDeep's
  weighted distance), and SSDeep's scaling of it into a 0–100
  similarity score.
"""

from .levenshtein import levenshtein_distance
from .damerau import (
    damerau_levenshtein_distance,
    osa_distance,
    weighted_edit_distance,
)
from .scoring import indel_distance, ssdeep_score_from_distance

__all__ = [
    "levenshtein_distance",
    "damerau_levenshtein_distance",
    "osa_distance",
    "weighted_edit_distance",
    "indel_distance",
    "ssdeep_score_from_distance",
]
