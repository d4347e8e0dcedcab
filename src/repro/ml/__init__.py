"""From-scratch machine-learning substrate.

The paper's pipeline is built on scikit-learn: a Random Forest
Classifier with balanced class weights, stratified train/test splits,
grid-search hyper-parameter tuning and the micro/macro/weighted
precision/recall/f1 report.  scikit-learn is not available in this
environment, so this subpackage re-implements the required subset with
NumPy, keeping the public API close enough to scikit-learn that the
code in :mod:`repro.core` reads like the paper's description:

* :mod:`repro.ml.tree` / :mod:`repro.ml.forest` — CART decision trees
  and the Random Forest (bootstrap aggregation, ``class_weight``,
  ``predict_proba``, Gini feature importances),
* :mod:`repro.ml.neighbors` / :mod:`repro.ml.linear` — the KNN and
  linear-SVM comparators named as future work in the paper,
* :mod:`repro.ml.metrics` — precision/recall/f1 with micro, macro and
  weighted averaging plus the classification report,
* :mod:`repro.ml.class_weight`, :mod:`repro.ml.encoding`,
  :mod:`repro.ml.base` — the supporting plumbing.

The paper's stratified two-phase split and its joint forest/threshold
grid search are built on this substrate in :mod:`repro.core.splits`
and :mod:`repro.core.gridsearch`.
"""

from .base import BaseEstimator, ClassifierMixin
from .encoding import LabelEncoder
from .class_weight import compute_class_weight, compute_sample_weight
from .tree import DecisionTreeClassifier
from .forest import RandomForestClassifier
from .neighbors import KNeighborsClassifier
from .linear import LinearSVMClassifier
from .metrics import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    f1_score,
    precision_recall_fscore_support,
    precision_score,
    recall_score,
)

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "LabelEncoder",
    "compute_class_weight",
    "compute_sample_weight",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "KNeighborsClassifier",
    "LinearSVMClassifier",
    "accuracy_score",
    "classification_report",
    "confusion_matrix",
    "f1_score",
    "precision_recall_fscore_support",
    "precision_score",
    "recall_score",
]
