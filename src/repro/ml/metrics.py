"""Classification metrics: precision, recall, f1, confusion matrix, report.

The paper evaluates with "the micro, macro, and weighted versions of
precision, recall, and f1-score" (Section 3, citing van Rijsbergen) and
presents the scikit-learn classification report (Table 4).  The
implementations here follow the same definitions:

* **micro** averaging aggregates true/false positives over all classes
  (equal weight per *instance*; equals accuracy in single-label
  multi-class problems),
* **macro** averaging computes the metric per class and takes the
  unweighted mean (equal weight per *class*),
* **weighted** averaging weighs each class's metric by its support.

Division-by-zero cases (a class never predicted, or with no true
samples) contribute 0, matching scikit-learn's ``zero_division=0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_consistent_length
from ..exceptions import ValidationError

__all__ = [
    "accuracy_score",
    "confusion_matrix",
    "precision_recall_fscore_support",
    "precision_score",
    "recall_score",
    "f1_score",
    "classification_report",
    "ClassificationReport",
    "ClassMetrics",
]

_AVERAGES = ("micro", "macro", "weighted", None)


def _as_label_array(y) -> np.ndarray:
    """Convert labels to a 1-D object array.

    Using ``dtype=object`` is essential for the paper's setting, where
    the label set mixes application-class strings with the integer
    ``-1`` unknown marker; a plain ``np.asarray`` would coerce everything
    to strings and silently stop ``-1`` from matching.
    """

    arr = np.empty(len(y), dtype=object)
    arr[:] = list(y)
    return arr


def _unique_labels(y_true, y_pred, labels=None) -> np.ndarray:
    if labels is not None:
        return _as_label_array(list(labels))
    values = set(_as_label_array(y_true).tolist()) | set(_as_label_array(y_pred).tolist())
    return _as_label_array(sorted(values, key=lambda v: (str(type(v)), str(v))))


def accuracy_score(y_true, y_pred) -> float:
    """Fraction of exactly correct predictions."""

    y_true = _as_label_array(y_true)
    y_pred = _as_label_array(y_pred)
    check_consistent_length(y_true, y_pred)
    if y_true.size == 0:
        raise ValidationError("accuracy_score of empty input is undefined")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true, y_pred, labels=None) -> np.ndarray:
    """Confusion matrix ``C`` with ``C[i, j]`` = true ``i`` predicted ``j``."""

    y_true = _as_label_array(y_true)
    y_pred = _as_label_array(y_pred)
    check_consistent_length(y_true, y_pred)
    labels = _unique_labels(y_true, y_pred, labels)
    index = {label: i for i, label in enumerate(labels.tolist())}
    matrix = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for true_value, predicted in zip(y_true.tolist(), y_pred.tolist()):
        if true_value in index and predicted in index:
            matrix[index[true_value], index[predicted]] += 1
    return matrix


def _per_class_counts(y_true, y_pred, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """True positives, false positives, false negatives, support per class."""

    y_true = _as_label_array(y_true)
    y_pred = _as_label_array(y_pred)
    tp = np.zeros(len(labels), dtype=np.float64)
    fp = np.zeros(len(labels), dtype=np.float64)
    fn = np.zeros(len(labels), dtype=np.float64)
    support = np.zeros(len(labels), dtype=np.int64)
    for index, label in enumerate(labels.tolist()):
        true_mask = y_true == label
        pred_mask = y_pred == label
        tp[index] = np.sum(true_mask & pred_mask)
        fp[index] = np.sum(~true_mask & pred_mask)
        fn[index] = np.sum(true_mask & ~pred_mask)
        support[index] = np.sum(true_mask)
    return tp, fp, fn, support


def _safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    result = np.zeros_like(numerator, dtype=np.float64)
    mask = denominator > 0
    result[mask] = numerator[mask] / denominator[mask]
    return result


def precision_recall_fscore_support(y_true, y_pred, *, labels=None,
                                    average: str | None = None,
                                    beta: float = 1.0):
    """Per-class or averaged precision, recall, F-beta and support."""

    if average not in _AVERAGES:
        raise ValidationError(f"average must be one of {_AVERAGES}, got {average!r}")
    check_consistent_length(y_true, y_pred)
    labels = _unique_labels(y_true, y_pred, labels)
    tp, fp, fn, support = _per_class_counts(y_true, y_pred, labels)

    precision = _safe_divide(tp, tp + fp)
    recall = _safe_divide(tp, tp + fn)
    beta2 = beta * beta
    fscore = _safe_divide((1 + beta2) * precision * recall,
                          beta2 * precision + recall)

    if average is None:
        return precision, recall, fscore, support

    if average == "micro":
        total_tp, total_fp, total_fn = tp.sum(), fp.sum(), fn.sum()
        micro_p = total_tp / (total_tp + total_fp) if total_tp + total_fp else 0.0
        micro_r = total_tp / (total_tp + total_fn) if total_tp + total_fn else 0.0
        denom = beta2 * micro_p + micro_r
        micro_f = (1 + beta2) * micro_p * micro_r / denom if denom else 0.0
        return float(micro_p), float(micro_r), float(micro_f), int(support.sum())

    if average == "macro":
        return (float(precision.mean()), float(recall.mean()),
                float(fscore.mean()), int(support.sum()))

    # weighted
    total = support.sum()
    if total == 0:
        return 0.0, 0.0, 0.0, 0
    weights = support / total
    return (float(np.sum(precision * weights)), float(np.sum(recall * weights)),
            float(np.sum(fscore * weights)), int(total))


def precision_score(y_true, y_pred, *, average: str = "macro", labels=None) -> float:
    """Averaged precision (see module docstring for averaging modes)."""

    value, _, _, _ = precision_recall_fscore_support(
        y_true, y_pred, labels=labels, average=average)
    return float(value)


def recall_score(y_true, y_pred, *, average: str = "macro", labels=None) -> float:
    """Averaged recall."""

    _, value, _, _ = precision_recall_fscore_support(
        y_true, y_pred, labels=labels, average=average)
    return float(value)


def f1_score(y_true, y_pred, *, average: str = "macro", labels=None) -> float:
    """Averaged f1 (harmonic mean of precision and recall, Eq. 2)."""

    _, _, value, _ = precision_recall_fscore_support(
        y_true, y_pred, labels=labels, average=average)
    return float(value)


@dataclass(frozen=True)
class ClassMetrics:
    """Metrics of a single class inside a classification report."""

    label: object
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class ClassificationReport:
    """Structured classification report (Table 4 of the paper).

    ``as_text()`` renders the familiar scikit-learn layout;
    ``as_dict()`` mirrors ``classification_report(output_dict=True)``.
    """

    per_class: list[ClassMetrics]
    micro: tuple[float, float, float, int]
    macro: tuple[float, float, float, int]
    weighted: tuple[float, float, float, int]

    def as_dict(self) -> dict:
        report: dict = {}
        for row in self.per_class:
            report[str(row.label)] = {
                "precision": row.precision, "recall": row.recall,
                "f1-score": row.f1, "support": row.support,
            }
        for name, values in (("micro avg", self.micro), ("macro avg", self.macro),
                             ("weighted avg", self.weighted)):
            report[name] = {
                "precision": values[0], "recall": values[1],
                "f1-score": values[2], "support": values[3],
            }
        return report

    def as_text(self, digits: int = 2) -> str:
        width = max([len(str(row.label)) for row in self.per_class] + [len("weighted avg")])
        header = (f"{'':>{width}}  {'precision':>9} {'recall':>9} "
                  f"{'f1-score':>9} {'support':>9}")
        lines = [header, ""]
        fmt = f"{{label:>{width}}}  {{p:>9.{digits}f}} {{r:>9.{digits}f}} " \
              f"{{f:>9.{digits}f}} {{s:>9d}}"
        for row in self.per_class:
            lines.append(fmt.format(label=str(row.label), p=row.precision,
                                    r=row.recall, f=row.f1, s=row.support))
        lines.append("")
        for name, values in (("micro avg", self.micro), ("macro avg", self.macro),
                             ("weighted avg", self.weighted)):
            lines.append(fmt.format(label=name, p=values[0], r=values[1],
                                    f=values[2], s=values[3]))
        return "\n".join(lines)

    @property
    def macro_f1(self) -> float:
        return self.macro[2]

    @property
    def micro_f1(self) -> float:
        return self.micro[2]

    @property
    def weighted_f1(self) -> float:
        return self.weighted[2]


def classification_report(y_true, y_pred, *, labels=None,
                          output: str = "object"):
    """Build a classification report.

    Parameters
    ----------
    output:
        ``"object"`` (default) returns a :class:`ClassificationReport`;
        ``"text"`` returns the rendered table; ``"dict"`` returns the
        nested-dict form.
    """

    labels = _unique_labels(y_true, y_pred, labels)
    precision, recall, fscore, support = precision_recall_fscore_support(
        y_true, y_pred, labels=labels, average=None)
    per_class = [
        ClassMetrics(label=label, precision=float(p), recall=float(r),
                     f1=float(f), support=int(s))
        for label, p, r, f, s in zip(labels.tolist(), precision, recall,
                                     fscore, support)
    ]
    micro = precision_recall_fscore_support(y_true, y_pred, labels=labels,
                                            average="micro")
    macro = precision_recall_fscore_support(y_true, y_pred, labels=labels,
                                            average="macro")
    weighted = precision_recall_fscore_support(y_true, y_pred, labels=labels,
                                               average="weighted")
    report = ClassificationReport(per_class=per_class, micro=micro, macro=macro,
                                  weighted=weighted)
    if output == "object":
        return report
    if output == "text":
        return report.as_text()
    if output == "dict":
        return report.as_dict()
    raise ValidationError(f"output must be 'object', 'text' or 'dict', got {output!r}")
