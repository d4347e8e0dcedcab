"""The paper's two-phase train/test split.

Section 3, "Fuzzy Hash Classifier":

    "In the first phase we split the application classes in a 80-20
    train-test manner into known and unknown classes to ensure we have
    completely unknown application samples in our test set.  In the
    second phase we further split the known classes through a
    stratified 60-40 train-test split on the samples."

:func:`two_phase_split` implements exactly that.  The class-level split
can either be random (seeded) or pinned to the paper's own unknown
class list (Table 3), which is what the table-reproduction benchmarks
use so that e.g. Schrodinger and OpenMalaria really are the held-out
classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import check_random_state
from ..corpus.catalog import PAPER_UNKNOWN_CLASSES
from ..exceptions import ValidationError

__all__ = ["TwoPhaseSplit", "two_phase_split"]


@dataclass
class TwoPhaseSplit:
    """Result of the two-phase split.

    ``expected_test_labels`` carries the ground truth the classifier is
    scored against: the true class name for known classes and
    ``unknown_label`` for samples of held-out classes.
    """

    known_classes: list[str]
    unknown_classes: list[str]
    train_indices: np.ndarray
    test_indices: np.ndarray
    train_labels: list[str]
    test_labels: list[str]
    expected_test_labels: list
    unknown_label: object = -1

    @property
    def n_train(self) -> int:
        return len(self.train_indices)

    @property
    def n_test(self) -> int:
        return len(self.test_indices)

    @property
    def n_unknown_test(self) -> int:
        return sum(1 for label in self.expected_test_labels
                   if label == self.unknown_label)

    def unknown_class_counts(self) -> dict[str, int]:
        """Samples per held-out class in the test set (Table 3)."""

        counts: dict[str, int] = {}
        for label in self.test_labels:
            if label in self.unknown_classes:
                counts[label] = counts.get(label, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def summary(self) -> str:
        return (f"{len(self.known_classes)} known classes / "
                f"{len(self.unknown_classes)} unknown classes; "
                f"train {self.n_train} samples, test {self.n_test} samples "
                f"({self.n_unknown_test} from unknown classes)")


def two_phase_split(labels: Sequence[str], *,
                    unknown_class_fraction: float = 0.20,
                    test_sample_fraction: float = 0.40,
                    unknown_label=-1,
                    mode: str = "random",
                    unknown_classes: Sequence[str] | None = None,
                    random_state=None) -> TwoPhaseSplit:
    """Split sample labels into the paper's train/test structure.

    Parameters
    ----------
    labels:
        Class label of every sample.
    unknown_class_fraction:
        Fraction of classes held out entirely (phase one, default 20 %).
    test_sample_fraction:
        Fraction of each known class's samples placed in the test set
        (phase two, default 40 %).
    unknown_label:
        Label used for held-out classes in ``expected_test_labels``
        (the paper uses ``-1``).
    mode:
        ``"random"`` — draw the unknown classes at random (seeded);
        ``"paper"`` — use the intersection of the paper's Table 3 class
        list with the classes present in ``labels``;
        ``"explicit"`` — use the ``unknown_classes`` argument.
    unknown_classes:
        Explicit unknown class list for ``mode="explicit"``.
    random_state:
        Seed for the random choices.
    """

    labels = list(labels)
    if not labels:
        raise ValidationError("cannot split an empty label list")
    if not (0.0 < unknown_class_fraction < 1.0):
        raise ValidationError("unknown_class_fraction must be in (0, 1)")
    if not (0.0 < test_sample_fraction < 1.0):
        raise ValidationError("test_sample_fraction must be in (0, 1)")

    rng = check_random_state(random_state)
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValidationError("need at least 2 classes for a two-phase split")

    if mode == "paper":
        unknown = [c for c in classes if c in set(PAPER_UNKNOWN_CLASSES)]
        if not unknown:
            raise ValidationError(
                "mode='paper' but none of the paper's unknown classes are present")
    elif mode == "explicit":
        if not unknown_classes:
            raise ValidationError("mode='explicit' requires unknown_classes")
        missing = set(unknown_classes) - set(classes)
        if missing:
            raise ValidationError(f"unknown_classes not present in labels: {sorted(missing)}")
        unknown = sorted(unknown_classes)
    elif mode == "random":
        n_unknown = max(1, int(round(len(classes) * unknown_class_fraction)))
        n_unknown = min(n_unknown, len(classes) - 1)
        unknown = sorted(rng.choice(classes, size=n_unknown, replace=False).tolist())
    else:
        raise ValidationError(f"mode must be 'random', 'paper' or 'explicit', got {mode!r}")

    known = [c for c in classes if c not in set(unknown)]
    if not known:
        raise ValidationError("the unknown split left no known classes")

    labels_arr = np.asarray(labels, dtype=object)
    train_indices: list[int] = []
    test_indices: list[int] = []

    # Phase two: stratified sample split of the known classes.
    for class_name in known:
        indices = np.flatnonzero(labels_arr == class_name)
        rng.shuffle(indices)
        n_test = int(round(len(indices) * test_sample_fraction))
        if len(indices) >= 2:
            n_test = min(max(n_test, 1), len(indices) - 1)
        test_indices.extend(indices[:n_test].tolist())
        train_indices.extend(indices[n_test:].tolist())

    # Unknown classes contribute all of their samples to the test set.
    for class_name in unknown:
        indices = np.flatnonzero(labels_arr == class_name)
        test_indices.extend(indices.tolist())

    train_indices_arr = np.array(sorted(train_indices), dtype=np.int64)
    test_indices_arr = np.array(sorted(test_indices), dtype=np.int64)

    train_labels = [labels[i] for i in train_indices_arr]
    test_labels = [labels[i] for i in test_indices_arr]
    unknown_set = set(unknown)
    expected = [unknown_label if label in unknown_set else label
                for label in test_labels]

    return TwoPhaseSplit(
        known_classes=known,
        unknown_classes=unknown,
        train_indices=train_indices_arr,
        test_indices=test_indices_arr,
        train_labels=train_labels,
        test_labels=test_labels,
        expected_test_labels=expected,
        unknown_label=unknown_label,
    )
