"""Work-partitioning helpers."""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

from ..exceptions import ValidationError

__all__ = ["partition_evenly"]

T = TypeVar("T")


def partition_evenly(items: Sequence[T], n_parts: int) -> list[list[T]]:
    """Split ``items`` into ``n_parts`` contiguous, near-equal parts.

    Parts differ in size by at most one item; empty parts are only
    produced when there are more parts than items.
    """

    if n_parts < 1:
        raise ValidationError("n_parts must be >= 1")
    boundaries = np.linspace(0, len(items), n_parts + 1).astype(int)
    return [list(items[boundaries[i]:boundaries[i + 1]]) for i in range(n_parts)]
