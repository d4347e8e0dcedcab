"""Arithmetic the benchmark reports with: percentiles, schedules, lateness.

Kept free of I/O and of the ``repro`` package so the unit tests can pin
every formula on hand-made numbers.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

#: The tail percentile every latency metric reports.  A run must hold at
#: least ``MIN_BEYOND_TAIL`` samples beyond it (100 samples at p90), so
#: the workloads are sized to send more than that.
TAIL_PERCENTILE = 90.0
MIN_BEYOND_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``).

    The smallest sample with at least ``q`` percent of the samples at or
    below it, so every reported value is one that was observed.
    """

    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be within (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``q``-th percentile."""

    return n - max(math.ceil(q / 100.0 * n), 1)


def tail_percentile_ok(n: int, q: float = TAIL_PERCENTILE) -> bool:
    """Whether ``n`` samples support percentile ``q`` (≥10 beyond it)."""

    return n > 0 and beyond(n, q) >= MIN_BEYOND_TAIL


def poisson_schedule(rate: float, seconds: float, seed: int) -> list[float]:
    """Seeded arrival offsets (seconds) of a Poisson stream.

    The count is fixed at ``round(rate * seconds)`` and the arrivals are
    the sorted uniform draws over ``[0, seconds)`` — a Poisson process
    conditioned on its count — so the offered load is identical across
    seeds while the spacing stays memoryless and bursty.
    """

    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    count = max(1, round(rate * seconds))
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def scheduled_latency(due: float, done: float) -> float:
    """Latency of an open-loop request, timed from its *scheduled* send.

    A request that waited for a busy connection is charged that wait,
    so a stall also delays the requests queued behind it.
    """

    return done - due


def generator_lateness(due: float, picked: float, sent: float) -> float:
    """How late the generator itself sent a request.

    ``picked`` is when a connection became free to take the request.
    Waiting for a busy connection (``picked > due``) is the server's
    doing and already counted in :func:`scheduled_latency`; what remains
    beyond ``max(due, picked)`` is the load generator's own slip.
    """

    return max(0.0, sent - max(due, picked))


def fell_behind(lateness: Sequence[float], bound: float,
                share: float = 0.01) -> bool:
    """Whether the generator ran late on more than ``share`` of requests.

    A request is late when the generator sent it more than ``bound``
    after it was due (see :func:`generator_lateness`).  One late request
    is always tolerated, so a single scheduler hiccup cannot void a
    short run.
    """

    late = sum(1 for value in lateness if value > bound)
    return late > max(1, share * len(lateness))


def macro_f1(truth: Sequence, predicted: Sequence) -> float:
    """Macro-averaged F1 over every label in ``truth`` or ``predicted``."""

    if len(truth) != len(predicted):
        raise ValueError("truth and predicted differ in length")
    if not truth:
        raise ValueError("macro F1 of an empty sample")
    labels = set(truth) | set(predicted)
    total = 0.0
    for label in labels:
        tp = sum(1 for t, p in zip(truth, predicted) if t == label == p)
        fp = sum(1 for t, p in zip(truth, predicted) if p == label != t)
        fn = sum(1 for t, p in zip(truth, predicted) if t == label != p)
        total += 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0
    return total / len(labels)
