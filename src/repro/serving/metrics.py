"""Thread-safe serving metrics: counters, gauges and histograms.

The serving tier needs operational visibility without pulling in a
metrics client library, so this module implements the three classic
instrument kinds on top of plain locks:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — a value that goes up and down (queue depth, model
  generation);
* :class:`Histogram` — fixed-bucket distribution with estimated
  quantiles (p50/p95/p99 in snapshots), sized for request latencies.

A :class:`MetricsRegistry` owns named instruments, creates them lazily
and renders one JSON-friendly ``snapshot()`` — the body of the server's
``GET /metrics`` endpoint.  Every instrument is independently locked,
so handler threads, coalescer workers and the model-watcher thread can
all record without contending on a single global lock.

Instruments can also be registered as labeled **families**
(``registry.histogram("stage_latency_seconds", labels=("stage",))``):
``family.labels(stage="dp_scoring")`` lazily creates one child
instrument per label-value tuple.  Families render into the JSON
snapshot as ``{"labels": [...], "series": [...]}`` (a new shape under
a new name — pre-existing unlabeled instruments keep their exact
shape) and into Prometheus exposition as one series per child.

Consistency: every multi-field read (``Histogram.snapshot()``,
``Histogram.state()``) happens under a single lock hold, so a
snapshot's bucket counts always sum to its ``count`` and its ``sum``/
``max``/quantiles describe the same set of observations — readers must
not stitch the ``count``/``sum`` properties together from separate
calls (two lock holds can interleave with an ``observe``), which is
why Prometheus exposition renders from :meth:`MetricsRegistry.collect`
/ :meth:`Histogram.state` instead.
"""

from __future__ import annotations

import math
import threading
from typing import Mapping, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "InstrumentFamily",
           "MetricsRegistry", "DEFAULT_LATENCY_BUCKETS",
           "DEFAULT_BATCH_BUCKETS"]

#: Latency bucket upper bounds, in seconds (sub-ms to 10 s).
DEFAULT_LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                           0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Batch-size bucket upper bounds (powers of two up to 256 items).
DEFAULT_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with estimated quantiles.

    ``buckets`` are the inclusive upper bounds of each finite bucket,
    strictly increasing; observations above the last bound land in an
    implicit overflow bucket.  Quantiles are estimated by linear
    interpolation over the cumulative bucket counts — the standard
    Prometheus-style approximation — except that the overflow bucket
    reports the maximum observed value (there is no finite upper bound
    to interpolate towards).
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_count", "_sum", "_max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                 ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)     # +1 overflow bucket
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect by hand: bounds tuples are short (10-15 entries) and
        # this avoids importing bisect into the hot path for no gain.
        position = 0
        for bound in self._bounds:
            if value <= bound:
                break
            position += 1
        with self._lock:
            self._counts[position] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def state(self) -> dict:
        """Raw state under one lock hold: internally consistent.

        ``{"bounds", "counts", "count", "sum", "max"}`` where
        ``counts`` has one overflow entry beyond ``bounds`` and always
        sums to ``count`` — the input Prometheus exposition renders
        cumulative ``_bucket``/``_sum``/``_count`` series from.
        """

        with self._lock:
            return {"bounds": self._bounds,
                    "counts": tuple(self._counts),
                    "count": self._count,
                    "sum": self._sum,
                    "max": self._max}

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); NaN when empty."""

        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return math.nan
        rank = q * self._count
        cumulative = 0
        for position, bucket_count in enumerate(self._counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if position == len(self._bounds):
                    return self._max
                lower = self._bounds[position - 1] if position else 0.0
                upper = self._bounds[position]
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self._max

    def snapshot(self) -> dict:
        with self._lock:
            buckets = {("+Inf" if i == len(self._bounds)
                        else repr(self._bounds[i])): count
                       for i, count in enumerate(self._counts)}
            return {
                "count": self._count,
                "sum": self._sum,
                "max": self._max,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
                "buckets": buckets,
            }


class InstrumentFamily:
    """One named metric with labels: lazily-created child instruments.

    ``family.labels(stage="dp_scoring", worker="4242")`` returns the child
    for that label-value tuple, creating it on first use.  Label names
    are fixed at registration; a missing label defaults to ``""``
    (rendered as an absent label in Prometheus exposition) and unknown
    label names are rejected.
    """

    __slots__ = ("name", "label_names", "_factory", "_lock", "_children")

    def __init__(self, name: str, label_names: Sequence[str],
                 factory) -> None:
        names = tuple(str(n) for n in label_names)
        if not names:
            raise ValueError("a labeled family needs at least one label")
        if len(set(names)) != len(names):
            raise ValueError("duplicate label names")
        self.name = name
        self.label_names = names
        self._factory = factory
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}

    def labels(self, **labels):
        unknown = set(labels) - set(self.label_names)
        if unknown:
            raise ValueError(
                f"unknown labels {sorted(unknown)} for family "
                f"{self.name!r} (declared: {list(self.label_names)})")
        key = tuple(str(labels.get(n, "")) for n in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._factory()
            return child

    def items(self) -> list[tuple[dict, object]]:
        """``(labels_dict, child)`` pairs, sorted by label values."""

        with self._lock:
            children = sorted(self._children.items())
        return [(dict(zip(self.label_names, key)), child)
                for key, child in children]

    def snapshot(self) -> dict:
        series = []
        for labels, child in self.items():
            if isinstance(child, Histogram):
                entry = dict(child.snapshot())
            else:
                entry = {"value": child.value}
            entry["labels"] = labels
            series.append(entry)
        return {"labels": list(self.label_names), "series": series}


class MetricsRegistry:
    """Named instruments, created lazily, rendered as one snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._families: dict[str, tuple[str, InstrumentFamily]] = {}

    def counter(self, name: str, *,
                labels: Sequence[str] | None = None):
        if labels is not None:
            return self._family(name, "counter", labels, Counter)
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_free(name)
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str, *,
              labels: Sequence[str] | None = None):
        if labels is not None:
            return self._family(name, "gauge", labels, Gauge)
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_free(name)
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS, *,
                  labels: Sequence[str] | None = None):
        if labels is not None:
            return self._family(name, "histogram", labels,
                                lambda: Histogram(buckets))
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_free(name)
                instrument = self._histograms[name] = Histogram(buckets)
            return instrument

    def _family(self, name: str, kind: str, labels: Sequence[str],
                factory) -> InstrumentFamily:
        with self._lock:
            entry = self._families.get(name)
            if entry is not None:
                existing_kind, family = entry
                if existing_kind != kind or \
                        family.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered as a "
                        f"{existing_kind} family with labels "
                        f"{list(family.label_names)}")
                return family
            self._check_free(name)
            family = InstrumentFamily(name, labels, factory)
            self._families[name] = (kind, family)
            return family

    def _check_free(self, name: str) -> None:
        for kind in (self._counters, self._gauges, self._histograms,
                     self._families):
            if name in kind:
                raise ValueError(
                    f"metric {name!r} already registered with another type")

    def snapshot(self) -> Mapping[str, object]:
        """One JSON-friendly mapping of every instrument's state.

        Unlabeled instruments keep the shape they have always had
        (counters/gauges as bare numbers, histograms as the
        ``snapshot()`` dict); labeled families render as
        ``{"labels": [...], "series": [...]}`` under their own name.
        Each instrument's state is read under a single lock hold, so
        every individual entry is internally consistent (the snapshot
        as a whole is not a point-in-time cut across instruments —
        counters keep moving while it is assembled).
        """

        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            families = dict(self._families)
        payload: dict[str, object] = {}
        for name, counter in counters.items():
            payload[name] = counter.value
        for name, gauge in gauges.items():
            payload[name] = gauge.value
        for name, histogram in histograms.items():
            payload[name] = histogram.snapshot()
        for name, (_, family) in families.items():
            payload[name] = family.snapshot()
        return dict(sorted(payload.items()))

    def collect(self) -> list[tuple[str, str, list[tuple[dict, object]]]]:
        """Exposition feed: ``(name, kind, [(labels, state), ...])``.

        ``state`` is a number for counters/gauges and
        :meth:`Histogram.state` for histograms — each read under a
        single lock hold.  Sorted by metric name.
        """

        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            families = dict(self._families)
        out: list[tuple[str, str, list]] = []
        for name, counter in counters.items():
            out.append((name, "counter", [({}, counter.value)]))
        for name, gauge in gauges.items():
            out.append((name, "gauge", [({}, gauge.value)]))
        for name, histogram in histograms.items():
            out.append((name, "histogram", [({}, histogram.state())]))
        for name, (kind, family) in families.items():
            series = []
            for labels, child in family.items():
                state = (child.state() if isinstance(child, Histogram)
                         else child.value)
                series.append((labels, state))
            out.append((name, kind, series))
        return sorted(out, key=lambda entry: entry[0])
