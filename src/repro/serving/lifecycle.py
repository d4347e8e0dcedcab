"""Corpus lifecycle policies: age-off, per-class caps, compaction,
periodic republish.

A continuously-learning corpus needs the other half of ingestion:
samples that leave.  :class:`LifecycleManager` owns that half for a
:class:`~repro.serving.model_manager.ModelManager` in mutable mode:

* **age-off** — samples ingested online are tracked with their arrival
  time; past ``max_age_seconds`` they are purged (tombstoned);
* **per-class caps** — when online growth pushes a class past
  ``max_members_per_class``, the oldest *tracked* (i.e. online-ingested)
  members are evicted first; the offline-trained corpus is never aged
  out, because only tracked samples are eligible;
* **compaction** — once tombstones pass ``compact_ratio`` of resident
  members (and an absolute floor, so tiny corpora don't thrash), the
  index is physically compacted;
* **republish** — every ``republish_interval`` seconds the grown corpus
  is re-exported through :meth:`ModelManager.publish` as an atomic
  artifact, so restarts and replicas watching the same path pick it up
  via the ordinary generation-tracked hot reload.

Policies are evaluated by :meth:`run_once` — directly from tests, or
periodically by the daemon thread (:meth:`start` / :meth:`stop`).
Everything funnels through the manager's own mutation API, so the
locking story is the manager's; this class only needs its small
tracking lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import ReproError, ValidationError
from ..logging_utils import get_logger
from .metrics import Counter, MetricsRegistry

__all__ = ["LifecycleConfig", "LifecycleManager"]

_LOG = get_logger("serving.lifecycle")


@dataclass(frozen=True)
class LifecycleConfig:
    """Knobs of the corpus lifecycle (``None`` disables a policy)."""

    #: Age-off horizon for online-ingested samples, in seconds.
    max_age_seconds: float | None = None
    #: Cap on surviving members per class; online-ingested samples are
    #: evicted oldest-first when a class exceeds it.
    max_members_per_class: int | None = None
    #: Tombstone fraction past which the index is compacted.
    compact_ratio: float = 0.25
    #: Minimum tombstones before a compaction is worth its rebuild.
    min_compact_tombstones: int = 8
    #: Seconds between corpus republishes (``None`` disables them).
    republish_interval: float | None = None
    #: Republish target; defaults to the manager's watched model path.
    republish_path: str | Path | None = None
    #: Ceiling of the exponential backoff applied after a failed
    #: republish (disk full, artifact directory gone...).  The retry
    #: delay doubles from the sweep interval up to this cap, so a
    #: persistent failure doesn't hammer the disk every sweep.
    republish_backoff_max: float = 300.0
    #: Seconds between policy sweeps of the daemon thread.
    sweep_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.max_age_seconds is not None and self.max_age_seconds <= 0:
            raise ValidationError("max_age_seconds must be positive")
        if (self.max_members_per_class is not None
                and self.max_members_per_class < 1):
            raise ValidationError("max_members_per_class must be >= 1")
        if not 0.0 < self.compact_ratio <= 1.0:
            raise ValidationError("compact_ratio must be in (0, 1]")
        if self.min_compact_tombstones < 1:
            raise ValidationError("min_compact_tombstones must be >= 1")
        if (self.republish_interval is not None
                and self.republish_interval <= 0):
            raise ValidationError("republish_interval must be positive")
        if self.republish_backoff_max <= 0:
            raise ValidationError("republish_backoff_max must be positive")
        if self.sweep_interval <= 0:
            raise ValidationError("sweep_interval must be positive")


class LifecycleManager:
    """Apply a :class:`LifecycleConfig` to a mutable model manager.

    Parameters
    ----------
    manager:
        A :class:`~repro.serving.model_manager.ModelManager` in mutable
        mode; all mutation goes through its API.
    config:
        The policy knobs.
    metrics:
        The :class:`~repro.serving.metrics.MetricsRegistry` the policy
        counters go to; a private one by default.
    time_source:
        Injectable clock (tests advance a fake one instead of
        sleeping).
    """

    def __init__(self, manager, config: LifecycleConfig, *,
                 metrics=None, time_source=time.time) -> None:
        if not getattr(manager, "mutable", False):
            raise ValidationError(
                "LifecycleManager needs a ModelManager in mutable mode")
        self.manager = manager
        self.config = config
        self._now = time_source
        self._lock = threading.Lock()
        # sample_id -> (ingest time, class); insertion order is arrival
        # order, which is what oldest-first eviction walks.
        self._tracked: "OrderedDict[str, tuple[float, str]]" = OrderedDict()
        self._last_publish = self._now()
        self._publish_failures = 0          # consecutive, reset on success
        self._publish_retry_at = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._aged_off = metrics.counter("lifecycle_aged_off_total")
        self._cap_evicted = metrics.counter("lifecycle_cap_evicted_total")
        self._compactions = metrics.counter("lifecycle_compactions_total")
        self._publishes = metrics.counter("lifecycle_publishes_total")
        self._republish_failures = metrics.counter(
            "lifecycle_republish_failures")

    @property
    def tracked_count(self) -> int:
        with self._lock:
            return len(self._tracked)

    # -------------------------------------------------------------- tracking
    def note_ingested(self, reports, *, when: float | None = None) -> None:
        """Record freshly ingested samples (the server calls this with
        every successful ingest batch's reports)."""

        when = self._now() if when is None else float(when)
        with self._lock:
            for report in reports:
                self._tracked[report["sample_id"]] = (when, report["class"])

    # -------------------------------------------------------------- policies
    def run_once(self, *, now: float | None = None,
                 force_publish: bool = False) -> dict:
        """Evaluate every policy once; returns what happened.

        The report maps ``aged_off`` / ``cap_evicted`` to the purged
        sample ids, ``compacted`` to the members physically dropped and
        ``published`` to the artifact path (or ``None``).
        """

        now = self._now() if now is None else float(now)
        report = {"aged_off": self._age_off(now),
                  "cap_evicted": self._enforce_caps(),
                  "compacted": self._maybe_compact(),
                  "published": self._maybe_publish(now, force_publish)}
        return report

    def _age_off(self, now: float) -> list[str]:
        horizon = self.config.max_age_seconds
        if horizon is None:
            return []
        with self._lock:
            expired = [sample_id
                       for sample_id, (when, _) in self._tracked.items()
                       if now - when >= horizon]
        return [sample_id for sample_id in expired
                if self._purge_tracked(sample_id, self._aged_off)]

    def _enforce_caps(self) -> list[str]:
        cap = self.config.max_members_per_class
        if cap is None:
            return []
        info = self.manager.corpus_info()
        over = {name: count - cap
                for name, count in info["classes"].items() if count > cap}
        if not over:
            return []
        victims: list[str] = []
        with self._lock:
            # Oldest tracked samples first; offline-trained members are
            # not tracked and therefore never evicted by the cap.
            for sample_id, (_, class_name) in self._tracked.items():
                excess = over.get(class_name, 0)
                if excess > 0:
                    victims.append(sample_id)
                    over[class_name] = excess - 1
        return [sample_id for sample_id in victims
                if self._purge_tracked(sample_id, self._cap_evicted)]

    def _purge_tracked(self, sample_id: str, counter: Counter) -> bool:
        try:
            removed, _ = self.manager.purge(sample_id)
        except ReproError as exc:
            # e.g. the sample became a class's last anchor; dropping it
            # from tracking stops the sweep from retrying forever.
            _LOG.warning("lifecycle purge of %r skipped: %s", sample_id, exc)
            removed = 0
        with self._lock:
            self._tracked.pop(sample_id, None)
        if removed:
            counter.inc(removed)
            return True
        return False

    def _maybe_compact(self) -> int:
        info = self.manager.corpus_info()
        tombstones = info.get("tombstones", 0)
        if (tombstones < self.config.min_compact_tombstones
                or info.get("tombstone_ratio", 0.0)
                < self.config.compact_ratio):
            return 0
        dropped = self.manager.compact()
        if dropped:
            self._compactions.inc()
            _LOG.info("lifecycle compaction dropped %d members", dropped)
        return dropped

    def _maybe_publish(self, now: float, force: bool) -> str | None:
        interval = self.config.republish_interval
        due = force or (interval is not None
                        and now - self._last_publish >= interval)
        if not due:
            return None
        if not force and self._publish_failures and now < self._publish_retry_at:
            return None
        try:
            path = self.manager.publish(self.config.republish_path)
        except (ReproError, OSError) as exc:
            # Doubling backoff from the sweep interval: a full disk
            # stays a full disk for a while, and every failed attempt
            # writes (and unlinks) a whole artifact-sized temp file.
            self._publish_failures += 1
            delay = min(
                self.config.sweep_interval * (2 ** self._publish_failures),
                self.config.republish_backoff_max)
            self._publish_retry_at = now + delay
            self._republish_failures.inc()
            _LOG.warning(
                "lifecycle republish failed (attempt %d): %s; retrying in "
                "%.1fs", self._publish_failures, exc, delay)
            if force:
                raise
            return None
        self._publish_failures = 0
        self._last_publish = now
        self._publishes.inc()
        return str(path)

    # ------------------------------------------------------------ the thread
    def start(self) -> None:
        """Start the periodic policy sweep thread (idempotent)."""

        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._sweep_loop,
                                        name="repro-lifecycle",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the sweep thread (idempotent)."""

        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.config.sweep_interval + 5.0)
            self._thread = None

    def _sweep_loop(self) -> None:
        while not self._stop.wait(self.config.sweep_interval):
            try:
                self.run_once()
            except Exception:  # noqa: BLE001 — the sweep must survive
                _LOG.exception("lifecycle sweep failed; continuing")
