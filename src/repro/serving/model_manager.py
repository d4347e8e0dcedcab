"""Generation-tracked model ownership with hot reload and ingestion.

A serving process outlives its model artifact: operators retrain
offline and publish a fresh ``model.rpm`` by atomically replacing the
file (``os.replace``, the same primitive every artifact writer in this
library uses).  :class:`ModelManager` makes that safe under live
traffic:

* each loaded :class:`~repro.api.service.ClassificationService` is
  tagged with a monotonically increasing **generation** number;
* a watcher thread polls the artifact's ``(mtime_ns, size, inode)``
  signature; a change triggers a load of the *new* service entirely off
  the request path (including index sealing, the expensive part);
* the swap itself is a single reference assignment under a lock —
  in-flight batches keep the service they snapshotted and finish on the
  old generation, new batches pick up the new one;
* a load failure (half-published file, corrupt artifact) keeps the old
  generation serving and is retried only when the file changes again.

``classify_items`` is the single entry point the coalescer drains into:
it snapshots ``(service, generation)`` once per batch, so one batch —
and therefore one response — can never mix generations.

With ``mutable=True`` the manager additionally owns **online corpus
mutation**: :meth:`ingest_items` / :meth:`purge` / :meth:`compact`
mutate the live service's anchor index, and :meth:`publish`
re-exports the grown corpus as an atomic artifact.  Mutations run under
the predict lock, so they are serialised against model passes *and*
against hot-reload swaps (the swap takes the predict lock too) — a
mutation can never land on a service that was just swapped out.

With ``wal_dir`` set (mutable mode only) every mutation is made
**durable** through a :class:`~repro.serving.wal.WriteAheadLog` before
it is acknowledged: append → apply → group-commit fsync → ack, with a
failed apply rolled back before anything was fsynced.  On construction
the manager replays the log's tail over the loaded artifact — records
newer than the artifact's embedded ``wal_checkpoint`` — so a crashed
server restarts with every acknowledged mutation intact.
:meth:`publish` completes the cycle: the artifact is stamped with the
WAL's current sequence and the log is truncated to a checkpoint record
via an atomic sibling-tmp + ``os.replace``; a crash between the two
replaces leaves stale records whose seqs the checkpoint already
covers, so replay skips them (exactly-once, never twice).

Locking order (outermost first): ``_reload_lock`` → ``_predict_lock``
→ ``_swap_lock``.  ``classify_items`` takes the swap lock and releases
it before taking the predict lock, so no path ever waits on the two in
conflicting order.
"""

from __future__ import annotations

import base64
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

from ..api.artifact import read_wal_checkpoint
from ..api.service import ClassificationService, Decision
from ..exceptions import (
    ParallelExecutionError,
    ReproError,
    ServingError,
    ValidationError,
)
from ..logging_utils import get_logger
from ..observability.trace import span
from ..testing import faults
from .wal import WriteAheadLog
from .workers import ScoringWorkerPool

__all__ = ["ModelManager"]

_LOG = get_logger("serving.model_manager")

#: Default artifact poll interval, in seconds.
DEFAULT_POLL_INTERVAL = 2.0

#: Re-stat attempts per reload before giving up on convergence.  Each
#: attempt re-stats after the load and retries when a publish landed
#: mid-load; on exhaustion the freshest load is served under its
#: pre-load signature, so the next poll simply reloads again.
RELOAD_STAT_ATTEMPTS = 5


class ModelManager:
    """Own the live model: load, watch, hot-swap, classify, ingest.

    Parameters
    ----------
    model_path:
        The ``.rpm`` artifact to serve and watch.
    poll_interval:
        Seconds between artifact stat polls once :meth:`start_watching`
        runs; ``0`` disables watching entirely.
    metrics:
        Optional :class:`~repro.serving.metrics.MetricsRegistry`;
        reload counts, the live generation and (in mutable mode) corpus
        membership are published to it.
    mutable:
        Enable online corpus mutation on every loaded service
        (:meth:`ClassificationService.enable_mutation`).
    score_workers:
        Fork this many scoring worker processes
        (:class:`~repro.serving.workers.ScoringWorkerPool`) and
        dispatch classification micro-batches across them.  Workers
        load the same artifact file — combine with ``mmap=True`` so
        they share its pages through the OS page cache.  Incompatible
        with ``mutable`` (workers snapshot the on-disk artifact and
        would serve a stale corpus between publishes).
    wal_dir:
        Directory of the ingestion write-ahead log (mutable mode
        only).  Mutations become durable-before-ack, and construction
        replays the log's tail over the artifact (see module
        docstring).
    wal_repair:
        Permit recovery to truncate the log at *mid-log* corruption,
        discarding every later record.  A torn final record is always
        truncated; damage earlier in the log refuses to load without
        this flag, because silently dropping acknowledged history is
        worse than refusing to start.
    load_kwargs:
        Forwarded to :meth:`ClassificationService.load` on every load
        (``allowed_classes``, ``cache_size``, ``executor``, ``mmap``,
        ...).
    """

    def __init__(self, model_path: str | os.PathLike, *,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 metrics=None, mutable: bool = False,
                 score_workers: int = 0,
                 wal_dir: str | os.PathLike | None = None,
                 wal_repair: bool = False, **load_kwargs) -> None:
        self.model_path = Path(model_path)
        self.poll_interval = float(poll_interval)
        self.mutable = bool(mutable)
        self.score_workers = int(score_workers)
        if self.score_workers < 0:
            raise ServingError(
                f"score_workers must be >= 0, got {score_workers}")
        if self.score_workers and self.mutable:
            raise ServingError(
                "score_workers cannot be combined with online ingestion "
                "(mutable=True): worker processes score against the "
                "artifact on disk and would miss unpublished corpus "
                "mutations")
        if wal_dir is not None and not self.mutable:
            raise ServingError(
                "wal_dir requires mutable=True: the write-ahead log only "
                "records corpus mutations, which immutable serving never "
                "performs")
        self._load_kwargs = dict(load_kwargs)
        self._metrics = metrics
        self._swap_lock = threading.Lock()
        # Model passes share mutable per-index memo caches and, under
        # the GIL, gain nothing from running concurrently — serialise
        # them so multiple coalescer workers stay correct.  Corpus
        # mutations and generation swaps take this lock too, so a
        # mutation never lands on a just-swapped-out service.
        self._predict_lock = threading.Lock()
        # Serialises whole reload/publish cycles: the watcher thread
        # racing a manual maybe_reload() must not double-load one
        # publish, and _failed_signature is only touched under this
        # lock.
        self._reload_lock = threading.Lock()
        self._service: ClassificationService | None = None
        self._generation = 0
        self._signature: tuple[int, int, int] | None = None
        self._failed_signature: tuple[int, int, int] | None = None
        self._stop = threading.Event()
        self._watcher: threading.Thread | None = None
        self._worker_pool: ScoringWorkerPool | None = None
        if metrics is not None:
            self._generation_gauge = metrics.gauge("model_generation")
            self._reloads = metrics.counter("model_reloads_total")
            self._reload_failures = metrics.counter(
                "model_reload_failures_total")
            if self.mutable:
                self._members_gauge = metrics.gauge("corpus_members")
                self._tombstones_gauge = metrics.gauge("corpus_tombstones")
                self._ingested = metrics.counter("ingested_samples_total")
                self._purged = metrics.counter("purged_samples_total")
            if wal_dir is not None:
                self._wal_replayed = metrics.counter("wal_replayed_records")
                self._checkpoint_gauge = metrics.gauge(
                    "last_checkpoint_generation")
        self._wal: WriteAheadLog | None = None
        self._checkpoint: dict | None = None
        self._replayed_at_boot = 0
        self._load_initial()
        if wal_dir is not None:
            self._open_wal(wal_dir, repair=wal_repair)
        if self.score_workers:
            # Warm the pool now, before the server starts its coalescer
            # and watcher threads: the workers fork from a (still)
            # single-threaded parent, and with mmap the artifact's pages
            # are already hot in the page cache from the load above.
            pool = ScoringWorkerPool(self.model_path, self.score_workers,
                                     load_kwargs=self._load_kwargs)
            try:
                pool.warm(self._signature)
            except ParallelExecutionError as exc:
                pool.close()
                raise ServingError(
                    f"cannot start {self.score_workers} scoring workers: "
                    f"{exc}") from exc
            self._worker_pool = pool

    # ------------------------------------------------------------ lifecycle
    def _load_initial(self) -> None:
        # A missing artifact must surface as a ReproError so the CLI
        # prints `error: ...` and exits 2 instead of a traceback.
        try:
            signature = self._stat_signature()
        except OSError as exc:
            raise ServingError(
                f"cannot serve model artifact {self.model_path}: "
                f"{exc}") from exc
        service, signature = self._load_converged(signature)
        self._service = service
        self._signature = signature
        self._generation = 1
        if self._metrics is not None:
            self._generation_gauge.set(1)
        self._update_corpus_gauges()
        _LOG.info("loaded model generation 1 from %s", self.model_path)

    def _stat_signature(self) -> tuple[int, int, int]:
        stat = os.stat(self.model_path)
        return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

    def _open_wal(self, wal_dir: str | os.PathLike, *, repair: bool) -> None:
        """Open/recover the write-ahead log and replay its tail.

        The artifact's embedded ``wal_checkpoint`` says which prefix of
        the log the loaded corpus already contains; every record beyond
        it is re-applied here, before the server takes traffic.  A
        record that fails validation on replay is skipped with a
        warning — it can only exist when a crash landed between append
        and apply, i.e. before its client was ever acknowledged.
        """

        wal = WriteAheadLog(wal_dir, metrics=self._metrics)
        wal.recover(repair=repair)
        checkpoint = read_wal_checkpoint(self.model_path)
        log_cp = wal.recovery.checkpoint
        if log_cp is not None and (checkpoint is None
                                   or int(log_cp["sequence"])
                                   > int(checkpoint["sequence"])):
            # The log's own checkpoint record survives publish crashes
            # in either order; trust whichever marker is furthest.
            checkpoint = {"sequence": int(log_cp["sequence"]),
                          "generation": int(log_cp["generation"])}
        artifact_seq = 0 if checkpoint is None else int(checkpoint["sequence"])
        replayed = skipped = 0
        service = self._service
        for record in wal.recovery.records:
            if record.seq <= artifact_seq:
                continue
            try:
                self._apply_record(service, record)
            except ValidationError as exc:
                _LOG.warning(
                    "skipping WAL record seq=%d op=%s during replay (%s); "
                    "it predates any acknowledgement", record.seq,
                    record.op, exc)
                skipped += 1
                continue
            replayed += 1
        self._wal = wal
        self._checkpoint = checkpoint
        self._replayed_at_boot = replayed
        if self._metrics is not None:
            if replayed:
                self._wal_replayed.inc(replayed)
            self._checkpoint_gauge.set(
                0 if checkpoint is None else int(checkpoint["generation"]))
        self._update_corpus_gauges()
        if replayed or skipped:
            _LOG.info(
                "replayed %d WAL record(s) over %s (skipped %d unacked)",
                replayed, self.model_path, skipped)

    @staticmethod
    def _apply_record(service: ClassificationService, record) -> None:
        """Apply one recovered WAL record to the live service."""

        if record.op == "ingest":
            items = [(sid, base64.b64decode(data), cls)
                     for sid, data, cls in record.payload["items"]]
            service.ingest_bytes(items)
        elif record.op == "purge":
            service.purge(record.payload["sample_id"])
        elif record.op == "compact":
            service.compact()
        # "checkpoint" records carry no mutation; recover() already
        # consumed their sequence marker.

    def _load_service(self) -> ClassificationService:
        faults.fire("reload.parse")
        service = ClassificationService.load(self.model_path,
                                             **self._load_kwargs)
        if self.mutable:
            service.enable_mutation()
        return service

    def _load_converged(self, signature: tuple[int, int, int]
                        ) -> tuple[ClassificationService,
                                   tuple[int, int, int]]:
        """Load the artifact until its stat signature stops moving.

        ``os.stat`` before the load alone is a TOCTOU: a publish landing
        between the stat and the read would be served under the *old*
        signature, and the next poll — seeing that stale signature as
        current — would skip the new bytes entirely.  So the file is
        re-stat'ed after every successful load and the load repeats
        until the pre- and post-load signatures agree (bounded by
        ``RELOAD_STAT_ATTEMPTS``; on exhaustion the freshest load is
        returned under its pre-load signature, which the next poll will
        see as changed and converge then).
        """

        for _ in range(RELOAD_STAT_ATTEMPTS):
            service = self._load_service()
            try:
                after = self._stat_signature()
            except OSError:
                # The artifact vanished right after a successful read;
                # serve what was loaded under the signature it was
                # opened with.
                return service, signature
            if after == signature:
                return service, signature
            _LOG.info("model artifact %s changed during load; re-reading",
                      self.model_path)
            signature = after
        return service, signature

    @property
    def generation(self) -> int:
        with self._swap_lock:
            return self._generation

    @property
    def service(self) -> ClassificationService:
        with self._swap_lock:
            return self._service

    @property
    def load_mode(self) -> str:
        """``"mmap"`` or ``"eager"`` — how artifact loads materialise."""

        return "mmap" if self._load_kwargs.get("mmap") else "eager"

    def worker_stats(self) -> dict | None:
        """Scoring worker pool counters, or ``None`` without a pool."""

        pool = self._worker_pool
        return None if pool is None else pool.stats()

    # -------------------------------------------------------------- serving
    @contextmanager
    def _timed_predict_lock(self):
        """Hold the predict lock; a traced request's wait for it is its
        ``lock_wait`` stage."""

        with span("lock_wait"):
            self._predict_lock.acquire()
        try:
            yield
        finally:
            self._predict_lock.release()

    def classify_items(self, items: Sequence[tuple[str, bytes]]
                       ) -> tuple[list[Decision], int]:
        """Classify ``(sample_id, bytes)`` pairs on one generation.

        The ``(service, generation)`` pair is snapshotted once, so the
        whole batch — even one raced by a hot reload — is scored by a
        single model generation.  With a scoring worker pool the batch
        is dispatched across the worker processes *without* taking the
        predict lock (workers share no in-process caches), so multiple
        coalescer threads drain concurrently; a dead pool falls back to
        in-process scoring for the rest of this manager's lifetime.
        """

        with self._swap_lock:
            service = self._service
            generation = self._generation
            signature = self._signature
        pool = self._worker_pool
        if pool is not None:
            try:
                # The dispatch span covers IPC + remote scoring; the
                # workers' own stage spans ship back labeled with their
                # pid, so they attribute (not double-count) this time.
                with span("worker_dispatch"):
                    return pool.classify(items, signature), generation
            except ParallelExecutionError as exc:
                _LOG.warning(
                    "scoring worker pool unavailable (%s); falling back to "
                    "in-process scoring", exc)
                self._worker_pool = None
                pool.close()
        with self._timed_predict_lock():
            return service.classify_bytes(items), generation

    # ------------------------------------------------------------ ingestion
    def ingest_items(self, items: Sequence[tuple[str, bytes, str]]
                     ) -> tuple[list[dict], int]:
        """Ingest ``(sample_id, bytes, class_name)`` triples online.

        Returns ``(reports, generation)`` — the generation whose corpus
        absorbed the batch.  Holding the predict lock across snapshot
        and mutation means a concurrent hot reload (which swaps under
        the predict lock) can never strand the batch on a swapped-out
        service.
        """

        with self._timed_predict_lock():
            with self._swap_lock:
                service = self._service
                generation = self._generation
            if self._wal is not None:
                # append → apply → group-commit fsync.  One record (and
                # one fsync) covers the whole coalesced micro-batch; an
                # apply that fails validation rolls its record back
                # before anything was made durable.
                mark = self._wal.mark()
                self._wal.append(
                    "ingest",
                    {"items": [[sid, base64.b64encode(data).decode("ascii"),
                                cls] for sid, data, cls in items]},
                    sync=False)
                try:
                    reports = service.ingest_bytes(items)
                except BaseException:
                    self._wal.rollback(mark)
                    raise
                self._wal.sync()
            else:
                reports = service.ingest_bytes(items)
        if self._metrics is not None and self.mutable:
            self._ingested.inc(len(reports))
        self._update_corpus_gauges()
        return reports, generation

    def purge(self, sample_id: str) -> tuple[int, int]:
        """Tombstone a sample id; returns ``(removed, generation)``."""

        with self._predict_lock:
            with self._swap_lock:
                service = self._service
                generation = self._generation
            if self._wal is not None:
                mark = self._wal.mark()
                self._wal.append("purge", {"sample_id": sample_id},
                                 sync=False)
                try:
                    removed = service.purge(sample_id)
                except BaseException:
                    self._wal.rollback(mark)
                    raise
                if removed:
                    self._wal.sync()
                else:
                    # A no-op purge (unknown id) mutated nothing; keep
                    # the log free of records that replay cannot match.
                    self._wal.rollback(mark)
            else:
                removed = service.purge(sample_id)
        if removed and self._metrics is not None and self.mutable:
            self._purged.inc(removed)
        self._update_corpus_gauges()
        return removed, generation

    def compact(self) -> int:
        """Physically drop tombstoned members; returns how many."""

        with self._predict_lock:
            with self._swap_lock:
                service = self._service
            if self._wal is not None:
                mark = self._wal.mark()
                self._wal.append("compact", {}, sync=False)
                try:
                    dropped = service.compact()
                except BaseException:
                    self._wal.rollback(mark)
                    raise
                if dropped:
                    self._wal.sync()
                else:
                    self._wal.rollback(mark)
            else:
                dropped = service.compact()
        self._update_corpus_gauges()
        return dropped

    def corpus_info(self) -> dict:
        """Live corpus statistics (see
        :meth:`ClassificationService.corpus_info`).

        Read under the predict lock, like every mutation: the anchor
        index is not internally synchronised, and a read racing a
        compaction could otherwise see it half swapped.
        """

        with self._predict_lock:
            return self.service.corpus_info()

    def durability_info(self) -> dict | None:
        """WAL state for ``/healthz``, or ``None`` without a WAL."""

        wal = self._wal
        if wal is None:
            return None
        checkpoint = self._checkpoint
        recovery = wal.recovery
        return {
            "wal_path": str(wal.path),
            "wal_records": wal.last_seq,
            "wal_bytes": wal.size_bytes,
            "last_checkpoint_sequence":
                0 if checkpoint is None else checkpoint["sequence"],
            "last_checkpoint_generation":
                0 if checkpoint is None else checkpoint["generation"],
            "replayed_at_boot": self._replayed_at_boot,
            "recovered_truncated_bytes":
                0 if recovery is None else recovery.truncated_bytes,
            "recovered_dropped_records":
                0 if recovery is None else recovery.dropped_records,
        }

    def publish(self, path: str | os.PathLike | None = None) -> Path:
        """Export the live corpus as an atomic artifact (default: the
        watched ``model_path``).

        The artifact is written to a sibling temporary file and moved
        into place with ``os.replace`` — readers (replicas polling the
        same path, or this very manager's watcher) only ever see the old
        or the new complete file.  When publishing over ``model_path``
        the published signature is recorded under the reload lock, so
        the watcher does not pointlessly reload the server's own
        snapshot.
        """

        target = self.model_path if path is None else Path(path)
        tmp = target.with_name(target.name + f".publish-{os.getpid()}.tmp")
        with self._reload_lock:
            with self._predict_lock:
                with self._swap_lock:
                    service = self._service
                    generation = self._generation
                checkpoint = None
                if self._wal is not None:
                    # Holding the predict lock means no mutation can
                    # land between this snapshot and the save — the
                    # artifact really does contain every seq <= this.
                    checkpoint = {"sequence": self._wal.last_seq,
                                  "generation": generation}
                try:
                    service.save(tmp, wal_checkpoint=checkpoint)
                    # os.replace preserves the temporary file's inode,
                    # mtime and size, so its stat IS the published
                    # file's signature — taken before the rename, there
                    # is no window for a foreign publish to be
                    # mistaken for ours.
                    stat = os.stat(tmp)
                    signature = (stat.st_mtime_ns, stat.st_size, stat.st_ino)
                    faults.fire("artifact.replace")
                    os.replace(tmp, target)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
                if checkpoint is not None and target == self.model_path:
                    # Artifact first, WAL truncation second: a crash in
                    # between leaves stale records whose seqs the
                    # artifact's checkpoint covers, so replay skips
                    # them.  The reverse order could lose mutations.
                    self._wal.checkpoint(
                        sequence=checkpoint["sequence"],
                        generation=checkpoint["generation"])
                    self._checkpoint = checkpoint
                    if self._metrics is not None:
                        self._checkpoint_gauge.set(checkpoint["generation"])
            if target == self.model_path:
                with self._swap_lock:
                    self._signature = signature
                self._failed_signature = None
        _LOG.info("published generation %d corpus to %s", generation, target)
        return target

    # ------------------------------------------------------------ hot reload
    def maybe_reload(self) -> bool:
        """Reload if the artifact changed on disk; True when swapped.

        The load happens outside the swap lock: traffic keeps flowing on
        the old generation while the new model loads and seals its
        index.  Failures leave the old generation serving and are not
        retried until the file changes again (a half-copied artifact
        would otherwise be re-parsed every poll).  The whole cycle runs
        under the reload lock, so the watcher thread racing a manual
        call loads each publish exactly once.
        """

        with self._reload_lock:
            try:
                signature = self._stat_signature()
            except OSError as exc:
                # The artifact vanished mid-publish (unlink before the
                # new os.replace landed, or an operator mistake).  Keep
                # serving.
                _LOG.warning("model artifact %s is unreadable (%s); keeping "
                             "generation %d", self.model_path, exc,
                             self.generation)
                return False
            with self._swap_lock:
                if signature == self._signature:
                    return False
            if signature == self._failed_signature:
                return False
            try:
                service, signature = self._load_converged(signature)
            except (ReproError, OSError) as exc:
                self._failed_signature = signature
                if self._metrics is not None:
                    self._reload_failures.inc()
                _LOG.warning("hot reload of %s failed (%s); keeping "
                             "generation %d", self.model_path, exc,
                             self.generation)
                return False
            with self._predict_lock, self._swap_lock:
                self._service = service
                self._signature = signature
                self._generation += 1
                generation = self._generation
            self._failed_signature = None
        if self._metrics is not None:
            self._reloads.inc()
            self._generation_gauge.set(generation)
        self._update_corpus_gauges()
        _LOG.info("hot-reloaded %s as model generation %d",
                  self.model_path, generation)
        return True

    def start_watching(self) -> None:
        """Start the artifact poll thread (no-op when disabled)."""

        if self.poll_interval <= 0 or self._watcher is not None:
            return
        self._watcher = threading.Thread(target=self._watch_loop,
                                         name="repro-model-watch",
                                         daemon=True)
        self._watcher.start()

    def stop(self) -> None:
        """Stop the watcher thread and scoring workers (idempotent)."""

        self._stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=self.poll_interval + 5.0)
            self._watcher = None
        pool = self._worker_pool
        if pool is not None:
            self._worker_pool = None
            pool.close()
        wal = self._wal
        if wal is not None:
            wal.close()

    def _watch_loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.maybe_reload()
            except Exception:  # noqa: BLE001 — the watcher must survive
                _LOG.exception("model watcher poll failed; continuing")

    def _update_corpus_gauges(self) -> None:
        if self._metrics is None or not self.mutable:
            return
        info = self.corpus_info()
        self._members_gauge.set(info["members"])
        self._tombstones_gauge.set(info["tombstones"])
