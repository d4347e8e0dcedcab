"""Write-ahead log for online corpus mutations.

An acked ``POST /ingest`` must survive a crash.  Before PR 9 it lived
only in process memory until the next periodic republish — an OOM-kill
silently lost every mutation since the last ``.rpm`` export.  This
module closes that gap with the classic recipe: every corpus mutation
(``ingest``, ``purge``, ``compact``) is appended to an append-only log
and fsynced **before** the request is acknowledged; on restart the
serving process replays the log's tail over the last published
artifact and carries on as if the crash never happened.

Physical format
---------------
The log file opens with the 8-byte magic ``RPROWAL1``; after it come
length-prefixed records::

    <u32 length> <u32 crc32-of-body> <body: length bytes of UTF-8 JSON>

The body is one JSON object carrying a monotonically increasing
``seq`` (never reused within a log directory, including across
checkpoints), an ``op`` (``ingest`` / ``purge`` / ``compact`` /
``checkpoint``) and the op's payload.  CRC32 is per record, so a torn
final record — the only damage an append-crash can cause — is detected
and truncated on recovery; a bad record *before* the final one means
real corruption and recovery refuses to guess unless asked to
``repair``.

Durability and ordering
-----------------------
Appends buffer into the OS write cache; :meth:`WriteAheadLog.sync`
fsyncs everything buffered so far.  The manager's ingest path appends
one record per coalesced micro-batch and syncs once — **group
commit**: one fsync amortised over the whole batch, which is where the
multiple-x ingest throughput over fsync-per-record comes from
(``benchmarks/bench_wal.py`` enforces the floor).  The ack ordering
guarantee is append → apply → fsync → ack: a record is durable before
its client sees 200, and a mutation that fails validation is rolled
back (:meth:`rollback`) before it was ever fsynced.

Checkpoints
-----------
``publish()`` writes the grown corpus as an atomic artifact whose
header records ``{"sequence": N, "generation": G}`` — "this corpus
already contains every mutation with seq <= N".  The WAL is then
truncated through :meth:`checkpoint`: a sibling temporary file holding
only a ``checkpoint`` record is fsynced and ``os.replace``-d over the
log, the same crash-atomic primitive every artifact writer here uses.
A crash **between** the artifact replace and the WAL truncation leaves
old records in the log, but their seqs are <= the artifact's
checkpoint, so replay skips them — no mutation is ever applied twice.

Failpoints ``wal.append``, ``wal.fsync`` and ``wal.checkpoint``
(:mod:`repro.testing.faults`) are threaded through the corresponding
operations so the crash-sweep harness can kill the process at each.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import WALCorruptionError, WALError
from ..index.storage import _fsync_directory
from ..logging_utils import get_logger
from ..observability.trace import span
from ..testing import faults
from .metrics import MetricsRegistry

__all__ = ["WAL_MAGIC", "WAL_FILE_NAME", "MAX_RECORD_BYTES", "WALRecord",
           "WALRecovery", "WriteAheadLog", "encode_record", "decode_records"]

_LOG = get_logger("serving.wal")

#: File magic of a write-ahead log.
WAL_MAGIC = b"RPROWAL1"

#: Name of the live log inside a ``--wal-dir`` directory.
WAL_FILE_NAME = "wal.log"

#: Per-record frame: little-endian body length then CRC32 of the body.
_FRAME = struct.Struct("<II")

#: Upper bound on one record body.  Generous (an ingest micro-batch of
#: 32 samples at the 32 MiB per-item cap base64s to ~1.4 GiB is *not*
#: realistic for a WAL'd deployment; operators cap items well below
#: that), but mostly a guard against interpreting corrupt length
#: prefixes as multi-terabyte reads.
MAX_RECORD_BYTES = 1 << 31

#: Operations a record may carry.
_OPS = ("ingest", "purge", "compact", "checkpoint")


@dataclass(frozen=True)
class WALRecord:
    """One decoded log record."""

    seq: int
    op: str
    payload: dict

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise WALError(f"unknown WAL op {self.op!r}; expected one "
                           f"of {_OPS}")
        if self.seq < 0:
            raise WALError(f"WAL seq must be >= 0, got {self.seq}")


@dataclass(frozen=True)
class WALRecovery:
    """What :meth:`WriteAheadLog.recover` found.

    ``records`` holds the surviving *mutation* records in log order;
    ``checkpoint`` is the leading checkpoint record's payload (or
    ``None`` for a log that was never truncated);
    ``truncated_bytes`` counts what a torn tail lost (always the
    unacknowledged final record, never acked history); and
    ``dropped_records`` counts complete records discarded by an
    explicit ``repair`` of mid-log corruption.
    """

    records: tuple[WALRecord, ...]
    checkpoint: dict | None
    truncated_bytes: int
    dropped_records: int


# ------------------------------------------------------------------ codec
def encode_record(record: WALRecord) -> bytes:
    """Serialise one record as its length-prefixed CRC-framed bytes."""

    body = json.dumps({"seq": record.seq, "op": record.op,
                       **record.payload},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_RECORD_BYTES:
        raise WALError(f"WAL record of {len(body)} bytes exceeds the "
                       f"{MAX_RECORD_BYTES}-byte cap")
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def _decode_body(body: bytes, *, source: str) -> WALRecord:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WALCorruptionError(
            f"{source}: record body is not valid JSON ({exc}) despite a "
            "matching checksum") from exc
    if not isinstance(obj, dict):
        raise WALCorruptionError(f"{source}: record body is not an object")
    try:
        seq = int(obj.pop("seq"))
        op = str(obj.pop("op"))
    except (KeyError, TypeError, ValueError) as exc:
        raise WALCorruptionError(
            f"{source}: record is missing seq/op: {exc}") from exc
    if op not in _OPS:
        raise WALCorruptionError(f"{source}: record declares unknown op "
                                 f"{op!r}")
    return WALRecord(seq=seq, op=op, payload=obj)


def decode_records(data: bytes, *, source: str = "WAL", repair: bool = False,
                   base_offset: int = 0) -> tuple[list[WALRecord], int, int]:
    """Decode every record of ``data`` (the bytes after the magic).

    Returns ``(records, valid_bytes, dropped_records)`` where
    ``valid_bytes`` is the length of the valid prefix (relative to
    ``data``); bytes past it belong to a torn final record and should
    be truncated.  Raises :class:`WALCorruptionError` for damage before
    the final record unless ``repair`` is true, in which case the log
    is cut at the first bad record and the rest counted as dropped.
    ``base_offset`` (the magic's size when decoding a file) is added to
    the offsets *reported in error messages* so they are absolute file
    positions an operator can seek to; the returned ``valid_bytes``
    stays relative to ``data``.
    """

    records: list[WALRecord] = []
    offset = 0
    size = len(data)
    while offset < size:
        remaining = size - offset
        if remaining < _FRAME.size:
            break                                   # torn frame header
        length, crc = _FRAME.unpack_from(data, offset)
        body_start = offset + _FRAME.size
        if length > MAX_RECORD_BYTES:
            # A corrupt length prefix; whether this is a torn tail or
            # mid-log damage is undecidable, so treat it like any other
            # non-final corruption below only if bytes follow a sane
            # record — an insane length always ends the scan.
            if repair:
                return records, offset, _count_following(data, offset)
            raise WALCorruptionError(
                f"{source}: record at offset {base_offset + offset} "
                f"declares an implausible length of {length} bytes")
        if length > remaining - _FRAME.size:
            break                                   # torn body
        body = data[body_start:body_start + length]
        if zlib.crc32(body) != crc:
            if body_start + length == size:
                break                               # torn final record
            if repair:
                return records, offset, _count_following(data, offset)
            raise WALCorruptionError(
                f"{source}: checksum mismatch at offset "
                f"{base_offset + offset} with "
                f"{size - body_start - length} bytes following — the log "
                "is corrupt before its final record; re-run with repair "
                "to truncate it here (losing every later record)")
        try:
            record = _decode_body(body, source=source)
        except WALCorruptionError:
            if body_start + length == size:
                break                               # torn final record
            if repair:
                return records, offset, _count_following(data, offset)
            raise
        if records and record.seq <= records[-1].seq:
            if repair:
                return records, offset, _count_following(data, offset)
            raise WALCorruptionError(
                f"{source}: sequence went backwards at offset "
                f"{base_offset + offset} "
                f"({records[-1].seq} -> {record.seq})")
        records.append(record)
        offset = body_start + length
    return records, offset, 0


def _count_following(data: bytes, offset: int) -> int:
    """How many whole frames follow ``offset`` (for repair reporting)."""

    count = 0
    size = len(data)
    while offset + _FRAME.size <= size:
        length, _ = _FRAME.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES or offset + _FRAME.size + length > size:
            break
        count += 1
        offset += _FRAME.size + length
    return max(count, 1)


# ------------------------------------------------------------------- log
class WriteAheadLog:
    """Append-only, CRC-checksummed, group-commit mutation log.

    Thread-safe; in practice every append runs under the model
    manager's mutation (predict) lock, which also makes the
    :meth:`mark`/:meth:`rollback` pair race-free.

    Parameters
    ----------
    path:
        Directory holding the log (created if missing) or a direct path
        to the log file.
    metrics:
        The :class:`~repro.serving.metrics.MetricsRegistry` the
        ``wal_records``, ``wal_bytes`` and ``wal_fsyncs`` counters are
        published to; a private one by default.
    """

    def __init__(self, path: str | os.PathLike, *, metrics=None) -> None:
        path = Path(path)
        if path.suffix != ".log" and not path.is_file():
            path.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            path = path / WAL_FILE_NAME
        self.path = path
        self._lock = threading.Lock()
        self._handle = None
        self._last_seq = 0
        self._size = 0
        self._synced_size = 0
        self._recovered: WALRecovery | None = None
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._records = metrics.counter("wal_records")
        self._bytes = metrics.counter("wal_bytes")
        self._fsyncs = metrics.counter("wal_fsyncs")

    # ------------------------------------------------------------ recovery
    def recover(self, *, repair: bool = False) -> WALRecovery:
        """Open the log, validate it, truncate a torn tail.

        Must be called exactly once before the first append.  Returns
        the surviving mutation records for the owner to replay (the
        owner decides which are already covered by its artifact's
        checkpoint).
        """

        with self._lock:
            if self._handle is not None:
                raise WALError(f"WAL {self.path} is already open")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists()
            if fresh:
                self._create_locked(checkpoint=None)
                recovery = WALRecovery(records=(), checkpoint=None,
                                       truncated_bytes=0, dropped_records=0)
            else:
                recovery = self._recover_existing_locked(repair)
            self._recovered = recovery
            self._handle = open(self.path, "ab")
            self._size = self._handle.tell()
            self._synced_size = self._size
            return recovery

    def _recover_existing_locked(self, repair: bool) -> WALRecovery:
        try:
            raw = self.path.read_bytes()
        except OSError as exc:
            raise WALError(f"cannot read WAL {self.path}: {exc}") from exc
        if len(raw) < len(WAL_MAGIC):
            # A crash can tear even the magic of a freshly created log;
            # nothing was ever appended, so recreate it.
            _LOG.warning("WAL %s is truncated inside its magic; "
                         "recreating", self.path)
            self._create_locked(checkpoint=None)
            return WALRecovery(records=(), checkpoint=None,
                               truncated_bytes=len(raw), dropped_records=0)
        if raw[:len(WAL_MAGIC)] != WAL_MAGIC:
            raise WALCorruptionError(
                f"{self.path} is not a write-ahead log (bad magic)")
        records, valid, dropped = decode_records(
            raw[len(WAL_MAGIC):], source=str(self.path), repair=repair,
            base_offset=len(WAL_MAGIC))
        torn = len(raw) - len(WAL_MAGIC) - valid
        if torn or dropped:
            with open(self.path, "rb+") as fh:
                fh.truncate(len(WAL_MAGIC) + valid)
                fh.flush()
                os.fsync(fh.fileno())
            if dropped:
                _LOG.warning("WAL %s: repair dropped %d record(s) after "
                             "mid-log corruption at offset %d", self.path,
                             dropped, len(WAL_MAGIC) + valid)
            else:
                _LOG.warning("WAL %s: truncated a torn final record "
                             "(%d bytes)", self.path, torn)
        checkpoint = None
        mutations = []
        for position, record in enumerate(records):
            if record.op == "checkpoint":
                if position != 0:
                    raise WALCorruptionError(
                        f"{self.path}: checkpoint record in mid-log "
                        f"position {position}")
                checkpoint = dict(record.payload)
                checkpoint["sequence"] = record.seq
            else:
                mutations.append(record)
        if records:
            self._last_seq = records[-1].seq
        return WALRecovery(records=tuple(mutations), checkpoint=checkpoint,
                           truncated_bytes=torn, dropped_records=dropped)

    def _create_locked(self, checkpoint: WALRecord | None) -> None:
        """Write a fresh log (magic + optional leading checkpoint)
        crash-atomically next to the final path."""

        tmp = self.path.with_name(self.path.name +
                                  f".tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(WAL_MAGIC)
                if checkpoint is not None:
                    fh.write(encode_record(checkpoint))
                fh.flush()
                os.fsync(fh.fileno())
            if checkpoint is not None:
                faults.fire("wal.checkpoint")
            os.replace(tmp, self.path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise WALError(f"cannot write WAL {self.path}: {exc}") from exc
        _fsync_directory(self.path.parent)

    # -------------------------------------------------------------- append
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest record (0 on a fresh log)."""

        with self._lock:
            return self._last_seq

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return self._size

    @property
    def recovery(self) -> WALRecovery | None:
        """What :meth:`recover` found (``None`` before recovery)."""

        return self._recovered

    def mark(self) -> tuple[int, int]:
        """Rollback token: the current ``(size, last_seq)``."""

        with self._lock:
            self._check_open_locked()
            return self._size, self._last_seq

    def append(self, op: str, payload: dict, *, sync: bool = True) -> int:
        """Append one mutation record; returns its sequence number.

        With ``sync=False`` the record is buffered (and pushed into the
        OS cache) but not yet durable — callers batch appends and call
        :meth:`sync` once before acking, the group-commit shape.
        """

        faults.fire("wal.append")
        with self._lock:
            self._check_open_locked()
            seq = self._last_seq + 1
            frame = encode_record(WALRecord(seq=seq, op=op, payload=payload))
            try:
                self._handle.write(frame)
                # Keep the kernel's view current so mark()/rollback()
                # can use ftruncate offsets directly.
                self._handle.flush()
            except OSError as exc:
                raise WALError(
                    f"cannot append to WAL {self.path}: {exc}") from exc
            self._last_seq = seq
            self._size += len(frame)
            self._records.inc()
            self._bytes.inc(len(frame))
        if sync:
            self.sync()
        return seq

    def sync(self) -> None:
        """fsync everything appended so far (the group-commit point)."""

        faults.fire("wal.fsync")
        # The span covers lock wait + flush + fsync: that *is* the
        # durability cost an acked ingest request paid.
        with span("wal_fsync"), self._lock:
            self._check_open_locked()
            if self._synced_size == self._size:
                return
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError as exc:
                raise WALError(
                    f"cannot fsync WAL {self.path}: {exc}") from exc
            self._synced_size = self._size
            self._fsyncs.inc()

    def rollback(self, token: tuple[int, int]) -> None:
        """Truncate back to a :meth:`mark` token.

        Only used for records that were appended but whose apply failed
        validation *before* the batch's fsync — nothing durable (let
        alone acked) is ever rolled back.
        """

        size, last_seq = token
        with self._lock:
            self._check_open_locked()
            if size > self._size:
                raise WALError("rollback token is ahead of the log")
            if size == self._size:
                return
            if self._synced_size > size:
                raise WALError(
                    "refusing to roll back records that were already "
                    "fsynced (they may have been acknowledged)")
            try:
                self._handle.truncate(size)
                self._handle.seek(size)
            except OSError as exc:
                raise WALError(
                    f"cannot roll back WAL {self.path}: {exc}") from exc
            self._size = size
            self._last_seq = last_seq

    # ---------------------------------------------------------- checkpoint
    def checkpoint(self, *, sequence: int, generation: int) -> None:
        """Truncate the log: everything with seq <= ``sequence`` is now
        in the published artifact.

        The replacement log (magic + one checkpoint record) is written
        to a sibling temporary file, fsynced, and moved into place with
        ``os.replace`` — a crash leaves either the old complete log
        (replay skips it via the artifact's checkpoint) or the new
        truncated one, never a torn file.
        """

        with self._lock:
            self._check_open_locked()
            if sequence != self._last_seq:
                # Truncating below last_seq would silently drop the
                # records in (sequence, last_seq]; callers snapshot
                # last_seq under the mutation lock, so inequality is a
                # logic error, not a state to paper over.
                raise WALError(
                    f"cannot checkpoint at seq {sequence}; the log "
                    f"reaches {self._last_seq}")
            if self._synced_size != self._size:
                raise WALError(
                    "refusing to checkpoint over unsynced records")
            record = WALRecord(seq=sequence, op="checkpoint",
                               payload={"generation": int(generation)})
            self._handle.close()
            self._handle = None
            try:
                self._create_locked(record)
            finally:
                # Reopen even if the replace failed: the old log is
                # still intact and appends must keep working.
                self._handle = open(self.path, "ab")
                self._size = self._handle.tell()
                self._synced_size = self._size
            self._last_seq = max(self._last_seq, sequence)
        _LOG.info("checkpointed WAL %s at seq %d (generation %d)",
                  self.path, sequence, generation)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Flush, fsync and close (idempotent)."""

        with self._lock:
            if self._handle is None:
                return
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:          # pragma: no cover — best effort
                pass
            self._handle.close()
            self._handle = None

    def _check_open_locked(self) -> None:
        if self._handle is None:
            raise WALError(
                f"WAL {self.path} is not open (call recover() first, "
                "and not after close())")
