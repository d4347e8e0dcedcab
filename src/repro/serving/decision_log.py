"""Append-only JSONL decision log with atomic size-based rotation.

Every decision the server returns can also be recorded durably — the
paper's monitoring story wants an audit trail of what ran where, not
just an HTTP response that evaporates.  The log is newline-delimited
JSON (one decision per line, the same shape as the wire protocol's
decision objects plus ``model_generation`` and a timestamp), which
tails, greps and loads into anything.

Each written line additionally embeds a ``"crc"`` key — the CRC32 of
the canonical JSON of the rest of the line — so an audit-trail reader
can tell a complete record from a torn or bit-rotted one without
leaving JSONL.  On startup the tail of an existing log is validated:
a final chunk with no newline, or a final line that fails to parse or
whose checksum mismatches, is truncated away (a crash can only ever
tear the *last* line of an append-only file).  Lines written before
the checksum existed carry no ``"crc"`` and stay readable.

Rotation is size-based and atomic: when the active file would exceed
``max_bytes`` it is flushed, fsynced and renamed to ``<name>.1`` with a
single :func:`os.replace` (older backups shift up first, each shift its
own atomic replace — the same primitive the artifact writers use), then
a fresh active file is opened.  A crash at
any point leaves only complete files with complete lines.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path

from ..exceptions import ValidationError
from ..logging_utils import get_logger
from .metrics import MetricsRegistry

__all__ = ["DecisionLog", "decode_decision_line", "encode_decision_line"]

_LOG = get_logger("serving.decision_log")

#: Default rotation threshold (32 MiB).
DEFAULT_MAX_BYTES = 32 * 1024 * 1024

#: Default number of rotated files kept (``.1`` .. ``.N``).
DEFAULT_BACKUPS = 3

#: How far from the end of an existing log the startup tail scan
#: reads.  Decision lines are a few hundred bytes; 64 KiB comfortably
#: covers the final line plus the complete one before it.
TAIL_SCAN_BYTES = 64 * 1024


def _payload_crc(payload: dict) -> int:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return zlib.crc32(body)


def encode_decision_line(payload: dict) -> bytes:
    """Serialise one decision as a CRC-suffixed JSON line."""

    if "crc" in payload:
        raise ValidationError(
            'decision payloads must not carry their own "crc" key')
    return json.dumps({**payload, "crc": _payload_crc(payload)},
                      sort_keys=True).encode("utf-8") + b"\n"


def decode_decision_line(line: bytes | str) -> dict:
    """Parse one log line, verifying its checksum when present.

    Lines from logs written before the checksum existed carry no
    ``"crc"`` key and are returned as-is — old audit trails stay
    readable.  Raises :class:`ValidationError` for unparseable lines
    and checksum mismatches.
    """

    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"decision log line is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError("decision log line is not a JSON object")
    if "crc" not in obj:
        return obj
    crc = obj.pop("crc")
    if crc != _payload_crc(obj):
        raise ValidationError(
            f"decision log line checksum mismatch (recorded {crc!r})")
    return obj


class DecisionLog:
    """Thread-safe append-only JSONL log with rotation."""

    def __init__(self, path: str | os.PathLike, *,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 backups: int = DEFAULT_BACKUPS,
                 metrics=None) -> None:
        # ValidationError (a ValueError) keeps the CLI's error contract
        # for operator-supplied --decision-log-max-bytes values.
        if max_bytes < 1:
            raise ValidationError("max_bytes must be >= 1")
        if backups < 0:
            raise ValidationError("backups must be >= 0")
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.truncated_bytes = self._truncate_torn_tail()
        self._handle = open(self.path, "ab")
        self._size = self._handle.tell()
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._rotations = metrics.counter("decision_log_rotations_total")
        self._lines = metrics.counter("decision_log_lines_total")

    # ------------------------------------------------------------- recovery
    def _truncate_torn_tail(self) -> int:
        """Drop an incomplete or corrupt final line from an existing log.

        A crash mid-append can only damage the end of an append-only
        file: either the last bytes have no terminating newline (a torn
        write) or the final line is complete but fails to parse /
        checksum (a tear that happened to end at a newline boundary).
        Only the final line is ever dropped — everything before it was
        terminated by a later successful append.  Returns the bytes
        truncated (0 for a clean or missing log).
        """

        try:
            size = os.path.getsize(self.path)
        except OSError:
            return 0
        if size == 0:
            return 0
        with open(self.path, "rb+") as fh:
            window = min(size, TAIL_SCAN_BYTES)
            fh.seek(size - window)
            tail = fh.read(window)
            if b"\n" not in tail and window < size:
                # A torn line longer than the scan window: scan it all.
                fh.seek(0)
                tail = fh.read(size)
                window = size
            valid_end = size
            if not tail.endswith(b"\n"):
                newline = tail.rfind(b"\n")
                valid_end = (size - window + newline + 1
                             if newline != -1 else size - window)
            # Validate the (now) final complete line too; drop it when
            # it fails to parse or checksum.
            head = tail[:valid_end - (size - window)]
            lines = head.splitlines(keepends=True)
            if lines and (window == size or len(lines) > 1):
                try:
                    decode_decision_line(lines[-1])
                except ValidationError:
                    valid_end -= len(lines[-1])
            if valid_end == size:
                return 0
            fh.truncate(valid_end)
            fh.flush()
            os.fsync(fh.fileno())
        _LOG.warning("decision log %s: truncated a torn tail (%d bytes)",
                     self.path, size - valid_end)
        return size - valid_end

    # ---------------------------------------------------------------- write
    def append(self, payload: dict) -> None:
        """Append one record as a CRC-suffixed JSON line (rotating
        first if needed)."""

        line = encode_decision_line(payload)
        with self._lock:
            if self._handle is None:
                raise ValueError("decision log is closed")
            if self._size and self._size + len(line) > self.max_bytes:
                self._rotate_locked()
            self._handle.write(line)
            self._size += len(line)
            self._lines.inc()

    def flush(self, *, sync: bool = False) -> None:
        """Flush buffered lines; ``sync=True`` also fsyncs to disk."""

        with self._lock:
            if self._handle is None:
                return
            self._handle.flush()
            if sync:
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush, fsync and close (idempotent) — the shutdown path."""

        with self._lock:
            if self._handle is None:
                return
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------- rotation
    def _rotate_locked(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        if self.backups:
            # Shift older backups up (.N-1 -> .N, ... , .1 -> .2), each
            # shift one atomic replace, then retire the active file.
            for index in range(self.backups - 1, 0, -1):
                older = self.path.with_name(f"{self.path.name}.{index}")
                if older.exists():
                    os.replace(older,
                               self.path.with_name(
                                   f"{self.path.name}.{index + 1}"))
            os.replace(self.path, self.path.with_name(f"{self.path.name}.1"))
        else:
            os.unlink(self.path)
        self._handle = open(self.path, "ab")
        self._size = 0
        self._rotations.inc()
        _LOG.info("rotated decision log %s", self.path)
