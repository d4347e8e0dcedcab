"""JSON wire protocol of the classification server.

One ``POST /classify`` request carries a list of work items, each an
executable to classify::

    {"items": [{"id": "node7/job-123/a.out", "data": "<base64 bytes>"},
               {"id": "spool-4", "path": "/var/spool/repro/exe-4"}]}

``data`` submits the executable's bytes inline (base64); ``path`` names
a regular file readable by the *server* process (the
collector-on-the-same-host deployment, which skips shipping megabytes
through the request body).  A device, FIFO or directory is refused.
The response mirrors the item order exactly::

    {"decisions": [{"sample_id": ..., "predicted_class": ...,
                    "confidence": ..., "decision": ...}, ...],
     "model_generation": 2, "count": 2}

``model_generation`` identifies the model artifact generation that
produced *every* decision in the response — the server never mixes
generations within one response, so a collector can detect hot-reloads
by watching the field change.  Confidences are serialised with Python's
shortest-round-trip float repr, so decisions are bit-identical to a
direct :meth:`ClassificationService.classify_bytes` call.

One ``POST /ingest`` request carries labelled samples to add to the
live corpus: the same items, each with the sample's ``class``
(``{"id": ..., "class": "GromacsLike", "data": ...}``).  Online
samples extend classes the model already knows; a brand-new class
needs a retrain, because the forest's feature columns are per (type,
class).  The response reports every admitted sample and the corpus it
landed in::

    {"ingested": [{"sample_id": ..., "class": ..., "sequence": ...}],
     "model_generation": 2, "corpus_members": 41, "count": 1,
     "durable": true, "request_id": "6f1f0b9c63d1a27e"}

``durable`` says whether a write-ahead log fsynced the batch before
the ack; ``request_id`` echoes the server-edge ``X-Request-Id``, so an
acked ingest can be correlated with the server's trace ring.

``DELETE /samples/<id>`` (the purge verb) has no body; the sample id
lives URL-encoded in the path and every corpus member registered under
it is tombstoned.

Validation failures raise :class:`~repro.exceptions.ProtocolError`
(HTTP 400); payload caps are enforced here so oversized requests are
rejected before any hashing work happens.  The per-request ingest cap
is intentionally lower than the classify cap: ingest requests mutate
the corpus and pass through the same bounded queue as classification,
so one burst should not occupy a disproportionate share of it.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import stat
from dataclasses import dataclass
from typing import Sequence
from urllib.parse import unquote

from ..exceptions import ProtocolError

__all__ = ["WorkItem", "parse_items", "parse_purge_path", "decision_to_dict",
           "encode_decisions", "encode_ingest_report", "DEFAULT_MAX_ITEMS",
           "DEFAULT_MAX_INGEST_ITEMS", "DEFAULT_MAX_ITEM_BYTES",
           "DEFAULT_MAX_REQUEST_BYTES", "PURGE_PREFIX"]

#: Default cap on work items per request.
DEFAULT_MAX_ITEMS = 64

#: Default cap on samples per ingest request (deliberately below the
#: classify cap; see module docstring).
DEFAULT_MAX_INGEST_ITEMS = 32

#: Default cap on one decoded executable, in bytes (32 MiB).
DEFAULT_MAX_ITEM_BYTES = 32 * 1024 * 1024

#: Default cap on the raw request body, in bytes (64 MiB).
DEFAULT_MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: URL prefix of the purge verb.
PURGE_PREFIX = "/samples/"


@dataclass(frozen=True)
class WorkItem:
    """One executable: its client-chosen id, raw bytes and (for an
    ingest item) class label."""

    sample_id: str
    data: bytes
    class_name: str = ""


def parse_items(body: bytes, *, labelled: bool = False,
                max_items: int = DEFAULT_MAX_ITEMS,
                max_item_bytes: int = DEFAULT_MAX_ITEM_BYTES
                ) -> list[WorkItem]:
    """Decode and validate one ``POST /classify`` (or, ``labelled``,
    ``POST /ingest``) body.

    Server-local ``path`` items are read here (and capped like inline
    payloads), so the caller always works with in-memory bytes and the
    decisions cannot depend on which submission style the client chose.
    """

    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        # Undecodable UTF-8, malformed JSON, and an integer literal past
        # the interpreter's digit limit, which is a plain ValueError.
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProtocolError("request body nests JSON too deeply") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    items = payload.get("items")
    if not isinstance(items, list) or not items:
        raise ProtocolError('request needs a non-empty "items" list')
    if len(items) > max_items:
        cap = "ingest cap" if labelled else "cap"
        raise ProtocolError(f"request carries {len(items)} items; "
                            f"the per-request {cap} is {max_items}")
    work: list[WorkItem] = []
    for position, item in enumerate(items):
        if not isinstance(item, dict):
            raise ProtocolError(f"items[{position}] must be a JSON object")
        sample_id = item.get("id")
        if not isinstance(sample_id, str) or not sample_id:
            raise ProtocolError(f"items[{position}] needs a non-empty "
                                'string "id"')
        class_name = ""
        if labelled:
            class_name = item.get("class")
            if not isinstance(class_name, str) or not class_name:
                raise ProtocolError(f"items[{position}] needs a non-empty "
                                    'string "class" (online samples must '
                                    "be labelled)")
        has_data = "data" in item
        has_path = "path" in item
        if has_data == has_path:
            raise ProtocolError(f"items[{position}] needs exactly one of "
                                '"data" (base64) or "path" (server-local '
                                "file)")
        if has_data:
            data = _decode_b64(item["data"], position, max_item_bytes)
        else:
            data = _read_local(item["path"], position, max_item_bytes)
        work.append(WorkItem(sample_id=sample_id, data=data,
                             class_name=class_name))
    return work


def _decode_b64(value, position: int, max_item_bytes: int) -> bytes:
    if not isinstance(value, str):
        raise ProtocolError(f'items[{position}].data must be a base64 string')
    # 4 base64 chars encode 3 bytes; reject before decoding so a huge
    # payload cannot balloon in memory past the cap.
    if len(value) > (max_item_bytes * 4) // 3 + 4:
        raise ProtocolError(f"items[{position}] payload exceeds the "
                            f"{max_item_bytes}-byte cap")
    try:
        data = base64.b64decode(value, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ProtocolError(f"items[{position}].data is not valid base64: "
                            f"{exc}") from exc
    if len(data) > max_item_bytes:
        raise ProtocolError(f"items[{position}] payload exceeds the "
                            f"{max_item_bytes}-byte cap")
    if not data:
        raise ProtocolError(f"items[{position}] payload is empty")
    return data


def _read_local(value, position: int, max_item_bytes: int) -> bytes:
    """Read a regular server-local file, never more than the cap + 1
    bytes.  A device or FIFO reports size 0 and never ends (a FIFO
    without a writer would not even open, hence ``O_NONBLOCK``)."""

    if not isinstance(value, str) or not value or "\0" in value:
        raise ProtocolError(f"items[{position}].path must be a non-empty "
                            "string without NUL characters")
    try:
        fd = os.open(value, os.O_RDONLY | os.O_NONBLOCK)
        try:
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                raise ProtocolError(f"items[{position}].path is not a "
                                    "regular file")
            if info.st_size > max_item_bytes:
                raise ProtocolError(f"items[{position}] file is "
                                    f"{info.st_size} bytes; the per-item "
                                    f"cap is {max_item_bytes}")
            with open(fd, "rb", closefd=False) as handle:
                # A read allocates its whole size up front, so size the
                # first from fstat; a file that grew (or, like /proc,
                # reports size 0) reads on, still only to cap + 1.
                data = handle.read(info.st_size + 1)
                if len(data) > info.st_size:
                    data += handle.read(max_item_bytes + 1 - len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise ProtocolError(f"items[{position}].path is not readable on the "
                            f"server: {exc}") from exc
    if len(data) > max_item_bytes:
        raise ProtocolError(f"items[{position}] file exceeds the "
                            f"{max_item_bytes}-byte cap")
    if not data:
        raise ProtocolError(f"items[{position}] file is empty")
    return data


def parse_purge_path(path: str) -> str:
    """The sample id addressed by one ``DELETE /samples/<id>`` path."""

    if not path.startswith(PURGE_PREFIX):
        raise ProtocolError(f"purge path must start with {PURGE_PREFIX}")
    sample_id = unquote(path[len(PURGE_PREFIX):])
    if not sample_id:
        raise ProtocolError("purge path carries no sample id")
    return sample_id


def decision_to_dict(decision) -> dict:
    """JSON-ready mapping of one :class:`~repro.api.service.Decision`.

    ``predicted_class`` survives as-is when JSON can carry it (str, int,
    float — numpy scalars included via their Python parents) and is
    stringified otherwise, matching the CLI's ``--jsonl`` convention.
    """

    predicted = decision.predicted_class
    if not isinstance(predicted, (str, int, float)):
        predicted = str(predicted)
    return {
        "sample_id": decision.sample_id,
        "predicted_class": predicted,
        "confidence": float(decision.confidence),
        "decision": decision.decision,
    }


def encode_decisions(decisions: Sequence, generation: int) -> bytes:
    """Serialise one response body (decisions in input order)."""

    return json.dumps({
        "decisions": [decision_to_dict(d) for d in decisions],
        "model_generation": int(generation),
        "count": len(decisions),
    }, sort_keys=True).encode("utf-8")


def encode_ingest_report(reports: Sequence[dict], generation: int,
                         members: int, *, durable: bool = False,
                         request_id: str | None = None) -> bytes:
    """Serialise one ingest response body (reports in input order).

    ``durable`` reports whether the batch was fsynced to a write-ahead
    log before this acknowledgement — i.e. whether the ingest survives
    a crash of the serving process.  ``request_id`` stamps the
    server-edge id into the ack for trace correlation.
    """

    payload = {
        "ingested": list(reports),
        "model_generation": int(generation),
        "corpus_members": int(members),
        "count": len(reports),
        "durable": bool(durable),
    }
    if request_id is not None:
        payload["request_id"] = str(request_id)
    return json.dumps(payload, sort_keys=True).encode("utf-8")
