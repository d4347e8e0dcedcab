"""The load generator: keep-alive HTTP clients on open and closed loops.

One process, one thread per connection.  An *open loop* sends each
request at its scheduled time whether or not earlier ones finished
(independent job launches, each on a connection of its own); a *closed
loop* sends a connection's next request only once its previous one
completed (a collector waiting for its reply, on one keep-alive
connection).  Request bodies are encoded before the clock starts, so
the client's own work per request is one socket write and one JSON
parse.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .stats import generator_lateness, scheduled_latency

#: Per-request client timeout; a timed-out request counts as failed.
REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Request:
    """One prepared request: endpoint, encoded body and what it carries."""

    path: str
    body: bytes
    ids: tuple            # the item ids, in body order

    @property
    def items(self) -> int:
        return len(self.ids)


@dataclass
class Result:
    """What the client saw for one request."""

    request: Request
    due: float | None     # scheduled send time (open loop only)
    picked: float         # when a connection became free to take it
    sent: float
    done: float
    status: int | None
    request_id: str | None
    payload: dict | None
    cause: str | None     # None on success, else the failure's cause

    @property
    def ok(self) -> bool:
        return self.cause is None

    @property
    def latency(self) -> float:
        """Client latency; from the scheduled send time on an open loop."""

        if self.due is None:
            return self.done - self.sent
        return scheduled_latency(self.due, self.done)

    @property
    def send_latency(self) -> float:
        """Client latency from the actual send (what the server can see)."""

        return self.done - self.sent

    @property
    def lateness(self) -> float:
        if self.due is None:
            return 0.0
        return generator_lateness(self.due, self.picked, self.sent)


def item_fragment(data: bytes) -> bytes:
    """One request item's JSON after its id: ``"data": ...}``.

    Encoded once per executable, so a request is assembled by joining
    fragments instead of re-encoding megabytes of base64 per send.
    """

    import base64

    body = {"data": base64.b64encode(data).decode("ascii")}
    return json.dumps(body)[1:].encode("ascii")


def assemble(path: str, ids: Sequence[str],
             fragments: Sequence[bytes]) -> Request:
    """A request to ``path`` carrying the given items."""

    items = b", ".join(b'{"id": ' + json.dumps(sid).encode("utf-8") + b", "
                       + fragment for sid, fragment in zip(ids, fragments))
    return Request(path, b'{"items": [' + items + b"]}", tuple(ids))


def check_response(request: Request, payload: dict) -> str | None:
    """Per-item validation of a 200 body; the failure cause or None."""

    decisions = payload.get("decisions")
    if (payload.get("count") != request.items
            or not isinstance(decisions, list)
            or [d.get("sample_id") for d in decisions] != list(request.ids)):
        return "item_error"
    return None


class _Connection:
    """A keep-alive connection that reconnects after an error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def post(self, request: Request):
        """``(status, request id, parsed body, cause)`` of one POST."""

        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
                self.conn.connect()
                self.conn.sock.setsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY, 1)
            self.conn.request("POST", request.path, body=request.body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            raw = response.read()
        except socket.timeout:
            self.close()
            return None, None, None, "timeout"
        except (OSError, http.client.HTTPException):
            self.close()
            return None, None, None, "connection_error"
        request_id = response.getheader("X-Request-Id")
        if response.status != 200:
            return response.status, request_id, None, f"http_{response.status}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return response.status, request_id, None, "bad_body"
        return (response.status, request_id, payload,
                check_response(request, payload))

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


@dataclass
class OpenLoop:
    """Requests sent at ``start + offsets[i]`` over ``connections``."""

    name: str
    requests: Sequence[Request]
    offsets: Sequence[float]
    connections: int
    start: float = 0.0
    _next: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def take(self, now: float):
        # A server wedged past the last request's timeout is given up
        # on, so a run always ends; what was never sent fails.
        give_up = self.start + self.offsets[-1] + REQUEST_TIMEOUT_S
        with self._lock:
            index = self._next
            if index >= len(self.requests) or now > give_up:
                return None
            self._next += 1
        return self.requests[index], self.start + self.offsets[index]

    def unsent(self, now: float) -> list[Result]:
        return [Result(request, self.start + offset, now, now, now, None, None,
                       None, "not_sent")
                for request, offset in zip(self.requests[self._next:],
                                           self.offsets[self._next:])]


@dataclass
class ClosedLoop:
    """Requests from ``make(i)`` sent back to back for ``seconds``."""

    name: str
    make: Callable[[int], Request]
    connections: int
    seconds: float
    start: float = 0.0
    _next: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def take(self, now: float):
        if now >= self.start + self.seconds:
            return None
        with self._lock:
            index = self._next
            self._next += 1
        return self.make(index), None


def _client(port: int, stream, results: list) -> None:
    conn = _Connection(port)
    try:
        while True:
            picked = time.perf_counter()
            job = stream.take(picked)
            if job is None:
                return
            request, due = job
            if due is not None:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            sent = time.perf_counter()
            status, request_id, payload, cause = conn.post(request)
            done = time.perf_counter()
            if due is not None:
                # An open-loop request is an independent job launch: it
                # brings its own connection, so no request inherits the
                # kernel's delayed-ACK state left by an earlier one.
                conn.close()
            results.append(Result(request, due, picked, sent, done, status,
                                  request_id, payload, cause))
    finally:
        conn.close()


def drive(port: int, streams: Sequence) -> list[Result]:
    """Run every stream to completion; what the client saw.

    All streams share one clock origin, taken just before the client
    threads start, so an open loop's offsets and a closed loop's
    duration line up.
    """

    results: list[Result] = []
    origin = time.perf_counter() + 0.05
    for stream in streams:
        stream.start = origin
    threads = [threading.Thread(target=_client, args=(port, stream, results),
                                name=f"loadgen-{stream.name}-{n}",
                                daemon=True)
               for stream in streams for n in range(stream.connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    for stream in streams:
        if isinstance(stream, OpenLoop):
            results.extend(stream.unsent(end))
    return results
