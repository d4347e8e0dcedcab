"""Unit tests for the serving wire protocol
(``repro.serving.protocol``): request parsing for both submission
styles, the payload caps, bounded reads of server-local paths, and
JSON encoding of decisions.
"""

import base64
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.api.service import Decision
from repro.exceptions import ProtocolError, ReproError
from repro.serving.protocol import (
    decision_to_dict,
    encode_decisions,
    parse_items,
)


def body(items):
    return json.dumps({"items": items}).encode("utf-8")


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def test_parses_inline_and_path_items_in_order(tmp_path):
    exe = tmp_path / "exe.bin"
    exe.write_bytes(b"from-disk")
    work = parse_items(body([
        {"id": "inline-1", "data": b64(b"from-wire")},
        {"id": "local-2", "path": str(exe)},
    ]))
    assert [(w.sample_id, w.data) for w in work] == \
        [("inline-1", b"from-wire"), ("local-2", b"from-disk")]


@pytest.mark.parametrize("raw", [
    b"not json at all",
    b"[1, 2, 3]",
    b'{"no_items": true}',
    b'{"items": []}',
    b'{"items": ["not-an-object"]}',
    b'{"items": [{"data": "QQ=="}]}',                       # missing id
    b'{"items": [{"id": "", "data": "QQ=="}]}',             # empty id
    b'{"items": [{"id": "x"}]}',                            # neither field
    b'{"items": [{"id": "x", "data": "QQ==", "path": "/p"}]}',  # both
    b'{"items": [{"id": "x", "data": "@@not-base64@@"}]}',
    b'{"items": [{"id": "x", "data": ""}]}',                # empty payload
    b'{"items": [{"id": "x", "path": "/no/such/file"}]}',
    b'{"items": [{"id": "x", "path": "/etc\\u0000/passwd"}]}',  # NUL
])
def test_malformed_requests_raise_protocol_error(raw):
    with pytest.raises(ProtocolError):
        parse_items(raw)
    # ProtocolError stays inside the library's exception hierarchy.
    assert issubclass(ProtocolError, ReproError)
    assert issubclass(ProtocolError, ValueError)


def test_item_count_cap():
    items = [{"id": f"i{n}", "data": b64(b"x")} for n in range(3)]
    with pytest.raises(ProtocolError, match="per-request cap"):
        parse_items(body(items), max_items=2)
    assert len(parse_items(body(items), max_items=3)) == 3


def test_payload_cap_applies_to_inline_and_path(tmp_path):
    big = tmp_path / "big.bin"
    big.write_bytes(b"x" * 64)
    with pytest.raises(ProtocolError, match="cap"):
        parse_items(body([{"id": "a", "data": b64(b"y" * 64)}]),
                    max_item_bytes=32)
    with pytest.raises(ProtocolError, match="cap"):
        parse_items(body([{"id": "a", "path": str(big)}]),
                    max_item_bytes=32)


def test_decision_round_trips_through_json_bit_identically():
    decision = Decision(sample_id="node/job/a.out",
                        predicted_class="GROMACS",
                        confidence=0.123456789012345678,
                        decision="within-allocation")
    unknown = Decision(sample_id="b", predicted_class=-1, confidence=0.25,
                       decision="unknown-application")
    encoded = encode_decisions([decision, unknown], generation=3)
    payload = json.loads(encoded)
    assert payload["model_generation"] == 3
    assert payload["count"] == 2
    assert payload["decisions"][0] == decision_to_dict(decision)
    # json round-trips Python floats exactly (shortest-repr), which is
    # what makes served decisions bit-identical to classify_bytes.
    assert payload["decisions"][0]["confidence"] == decision.confidence
    assert payload["decisions"][1]["predicted_class"] == -1


def test_decision_to_dict_stringifies_exotic_classes():
    decision = Decision(sample_id="s", predicted_class=("tuple", "class"),
                        confidence=0.5, decision="unknown-application")
    assert decision_to_dict(decision)["predicted_class"] == \
        str(("tuple", "class"))


# ------------------------------------------------ server-local path reads
def open_fd_count() -> int | None:
    """This process's open descriptors (``None`` without /proc)."""

    fd_dir = "/proc/self/fd"
    return len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_device_path_is_refused_within_a_memory_limit():
    # A character device reports size 0 and never ends.  Parse it under
    # a 768 MiB address-space limit, in a child, so a reader that keeps
    # reading dies of MemoryError there instead of growing this process.
    script = (
        "import os, resource\n"
        "from repro.exceptions import ProtocolError\n"
        "from repro.serving.protocol import parse_items\n"
        "resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))\n"
        "before = os.listdir('/proc/self/fd')\n"
        "try:\n"
        "    parse_items(b'{\"items\": [{\"id\": \"z\", \"path\": "
        "\"/dev/zero\"}]}')\n"
        "except ProtocolError as exc:\n"
        "    print(exc)\n"
        "print('leaked', len(os.listdir('/proc/self/fd')) - len(before))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "not a regular file" in done.stdout
    assert "leaked 0" in done.stdout


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_path_is_refused_without_blocking(tmp_path):
    # Opened for reading, a FIFO with no writer blocks forever; a daemon
    # thread and its join timeout turn a hang into a failure.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    before = open_fd_count()
    outcome = []

    def parse():
        try:
            parse_items(body([{"id": "f", "path": str(fifo)}]))
        except ProtocolError as exc:
            outcome.append(exc)

    worker = threading.Thread(target=parse, daemon=True)
    worker.start()
    worker.join(5.0)
    assert not worker.is_alive(), "parsing a FIFO path blocked"
    assert "not a regular file" in str(outcome[0])
    assert open_fd_count() == before


def test_directory_path_is_refused(tmp_path):
    before = open_fd_count()
    with pytest.raises(ProtocolError, match="not a regular file"):
        parse_items(body([{"id": "d", "path": str(tmp_path)}]))
    assert open_fd_count() == before


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc")
def test_regular_file_reporting_size_zero_is_read_to_its_end():
    before = open_fd_count()
    work = parse_items(body([{"id": "s", "path": "/proc/self/status"}]))
    assert work[0].data.startswith(b"Name:")
    # Its size is only known once read, and the read stops at the cap.
    with pytest.raises(ProtocolError, match="exceeds the 16-byte cap"):
        parse_items(body([{"id": "s", "path": "/proc/self/status"}]),
                    max_item_bytes=16)
    assert open_fd_count() == before
