"""Any request bytes get a decision or a 4xx, never a 500.

Hypothesis drives ``ClassificationServer.handle`` in-process, for both
``/classify`` and ``/ingest``, with arbitrary bytes, arbitrary JSON
values (deep nesting included) and valid bodies with one field mutated;
``handle_purge`` with arbitrary paths; and, on one live server, the
``/debug/trace?limit=`` and ``/debug/profile?seconds=`` query strings
with values a client should not send.  ``http_responses_error`` counts
every 500, so it must stay 0.
"""

import base64
import json
from http.client import HTTPConnection
from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.service import ClassificationService
from repro.serving import ClassificationServer, ServerConfig
from repro.serving.model_manager import ModelManager

from test_api_artifact import make_records

KINDS = ("classify", "ingest")
#: What ``handle`` may answer: a decision, a bad request, a body over
#: the cap, or backpressure.
HANDLE_STATUSES = {200, 400, 413, 503}
#: What ``handle_purge`` may answer.
PURGE_STATUSES = {200, 400, 404, 409}

_settings = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """An ingest-enabled, profiling server over a small model, started
    on an ephemeral port."""

    path = tmp_path_factory.mktemp("fuzz") / "model.rpm"
    records = make_records(18, seed=3, n_families=3)
    ClassificationService.train(records, feature_types=["ssdeep-file"],
                                n_estimators=6, random_state=0).save(path)
    server = ClassificationServer(
        ModelManager(path, poll_interval=0, mutable=True),
        ServerConfig(port=0, workers=1, enable_ingest=True,
                     enable_profiling=True, max_item_bytes=4096,
                     max_items_per_request=8, max_ingest_items=8)).start()
    try:
        yield server
    finally:
        server.shutdown()


def errors(server) -> int:
    return server.metrics.counter("http_responses_error").value


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=20)

#: Arrays and objects nested up to far past the decoder's recursion limit.
deep_json = st.builds(
    lambda depth, opener, inside: (
        (("[" if opener else '{"a":') * depth) + inside
        + (("]" if opener else "}") * depth)),
    st.integers(1, 5000), st.booleans(), st.sampled_from(["", "1", '"x"']))


def valid_item(index: int, kind: str, data: bytes) -> dict:
    item = {"id": f"fuzz-{index}",
            "data": base64.b64encode(data).decode("ascii")}
    if kind == "ingest":
        item["class"] = "fam0"
    return item


@st.composite
def mutated_bodies(draw):
    """A valid body for ``kind`` with one field replaced or removed."""

    kind = draw(st.sampled_from(KINDS))
    items = [valid_item(i, kind, draw(st.binary(min_size=1, max_size=600)))
             for i in range(draw(st.integers(1, 3)))]
    body = {"items": items}
    field = draw(st.sampled_from(["items", "id", "data", "class", "path",
                                  "extra"]))
    target = body if field in ("items", "extra") else \
        items[draw(st.integers(0, len(items) - 1))]
    if draw(st.booleans()) and field in target:
        del target[field]
    else:
        target[field] = draw(json_values | st.text() | st.binary().map(
            lambda raw: base64.b64encode(raw).decode("ascii")))
    return kind, json.dumps(body).encode("utf-8")


@_settings
@given(kind=st.sampled_from(KINDS), body=st.binary(max_size=2048))
def test_arbitrary_bytes(server, kind, body):
    status, _headers, _response = server.handle(kind, body)
    assert status in HANDLE_STATUSES
    assert errors(server) == 0


@_settings
@given(kind=st.sampled_from(KINDS),
       text=json_values.map(json.dumps) | deep_json
       | json_values.map(lambda value: json.dumps({"items": value}))
       | st.integers(4000, 6000).map(lambda n: '{"items": [%s]}' % ("7" * n)))
def test_arbitrary_json(server, kind, text):
    status, _headers, _response = server.handle(kind, text.encode("utf-8"))
    assert status in HANDLE_STATUSES
    assert errors(server) == 0


@_settings
@given(mutated_bodies())
def test_valid_bodies_with_one_field_mutated(server, case):
    kind, body = case
    status, _headers, _response = server.handle(kind, body)
    assert status in HANDLE_STATUSES
    assert errors(server) == 0


@_settings
@given(path=st.text(max_size=40) | st.text(max_size=40).map(
    lambda rest: "/samples/" + rest))
def test_purge_paths(server, path):
    status, _headers, _response = server.handle_purge(path)
    assert status in PURGE_STATUSES
    assert errors(server) == 0


def get_status(server, path: str) -> int:
    conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def outside_profile_window(value: str) -> bool:
    """Whether ``value`` is junk or a number outside (0, 60] seconds, so
    a profile request answers at once instead of sampling.  An empty
    value is no value: the default window applies."""

    if not value:
        return False
    try:
        seconds = float(value)
    except ValueError:
        return True
    return not 0 < seconds <= 60


query_values = (st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "0",
                                 "-1", "60.0001", "1e400", " ", "0x10",
                                 "9" * 5000])
                | st.text(max_size=12)
                | st.floats().map(repr)
                | st.integers().map(str))


@settings(max_examples=25, deadline=None)
@given(value=query_values)
def test_debug_trace_limit(server, value):
    assert get_status(server, f"/debug/trace?limit={quote(value)}") in \
        {200, 400}


@settings(max_examples=25, deadline=None)
@given(value=query_values.filter(outside_profile_window))
def test_debug_profile_seconds_outside_the_window(server, value):
    assert get_status(server, f"/debug/profile?seconds={quote(value)}") \
        == 400
