"""Unit tests of the correctness gate (no server, no corpus)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.loadgen import Request, Result  # noqa: E402
from perfbench.workloads import (Phase, RunInvalid, _gate,  # noqa: E402
                                 check_decisions)

REFERENCE = {
    "A/1/x": {"predicted_class": "A", "confidence": 0.9, "decision": "known"},
    "B/1/y": {"predicted_class": -1, "confidence": 0.2, "decision": "unknown"},
}


def _result(ids, decisions, cause=None, path="/classify"):
    request = Request(path, b"{}", tuple(ids))
    payload = {"decisions": decisions, "count": len(decisions)}
    return Result(request, None, 0.0, 0.0, 0.01, 200, "r1", payload, cause)


def _served(sid):
    return {"sample_id": sid, **REFERENCE[sid.split("#", 1)[0]]}


def test_matching_decisions_pass():
    results = [_result(["A/1/x", "B/1/y#3.0"],
                       [_served("A/1/x"), _served("B/1/y#3.0")])]
    assert check_decisions(results, REFERENCE) == []
    _gate([Phase(results, [0.1], 1.0)], REFERENCE)


@pytest.mark.parametrize("field, value", [("predicted_class", "B"),
                                          ("confidence", 0.91),
                                          ("decision", "unknown")])
def test_one_differing_field_fails_the_run(field, value):
    wrong = {**_served("A/1/x"), field: value}
    results = [_result(["B/1/y", "A/1/x"], [_served("B/1/y"), wrong])]
    mismatches = check_decisions(results, REFERENCE)
    assert len(mismatches) == 1 and mismatches[0].startswith("A/1/x:")
    with pytest.raises(RunInvalid, match="1 served decisions differ"):
        _gate([Phase(results, [0.1], 1.0)], REFERENCE)


def test_a_missing_field_is_a_mismatch():
    served = _served("A/1/x")
    del served["confidence"]
    assert len(check_decisions([_result(["A/1/x"], [served])],
                               REFERENCE)) == 1


def test_failed_requests_are_not_compared():
    # A failed request is counted by the failure accounting instead.
    results = [_result(["A/1/x"], [{"sample_id": "A/1/x"}],
                       cause="http_503")]
    assert check_decisions(results, REFERENCE) == []
