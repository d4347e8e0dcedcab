"""Unit tests of the benchmark's arithmetic (no server, no corpus)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.inputs import Inputs, Sample  # noqa: E402
from perfbench.stats import (beyond, fell_behind, generator_lateness,  # noqa: E402
                             macro_f1, percentile, poisson_schedule,
                             scheduled_latency, tail_percentile_ok)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))          # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2   # order does not matter


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)


def test_failures_count_as_misses():
    latencies = [1.0] * 85 + [float("inf")] * 15
    assert percentile(latencies, 50) == 1.0
    assert percentile(latencies, 90) == float("inf")


def test_samples_beyond_the_tail():
    assert beyond(100, 90) == 10
    assert tail_percentile_ok(100)
    assert not tail_percentile_ok(99)      # only 9 beyond p90
    assert beyond(216, 90) == 21
    assert not tail_percentile_ok(0)


def test_poisson_schedule_is_seeded_and_fixed_count():
    first = poisson_schedule(18.0, 12.0, seed=5)
    assert first == poisson_schedule(18.0, 12.0, seed=5)
    assert first != poisson_schedule(18.0, 12.0, seed=6)
    assert len(first) == 216 == len(poisson_schedule(18.0, 12.0, seed=6))
    assert first == sorted(first)
    assert 0.0 <= first[0] and first[-1] < 12.0


def test_scheduled_latency_charges_the_wait_for_a_connection():
    # Due at t=1.0, sent at 1.3 because both connections were busy,
    # answered at 1.35: the client saw 350 ms, not 50 ms.
    assert scheduled_latency(due=1.0, done=1.35) == pytest.approx(0.35)


def test_generator_lateness_excludes_waiting_for_a_connection():
    # Connection free before the due time: any slip is the generator's.
    assert generator_lateness(due=1.0, picked=0.9, sent=1.002) == \
        pytest.approx(0.002)
    # Connection freed after the due time and sent at once: not late.
    assert generator_lateness(due=1.0, picked=1.3, sent=1.3) == 0.0
    # ... but a slow send after the connection freed is.
    assert generator_lateness(due=1.0, picked=1.3, sent=1.31) == \
        pytest.approx(0.01)
    # Sent early (clock jitter) never counts as negative lateness.
    assert generator_lateness(due=1.0, picked=0.5, sent=0.999) == 0.0


def test_fell_behind_tolerates_one_hiccup_and_one_percent():
    assert not fell_behind([0.1] * 35 + [80.0], bound=25.0)
    assert fell_behind([0.1] * 34 + [80.0, 30.0], bound=25.0)
    assert not fell_behind([0.1] * 397 + [30.0] * 3, bound=25.0)  # 0.75%
    assert fell_behind([0.1] * 395 + [30.0] * 5, bound=25.0)      # 1.25%
    assert not fell_behind([25.0] * 10, bound=25.0)   # at the bound is on time


def test_size_stratified_draw_spans_every_size():
    held_out = [Sample(f"C/{n}/exe", "C", bytes(n)) for n in range(1, 101)]
    inputs = Inputs(seed=4, train=[], held_out=held_out,
                    trained_classes=frozenset())
    picks = inputs.size_stratified_held_out("w", 10)
    assert picks == inputs.size_stratified_held_out("w", 10)
    assert picks != inputs.size_stratified_held_out("v", 10)
    # One executable from each tenth of the size order.
    assert sorted((len(s.data) - 1) // 10 for s in picks) == list(range(10))
    assert len(inputs.size_stratified_held_out("w", 500)) == 100


def test_macro_f1():
    assert macro_f1(["a", "b", -1], ["a", "b", -1]) == 1.0
    # a: tp=1 fp=0 fn=1 -> 2/3; b: tp=0 -> 0; -1: tp=1 fp=2 fn=0 -> 1/2
    assert macro_f1(["a", "a", "b", -1], ["a", -1, -1, -1]) == \
        pytest.approx((2 / 3 + 0 + 0.5) / 3)
