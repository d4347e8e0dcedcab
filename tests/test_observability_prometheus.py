"""Unit tests for Prometheus text exposition
(``repro.observability.promtext``) and the labeled instrument families
it renders (``repro.serving.metrics``): format 0.0.4 conventions
(``# TYPE``, cumulative ``_bucket``/``_sum``/``_count``), label
escaping, the minimal parser's validation, and family registration
semantics.
"""

import math

import pytest

from repro.exceptions import ValidationError
from repro.observability.promtext import (
    CONTENT_TYPE,
    parse_prometheus,
    render_prometheus,
)
from repro.serving.metrics import MetricsRegistry


def make_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("requests_total").inc(7)
    registry.gauge("queue_items").set(3.5)
    hist = registry.histogram("latency_seconds", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        hist.observe(value)
    family = registry.histogram("stage_latency_seconds",
                                buckets=(0.01, 0.1),
                                labels=("stage", "worker"))
    family.labels(stage="dp_scoring").observe(0.02)
    family.labels(stage="dp_scoring", worker="1").observe(0.005)
    return registry


# ----------------------------------------------------------------- render
def test_render_round_trips_through_the_parser():
    text = render_prometheus(make_registry())
    families = parse_prometheus(text)
    assert families["requests_total"]["type"] == "counter"
    assert families["queue_items"]["type"] == "gauge"
    assert families["latency_seconds"]["type"] == "histogram"
    assert families["stage_latency_seconds"]["type"] == "histogram"
    assert "version=0.0.4" in CONTENT_TYPE


def test_counter_and_gauge_samples():
    text = render_prometheus(make_registry())
    assert "# TYPE requests_total counter\nrequests_total 7\n" in text
    assert "queue_items 3.5" in text


def test_histogram_renders_cumulative_buckets_sum_and_count():
    text = render_prometheus(make_registry())
    lines = [line for line in text.splitlines()
             if line.startswith("latency_seconds")]
    assert lines == [
        'latency_seconds_bucket{le="0.01"} 1',
        'latency_seconds_bucket{le="0.1"} 2',
        'latency_seconds_bucket{le="1"} 3',
        'latency_seconds_bucket{le="+Inf"} 4',
        "latency_seconds_sum 5.555",
        "latency_seconds_count 4",
    ]


def test_labeled_family_renders_one_series_per_child():
    text = render_prometheus(make_registry())
    # Empty-valued labels (worker unset) are dropped from the line.
    assert ('stage_latency_seconds_bucket{stage="dp_scoring",le="+Inf"} 1'
            in text)
    assert ('stage_latency_seconds_bucket{stage="dp_scoring",worker="1",'
            'le="+Inf"} 1' in text)
    families = parse_prometheus(text)
    series_keys = {tuple(sorted((k, v) for k, v in labels.items()
                                if k != "le"))
                   for name, labels, _ in
                   families["stage_latency_seconds"]["samples"]}
    assert (("stage", "dp_scoring"),) in series_keys
    assert (("stage", "dp_scoring"), ("worker", "1")) in series_keys


def test_label_values_are_escaped_and_round_trip():
    registry = MetricsRegistry()
    family = registry.counter("odd_total", labels=("tag",))
    value = 'quote " backslash \\ newline \n end'
    family.labels(tag=value).inc()
    text = render_prometheus(registry)
    families = parse_prometheus(text)
    ((_, labels, sample_value),) = families["odd_total"]["samples"]
    assert labels == {"tag": value}
    assert sample_value == 1


def test_integer_values_render_bare():
    registry = MetricsRegistry()
    registry.counter("n").inc(5)
    assert "n 5\n" in render_prometheus(registry)
    assert "5.0" not in render_prometheus(registry)


# ------------------------------------------------------------------ parse
def test_parse_rejects_samples_without_a_type_line():
    with pytest.raises(ValidationError, match="no # TYPE"):
        parse_prometheus("orphan_metric 1\n")


def test_parse_rejects_malformed_type_and_unknown_kind():
    with pytest.raises(ValidationError, match="malformed TYPE"):
        parse_prometheus("# TYPE lonely\n")
    with pytest.raises(ValidationError, match="unknown metric type"):
        parse_prometheus("# TYPE x sideways\n")
    with pytest.raises(ValidationError, match="duplicate TYPE"):
        parse_prometheus("# TYPE x counter\n# TYPE x counter\nx 1\n")


def test_parse_rejects_malformed_labels_and_values():
    with pytest.raises(ValidationError, match="malformed label"):
        parse_prometheus('# TYPE x counter\nx{tag=unquoted} 1\n')
    with pytest.raises(ValidationError, match="duplicate label"):
        parse_prometheus('# TYPE x counter\nx{a="1",a="2"} 1\n')
    with pytest.raises(ValidationError, match="unparseable sample value"):
        parse_prometheus("# TYPE x counter\nx banana\n")


def test_parse_rejects_histogram_without_inf_bucket():
    with pytest.raises(ValidationError, match="no \\+Inf bucket"):
        parse_prometheus(
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 2\n'
            "h_sum 1\n"
            "h_count 2\n")


def test_parse_rejects_non_cumulative_buckets():
    with pytest.raises(ValidationError, match="not\\s+cumulative"):
        parse_prometheus(
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n")


def test_parse_rejects_count_bucket_disagreement():
    with pytest.raises(ValidationError, match="disagrees with _count"):
        parse_prometheus(
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 4\n")


def test_parse_rejects_missing_sum_or_count():
    with pytest.raises(ValidationError, match="missing its\\s+_sum or "
                                              "_count"):
        parse_prometheus(
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_count 3\n")


def test_parse_rejects_bucket_without_le():
    with pytest.raises(ValidationError, match="without an le label"):
        parse_prometheus(
            "# TYPE h histogram\n"
            "h_bucket 3\n")


def test_parse_handles_inf_and_nan_values():
    families = parse_prometheus(
        "# TYPE g gauge\ng 0\n"
        "# TYPE x gauge\nx +Inf\n"
        "# TYPE y gauge\ny NaN\n")
    assert math.isinf(families["x"]["samples"][0][2])
    assert math.isnan(families["y"]["samples"][0][2])


# --------------------------------------------------------------- families
def test_family_registration_and_reuse():
    registry = MetricsRegistry()
    family = registry.counter("f_total", labels=("kind",))
    assert registry.counter("f_total", labels=("kind",)) is family
    assert family.labels(kind="a") is family.labels(kind="a")
    assert family.labels(kind="a") is not family.labels(kind="b")


def test_family_rejects_unknown_labels_and_collisions():
    registry = MetricsRegistry()
    family = registry.counter("f_total", labels=("kind",))
    with pytest.raises(ValueError, match="unknown labels"):
        family.labels(flavour="x")
    with pytest.raises(ValueError, match="already registered"):
        registry.counter("f_total", labels=("other",))
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("f_total", labels=("kind",))
    registry.counter("plain").inc()
    with pytest.raises(ValueError, match="already registered"):
        registry.counter("plain", labels=("kind",))
    with pytest.raises(ValueError, match="already registered"):
        registry.counter("f_total")                # unlabeled vs family


def test_family_snapshot_shape_and_json_compatibility():
    registry = MetricsRegistry()
    registry.counter("old_total").inc(2)           # pre-existing shape
    family = registry.histogram("staged", buckets=(1.0,),
                                labels=("stage",))
    family.labels(stage="a").observe(0.5)
    snapshot = registry.snapshot()
    assert snapshot["old_total"] == 2              # untouched: bare number
    staged = snapshot["staged"]
    assert staged["labels"] == ["stage"]
    (series,) = staged["series"]
    assert series["labels"] == {"stage": "a"}
    assert series["count"] == 1


def test_collect_reads_each_state_under_one_lock_hold():
    registry = make_registry()
    collected = dict((name, (kind, series))
                     for name, kind, series in registry.collect())
    kind, ((labels, state),) = collected["latency_seconds"]
    assert kind == "histogram"
    assert labels == {}
    assert sum(state["counts"]) == state["count"]
    names = [name for name, _, _ in registry.collect()]
    assert names == sorted(names)
