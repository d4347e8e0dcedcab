"""Per-layer metrics of the traced run.

Two sources, both measured from outside the program:

* in-process: the benchmark times its own calls into each layer's
  public functions on the workload's inputs (``features``, ``hashing``,
  ``index``, ``distance``, ``core``, ``ml``, ``api``, ``serving.wal``,
  and the training split);
* the traced server: each client call is joined to its server-side
  trace by ``X-Request-Id`` (``/debug/trace``), and ``/metrics`` gives
  the serving counters.

``LAYER_METRICS`` names every per-layer metric with its unit, whether
higher or lower is better, and the end-to-end metric and workload it
should move; the residual no layer owns is ``serving.unattributed_*``
plus the transport gap.
"""

from __future__ import annotations

import tempfile
import time
from statistics import median
from dataclasses import replace
from pathlib import Path
from typing import Sequence


#: name -> (unit, better, end-to-end metric it should move, on which
#: workload).  The ingest and WAL metrics move none: no workload ingests.
LAYER_METRICS = {
    "serving.transport_gap_ms": ("ms", "lower", "classify_mean_ms", "classify-repeat"),
    "serving.unattributed_ms": ("ms", "lower", "classify_mean_ms", "classify-unique"),
    "serving.unattributed_share": ("ratio", "lower", "classify_p90_ms", "classify-repeat"),
    "serving.queue_wait_ms": ("ms", "lower", "classify_p90_ms", "classify-repeat"),
    "serving.parse_ms": ("ms", "lower", "items_per_s", "classify-repeat"),
    "serving.serialize_ms": ("ms", "lower", "items_per_s", "classify-repeat"),
    "serving.extract_features_ms": ("ms", "lower", "items_per_s", "classify-repeat"),
    "serving.candidate_gen_ms": ("ms", "lower", "classify_mean_ms", "classify-unique"),
    "serving.dp_scoring_ms": ("ms", "lower", "classify_mean_ms", "classify-unique"),
    "serving.forest_predict_ms": ("ms", "lower", "classify_mean_ms", "classify-unique"),
    "serving.items_per_batch": ("items", "higher", "items_per_s", "classify-repeat"),
    "serving.rejected": ("count", "lower", "success_ratio", "all"),
    "serving.trace_join_ratio": ("ratio", "higher", "classify_mean_ms", "all"),
    "serving.trace_overhead_ms": ("ms", "lower", "classify_mean_ms", "all"),
    "wal.fsync_ms": ("ms", "lower", None, None),
    "wal.fsyncs_per_item": ("count", "lower", None, None),
    "api.cache_hit_ratio": ("ratio", "higher", "items_per_s", "classify-repeat"),
    "api.ingest_ms_per_item": ("ms", "lower", None, None),
    "api.load_s": ("s", "lower", "setup_s", "all"),
    "api.save_s": ("s", "lower", "setup_s", "all"),
    "artifact.bytes": ("bytes", "lower", "setup_s", "all"),
    "features.extract_ms_per_item": ("ms", "lower", "items_per_s", "classify-repeat"),
    "hashing.ctph_ms_per_mib": ("ms", "lower", "items_per_s", "classify-repeat"),
    "index.candidate_ms_per_item": ("ms", "lower", "classify_mean_ms", "classify-unique"),
    "index.candidate_pairs_per_item": ("count", "lower", "classify_mean_ms", "classify-unique"),
    "index.add_ms_per_item": ("ms", "lower", None, None),
    "distance.score_ms_per_item": ("ms", "lower", "classify_mean_ms", "classify-unique"),
    "distance.nonzero_pair_ratio": ("ratio", "higher", "classify_mean_ms", "classify-unique"),
    "core.transform_ms_per_item": ("ms", "lower", "classify_mean_ms", "classify-unique"),
    "ml.predict_ms_per_batch": ("ms", "lower", "classify_mean_ms", "classify-unique"),
    "features.extract_s": ("s", "lower", "train_s", "all"),
    "index.build_s": ("s", "lower", "train_s", "all"),
    "core.transform_s": ("s", "lower", "train_s", "all"),
    "ml.fit_s": ("s", "lower", "train_s", "all"),
    "ml.tree_nodes": ("count", "lower", "train_s", "all"),
}

#: Server stages whose mean per traced classify request is reported.
_STAGES = ("queue_wait", "parse", "serialize", "extract_features",
           "candidate_gen", "dp_scoring", "forest_predict")

#: How many ingest batches the in-process ingest and WAL timings run.
_INGEST_BATCHES = 6


def _chunks(items: Sequence, size: int) -> list:
    return [items[i:i + size] for i in range(0, len(items), size)]


def classify_path(service, samples, batch: int) -> dict:
    """Time the classify path layer by layer on ``samples``.

    The batches have the workload's request shape (``batch`` items), and
    each layer is called the way the service calls it: extraction, the
    index's candidate generation, pair scoring, the full similarity
    transform (which repeats both) and the forest.
    """

    from repro import fuzzy_hash
    from repro.features.pipeline import FeatureExtractionPipeline
    from repro.index.core import score_signature_pairs

    classifier = service.classifier
    types = tuple(classifier.active_feature_types)
    pipeline = FeatureExtractionPipeline(types)
    index = service.similarity_index
    totals = dict(extract=0.0, candidates=0.0, score=0.0, transform=0.0,
                  predict=0.0)
    pairs = nonzero = 0
    batches = _chunks(list(samples), batch)
    for chunk in batches:
        start = time.perf_counter()
        features = pipeline.extract_bytes([(s.sample_id, s.data)
                                           for s in chunk])
        totals["extract"] += time.perf_counter() - start
        digests = {ft: [f.digest(ft) for f in features] for ft in types}
        start = time.perf_counter()
        candidates = index.collect_candidates(digests)
        totals["candidates"] += time.perf_counter() - start
        start = time.perf_counter()
        scores = score_signature_pairs(candidates.left, candidates.right,
                                       candidates.block_sizes)
        totals["score"] += time.perf_counter() - start
        pairs += len(candidates.left)
        nonzero += int((scores > 0).sum())
        start = time.perf_counter()
        matrix = classifier.transform(features)
        totals["transform"] += time.perf_counter() - start
        start = time.perf_counter()
        classifier.model_.predict_with_confidence(matrix.X,
                                                  confidence_threshold=0.0)
        totals["predict"] += time.perf_counter() - start
    n = len(samples)
    start = time.perf_counter()
    for sample in samples:
        fuzzy_hash(sample.data)
    hashing = time.perf_counter() - start
    mib = sum(len(s.data) for s in samples) / float(1 << 20)
    return {
        "features.extract_ms_per_item": totals["extract"] * 1e3 / n,
        "hashing.ctph_ms_per_mib": hashing * 1e3 / mib,
        "index.candidate_ms_per_item": totals["candidates"] * 1e3 / n,
        "index.candidate_pairs_per_item": pairs / n,
        "distance.score_ms_per_item": totals["score"] * 1e3 / n,
        "distance.nonzero_pair_ratio": nonzero / pairs if pairs else 0.0,
        "core.transform_ms_per_item": totals["transform"] * 1e3 / n,
        "ml.predict_ms_per_batch": totals["predict"] * 1e3 / len(batches),
    }


def artifact_io(model: Path, workdir: Path) -> dict:
    """``ClassificationService.load`` / ``save`` times and artifact size."""

    from repro.api.service import ClassificationService

    loads = []
    service = None
    for _ in range(3):
        start = time.perf_counter()
        service = ClassificationService.load(model)
        loads.append(time.perf_counter() - start)
    start = time.perf_counter()
    saved = service.save(workdir / "resaved.rpm")
    save_s = time.perf_counter() - start
    saved.unlink()
    return {"api.load_s": median(loads), "api.save_s": save_s,
            "artifact.bytes": float(model.stat().st_size)}


def ingest_path(model: Path, items: Sequence[tuple[str, bytes, str]],
                batch: int) -> dict:
    """Time online ingestion: the service, the index, and the WAL.

    ``ClassificationService.ingest_bytes`` and the sharded index's
    ``add`` run on a mutable copy of the model; the WAL's group commit
    runs through ``ModelManager.ingest_items`` with a fresh log, its
    ``wal_fsync`` spans collected by activating a span sink around the
    call.
    """

    from repro.api.service import ClassificationService
    from repro.features.pipeline import FeatureExtractionPipeline
    from repro.observability import trace as trace_mod
    from repro.serving import MetricsRegistry, ModelManager

    batches = _chunks(list(items), batch)[:_INGEST_BATCHES]
    n_items = sum(len(b) for b in batches)

    service = ClassificationService.load(model)
    service.enable_mutation()
    start = time.perf_counter()
    for number, chunk in enumerate(batches):
        service.ingest_bytes([(f"layer/{number}/{sid}", data, klass)
                              for sid, data, klass in chunk])
    ingest_s = time.perf_counter() - start

    types = tuple(service.classifier.active_feature_types)
    features = FeatureExtractionPipeline(types).extract_bytes(
        [(sid, data) for chunk in batches for sid, data, _ in chunk])
    labels = [klass for chunk in batches for _, _, klass in chunk]
    index = service.similarity_index
    start = time.perf_counter()
    for record, klass in zip(features, labels):
        index.add(f"add/{record.sample_id}", record.digests, class_name=klass)
    add_s = time.perf_counter() - start

    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory(dir=model.parent) as wal_dir:
        manager = ModelManager(model, mutable=True, wal_dir=wal_dir,
                               metrics=registry)
        fsyncs = []
        try:
            for number, chunk in enumerate(batches):
                sink = trace_mod.SpanCollector()
                token = trace_mod.activate(sink)
                try:
                    manager.ingest_items([(f"wal/{number}/{sid}", data, klass)
                                          for sid, data, klass in chunk])
                finally:
                    trace_mod.deactivate(token)
                fsyncs += [s.duration for s in sink.spans
                           if s.name == "wal_fsync"]
        finally:
            manager.stop()
        fsync_count = registry.snapshot().get("wal_fsyncs", 0)
    return {
        "api.ingest_ms_per_item": ingest_s * 1e3 / n_items,
        "index.add_ms_per_item": add_s * 1e3 / n_items,
        "wal.fsync_ms": median(fsyncs) * 1e3 if fsyncs else 0.0,
        "wal.fsyncs_per_item": fsync_count / n_items,
    }


def training_split(train, seed: int) -> dict:
    """Time the training pipeline step by step through its public parts.

    The steps ``FuzzyHashClassifier.fit`` runs, with the settings
    ``repro-classify train`` uses: extraction, anchor-index build, the
    self-excluding similarity transform, and the thresholded forest fit.
    Only the times are kept; the artifact the traced run serves comes
    from ``repro-classify train``, as in every other run.
    """

    import numpy as np

    from repro.core.classifier import ThresholdRandomForest
    from repro.features.extractors import FEATURE_TYPES
    from repro.features.pipeline import FeatureExtractionPipeline
    from repro.features.similarity import SimilarityFeatureBuilder

    start = time.perf_counter()
    features = FeatureExtractionPipeline(FEATURE_TYPES).extract_bytes(
        [(s.sample_id, s.data) for s in train])
    extract_s = time.perf_counter() - start
    features = [replace(f, class_name=s.class_name)
                for f, s in zip(features, train)]
    builder = SimilarityFeatureBuilder(FEATURE_TYPES)
    start = time.perf_counter()
    builder.fit(features)
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    matrix = builder.transform(features, exclude_self=True)
    transform_s = time.perf_counter() - start
    forest = ThresholdRandomForest(n_estimators=100, random_state=seed)
    start = time.perf_counter()
    forest.fit(matrix.X, np.asarray([s.class_name for s in train],
                                    dtype=object))
    fit_s = time.perf_counter() - start
    nodes = sum(tree.node_count for tree in forest.forest_.estimators_)
    return {"features.extract_s": extract_s, "index.build_s": build_s,
            "core.transform_s": transform_s, "ml.fit_s": fit_s,
            "ml.tree_nodes": float(nodes)}


def serving_split(results, traces: Sequence[dict], metrics: dict) -> dict:
    """Join client calls to server traces; serving counters from /metrics.

    The transport gap is the client latency measured from the actual
    send minus the server's ``wall_ms`` for the same ``X-Request-Id``;
    the unattributed time is the part of ``wall_ms`` no stage span
    covers.
    """

    by_id = {t["request_id"]: t for t in traces if t.get("kind") == "classify"}
    classify = [r for r in results
                if r.ok and r.request.path == "/classify"]
    joined = [(r, by_id[r.request_id]) for r in classify
              if r.request_id in by_id]
    if not joined:
        raise RuntimeError("no classify request joined its server trace")
    gaps = [r.send_latency * 1e3 - t["wall_ms"] for r, t in joined]
    stage_sums = {name: 0.0 for name in _STAGES}
    residual_ms = []
    residual_share = []
    for _, t in joined:
        stages = t.get("stages", {})
        for name in _STAGES:
            stage_sums[name] += stages.get(name, 0.0)
        rest = t["wall_ms"] - sum(stages.values())
        residual_ms.append(rest)
        residual_share.append(rest / t["wall_ms"] if t["wall_ms"] else 0.0)
    n = len(joined)
    cache = metrics.get("service_cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    batches = metrics.get("batches_total", 0)
    out = {
        # The mean, not the median: when only some requests pay the
        # ~40 ms delayed-ACK stall, the median hides them.
        "serving.transport_gap_ms": sum(gaps) / n,
        "serving.unattributed_ms": sum(residual_ms) / n,
        "serving.unattributed_share": sum(residual_share) / n,
        "serving.items_per_batch": (metrics.get("items_classified_total", 0)
                                    / batches if batches else 0.0),
        "serving.rejected": float(metrics.get("http_responses_overloaded", 0)),
        "serving.trace_join_ratio": n / len(classify),
        "api.cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
    }
    for name in _STAGES:
        out[f"serving.{name}_ms"] = stage_sums[name] / n
    return out
