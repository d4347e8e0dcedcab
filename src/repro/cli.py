"""Command-line interface: ``repro-classify``.

The sub-commands cover the library's main entry points:

``generate``
    Materialise a synthetic sciCORE-like software tree on disk.
``experiment``
    Run the end-to-end experiment (the paper's evaluation) at a chosen
    scale and print the classification report, feature importances and
    threshold sweep.
``train``
    Train the Fuzzy Hash Classifier on a software tree (or an exported
    features JSON) and persist it as a versioned model artifact
    (``--out model.rpm``) for later no-retrain classification.
``classify``
    Classify a directory of executables (the envisioned production
    workflow of Figure 1) — either retraining from a software tree
    (``classify TREE TARGET``) or, for fast cold starts, loading a
    saved artifact (``classify --model model.rpm TARGET``).
    ``--save-index`` persists the fitted anchor index; ``--index``
    reuses a saved one while retraining.
``serve``
    Run the long-running classification server: load a model artifact
    once, then answer ``POST /classify`` over HTTP with request
    coalescing, backpressure, ``/metrics``, an optional JSONL decision
    log and zero-downtime model hot-reload (see
    :mod:`repro.serving`).  ``--ingest`` additionally enables online
    corpus ingestion (``POST /ingest`` / ``DELETE /samples/<id>``) with
    age-off, per-class caps and periodic atomic republish
    (``--max-age``, ``--max-class-members``, ``--republish-interval``).
``ingest``
    Thin client for an ingest-enabled server: submit labelled
    executables (``ingest --class NAME file...``) or purge a sample
    (``ingest --purge ID``).
``model inspect | validate``
    Inspect a model artifact's header, or fully restore it to prove it
    will serve.
``index build | query | stats | merge``
    Manage persistent similarity indexes: build one from a software
    tree (or an exported features JSON), run top-k queries against it,
    inspect statistics, and rewrite a legacy sharded-index directory as
    one single-file index (``merge``).  Query and stats also read such
    directories directly.

Global ``--jobs N`` / ``--executor SPEC`` (before the sub-command)
select the parallelism every sub-command fans out with: ``--executor``
accepts ``serial``, ``thread[:N]`` or ``process[:N]``.

Errors raised by the library (:class:`~repro.exceptions.ReproError`)
print a one-line message to stderr and exit with status 2 — no
tracebacks for operator-facing failures like a missing or corrupt index
or model file.
"""

from __future__ import annotations

import argparse
import sys

from .config import default_config
from .exceptions import ReproError
from .logging_utils import configure_logging
from .version_info import describe_environment, version_string

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-classify",
        description="Fuzzy Hash Classifier for HPC application classification "
                    "(reproduction of Jakobsche & Ciorba, SC 2024)")
    parser.add_argument("--version", action="version", version=version_string())
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="enable INFO logging")
    parser.add_argument("--jobs", type=int, default=None, dest="global_jobs",
                        metavar="N",
                        help="default worker count for any sub-command that "
                             "parallelises (sub-command --jobs wins)")
    parser.add_argument("--executor", default=None, metavar="SPEC",
                        help="execution backend: serial, thread[:N] or "
                             "process[:N] (takes precedence over --jobs)")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic software tree")
    generate.add_argument("output", help="directory to create the tree in")
    generate.add_argument("--scale", default=None,
                          choices=["small", "medium", "full"],
                          help="corpus scale preset (default: REPRO_SCALE or medium)")
    generate.add_argument("--seed", type=int, default=None, help="corpus seed")

    experiment = sub.add_parser("experiment", help="run the end-to-end evaluation")
    experiment.add_argument("--scale", default=None,
                            choices=["small", "medium", "full"])
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument("--split", default="paper", choices=["paper", "random"],
                            help="how the unknown classes are chosen")
    experiment.add_argument("--no-grid-search", action="store_true",
                            help="skip hyper-parameter tuning (use defaults)")
    experiment.add_argument("--jobs", type=int, default=None,
                            help="worker processes for extraction/training "
                                 "(default: the global --jobs, else 1)")

    train = sub.add_parser("train", help="train and save a model artifact "
                                         "for no-retrain classification")
    train.add_argument("source",
                       help="software tree with <Class>/<version>/<exe> "
                            "layout, or a features JSON exported by the "
                            "library (skips the hashing pass)")
    train.add_argument("--out", "-o", required=True, metavar="FILE",
                       help="model artifact file to write (e.g. model.rpm)")
    train.add_argument("--threshold", type=float, default=0.5,
                       help="confidence threshold for the unknown label")
    train.add_argument("--estimators", type=int, default=100,
                       help="number of trees in the Random Forest")
    train.add_argument("--seed", type=int, default=None,
                       help="random seed for the forest")
    train.add_argument("--types", nargs="+", default=None, metavar="TYPE",
                       help="fuzzy-hash feature types "
                            "(default: the paper's three types)")
    train.add_argument("--family", default="ctph",
                       choices=["ctph", "vector", "both"],
                       help="hash family per feature type: the paper's "
                            "CTPH digests, the fixed-length vector "
                            "digests, or both side by side (default ctph)")
    train.add_argument("--jobs", type=int, default=None,
                       help="worker processes for extraction/training "
                            "(default: the global --jobs, else 1)")
    train.add_argument("--no-index", action="store_true",
                       help="write a headless artifact without the anchor "
                            "index (smaller; classify will need --index)")

    classify = sub.add_parser(
        "classify",
        help="classify a directory of executables, retraining from a "
             "software tree or loading a saved model artifact")
    classify.add_argument("source",
                          help="software tree (or features JSON) to train on; "
                               "with --model this is the directory of "
                               "executables to classify instead")
    classify.add_argument("target", nargs="?", default=None,
                          help="directory of executables to classify "
                               "(omitted when --model is used)")
    classify.add_argument("--model", default=None, metavar="FILE",
                          help="load a saved model artifact instead of "
                               "retraining (fast cold start)")
    classify.add_argument("--threshold", type=float, default=None,
                          help="confidence threshold for the unknown label "
                               "(default 0.5, or the saved model's threshold)")
    classify.add_argument("--allowed", nargs="*", default=None,
                          help="application classes allowed for this allocation")
    classify.add_argument("--estimators", type=int, default=100,
                          help="number of trees when retraining")
    classify.add_argument("--seed", type=int, default=None,
                          help="random seed when retraining")
    classify.add_argument("--family", default=None,
                          choices=["ctph", "vector", "both"],
                          help="hash family when retraining (default ctph; "
                               "a --model artifact carries its own family)")
    classify.add_argument("--index", default=None, metavar="FILE",
                          help="similarity index reused while retraining, or "
                               "supplying the anchors of a headless --model "
                               "artifact")
    classify.add_argument("--save-index", default=None, metavar="FILE",
                          help="persist the fitted similarity index to FILE")
    classify.add_argument("--save-model", default=None, metavar="FILE",
                          help="persist the fitted model artifact to FILE "
                               "after training")
    classify.add_argument("--jsonl", action="store_true",
                          help="stream one JSON decision per line to stdout "
                               "instead of the report table (pipeable)")

    serve = sub.add_parser(
        "serve",
        help="run the long-running classification server from a saved "
             "model artifact (coalescing, backpressure, /metrics, "
             "hot reload)")
    serve.add_argument("--model", required=True, metavar="FILE",
                       help="model artifact to serve; replacing the file "
                            "atomically hot-reloads it without downtime")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (default 8080; 0 picks a free port)")
    serve.add_argument("--allowed", nargs="*", default=None,
                       help="application classes allowed for this allocation")
    serve.add_argument("--workers", type=int, default=2,
                       help="batch worker threads draining the request "
                            "queue (default 2)")
    serve.add_argument("--mmap", action="store_true",
                       help="memory-map the model artifact instead of "
                            "copying it into the heap: O(header) cold "
                            "start, and every process serving the same "
                            "file shares its pages through the OS page "
                            "cache (v4 artifacts; older files fall back "
                            "to the copying load). /healthz and /metrics "
                            "report the active mode as load_mode")
    serve.add_argument("--score-workers", type=int, default=0, metavar="N",
                       help="fork N scoring worker processes and dispatch "
                            "coalesced micro-batches across them (default "
                            "0 = score in-process). Decisions are bit-"
                            "identical to in-process scoring; combine "
                            "with --mmap so the workers share one copy "
                            "of the model. /metrics reports per-worker "
                            "batch counters under scoring_workers, "
                            "alongside the incomparable_comparisons "
                            "digest-comparability counters. Incompatible "
                            "with --ingest")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="items coalesced into one classify pass "
                            "(default 32)")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="queued items admitted before requests are "
                            "rejected with 503 (default 256)")
    serve.add_argument("--max-item-bytes", type=int, default=None,
                       help="per-executable payload cap in bytes "
                            "(default 32 MiB)")
    serve.add_argument("--reload-interval", type=float, default=2.0,
                       help="seconds between model-artifact change polls "
                            "(0 disables hot reload; default 2)")
    serve.add_argument("--decision-log", default=None, metavar="FILE",
                       help="append every decision to this JSONL file "
                            "(size-rotated)")
    serve.add_argument("--decision-log-max-bytes", type=int,
                       default=None,
                       help="rotate the decision log past this size "
                            "(default 32 MiB)")
    serve.add_argument("--cache-size", type=int, default=None,
                       help="capacity of each serving cache, the "
                            "extraction cache and the digest cache "
                            "(default 1024; 0 disables both)")
    serve.add_argument("--ingest", action="store_true",
                       help="enable online ingestion: POST /ingest adds "
                            "labelled samples to the live corpus and "
                            "DELETE /samples/<id> purges them")
    serve.add_argument("--max-ingest-items", type=int, default=None,
                       help="per-request ingest sample cap (default 32)")
    serve.add_argument("--wal-dir", default=None, metavar="DIR",
                       help="write-ahead-log directory (with --ingest): "
                            "every corpus mutation is fsynced there "
                            "before it is acknowledged, and the log's "
                            "tail is replayed over the artifact on "
                            "startup, so acked ingests survive a crash")
    serve.add_argument("--wal-repair", action="store_true",
                       help="permit startup recovery to truncate the "
                            "write-ahead log at mid-log corruption, "
                            "discarding every later record (a torn "
                            "final record is always truncated; earlier "
                            "damage otherwise refuses to start)")
    serve.add_argument("--max-age", type=float, default=None, metavar="SECS",
                       help="age-off horizon for online-ingested samples "
                            "(default: never)")
    serve.add_argument("--max-class-members", type=int, default=None,
                       metavar="N",
                       help="cap on corpus members per class; online "
                            "samples are evicted oldest-first past it")
    serve.add_argument("--compact-ratio", type=float, default=0.25,
                       help="tombstone fraction that triggers index "
                            "compaction (default 0.25)")
    serve.add_argument("--republish-interval", type=float, default=None,
                       metavar="SECS",
                       help="seconds between atomic republishes of the "
                            "grown corpus (default: never)")
    serve.add_argument("--republish-path", default=None, metavar="FILE",
                       help="republish target (default: the served --model "
                            "path itself)")
    serve.add_argument("--lifecycle-interval", type=float, default=5.0,
                       metavar="SECS",
                       help="seconds between lifecycle policy sweeps "
                            "(default 5)")
    serve.add_argument("--trace-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="fraction of requests to trace into "
                            "/debug/trace and the per-stage histograms "
                            "(0 disables tracing; default 1.0)")
    serve.add_argument("--slow-request-ms", type=float, default=1000.0,
                       metavar="MS",
                       help="traced requests at least this slow land in "
                            "the slow ring and emit a structured "
                            "slow-request log line (0 disables; "
                            "default 1000)")
    serve.add_argument("--trace-ring", type=int, default=128, metavar="N",
                       help="how many recent traces /debug/trace keeps "
                            "(default 128)")
    serve.add_argument("--enable-profiling", action="store_true",
                       help="allow GET /debug/profile?seconds=N (cProfile "
                            "over the coalescer workers; costs throughput "
                            "while a window is open — see the README's "
                            "security caveats)")

    ingest = sub.add_parser(
        "ingest",
        help="submit labelled samples to (or purge them from) a running "
             "ingest-enabled server")
    ingest.add_argument("files", nargs="*",
                        help="executable files to submit (base64, inline)")
    ingest.add_argument("--server", default="http://127.0.0.1:8080",
                        metavar="URL",
                        help="server base URL (default "
                             "http://127.0.0.1:8080)")
    ingest.add_argument("--class", dest="class_name", default=None,
                        metavar="NAME",
                        help="application class label for every submitted "
                             "file (required unless --purge)")
    ingest.add_argument("--purge", default=None, metavar="SAMPLE_ID",
                        help="purge this sample id instead of submitting "
                             "files")
    ingest.add_argument("--timeout", type=float, default=60.0,
                        help="request timeout in seconds (default 60)")

    model = sub.add_parser("model", help="inspect and validate saved model "
                                         "artifacts")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    model_inspect = model_sub.add_parser(
        "inspect", help="print a model artifact's header summary")
    model_inspect.add_argument("model_file", help="artifact written by "
                                                  "'train --out' or save_model")
    model_validate = model_sub.add_parser(
        "validate", help="fully restore an artifact to prove it will serve")
    model_validate.add_argument("model_file", help="artifact to validate")
    model_validate.add_argument("--index", default=None, metavar="FILE",
                                help="anchor index for headless artifacts")

    index = sub.add_parser("index", help="build, query and inspect persistent "
                                         "similarity indexes")
    index_sub = index.add_subparsers(dest="index_command", required=True)

    index_build = index_sub.add_parser(
        "build", help="build an index from a software tree or features JSON")
    index_build.add_argument("source",
                             help="software tree directory "
                                  "(<Class>/<version>/<exe>) or a features "
                                  "JSON file exported by the library")
    index_build.add_argument("--output", "-o", required=True,
                             help="index file to write")
    index_build.add_argument("--types", nargs="+", default=None,
                             metavar="TYPE",
                             help="fuzzy-hash feature types to index "
                                  "(default: the paper's three types)")
    index_build.add_argument("--family", default="ctph",
                             choices=["ctph", "vector", "both"],
                             help="hash family per feature type "
                                  "(default ctph)")

    index_query = index_sub.add_parser(
        "query", help="top-k similarity query against a saved index")
    index_query.add_argument("index_file", help="index file written by "
                                                "'index build' or --save-index")
    index_query.add_argument("target",
                             help="executable to hash and query, or a raw "
                                  "SSDeep digest string with --digest")
    index_query.add_argument("--digest", action="store_true",
                             help="treat TARGET as a digest string instead "
                                  "of a file path")
    index_query.add_argument("--type", dest="feature_type", default=None,
                             help="restrict scoring to one feature type")
    index_query.add_argument("-k", type=int, default=10,
                             help="number of results (default 10)")
    index_query.add_argument("--min-score", type=int, default=1,
                             help="drop matches scoring below this (default 1)")

    index_stats = index_sub.add_parser(
        "stats", help="print statistics of a saved index")
    index_stats.add_argument("index_file", help="index file (or legacy "
                                                "sharded directory) to "
                                                "inspect")
    index_stats.add_argument("--json", action="store_true",
                             help="machine-readable output")

    index_merge = index_sub.add_parser(
        "merge", help="rewrite a legacy sharded-index directory as one "
                      "single-file index")
    index_merge.add_argument("source", help="sharded index directory (or "
                                            "index file) to rewrite")
    index_merge.add_argument("--output", "-o", required=True,
                             help="single-file index to write")

    info = sub.add_parser("info", help="print version and environment information")

    return parser


def _cmd_generate(args) -> int:
    from .corpus.builder import CorpusBuilder

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = default_config(args.scale, **overrides)
    dataset = CorpusBuilder(config=config).materialize_tree(args.output)
    print(dataset.summary())
    return 0


def _effective_jobs(args, default: int = 1) -> int:
    """Sub-command ``--jobs`` wins over the global one, else ``default``."""

    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = getattr(args, "global_jobs", None)
    return default if jobs is None else jobs


def _cmd_experiment(args) -> int:
    from .core.evaluation import ExperimentRunner
    from .core.reporting import (classification_report_table,
                                 feature_importance_table,
                                 threshold_sweep_table, unknown_class_table)

    overrides = {"n_jobs": _effective_jobs(args)}
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = default_config(args.scale, **overrides)
    runner = ExperimentRunner(config, split_mode=args.split,
                              run_grid_search=not args.no_grid_search)
    result = runner.run()
    print(result.summary())
    print()
    print(unknown_class_table(result.split))
    print()
    print(classification_report_table(result.report))
    print()
    print(feature_importance_table(result.grouped_importance))
    if result.threshold_sweep is not None:
        print()
        print(threshold_sweep_table(result.threshold_sweep))
    return 0


def _cmd_train(args) -> int:
    from .api.service import ClassificationService
    from .features.extractors import (FEATURE_TYPES,
                                      resolve_family_feature_types)

    feature_types = tuple(args.types) if args.types else FEATURE_TYPES
    # Extraction must cover the family-expanded types (family="both"
    # needs the vector siblings alongside the CTPH digests).
    active_types = resolve_family_feature_types(feature_types, args.family)
    features = _index_features(args.source, active_types,
                               executor=args.executor)
    service = ClassificationService.train(
        features, feature_types=feature_types, family=args.family,
        confidence_threshold=args.threshold, n_estimators=args.estimators,
        random_state=args.seed, n_jobs=_effective_jobs(args),
        executor=args.executor)
    path = service.save(args.out, include_index=not args.no_index)
    print(f"trained on {len(features)} samples "
          f"({len(service.classes_)} classes) -> {path} "
          f"({path.stat().st_size} bytes)")
    return 0


def _cmd_classify(args) -> int:
    from .api.service import ClassificationService
    from .exceptions import ValidationError
    from .features.extractors import (FEATURE_TYPES,
                                      resolve_family_feature_types)
    from .index import load_index

    jobs = _effective_jobs(args)
    if args.model:
        if args.target is not None:
            raise ValidationError(
                "with --model, pass only the directory to classify "
                "(the model replaces the training source)")
        if args.save_model:
            raise ValidationError("--save-model requires training; it cannot "
                                  "be combined with --model")
        if args.family is not None:
            raise ValidationError("--family applies when retraining; a "
                                  "--model artifact carries its own family")
        target = args.source
        service = ClassificationService.load(args.model, index=args.index,
                                             allowed_classes=args.allowed,
                                             n_jobs=jobs,
                                             executor=args.executor)
        if args.threshold is not None:
            from ._validation import check_probability

            service.classifier.model_.confidence_threshold = \
                check_probability(args.threshold, "threshold")
    else:
        if args.target is None:
            raise ValidationError(
                "classify needs a training source and a target directory "
                "(or --model FILE plus a target directory)")
        target = args.target
        # Load the index first: a missing/corrupt file must fail fast, not
        # after the (potentially expensive) training feature pass.
        index = load_index(args.index) if args.index else None
        family = args.family or "ctph"
        active_types = resolve_family_feature_types(FEATURE_TYPES, family)
        features = _index_features(args.source, active_types,
                                   executor=args.executor)
        threshold = 0.5 if args.threshold is None else args.threshold
        service = ClassificationService.train(
            features, family=family, confidence_threshold=threshold,
            n_estimators=args.estimators, random_state=args.seed,
            allowed_classes=args.allowed, index=index, n_jobs=jobs,
            executor=args.executor)
        if args.save_model:
            print(f"model artifact saved to {service.save(args.save_model)}")
    if args.save_index:
        saved = service.similarity_index.save(args.save_index)
        print(f"similarity index saved to {saved}")
    if args.jsonl:
        return _stream_decisions_jsonl(service, target)
    decisions = service.classify_directory(target)
    from .api.service import render_report

    print(render_report(decisions))
    flagged = sum(1 for d in decisions if d.is_suspicious())
    print(f"\n{len(decisions)} executables classified, {flagged} flagged")
    return 0


def _stream_decisions_jsonl(service, target) -> int:
    """Stream one JSON decision per line (micro-batched, bounded memory)."""

    import json

    from .api.service import list_directory

    for decision in service.classify_stream(list_directory(target)):
        predicted = decision.predicted_class
        if not isinstance(predicted, (str, int, float)):
            predicted = str(predicted)
        print(json.dumps({
            "sample_id": decision.sample_id,
            "predicted_class": predicted,
            "confidence": round(decision.confidence, 6),
            "decision": decision.decision,
        }, sort_keys=True), flush=True)
    return 0


def _cmd_serve(args) -> int:
    from .logging_utils import configure_logging as _configure
    from .serving import (ClassificationServer, DecisionLog, LifecycleConfig,
                          LifecycleManager, MetricsRegistry, ModelManager,
                          ServerConfig)

    # A resident server is multi-threaded by construction: re-configure
    # logging with thread names even when --verbose already set it up.
    _configure("INFO" if args.verbose else "WARNING", include_thread=True)
    # One registry shared by every serving layer, so GET /metrics also
    # carries the manager's reload counters and the log's rotations.
    registry = MetricsRegistry()
    load_kwargs = {}
    if args.cache_size is not None:
        load_kwargs["cache_size"] = args.cache_size
    if args.mmap:
        load_kwargs["mmap"] = True
    if args.score_workers and args.ingest:
        from .exceptions import ValidationError

        raise ValidationError(
            "--score-workers cannot be combined with --ingest: scoring "
            "workers serve the artifact on disk and would miss "
            "unpublished corpus mutations")
    if args.wal_dir and not args.ingest:
        from .exceptions import ValidationError

        raise ValidationError(
            "--wal-dir requires --ingest: the write-ahead log records "
            "corpus mutations, which an immutable server never performs")
    # Failpoints (REPRO_FAULTS=site:action[@after],...) are armed here,
    # in the server process, so the crash-sweep harness can kill a live
    # subprocess at any registered site.  No-op without the env var.
    from .testing import arm_from_env

    arm_from_env()
    manager = ModelManager(args.model,
                           poll_interval=args.reload_interval,
                           metrics=registry,
                           allowed_classes=args.allowed,
                           n_jobs=_effective_jobs(args),
                           executor=args.executor,
                           mutable=args.ingest,
                           score_workers=args.score_workers,
                           wal_dir=args.wal_dir,
                           wal_repair=args.wal_repair,
                           **load_kwargs)
    lifecycle = None
    if args.ingest:
        lifecycle = LifecycleManager(
            manager,
            LifecycleConfig(max_age_seconds=args.max_age,
                            max_members_per_class=args.max_class_members,
                            compact_ratio=args.compact_ratio,
                            republish_interval=args.republish_interval,
                            republish_path=args.republish_path,
                            sweep_interval=args.lifecycle_interval),
            metrics=registry)
    decision_log = None
    if args.decision_log:
        log_kwargs = {}
        if args.decision_log_max_bytes is not None:
            log_kwargs["max_bytes"] = args.decision_log_max_bytes
        decision_log = DecisionLog(args.decision_log, metrics=registry,
                                   **log_kwargs)
    config_kwargs = {}
    if args.max_item_bytes is not None:
        config_kwargs["max_item_bytes"] = args.max_item_bytes
    if args.max_ingest_items is not None:
        config_kwargs["max_ingest_items"] = args.max_ingest_items
    config = ServerConfig(
        host=args.host, port=args.port, workers=args.workers,
        max_batch=args.max_batch, queue_depth=args.queue_depth,
        enable_ingest=args.ingest,
        trace_sample=args.trace_sample,
        slow_request_ms=args.slow_request_ms,
        trace_ring=args.trace_ring,
        enable_profiling=args.enable_profiling,
        **config_kwargs)
    server = ClassificationServer(manager, config, metrics=registry,
                                  decision_log=decision_log,
                                  lifecycle=lifecycle)
    server.start()
    endpoints = "POST /classify, GET /healthz, GET /metrics, " \
                "GET /debug/trace"
    if args.enable_profiling:
        endpoints += ", GET /debug/profile"
    if args.ingest:
        endpoints += ", POST /ingest, DELETE /samples/<id>"
    mode = f"load={manager.load_mode}"
    if args.score_workers:
        mode += f", score_workers={args.score_workers}"
    if args.wal_dir:
        mode += f", wal={args.wal_dir}"
    print(f"serving {args.model} on http://{args.host}:{server.port} "
          f"({mode}; {endpoints}; Ctrl-C or SIGTERM drains and exits)",
          flush=True)
    return server.run_until_signalled()


def _cmd_ingest(args) -> int:
    import base64
    import json
    from urllib.parse import quote, urlsplit

    from .exceptions import ServingError, ValidationError

    split = urlsplit(args.server if "//" in args.server
                     else f"http://{args.server}")
    if split.scheme != "http" or not split.hostname:
        raise ValidationError(
            f"--server must be an http://host:port URL, got {args.server!r}")
    if args.purge is not None:
        if args.files or args.class_name:
            raise ValidationError(
                "--purge takes no files and no --class")
        method, path, body = ("DELETE",
                              "/samples/" + quote(args.purge, safe=""),
                              b"")
    else:
        if not args.files:
            raise ValidationError(
                "ingest needs executable files to submit (or --purge ID)")
        if not args.class_name:
            raise ValidationError(
                "ingest needs --class NAME (online samples must be "
                "labelled)")
        items = []
        for name in args.files:
            try:
                with open(name, "rb") as handle:
                    data = handle.read()
            except OSError as exc:
                raise ValidationError(f"cannot read {name}: {exc}") from exc
            items.append({"id": name, "class": args.class_name,
                          "data": base64.b64encode(data).decode("ascii")})
        method, path = "POST", "/ingest"
        body = json.dumps({"items": items}).encode("utf-8")
    status, payload = _http_json(split.hostname, split.port or 80, method,
                                 path, body, timeout=args.timeout)
    if status != 200:
        raise ServingError(
            f"server answered {status}: {payload.get('error', payload)}")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _http_json(host: str, port: int, method: str, path: str, body: bytes, *,
               timeout: float) -> tuple[int, dict]:
    import http.client
    import json

    from .exceptions import ServingError

    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
    except OSError as exc:
        raise ServingError(
            f"cannot reach server at {host}:{port}: {exc}") from exc
    finally:
        connection.close()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServingError(
            f"server answered {response.status} with a non-JSON body: "
            f"{exc}") from exc
    return response.status, payload


def _cmd_model_inspect(args) -> int:
    from .api.artifact import inspect_model

    info = inspect_model(args.model_file)
    print(_format_model_info(info))
    return 0


def _cmd_model_validate(args) -> int:
    from .api.artifact import validate_model

    info = validate_model(args.model_file, index=args.index)
    print(f"{args.model_file}: OK")
    print(_format_model_info(info))
    return 0


def _format_model_info(info: dict) -> str:
    classes = ", ".join(info["classes"][:8])
    if info["n_classes"] > 8:
        classes += f", ... ({info['n_classes']} total)"
    if info["index_included"]:
        index_line = f"embedded, {info['index_members']} anchors"
    else:
        index_line = "not included (headless)"
    family = info.get("family", "ctph")
    family_line = f"hash family: {family}"
    families = info.get("families") or {}
    vector_types = families.get("vector") or []
    if vector_types:
        family_line += (f" ({len(families.get('ctph') or [])} ctph + "
                        f"{len(vector_types)} vector active types)")
    return "\n".join([
        f"kind: {info['kind']} "
        f"(format v{info['format_version']}, "
        f"written by repro {info['library_version']})",
        f"file: {info['file_bytes']} bytes",
        f"feature types: {', '.join(info['feature_types'])}",
        family_line,
        f"classes ({info['n_classes']}): {classes}",
        f"forest: {info['n_trees']} trees over {info['n_features']} features, "
        f"confidence threshold {info['confidence_threshold']}",
        f"anchor strategy: {info['anchor_strategy']}",
        f"similarity index: {index_line}",
    ])


def _cmd_model(args) -> int:
    handler = {"inspect": _cmd_model_inspect,
               "validate": _cmd_model_validate}[args.model_command]
    return handler(args)


def _index_features(source: str, feature_types, *, executor=None):
    """Feature records for ``index build``: software tree or features JSON."""

    from pathlib import Path

    from .corpus.scanner import CorpusScanner
    from .exceptions import ValidationError
    from .features.pipeline import FeatureExtractionPipeline
    from .features.records import features_from_json

    path = Path(source)
    if path.is_dir():
        scan = CorpusScanner(path).scan()
        pipeline = FeatureExtractionPipeline(feature_types, executor=executor)
        return pipeline.extract_dataset(scan.dataset)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(
                f"{source} is not a readable features JSON file: {exc}") from exc
        return features_from_json(text)
    raise ValidationError(f"{source} is neither a software tree directory "
                          "nor a features JSON file")


def _cmd_index_build(args) -> int:
    from .exceptions import ValidationError
    from .features.extractors import (FEATURE_TYPES,
                                      resolve_family_feature_types)
    from .index import SimilarityIndex

    feature_types = resolve_family_feature_types(
        tuple(args.types) if args.types else FEATURE_TYPES, args.family)
    features = _index_features(args.source, feature_types,
                               executor=args.executor)
    if features:
        available = set()
        for record in features:
            available.update(record.digests)
        missing = [ft for ft in feature_types if ft not in available]
        if missing:
            raise ValidationError(
                f"feature types {missing} appear in none of the "
                f"{len(features)} source records (available: "
                f"{sorted(available)})")
    index = SimilarityIndex(feature_types)
    index.add_many(features)
    stats = index.stats()
    for feature_type, info in stats["feature_types"].items():
        populated = (info.get("members_with_digest", 0)
                     if info.get("family") == "vector"
                     else info.get("entries", 0))
        if index.n_members and populated == 0:
            print(f"warning: feature type {feature_type!r} produced no "
                  f"index entries (all digests empty or degenerate)",
                  file=sys.stderr)
    path = index.save(args.output)
    print(f"indexed {index.n_members} samples -> {path}")
    print(_format_stats(stats))
    return 0


def _cmd_index_query(args) -> int:
    from .features.extractors import FeatureExtractor
    from .index import load_index

    index = load_index(args.index_file)
    if args.digest:
        matches = index.top_k(args.target, args.k,
                              feature_type=args.feature_type,
                              min_score=args.min_score)
    else:
        types = ((args.feature_type,) if args.feature_type
                 else index.feature_types)
        sample = FeatureExtractor(types).extract_file(args.target)
        matches = index.top_k_digests(
            {ft: sample.digest(ft) for ft in types}, args.k,
            min_score=args.min_score)
    if not matches:
        print("no matches")
        return 0
    print(f"{'rank':>4} {'score':>5} {'class':<24} sample")
    for rank, match in enumerate(matches, start=1):
        print(f"{rank:>4} {match.score:>5} {match.class_name or '-':<24} "
              f"{match.sample_id}")
    return 0


def _cmd_index_stats(args) -> int:
    import json

    from .index import load_index

    index = load_index(args.index_file)
    stats = index.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(_format_stats(stats))
    return 0


def _cmd_index_merge(args) -> int:
    from .index import load_index

    index = load_index(args.source)
    path = index.save(args.output)
    print(f"merged {index.n_members} members into a single-file "
          f"index -> {path}")
    return 0


def _format_stats(stats: dict) -> str:
    lines = [f"members: {stats['members']} "
             f"({stats['labelled_members']} labelled, "
             f"{stats['classes']} classes), "
             f"ngram length: {stats['ngram_length']}"]
    for feature_type, info in stats["feature_types"].items():
        if info.get("family") == "vector":
            lines.append(f"  {feature_type:<16} "
                         f"{info['members_with_digest']:>6} digests  "
                         f"{info['digest_bits']:>8} bits   packed matrix: "
                         f"{info['packed_matrix_bytes']} bytes")
            continue
        blocks = ",".join(str(b) for b in info["block_sizes"]) or "-"
        lines.append(f"  {feature_type:<16} {info['entries']:>6} entries  "
                     f"{info['postings']:>8} postings  block sizes: {blocks}")
    return "\n".join(lines)


def _cmd_index(args) -> int:
    handler = {"build": _cmd_index_build,
               "query": _cmd_index_query,
               "stats": _cmd_index_stats,
               "merge": _cmd_index_merge}[args.index_command]
    return handler(args)


def _cmd_info(_args) -> int:
    print(describe_environment())
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "experiment": _cmd_experiment,
    "train": _cmd_train,
    "classify": _cmd_classify,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
    "model": _cmd_model,
    "index": _cmd_index,
    "info": _cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors surface as a one-line stderr message and exit
    status 2 instead of a traceback.
    """

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging("INFO")
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into something that exited early (e.g. head).
        # Detach stdout so the interpreter's shutdown flush cannot raise
        # again, and exit with the conventional SIGPIPE status.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
