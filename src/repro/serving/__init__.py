"""Long-running classification serving tier (stdlib-only).

The resident counterpart to the one-shot CLI: load a model artifact
once, keep the sealed similarity index hot, and serve ``POST
/classify`` over HTTP with request coalescing, admission control,
metrics, an audit log and zero-downtime model hot-reloads.  In ingest
mode the server doubles as a live metastore: ``POST /ingest`` and
``DELETE /samples/<id>`` mutate the in-process corpus online, and a
:class:`LifecycleManager` ages samples off, compacts tombstones and
periodically republishes the grown corpus as an atomic artifact.

Layers (each independently testable):

* :mod:`repro.serving.protocol` — the JSON wire format of classify,
  ingest and purge, and the payload caps;
* :mod:`repro.serving.metrics` — counters / gauges / quantile histograms;
* :mod:`repro.serving.batcher` — the bounded-queue request coalescer;
* :mod:`repro.serving.model_manager` — generation-tracked hot reload
  plus online corpus mutation and atomic republish;
* :mod:`repro.serving.workers` — the multi-process scoring pool
  (``--score-workers``), sharing a memory-mapped artifact's pages;
* :mod:`repro.serving.lifecycle` — age-off / cap / compaction /
  republish policies;
* :mod:`repro.serving.wal` — the crash-recovery write-ahead log that
  makes acknowledged mutations durable (``--wal-dir``);
* :mod:`repro.serving.decision_log` — rotating JSONL audit trail;
* :mod:`repro.serving.server` — the HTTP front end (``repro-classify
  serve`` drives it).

Request tracing, Prometheus exposition and on-demand profiling live in
the sibling :mod:`repro.observability` package: the server issues an
``X-Request-Id`` per request, samples traces through the serving path
(``GET /debug/trace``), renders the metrics registry as exposition
format 0.0.4 (``GET /metrics?format=prometheus``) and can profile the
coalescer workers (``GET /debug/profile``, behind
``--enable-profiling``).
"""

from .batcher import RequestCoalescer
from .decision_log import DecisionLog
from .lifecycle import LifecycleConfig, LifecycleManager
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .model_manager import ModelManager
from .protocol import WorkItem, decision_to_dict, parse_items, parse_purge_path
from .server import ClassificationServer, ServerConfig
from .wal import WALRecord, WALRecovery, WriteAheadLog
from .workers import ScoringWorkerPool

__all__ = [
    "RequestCoalescer",
    "DecisionLog",
    "LifecycleConfig",
    "LifecycleManager",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ModelManager",
    "WorkItem",
    "decision_to_dict",
    "parse_items",
    "parse_purge_path",
    "ClassificationServer",
    "ServerConfig",
    "WALRecord",
    "WALRecovery",
    "WriteAheadLog",
    "ScoringWorkerPool",
]
