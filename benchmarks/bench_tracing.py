"""Benchmark: request-tracing overhead at default sampling.

The tracing layer (PR 10) promises near-zero cost: request ids, the
contextvar span sink, per-stage histograms and the ``/debug/trace``
rings must not tax the serving hot path noticeably.  This benchmark
measures exactly that against two live
:class:`~repro.serving.server.ClassificationServer` instances over the
same artifact and payloads:

* **tracing off** — ``trace_sample=0.0``: request ids are still
  issued, but no request is sampled, so every ``span(...)`` call site
  takes the shared no-op path;
* **tracing on** — ``trace_sample=1.0`` (the default): every request
  carries a full :class:`RequestTrace` through parse, queue wait,
  batch assembly, the model pass and serialisation, feeding the
  labeled stage histogram and both trace rings.

The two modes run ``--repeats`` rounds each, alternating which mode
goes first (off-on, on-off, ...) so machine drift hits both equally,
and each mode's *median* round is compared.  A round's wall time is
the server's own work (a keep-alive response leaves in one write, so
no round waits on delayed ACKs), and it swings by tens of percent
with how the coalesced batches happen to form; the best round of
each mode would compare two such outliers.  The acceptance criterion
is a throughput overhead of at most ``--max-overhead`` (default 5%).

Alongside the overhead gate, the run verifies tracing actually worked:
decisions from both modes are bit-identical to a direct
:meth:`ClassificationService.classify_bytes` call, every request was
sampled (``traces_sampled_total``), and every captured trace's stage
sum stays within its wall time while covering the canonical stages.

Run directly (``python benchmarks/bench_tracing.py``); ``--quick``
shrinks the workload for CI.  Exit status is non-zero on any failed
check, so the script doubles as a regression tripwire;
``tests/test_tracing_bench_smoke.py`` runs it as part of tier 1 and a
JSON trajectory is written to ``benchmarks/output/BENCH_tracing.json``
for CI archiving.
"""

from __future__ import annotations

import argparse
import base64
import json
import random
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from http.client import HTTPConnection
from pathlib import Path

from repro.api.service import ClassificationService
from repro.config import default_config
from repro.corpus.builder import CorpusBuilder
from repro.features.pipeline import FeatureExtractionPipeline
from repro.serving import ClassificationServer, ServerConfig
from repro.serving.model_manager import ModelManager
from repro.serving.protocol import decision_to_dict

OUTPUT_DIR = Path(__file__).parent / "output"

PAYLOAD_BYTES = 4096

#: Stages every fully-sampled classify trace must attribute.
REQUIRED_STAGES = ("parse", "queue_wait", "batch_assembly",
                   "extract_features", "candidate_gen", "dp_scoring",
                   "forest_predict", "serialize")


@dataclass(frozen=True)
class BenchResult:
    n_train: int
    n_requests: int
    n_clients: int
    n_estimators: int
    repeats: int
    off_seconds: float                 # median tracing-off round
    on_seconds: float                  # median tracing-on round
    off_rounds: list[float] = field(default_factory=list)
    on_rounds: list[float] = field(default_factory=list)
    traces_sampled: int = 0
    traces_in_ring: int = 0
    stages_observed: tuple[str, ...] = ()
    stage_sums_within_wall: bool = True
    # The captured trace whose stage sum came closest to (or furthest
    # past) its wall time: (stage sum, wall), in ms.
    worst_stage_sum_ms: tuple[float, float] = (0.0, 0.0)
    decisions_match: bool = True

    @property
    def off_rps(self) -> float:
        return self.n_requests / self.off_seconds

    @property
    def on_rps(self) -> float:
        return self.n_requests / self.on_seconds

    @property
    def overhead(self) -> float:
        """Fractional throughput cost of tracing (negative = noise)."""

        if self.off_seconds <= 0:
            return 0.0
        return self.on_seconds / self.off_seconds - 1.0

    def table(self) -> str:
        rounds_off = ", ".join(f"{s:.3f}" for s in self.off_rounds)
        rounds_on = ", ".join(f"{s:.3f}" for s in self.on_rounds)
        return "\n".join([
            f"model: {self.n_train} training samples, "
            f"{self.n_estimators} trees; {self.n_requests} requests of one "
            f"{PAYLOAD_BYTES}-byte executable each, "
            f"{self.n_clients} concurrent clients, median of "
            f"{self.repeats} alternating rounds",
            f"{'tracing mode':<36} {'median (s)':>10} {'req/s':>8}",
            f"{'off (trace_sample=0.0)':<36} "
            f"{self.off_seconds:>10.3f} {self.off_rps:>8.1f}",
            f"{'on  (trace_sample=1.0, default)':<36} "
            f"{self.on_seconds:>10.3f} {self.on_rps:>8.1f}",
            f"tracing throughput overhead: {self.overhead * 100:+.2f}%",
            f"rounds off: [{rounds_off}]  on: [{rounds_on}]",
            f"traces sampled: {self.traces_sampled} "
            f"({self.traces_in_ring} in the /debug/trace ring)",
            f"stages observed: {', '.join(self.stages_observed)}",
            f"stage sums within wall time: {self.stage_sums_within_wall} "
            f"(worst: {self.worst_stage_sum_ms[0]:.3f} ms of stages in "
            f"{self.worst_stage_sum_ms[1]:.3f} ms wall)",
            f"served decisions identical to direct classify_bytes: "
            f"{self.decisions_match}",
        ])


def _make_payloads(count: int, seed: int) -> list[tuple[str, bytes]]:
    rng = random.Random(seed)
    return [(f"bench-{n}", bytes(rng.getrandbits(8)
                                 for _ in range(PAYLOAD_BYTES)))
            for n in range(count)]


def _post(connection: HTTPConnection, sample_id: str, data: bytes) -> dict:
    body = json.dumps({"items": [
        {"id": sample_id, "data": base64.b64encode(data).decode("ascii")}]})
    connection.request("POST", "/classify", body,
                       {"Content-Type": "application/json"})
    response = connection.getresponse()
    payload = json.loads(response.read())
    if response.status != 200:
        raise RuntimeError(f"serving request failed: {response.status} "
                           f"{payload}")
    return payload["decisions"][0]


def _get_json(port: int, path: str) -> dict:
    connection = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def _client_run(port: int, payloads: list, n_clients: int
                ) -> tuple[dict, float]:
    results: dict[str, dict] = {}
    errors: list = []
    lock = threading.Lock()
    shares = [payloads[i::n_clients] for i in range(n_clients)]

    def client(share):
        try:
            mine = HTTPConnection("127.0.0.1", port, timeout=120)
            collected = {}
            for sample_id, data in share:
                collected[sample_id] = _post(mine, sample_id, data)
            mine.close()
            with lock:
                results.update(collected)
        except Exception as exc:  # noqa: BLE001 — report, don't hang
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=client, args=(share,))
               for share in shares]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"client run failed: {errors[0]}")
    return results, seconds


def _measure_round(model_path: Path, payloads: list, n_clients: int,
                   trace_sample: float) -> tuple[dict, float, dict, dict]:
    """One fresh server at ``trace_sample``; returns results, seconds,
    the final metrics snapshot and the ``/debug/trace`` payload."""

    manager = ModelManager(model_path, poll_interval=0, cache_size=0)
    server = ClassificationServer(
        manager,
        ServerConfig(port=0, workers=2, max_batch=max(32, n_clients),
                     queue_depth=4096, trace_sample=trace_sample)).start()
    try:
        warm = HTTPConnection("127.0.0.1", server.port, timeout=60)
        _post(warm, "warmup-0", payloads[0][1])
        warm.close()
        results, seconds = _client_run(server.port, payloads, n_clients)
        metrics = _get_json(server.port, "/metrics")
        traces = _get_json(server.port, "/debug/trace")
    finally:
        server.shutdown()
    return results, seconds, metrics, traces


def run(n_estimators: int, n_requests: int, n_clients: int,
        repeats: int = 3, seed: int = 11) -> BenchResult:
    config = default_config("small", seed=seed)

    # Setup (untimed): train in memory, publish the artifact once.
    samples = CorpusBuilder(config=config).build_samples()
    features = FeatureExtractionPipeline().extract_generated(samples)
    service = ClassificationService.train(
        features, n_estimators=n_estimators, random_state=seed,
        confidence_threshold=0.5)
    payloads = _make_payloads(n_requests, seed)

    with tempfile.TemporaryDirectory(prefix="repro-bench-tracing-") as tmp:
        model_path = Path(tmp) / "model.rpm"
        service.save(model_path)
        reference = ClassificationService.load(model_path, cache_size=0)
        expected = {sid: decision_to_dict(d) for (sid, _), d in zip(
            payloads, reference.classify_bytes(payloads))}

        off_rounds: list[float] = []
        on_rounds: list[float] = []
        decisions_match = True
        traces_sampled = 0
        traces_in_ring = 0
        stages: set[str] = set()
        sums_ok = True
        worst: tuple[float, float] | None = None
        # Alternate which mode runs first (off-on, on-off, ...) so that
        # drift within a pair of rounds hits both modes equally, and
        # compare each mode's median round: a round's time swings with
        # how the coalesced batches form, so each mode's best round is
        # an outlier, and the process's early rounds (always an off
        # round first under a fixed order) tend to be its fastest.
        for repeat in range(max(1, repeats)):
            for trace_sample in ((0.0, 1.0) if repeat % 2 == 0
                                 else (1.0, 0.0)):
                results, seconds, metrics, traces = _measure_round(
                    model_path, payloads, n_clients, trace_sample)
                decisions_match &= (results == expected)
                if not trace_sample:
                    off_rounds.append(seconds)
                    continue
                on_rounds.append(seconds)
                traces_sampled = max(traces_sampled,
                                     int(metrics["traces_sampled_total"]))
                traces_in_ring = max(traces_in_ring, len(traces["recent"]))
                for trace in traces["recent"]:
                    stages.update(trace["stages"])
                    stage_sum = sum(trace["stages"].values())
                    if stage_sum > trace["wall_ms"] * 1.05 + 1.0:
                        sums_ok = False
                    excess = stage_sum - trace["wall_ms"]
                    if worst is None or excess > worst[0] - worst[1]:
                        worst = (stage_sum, trace["wall_ms"])

    return BenchResult(
        n_train=len(features),
        n_requests=n_requests,
        n_clients=n_clients,
        n_estimators=n_estimators,
        repeats=max(1, repeats),
        off_seconds=statistics.median(off_rounds),
        on_seconds=statistics.median(on_rounds),
        off_rounds=off_rounds,
        on_rounds=on_rounds,
        traces_sampled=traces_sampled,
        traces_in_ring=traces_in_ring,
        stages_observed=tuple(sorted(stages)),
        stage_sums_within_wall=sums_ok,
        worst_stage_sum_ms=worst or (0.0, 0.0),
        decisions_match=decisions_match,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--estimators", type=int, default=60,
                        help="forest size (default 60)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per round (default 96, quick 48)")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent clients (default 8)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="alternating rounds per mode "
                             "(default 3, quick 2)")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="fail (exit 1) when tracing costs more than "
                             "this fraction of throughput (default 0.05 "
                             "= 5%%, the acceptance criterion; 0 disables)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload for CI smoke runs")
    args = parser.parse_args(argv)

    n_requests = (args.requests if args.requests
                  else (48 if args.quick else 96))
    repeats = args.repeats if args.repeats else (2 if args.quick else 3)
    result = run(args.estimators, n_requests, args.clients, repeats=repeats)

    OUTPUT_DIR.mkdir(exist_ok=True)
    out = OUTPUT_DIR / "bench_tracing.txt"
    out.write_text(result.table() + "\n", encoding="utf-8")
    trajectory = dict(asdict(result),
                      off_rps=result.off_rps,
                      on_rps=result.on_rps,
                      overhead=result.overhead)
    (OUTPUT_DIR / "BENCH_tracing.json").write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(result.table())
    print(f"(written to {out} and BENCH_tracing.json)")

    if not result.decisions_match:
        print("FAIL: served decisions diverge from direct classify_bytes",
              file=sys.stderr)
        return 1
    if result.traces_sampled < n_requests:
        print(f"FAIL: only {result.traces_sampled} traces sampled for "
              f"{n_requests} requests at sample_rate=1.0", file=sys.stderr)
        return 1
    missing = [s for s in REQUIRED_STAGES if s not in result.stages_observed]
    if missing:
        print(f"FAIL: traces never attributed stages {missing}",
              file=sys.stderr)
        return 1
    if not result.stage_sums_within_wall:
        print("FAIL: a trace's stage sum exceeds its wall time "
              "(double-counted attribution)", file=sys.stderr)
        return 1
    if args.max_overhead and result.overhead > args.max_overhead:
        print(f"FAIL: tracing overhead {result.overhead * 100:.2f}% is "
              f"above the {args.max_overhead * 100:.1f}% ceiling",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
