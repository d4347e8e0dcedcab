"""The two workloads and the run that measures one of them.

Every run trains its own artifact with ``repro-classify train`` (timed
as ``train_s``), starts ``repro-classify serve`` on it ``SETUP_SPAWNS``
times (``setup_s`` is the median spawn-to-first-200 ``/healthz``),
drives the last server with the workload's traffic from this process,
and checks the answers:

``classify-unique``
    Single-item ``/classify`` requests of held-out executables, each
    sent once, on an open loop: a seeded Poisson schedule of
    independent job launches, each on a connection of its own, at most
    ``nproc`` at a time.  Every item pays the full path, and the digest
    cache never hits.
``classify-repeat``
    A closed loop over ``nproc`` connections of 16-item requests (the
    spool collector's shape) drawn from a working set of 40 held-out
    executables, far below the 1024-entry digest cache.  After first
    sight only extraction, parsing and transport remain.

No workload ingests.  An ``ingest-mixed`` workload (WAL-acked ingests
beside classifies on the other connection) was built and dropped: its
two closed loops phase-lock on the predict lock, so its latency was
bimodal between runs (p90 116 or 160 ms) and broke the spread bound.
Online ingestion, the sharded index's ``add`` and the WAL's group
commit are still timed per layer, in-process, in every traced run.

Both workloads draw their executables one per size stratum of the
held-out set, so every seed sends the same spread of sizes and the
per-item work does not swing with the draw.

Training (forest fit is most of it) is measured in every end-to-end
run, since each run trains the artifact it serves.  The traced run
(``--trace 1``) trains the same way, then also times the training steps
in-process for the per-layer split, serves the model untraced and then
traced for half the run each, and times each layer's public calls (see
:mod:`perfbench.layers`).
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from . import layers
from .inputs import Inputs, Sample, file_sha256, generate
from .loadgen import (ClosedLoop, OpenLoop, Request, assemble, drive,
                      item_fragment)
from .serve import Server, run_train
from .stats import (TAIL_PERCENTILE, fell_behind, macro_f1, percentile,
                    poisson_schedule, tail_percentile_ok)

WORKLOADS = ("classify-unique", "classify-repeat")

#: name -> (unit, better, bound): the end-to-end metrics every run
#: reports.  ``items_per_s`` is classified items per second; on the
#: open-loop classify-unique it is the offered rate, so it only moves
#: when the server saturates or fails.  The centre of the latency
#: distribution is the mean, not the median: where part of the
#: requests pay the server's ~40 ms delayed-ACK stall, the median jumps
#: between the two modes whenever that share crosses one half, while
#: the mean moves with the share.  The tail is p90
#: (``stats.TAIL_PERCENTILE``), the highest percentile with ten samples
#: beyond it at every workload's request count.  The bounds are wide
#: because the host's CPU speed swings in phases of seconds to minutes,
#: which moves every timing together.
E2E_METRICS = {
    "setup_s": ("s", "lower", 0.25),
    "train_s": ("s", "lower", 0.25),
    "classify_mean_ms": ("ms", "lower", 0.25),
    "classify_p90_ms": ("ms", "lower", 0.25),
    "items_per_s": ("items/s", "higher", 0.25),
    "macro_f1": ("ratio", "higher", 0.1),
    "success_ratio": ("ratio", "higher", 0.05),
    "peak_rss_mb": ("MiB", "lower", 0.15),
    "train_peak_rss_mb": ("MiB", "lower", 0.15),
}

#: Open-loop arrival rate per classify connection, requests/s: about
#: half of what a keep-alive connection sustains on the seed code.
RATE_PER_CONNECTION = 9.0
#: Items per classify-repeat request, and the working set they come from.
REPEAT_BATCH = 16
REPEAT_WORKING_SET = 40
#: Items per ingest batch of the in-process ingest timings.
INGEST_BATCH = 8
#: Server spawns per run; setup_s is their median.
SETUP_SPAWNS = 5
#: A run whose generator sent over 1% of its requests later than this
#: (beyond waiting for a free connection) is invalid, not slow.
LATENESS_BOUND_MS = 25.0
#: Items the in-process layer timings classify.
LAYER_ITEMS = 48


class RunInvalid(Exception):
    """The run cannot be reported: a failed gate or a late generator."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Plan:
    """One workload's traffic, ready to drive."""

    name: str
    inputs: Inputs
    seed: int
    connections: int
    classify_samples: list[Sample] = field(default_factory=list)
    working_set: list[Sample] = field(default_factory=list)

    def streams(self, seconds: float) -> list:
        """Fresh streams for one traffic phase of ``seconds``."""

        if self.name == "classify-unique":
            offsets = poisson_schedule(RATE_PER_CONNECTION * self.connections,
                                       seconds, self.seed)
            samples = self.classify_samples[:len(offsets)]
            requests = [assemble("/classify", [s.sample_id],
                                 [item_fragment(s.data)]) for s in samples]
            return [OpenLoop("classify", requests, offsets[:len(samples)],
                             self.connections)]
        fragments = [item_fragment(s.data) for s in self.working_set]

        def make(index: int) -> Request:
            rng = random.Random(f"{self.seed}:repeat:{index}")
            picks = [rng.randrange(len(fragments))
                     for _ in range(REPEAT_BATCH)]
            ids = [f"{self.working_set[p].sample_id}#{index}.{k}"
                   for k, p in enumerate(picks)]
            return assemble("/classify", ids, [fragments[p] for p in picks])

        return [ClosedLoop("classify", make, self.connections, seconds)]

    def layer_batch(self) -> tuple[list[Sample], int]:
        """Items and request shape for the in-process classify timings."""

        if self.name == "classify-repeat":
            return self.working_set, REPEAT_BATCH
        return self.classify_samples[:LAYER_ITEMS], 1

    def layer_ingest_items(self) -> list[tuple[str, bytes, str]]:
        return [(s.sample_id, s.data, s.class_name)
                for s in self.inputs.held_out_known()[:LAYER_ITEMS]]


def make_plan(name: str, inputs: Inputs, seed: int, seconds: float) -> Plan:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    plan = Plan(name, inputs, seed, nproc())
    if name == "classify-repeat":
        plan.working_set = inputs.size_stratified_held_out(
            "repeat", REPEAT_WORKING_SET)
        return plan
    needed = round(RATE_PER_CONNECTION * plan.connections * seconds)
    plan.classify_samples = inputs.size_stratified_held_out(name, needed)
    return plan


# --------------------------------------------------------------- the gate
def reference_decisions(model: Path, inputs: Inputs) -> dict:
    """In-process decisions for every held-out executable, by id."""

    from repro.api.service import ClassificationService
    from repro.serving.protocol import decision_to_dict

    service = ClassificationService.load(model)
    decisions = service.classify_bytes([(s.sample_id, s.data)
                                        for s in inputs.held_out])
    out = {}
    for decision in decisions:
        record = decision_to_dict(decision)
        out[record.pop("sample_id")] = record
    return out


def check_decisions(results, reference: dict) -> list[str]:
    """Served decisions that differ from the in-process ones."""

    mismatches = []
    for result in results:
        if not result.ok or result.request.path != "/classify":
            continue
        for sid, served in zip(result.request.ids,
                               result.payload["decisions"]):
            expected = reference[sid.split("#", 1)[0]]
            got = {k: served.get(k) for k in expected}
            if got != expected:
                mismatches.append(f"{sid}: served {got}, in-process "
                                  f"{expected}")
    return mismatches


# ------------------------------------------------------------- one phase
@dataclass
class Phase:
    """One server's traffic: what the client saw, and the server's state."""

    results: list
    setup_s: list[float]
    peak_rss_mb: float
    traces: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def serve_phase(root: Path, workdir: Path, model: Path, plan: Plan,
                seconds: float, *, spawns: int, trace: bool) -> Phase:
    """Start the server ``spawns`` times, then drive the last one."""

    setups = []
    server = None
    try:
        for _ in range(spawns):
            if server is not None:
                server.stop()
            server = Server(root, model, trace=trace)
            setups.append(server.setup_s)
        results = drive(server.port, plan.streams(seconds))
        traces, metrics = [], {}
        if trace:
            traces = server.get("/debug/trace?limit=-1")[1]["recent"]
            metrics = server.get("/metrics")[1]
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    return Phase(results, setups, rss, traces, metrics)


# ---------------------------------------------------------------- metrics
def failure_causes(results) -> dict:
    causes: dict[str, int] = {}
    for result in results:
        if result.cause is not None:
            causes[result.cause] = causes.get(result.cause, 0) + 1
    return causes


def classify_latencies_ms(results) -> list[float]:
    """Classify latencies; a failed request is an infinite miss."""

    return [r.latency * 1e3 if r.ok else float("inf") for r in results
            if r.request.path == "/classify"]


def _finite(value: float) -> float:
    from .loadgen import REQUEST_TIMEOUT_S

    return value if value != float("inf") else REQUEST_TIMEOUT_S * 1e3


def mean_ms(latencies: list[float]) -> float:
    """Mean latency; a failed request counts as the client's timeout."""

    return sum(_finite(v) for v in latencies) / len(latencies)


def lateness_ms(results) -> list[float]:
    return [r.lateness * 1e3 for r in results if r.due is not None]


def items_per_s(phase: Phase) -> float:
    done = [r for r in phase.results if r.ok]
    if not done:
        return 0.0
    origin = min(r.picked for r in phase.results)
    return sum(r.request.items for r in done) / (
        max(r.done for r in done) - origin)


@dataclass
class Outcome:
    """Everything a run reports."""

    metrics: dict
    attempted: int
    failed: int
    notes: list[str]


def run(root: Path, workdir: Path, name: str, seed: int, seconds: float,
        trace: bool, scale: str = "medium") -> Outcome:
    clock = _Clock()
    inputs = generate(seed, scale, workdir.parent)
    plan = make_plan(name, inputs, seed, seconds)
    clock.lap("inputs")
    model = workdir / "model.rpm"
    tree = inputs.materialize_tree(workdir / "tree")
    train_s, train_rss = run_train(root, tree, model, seed)
    shutil.rmtree(tree)
    clock.lap("train")
    layer_metrics = {}
    if trace:
        layer_metrics = layers.training_split(inputs.train, seed)
        clock.lap("training split")
    notes = [f"inputs: {len(inputs.train)} training / "
             f"{len(inputs.held_out)} held-out executables, "
             f"{len(inputs.trained_classes)} trained classes",
             f"stamp: {json.dumps(stamp(root, seed, model), sort_keys=True)}"]

    if trace:
        half = seconds / 2.0
        phases = [serve_phase(root, workdir, model, plan, half, spawns=1,
                              trace=False),
                  serve_phase(root, workdir, model, plan, half, spawns=1,
                              trace=True)]
    else:
        phases = [serve_phase(root, workdir, model, plan, seconds,
                              spawns=SETUP_SPAWNS, trace=False)]
    clock.lap("serve")

    reference = reference_decisions(model, inputs)
    clock.lap("reference")
    results = [r for phase in phases for r in phase.results]
    attempted = len(results)
    failed = sum(1 for r in results if not r.ok)
    notes.append(f"requests: sent {attempted}, succeeded "
                 f"{attempted - failed}, failed {failed} "
                 f"{json.dumps(failure_causes(results), sort_keys=True)}")
    _gate(phases, reference)
    late = [v for phase in phases for v in lateness_ms(phase.results)]
    if late:
        summary = (f"p99 {percentile(late, 99.0):.3f} ms, max "
                   f"{max(late):.3f} ms, "
                   f"{sum(1 for v in late if v > LATENESS_BOUND_MS)} of "
                   f"{len(late)} later than {LATENESS_BOUND_MS:g} ms")
        notes.append(f"open-loop generator lateness: {summary}")
        if fell_behind(late, LATENESS_BOUND_MS):
            raise RunInvalid(f"generator fell behind its schedule: {summary}")
    for phase in phases if not trace else ():
        n = len(classify_latencies_ms(phase.results))
        if not tail_percentile_ok(n):
            notes.append(f"warning: {n} classify samples do not support "
                         f"p{TAIL_PERCENTILE:g} (need 10 beyond it)")

    if trace:
        metrics = {**layer_metrics,
                   **_layer_metrics(plan, phases, model, workdir)}
        clock.lap("layers")
    else:
        phase = phases[0]
        latencies = classify_latencies_ms(phase.results)
        held_out = inputs.held_out
        metrics = {
            "setup_s": median(phase.setup_s),
            "train_s": train_s,
            "classify_mean_ms": mean_ms(latencies),
            "classify_p90_ms": _finite(percentile(latencies,
                                                   TAIL_PERCENTILE)),
            "items_per_s": items_per_s(phase),
            "macro_f1": macro_f1(
                [inputs.truth(s) for s in held_out],
                [reference[s.sample_id]["predicted_class"]
                 for s in held_out]),
            "success_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": phase.peak_rss_mb,
            "train_peak_rss_mb": train_rss,
        }
    notes.append(f"run time by step (s): {clock}")
    return Outcome(metrics, attempted, failed, notes)


class _Clock:
    """Wall time of a run's steps, for the report."""

    def __init__(self) -> None:
        import time

        self._now = time.perf_counter
        self._last = self._now()
        self.laps: dict[str, float] = {}

    def lap(self, name: str) -> None:
        now = self._now()
        self.laps[name] = now - self._last
        self._last = now

    def __str__(self) -> str:
        return ", ".join(f"{k} {v:.1f}" for k, v in self.laps.items())


def _gate(phases: list[Phase], reference: dict) -> None:
    for phase in phases:
        mismatches = check_decisions(phase.results, reference)
        if mismatches:
            raise RunInvalid(
                f"{len(mismatches)} served decisions differ from "
                "in-process classify_bytes, e.g. " + mismatches[0])


def _layer_metrics(plan: Plan, phases: list[Phase], model: Path,
                   workdir: Path) -> dict:
    from repro.api.service import ClassificationService

    untraced, traced = phases
    metrics = layers.serving_split(traced.results, traced.traces,
                                   traced.metrics)
    metrics["serving.trace_overhead_ms"] = (
        mean_ms(classify_latencies_ms(traced.results))
        - mean_ms(classify_latencies_ms(untraced.results)))
    samples, batch = plan.layer_batch()
    metrics.update(layers.classify_path(ClassificationService.load(model),
                                        samples, batch))
    metrics.update(layers.artifact_io(model, workdir))
    metrics.update(layers.ingest_path(model, plan.layer_ingest_items(),
                                      INGEST_BATCH))
    return metrics


def stamp(root: Path, seed: int, model: Path) -> dict:
    """What the numbers depend on, so unlike runs are never compared."""

    import platform
    import subprocess

    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "seed": seed, "artifact_sha256": file_sha256(model)}
