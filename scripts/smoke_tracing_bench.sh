#!/bin/sh
# Perf-regression smoke for the tracing layer: runs the
# tracing-on-vs-off benchmark at 384 requests per round, 10 alternating
# rounds per mode, and fails (non-zero exit) when served decisions
# diverge, traces stop covering the canonical stages, a stage sum
# exceeds its wall time, or tracing costs more than the overhead
# ceiling.  Tier-1 runs the same checks, with a loose ceiling, via
# tests/test_tracing_bench_smoke.py; the 5% acceptance ceiling is the
# benchmark's default (later flags win, so callers can override via
# "$@").  At --quick's 48 requests and 2 rounds a round lasts ~0.1 s
# and its time swings ~25% with how the coalesced batches form, which
# a 5% ceiling cannot see through.
set -eu
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python "$repo_root/benchmarks/bench_tracing.py" \
    --requests 384 --repeats 10 "$@"
