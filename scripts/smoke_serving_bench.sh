#!/bin/sh
# Quick perf-regression smoke for the serving tier: runs the
# coalesced-vs-sequential benchmark in its small configuration and
# fails (non-zero exit) when served decisions diverge from direct
# classify_bytes or coalescing stops sharing model passes: the
# sequential run must make at least --min-pass-ratio times the
# coalesced run's passes (each drained batch is one pass).  The
# wall-clock throughput ratio is printed but not gated.  Tier-1 runs
# the same checks via tests/test_serving_bench_smoke.py; the full 2x
# floor at 16 clients is the benchmark's default (no --quick).
set -eu
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
# The smoke floor at the quick size (later flags win, so callers can
# override via "$@").
PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python "$repo_root/benchmarks/bench_serving.py" --quick \
    --min-pass-ratio 1.3 "$@"
