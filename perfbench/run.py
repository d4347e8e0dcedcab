"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload classify-unique --seed 1 \\
        --seconds 20 --trace 0

Inputs come from ``--seed`` alone.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it reports the per-layer
split instead (see ``perfbench/layers.py``).  The report goes to
standard output, one metric a line with its unit, and the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The exit code is 0 on success, 1 when the correctness gate fails or
the load generator fell behind its schedule (no result is printed then),
and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="medium",
                        choices=("small", "medium"),
                        help="corpus preset (small is for smoke tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The corpus generator's output depends on string-hash order,
        # so the same seed gives the same inputs only under a fixed
        # hash seed; the children inherit it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    try:
        outcome = workloads.run(ROOT, workdir, args.workload, args.seed,
                                args.seconds, bool(args.trace), args.scale)
    except workloads.RunInvalid as exc:
        print(f"error: run invalid: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for note in outcome.notes:
        print(note)
    units = {name: spec[0] for name, spec in
             {**workloads.E2E_METRICS, **layers.LAYER_METRICS}.items()}
    metrics = {}
    for name, value in outcome.metrics.items():
        unit = units[name]
        metrics[name] = {"value": value, "unit": unit}
        tag = ""
        if name in layers.LAYER_METRICS:
            _, _, target, workload = layers.LAYER_METRICS[name]
            tag = (f"  -> {target} on {workload}" if target
                   else "  (no workload ingests)")
        print(f"{name:<34} {value:>14.6g} {unit}{tag}")
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
