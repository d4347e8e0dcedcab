"""Append one paired perfbench comparison to ``BENCH_perfbench.json``.

Each input file is the saved standard output of one
``python3 perfbench/run.py`` run.  The script reads its
``perfbench <workload> seed=<s> ...`` line, its ``stamp:`` line and its
last line, which must be perfbench's JSON result; runs of the two sides
pair up by (workload, seed).  The entry it appends holds the label, both
commits (given here: a ``git archive`` checkout stamps no commit), the
runs' nproc, the host-phase probe readings, and per workload and metric
each side's median, quartiles and run count, with the number of pairs
the change won.  Earlier entries are never rewritten.  Usage::

    python3 scripts/bench_record.py --label "leaf table" \\
        --parent-commit 988a6ea --change-commit HEAD --probe-ms 119 145 \\
        --parent out/parent-*.txt --change out/change-*.txt

It exits 2, writing nothing, on an input it cannot read as a result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RecordError(Exception):
    """An input file that is not a perfbench result."""


def read_run(path: Path) -> dict:
    """``{"workload", "seed", "stamp", "metrics"}`` of one saved run."""

    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line.strip()]
    try:
        result = json.loads(lines[-1])
        metrics = {name: float(metric["value"])
                   for name, metric in result["metrics"].items()}
        if result["correct"] is not True:
            raise ValueError("the run is not marked correct")
    except (IndexError, ValueError, TypeError, KeyError) as exc:
        raise RecordError(f"{path}: last line is not a perfbench result "
                          f"({exc})") from exc
    heading = [line.split() for line in lines if line.startswith("perfbench ")]
    stamps = [line for line in lines if line.startswith("stamp: ")]
    try:
        (_, workload, *fields), = heading
        stamp, = stamps
        return {"workload": workload,
                "seed": int(dict(f.split("=", 1) for f in fields)["seed"]),
                "stamp": json.loads(stamp[len("stamp: "):]),
                "metrics": metrics}
    except (ValueError, KeyError) as exc:
        raise RecordError(f"{path}: needs one 'perfbench <workload> "
                          f"seed=<s>' line and one 'stamp:' line ({exc})"
                          ) from exc


def summary(values: list[float]) -> dict:
    """Median, quartiles and count of one side's runs."""

    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def directions() -> dict:
    """``better`` ("lower"/"higher") of every metric ``BENCHMARK.json``
    declares."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Per workload and metric: both sides' summaries and the pairs the
    change won.  Every run must have its pair."""

    better = directions()
    sides = {"parent": {}, "change": {}}
    for side, runs in (("parent", parent), ("change", change)):
        for run in runs:
            key = (run["workload"], run["seed"])
            if key in sides[side]:
                raise RecordError(f"two {side} runs of {key[0]} seed {key[1]}")
            sides[side][key] = run["metrics"]
    unpaired = sides["parent"].keys() ^ sides["change"].keys()
    if unpaired:
        raise RecordError(f"runs without a pair: {sorted(unpaired)}")
    workloads = {}
    for workload in sorted({key[0] for key in sides["parent"]}):
        pairs = sorted(key for key in sides["parent"] if key[0] == workload)
        names = sorted(set.intersection(*(set(runs[key]) for runs in
                                          sides.values() for key in pairs)))
        metrics = {}
        for name in names:
            values = {side: [runs[key][name] for key in pairs]
                      for side, runs in sides.items()}
            entry = {side: summary(side_values)
                     for side, side_values in values.items()}
            if name in better:
                sign = 1.0 if better[name] == "higher" else -1.0
                entry["better"] = better[name]
                entry["change_won"] = sum(
                    sign * (new - old) > 0
                    for old, new in zip(values["parent"], values["change"]))
            metrics[name] = entry
        workloads[workload] = {"seeds": [key[1] for key in pairs],
                               "metrics": metrics}
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--probe-ms", type=float, nargs="+", required=True,
                        help="the host-phase probe's readings, in the order "
                             "taken (before, between and after the runs)")
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_perfbench.json")
    args = parser.parse_args(argv)
    try:
        parent = [read_run(path) for path in args.parent]
        change = [read_run(path) for path in args.change]
        nprocs = {run["stamp"].get("nproc") for run in parent + change}
        if len(nprocs) != 1:
            raise RecordError(f"the runs disagree on nproc: {nprocs}")
        workloads = compare(parent, change)
        entries = (json.loads(args.out.read_text(encoding="utf-8"))
                   if args.out.exists() else [])
        if not isinstance(entries, list):
            raise RecordError(f"{args.out} does not hold a list of entries")
    except (RecordError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries.append({"label": args.label, "parent_commit": args.parent_commit,
                    "change_commit": args.change_commit,
                    "nproc": nprocs.pop(), "probe_ms": args.probe_ms,
                    "workloads": workloads})
    args.out.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
