"""``scripts/bench_record.py`` on canned perfbench outputs (no benchmark
runs): pairing, summaries, the pairs won, appending, and refusals."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_record", module)
    spec.loader.exec_module(module)
    return module


def run_output(workload, seed, peak_rss, macro_f1=0.95, nproc=2):
    """What ``perfbench/run.py`` prints for one run."""

    metrics = {"peak_rss_mb": {"value": peak_rss, "unit": "MiB"},
               "macro_f1": {"value": macro_f1, "unit": "ratio"}}
    stamp = {"nproc": nproc, "seed": seed, "git_commit": None}
    return "\n".join([
        f"perfbench {workload} seed={seed} seconds=20 trace=0",
        "inputs: 669 training / 659 held-out executables, 74 trained classes",
        f"stamp: {json.dumps(stamp, sort_keys=True)}",
        f"peak_rss_mb {peak_rss:>14.6g} MiB",
        json.dumps({"correct": True, "attempted": 360, "failed": 0,
                    "metrics": metrics}),
    ]) + "\n"


def write_runs(tmp_path, side, runs):
    paths = []
    for workload, seed, *values in runs:
        path = tmp_path / f"{side}-{workload}-{seed}.txt"
        path.write_text(run_output(workload, seed, *values), encoding="utf-8")
        paths.append(str(path))
    return paths


def argv(tmp_path, parent, change, label="first"):
    return ["--label", label, "--parent-commit", "aaa", "--change-commit",
            "bbb", "--probe-ms", "113", "131", "--out",
            str(tmp_path / "BENCH_perfbench.json"),
            "--parent", *parent, "--change", *change]


def test_pairs_runs_and_appends_one_entry(record, tmp_path):
    parent = write_runs(tmp_path, "parent", [
        ("classify-unique", 1, 75.0), ("classify-unique", 2, 73.0),
        ("classify-unique", 3, 74.0), ("classify-repeat", 1, 77.0)])
    change = write_runs(tmp_path, "change", [
        ("classify-unique", 3, 52.0), ("classify-unique", 1, 52.5),
        ("classify-unique", 2, 73.5), ("classify-repeat", 1, 56.0)])
    assert record.main(argv(tmp_path, parent, change)) == 0
    out = tmp_path / "BENCH_perfbench.json"
    (entry,) = json.loads(out.read_text(encoding="utf-8"))
    assert {key: entry[key] for key in ("label", "parent_commit",
                                        "change_commit", "nproc",
                                        "probe_ms")} == \
        {"label": "first", "parent_commit": "aaa", "change_commit": "bbb",
         "nproc": 2, "probe_ms": [113.0, 131.0]}
    unique = entry["workloads"]["classify-unique"]
    assert unique["seeds"] == [1, 2, 3]
    rss = unique["metrics"]["peak_rss_mb"]
    assert rss["parent"] == {"median": 74.0, "q1": 73.5, "q3": 74.5, "runs": 3}
    assert rss["change"]["median"] == 52.5 and rss["change"]["runs"] == 3
    # Lower is better for memory; seed 2's change used more.
    assert (rss["better"], rss["change_won"]) == ("lower", 2)
    # An equal metric is not a win.
    assert unique["metrics"]["macro_f1"]["change_won"] == 0
    repeat = entry["workloads"]["classify-repeat"]["metrics"]["peak_rss_mb"]
    assert repeat["parent"] == {"median": 77.0, "q1": 77.0, "q3": 77.0,
                                "runs": 1}

    # A second entry leaves the first one's text as it was.
    before = out.read_text(encoding="utf-8")
    assert record.main(argv(tmp_path, parent[:1], change[1:2],
                            label="second")) == 0
    after = out.read_text(encoding="utf-8")
    entries = json.loads(after)
    assert [e["label"] for e in entries] == ["first", "second"]
    assert entries[0] == entry
    assert after.startswith(before.rstrip().rstrip("]").rstrip())


@pytest.mark.parametrize("last_line", [
    "error: run invalid: decisions differ",
    '{"correct": false, "metrics": {}}',
    '{"attempted": 3}',
])
def test_refuses_a_file_whose_last_line_is_not_a_result(record, tmp_path,
                                                        last_line, capsys):
    parent = write_runs(tmp_path, "parent", [("classify-unique", 1, 75.0)])
    change = write_runs(tmp_path, "change", [("classify-unique", 1, 52.0)])
    with open(change[0], "a", encoding="utf-8") as handle:
        handle.write(last_line + "\n")
    assert record.main(argv(tmp_path, parent, change)) == 2
    assert "not a perfbench result" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_perfbench.json").exists()


def test_refuses_unpaired_and_mixed_runs(record, tmp_path, capsys):
    parent = write_runs(tmp_path, "parent", [("classify-unique", 1, 75.0),
                                             ("classify-unique", 2, 74.0)])
    change = write_runs(tmp_path, "change", [("classify-unique", 1, 52.0)])
    assert record.main(argv(tmp_path, parent, change)) == 2
    assert "without a pair" in capsys.readouterr().err
    (tmp_path / "other").mkdir()
    other = write_runs(tmp_path / "other", "change",
                       [("classify-unique", 1, 52.0, 0.95, 4)])
    assert record.main(argv(tmp_path, parent[:1], other)) == 2
    assert "nproc" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_perfbench.json").exists()
