"""Tests for the index CLI on legacy sharded directories, the streaming
``classify --jsonl`` path and the global ``--jobs`` option.

``index query`` and ``index stats`` read a legacy sharded directory as
one index over its survivors; ``index merge OLD.rpsd -o NEW.rpsi`` is
the one-line migration to a single file."""

import json

import pytest

from repro.cli import build_parser, main
from repro.index import SimilarityIndex

from legacy_fixtures import LEGACY_DIR, assert_answers_as_recorded, expected
from test_index_core import make_corpus

FT = "ssdeep-file"


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(30, seed=13)


def test_parser_lists_new_subcommands_and_flags():
    parser = build_parser()
    text = parser.format_help()
    assert "--jobs" in text and "--executor" not in text
    assert parser.parse_args(["--jobs", "2", "info"]).global_jobs == 2
    with pytest.raises(SystemExit):
        parser.parse_args(["--executor", "process:2", "info"])
    args = parser.parse_args(["index", "merge", "x", "-o", "y"])
    assert (args.index_command, args.source, args.output) == \
        ("merge", "x", "y")
    with pytest.raises(SystemExit):
        parser.parse_args(["index", "compact", "x"])
    for argv in (["index", "build", "x", "-o", "y", "--shards", "2"],
                 ["serve", "--model", "m.rpm", "--ingest-shards", "2"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_index_stats_human_readable_on_sharded(capsys):
    assert main(["index", "stats", str(LEGACY_DIR)]) == 0
    out = capsys.readouterr().out
    survivors = len(expected()["directory"]["survivor_ids"])
    assert out.startswith(f"members: {survivors} ")
    assert "ssdeep-file" in out and "vector-file" in out


def test_index_stats_json_on_single_file(tmp_path, corpus, capsys):
    single = SimilarityIndex([FT])
    single.add_many(corpus)
    path = single.save(tmp_path / "single.rpsi")
    assert main(["index", "stats", str(path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["members"] == len(corpus)
    assert stats["tombstones"] == 0
    assert "shards" not in stats


def test_index_query_works_on_sharded_directory(capsys):
    member = expected()["directory"]["members"][4]
    assert main(["index", "query", str(LEGACY_DIR), member[1][FT],
                 "--digest", "-k", "5"]) == 0
    out = capsys.readouterr().out
    assert member[0] in out and "100" in out


def test_index_merge_sharded_to_single_and_back(tmp_path, capsys):
    """``index merge`` rewrites a sharded directory as one file, which
    loads back answering exactly as the sharded code recorded."""

    single_path = tmp_path / "merged.rpsi"
    assert main(["index", "merge", str(LEGACY_DIR), "-o",
                 str(single_path)]) == 0
    survivors = len(expected()["directory"]["survivor_ids"])
    assert f"merged {survivors} members" in capsys.readouterr().out
    for mmap_mode in (None, "r"):
        assert_answers_as_recorded(
            SimilarityIndex.load(single_path, mmap_mode=mmap_mode))


def test_library_error_with_global_jobs_exits_two(tmp_path, capsys):
    # Neither a software tree nor a features file: a library error.
    code = main(["--jobs", "2", "index", "build",
                 str(tmp_path / "missing"), "-o", str(tmp_path / "x.rpsi")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "Traceback" not in captured.err


# --------------------------------------------------------------- --jsonl
@pytest.fixture(scope="module")
def tiny_tree(tmp_path_factory):
    from repro.config import default_config
    from repro.corpus.builder import CorpusBuilder

    tree = tmp_path_factory.mktemp("tree") / "software"
    CorpusBuilder(config=default_config("small", seed=9)).materialize_tree(
        tree)
    return str(tree)


def test_classify_jsonl_streams_one_decision_per_line(tiny_tree, capsys):
    assert main(["classify", tiny_tree, tiny_tree, "--estimators", "10",
                 "--seed", "1", "--jsonl"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert lines, "expected at least one JSONL decision"
    for line in lines:
        decision = json.loads(line)
        assert {"sample_id", "predicted_class", "confidence",
                "decision"} == set(decision)
        assert 0.0 <= decision["confidence"] <= 1.0
