"""Tests for the ``repro-classify index`` sub-commands, in particular
the operator-facing error paths: a missing or corrupt index file must
exit non-zero with a one-line message, never a traceback."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.hashing.ssdeep import fuzzy_hash
from repro.index import SimilarityIndex

from test_index_core import make_corpus


@pytest.fixture(scope="module")
def index_file(tmp_path_factory):
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(make_corpus(40, seed=5))
    return str(index.save(tmp_path_factory.mktemp("idx") / "corpus.rpsi"))


def test_parser_lists_index_subcommands():
    text = build_parser().format_help()
    assert "index" in text


def test_index_stats_command(index_file, capsys):
    assert main(["index", "stats", index_file]) == 0
    out = capsys.readouterr().out
    assert "members: 40" in out
    assert "ssdeep-file" in out
    assert "postings" in out


def test_index_query_with_digest(index_file, capsys):
    corpus = make_corpus(40, seed=5)
    digest = corpus[3][1]["ssdeep-file"]
    assert main(["index", "query", index_file, digest, "--digest", "-k", "5"]) == 0
    out = capsys.readouterr().out
    assert "s0003" in out          # the member itself scores 100
    assert "100" in out
    assert "fam3" in out


def test_index_query_no_matches(index_file, capsys):
    lonely = fuzzy_hash(bytes(range(256)) * 40)
    assert main(["index", "query", index_file, lonely, "--digest",
                 "--min-score", "95"]) == 0
    assert "no matches" in capsys.readouterr().out


def test_index_build_from_features_json(tmp_path, capsys):
    from repro.features.records import SampleFeatures, features_to_json

    corpus = make_corpus(10, seed=9)
    records = [SampleFeatures(sample_id=sid, class_name=cls, version="1",
                              executable=sid, digests=digests)
               for sid, digests, cls in corpus]
    source = tmp_path / "features.json"
    source.write_text(features_to_json(records), encoding="utf-8")
    out_file = tmp_path / "built.rpsi"
    assert main(["index", "build", str(source), "-o", str(out_file),
                 "--types", "ssdeep-file"]) == 0
    assert "indexed 10 samples" in capsys.readouterr().out
    assert SimilarityIndex.load(out_file).n_members == 10


# -------------------------------------------------------------- error paths
def test_query_missing_index_exits_nonzero(tmp_path, capsys):
    missing = str(tmp_path / "missing.rpsi")
    code = main(["index", "query", missing, "3:abcdefgh:ijkl", "--digest"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "does not exist" in captured.err
    assert "Traceback" not in captured.err


def test_query_corrupt_index_exits_nonzero(tmp_path, capsys):
    corrupt = tmp_path / "corrupt.rpsi"
    corrupt.write_bytes(b"\x00\x01garbage" * 64)
    code = main(["index", "query", str(corrupt), "3:abcdefgh:ijkl", "--digest"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "Traceback" not in captured.err


def test_stats_truncated_index_exits_nonzero(index_file, tmp_path, capsys):
    from pathlib import Path

    truncated = tmp_path / "truncated.rpsi"
    truncated.write_bytes(Path(index_file).read_bytes()[:-30])
    code = main(["index", "stats", str(truncated)])
    captured = capsys.readouterr()
    assert code == 2
    assert "truncated" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_query_and_ingest_refuse_a_device_within_a_memory_limit(index_file):
    # /dev/zero reports size 0 and never ends.  Run the CLI under a
    # 768 MiB address-space limit, in a child, so a reader that keeps
    # reading dies of MemoryError there instead of growing this process.
    # The ingest read fails before any connection is attempted.
    script = (
        "import resource\n"
        "import repro.features.extractors, repro.index\n"
        "from repro.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))\n"
        f"print(main(['index', 'query', {index_file!r}, '/dev/zero']))\n"
        "print(main(['ingest', '--server', 'http://127.0.0.1:9', "
        "'--class', 'c', '/dev/zero']))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["2", "2"]
    errors = done.stderr.splitlines()
    assert len(errors) == 2
    assert all(line.startswith("error: ") and "not a regular file" in line
               for line in errors), errors


def test_query_invalid_digest_exits_nonzero(index_file, capsys):
    code = main(["index", "query", index_file, "definitely-not-a-digest",
                 "--digest"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


@pytest.mark.parametrize("digest", [f"{3 << 70}:ABCDEFGHIJ:KLMNOPQRS",
                                    "5:ABCDEFGHIJ:KLMNOPQRS"])
def test_query_with_a_non_canonical_block_size_exits_2(
        index_file, digest, capsys):
    """A block size outside ``3 * 2**k`` below ``2**62`` is a digest
    format error: one ``error:`` line and exit 2, never a traceback."""

    code = main(["index", "query", index_file, digest, "--digest"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert "block size" in captured.err


def test_build_from_nonexistent_source_exits_nonzero(tmp_path, capsys):
    code = main(["index", "build", str(tmp_path / "nothing"),
                 "-o", str(tmp_path / "out.rpsi")])
    captured = capsys.readouterr()
    assert code == 2
    assert "neither a software tree" in captured.err


def test_build_from_binary_source_exits_nonzero(tmp_path, capsys):
    """Passing a non-JSON file (e.g. an index by mistake) must give a
    one-line error, not a UnicodeDecodeError traceback."""

    source = tmp_path / "binary.rpsi"
    source.write_bytes(bytes(range(256)) * 8)
    code = main(["index", "build", str(source),
                 "-o", str(tmp_path / "out.rpsi")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "Traceback" not in captured.err


def test_build_rejects_types_absent_from_source(tmp_path, capsys):
    """--types naming a feature absent from every record must fail loudly
    instead of silently building a dead index."""

    from repro.features.records import SampleFeatures, features_to_json

    corpus = make_corpus(5, seed=3)       # ssdeep-file digests only
    records = [SampleFeatures(sample_id=sid, class_name=cls, version="1",
                              executable=sid, digests=digests)
               for sid, digests, cls in corpus]
    source = tmp_path / "features.json"
    source.write_text(features_to_json(records), encoding="utf-8")
    code = main(["index", "build", str(source),
                 "-o", str(tmp_path / "out.rpsi"),
                 "--types", "ssdeep-strings"])
    captured = capsys.readouterr()
    assert code == 2
    assert "ssdeep-strings" in captured.err
    assert "available" in captured.err


def test_classifier_rejects_index_missing_training_classes():
    from repro.core.classifier import FuzzyHashClassifier
    from repro.exceptions import ValidationError
    from repro.features.records import SampleFeatures

    corpus = make_corpus(20, seed=13, n_families=4)
    records = [SampleFeatures(sample_id=sid, class_name=cls, version="1",
                              executable=sid, digests=digests)
               for sid, digests, cls in corpus]
    stale = SimilarityIndex(["ssdeep-file"])
    stale.add_many(r for r in records if r.class_name != "fam0")
    clf = FuzzyHashClassifier(feature_types=["ssdeep-file"], n_estimators=5,
                              random_state=0)
    with pytest.raises(ValidationError, match="fam0"):
        clf.fit(records, index=stale)
