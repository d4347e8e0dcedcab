"""Tests for the command-line interface."""

import hashlib
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("generate", "experiment", "classify", "serve", "info"):
        assert command in text


def test_serve_parser_defaults_and_required_model():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["serve"])               # --model is required
    args = parser.parse_args(["serve", "--model", "m.rpm", "--port", "0",
                              "--decision-log", "d.jsonl"])
    assert args.model == "m.rpm"
    assert args.port == 0
    assert args.workers == 2
    assert args.queue_depth == 256
    assert args.reload_interval == pytest.approx(2.0)
    assert args.decision_log == "d.jsonl"


def test_info_command(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "Fuzzy Hash Classifier" in out
    assert "numpy" in out


def test_generate_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "small")
    target = tmp_path / "tree"
    assert main(["generate", str(target), "--scale", "small", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "samples" in out
    assert target.is_dir()
    # The layout is <Class>/<version>/<executable>.
    class_dirs = [p for p in target.iterdir() if p.is_dir()]
    assert class_dirs
    version_dirs = [p for p in class_dirs[0].iterdir() if p.is_dir()]
    assert len(version_dirs) >= 3


def test_missing_command_exits_with_error():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command_exits_with_error():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


# ------------------------------------------------ documented command lines
def _documented_commands(path, prefix):
    """argv of every ``prefix ...`` line in ``path``, with ``\\``
    continuations joined, ``# ...`` comments and a trailing ``&``
    dropped."""

    commands, pending = [], ""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        line, pending = (pending + line).strip(), ""
        if line.startswith(prefix):
            argv = shlex.split(line[len(prefix):], comments=True)
            if argv and argv[-1] == "&":
                argv.pop()
            commands.append(argv)
    return commands


def test_documented_command_lines_parse():
    parser = build_parser()
    documented = {
        "README.md": _documented_commands(REPO / "README.md",
                                          "$ repro-classify "),
        "verify SKILL.md": _documented_commands(
            REPO / ".claude" / "skills" / "verify" / "SKILL.md",
            "python -m repro.cli "),
    }
    failures = []
    for source, commands in documented.items():
        assert commands, f"no command lines found in {source}"
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                failures.append(f"{source}: {shlex.join(argv)}")
    assert not failures, "documented command lines that no longer parse:\n" \
        + "\n".join(failures)


# ------------------------------------------------------- --jobs N, end to end
@pytest.fixture(scope="module")
def small_tree(tmp_path_factory):
    from repro.config import default_config
    from repro.corpus.builder import CorpusBuilder

    tree = tmp_path_factory.mktemp("jobs") / "tree"
    CorpusBuilder(config=default_config("small", seed=5)).materialize_tree(
        tree)
    return tree


@pytest.mark.parametrize("command", ["train", "index build", "classify"])
def test_global_jobs_reaches_training_extraction(command, small_tree,
                                                 tmp_path, monkeypatch,
                                                 capsys):
    import repro.features.pipeline as pipeline_module

    real_map = pipeline_module.parallel_map
    seen = []

    def spy(func, items, **kwargs):
        seen.append(kwargs.get("n_jobs"))
        return real_map(func, items, **kwargs)

    monkeypatch.setattr(pipeline_module, "parallel_map", spy)
    argv = {
        "train": ["train", str(small_tree), "--estimators", "5",
                  "-o", str(tmp_path / "m.rpm")],
        "index build": ["index", "build", str(small_tree),
                        "-o", str(tmp_path / "i.rpsi")],
        "classify": ["classify", str(small_tree),
                     str(next(small_tree.iterdir())), "--estimators", "5"],
    }[command]
    assert main(["--jobs", "2", *argv]) == 0
    assert seen and seen[0] == 2        # the first extraction is training's


def test_artifact_bytes_do_not_depend_on_jobs(small_tree, tmp_path, capsys):
    digests = []
    for jobs in ("1", "2"):
        out = tmp_path / f"model-{jobs}.rpm"
        assert main(["--jobs", jobs, "train", str(small_tree), "--seed", "3",
                     "--estimators", "30", "-o", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_serve_does_not_forward_jobs_to_the_services(monkeypatch, tmp_path):
    # A threaded server would fork an extraction pool per large batch;
    # --score-workers is serve's multi-process path.
    import repro.serving
    from repro.exceptions import ServingError

    seen = {}

    class RecordingManager:
        def __init__(self, model_path, **kwargs):
            seen.update(kwargs)
            raise ServingError("recorded")

    monkeypatch.setattr(repro.serving, "ModelManager", RecordingManager)
    assert main(["--jobs", "2", "serve", "--model", str(tmp_path / "m.rpm"),
                 "--port", "0"]) == 2
    assert seen, "serve never reached ModelManager"
    assert "executor" not in seen
    assert seen.get("n_jobs", 1) == 1
