"""Regenerate ``expected.json``: what each old fixture re-saves to.

Every old file layout loads by upgrading its ``(header, arrays)`` to
the current layout first (:mod:`repro.upgrade`).  These digests pin
that upgrade to the bytes the code before it wrote: the per-version
load branches in ``SimilarityIndex.from_state``,
``RandomForestClassifier.set_state`` and ``repro.index.legacy``.  So
this script only runs against a checkout of the last revision with
those branches (git commit ``36f1935``)::

    mkdir before-upgrade && git archive 36f1935 | tar -x -C before-upgrade
    PYTHONPATH=before-upgrade/src python tests/data/legacy_resaves/make_fixtures.py

A re-run writes identical bytes.  It writes ``expected.json`` next to
itself: for each fixture (a path under ``tests/data``), the SHA-256 of
the file an eager load re-saves.  An index re-saves through
``SimilarityIndex.save``, a model through ``save_model``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from repro.api.artifact import load_model, save_model
from repro.index import load_index

HERE = Path(__file__).resolve().parent
DATA = HERE.parent

#: The fixtures whose re-saves are pinned.
FIXTURES = (
    "legacy_sharded/corpus.rpsd",
    "legacy_sharded/model.rpm",
    "hashed_postings/corpus.rpsi",
    "hashed_postings/model.rpm",
    "dense_forest/model.rpm",
)


def resave(fixture: str, out_dir: Path, *, mmap_mode: str | None = None
           ) -> Path:
    """Load ``fixture`` (a path under ``tests/data``) and save it again
    under ``out_dir``; returns the new file."""

    source = DATA / fixture
    target = out_dir / fixture.replace("/", "-")
    if source.suffix == ".rpm":
        return save_model(load_model(source, mmap_mode=mmap_mode), target)
    return load_index(source, mmap_mode=mmap_mode).save(target)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        expected = {fixture: sha256(resave(fixture, Path(tmp)))
                    for fixture in FIXTURES}
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
