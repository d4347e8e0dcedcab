"""Old files re-save to the bytes recorded before their upgrade steps
moved into :mod:`repro.upgrade`, and each of their entries is keyed
once.

``data/legacy_resaves/expected.json`` holds, for five fixtures written
by older builds, the SHA-256 of the file an eager load re-saved at the
last revision with per-version load branches
(``data/legacy_resaves/make_fixtures.py`` documents how).
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.index.core
from repro.api.artifact import load_model, save_model
from repro.index import load_index
from repro.index.postings import ArrayPostings

DATA = Path(__file__).resolve().parent / "data"
EXPECTED = json.loads((DATA / "legacy_resaves" / "expected.json")
                      .read_text(encoding="utf-8"))


def _resave(fixture: str, target: Path, mmap_mode) -> Path:
    source = DATA / fixture
    if source.suffix == ".rpm":
        return save_model(load_model(source, mmap_mode=mmap_mode), target)
    return load_index(source, mmap_mode=mmap_mode).save(target)


@pytest.mark.parametrize("mmap_mode", [None, "r"])
@pytest.mark.parametrize("fixture", sorted(EXPECTED))
def test_resave_matches_the_recorded_bytes(fixture, mmap_mode, tmp_path):
    resaved = _resave(fixture, tmp_path / "resaved", mmap_mode)
    assert hashlib.sha256(resaved.read_bytes()).hexdigest() == \
        EXPECTED[fixture]


@pytest.mark.parametrize("mmap_mode", [None, "r"])
@pytest.mark.parametrize("fixture, kept", [
    ("legacy_sharded/corpus.rpsd", 36),
    ("legacy_sharded/model.rpm", 28),
])
def test_sharded_layouts_key_each_surviving_entry_once(
        fixture, kept, mmap_mode, monkeypatch):
    """A sharded layout is keyed once, over the entries that survive its
    tombstones: no shard is restored as an index of its own."""

    keyed = []
    key_entries = getattr(repro.index.core, "key_entries", None)
    add_entry = ArrayPostings.add_entry

    def counting_key_entries(signatures, entry_block, entry_sig):
        keyed.append(len(entry_sig))
        return key_entries(signatures, entry_block, entry_sig)

    def counting_add_entry(self, *entry):
        keyed.append(1)
        return add_entry(self, *entry)

    # Entries are keyed in bulk (key_entries) or one at a time
    # (add_entry); both count.
    monkeypatch.setattr(repro.index.core, "key_entries",
                        counting_key_entries, raising=False)
    monkeypatch.setattr(ArrayPostings, "add_entry", counting_add_entry)
    source = DATA / fixture
    if source.suffix == ".rpm":
        index = load_model(source, mmap_mode=mmap_mode).builder_.index_
    else:
        index = load_index(source, mmap_mode=mmap_mode)
    assert sum(keyed) == kept
    assert index.stats()["families"]["ctph"]["entries"] == kept
