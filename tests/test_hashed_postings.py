"""Files written with hashed posting keys (formats 2–4) load through the
re-keying path and answer as the hashed-key code recorded.

``data/hashed_postings`` holds a format-4 index file and a format-4
model artifact, written by the last revision with FNV-64 posting keys
(``data/hashed_postings/make_fixtures.py`` documents how), and
``expected.json`` with what that code answered.  Their index sections
carry ``post_blocks`` and ``post_grams``, so a load re-keys their
entries through ``ArrayPostings.add_entry``, eager and mapped alike.
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.api.artifact import MODEL_CONTAINER, load_model
from repro.api.service import ClassificationService
from repro.features.records import SampleFeatures
from repro.index import FORMAT_VERSION, SimilarityIndex
from repro.index.storage import read_container

from legacy_fixtures import rows

DATA = Path(__file__).resolve().parent / "data" / "hashed_postings"
INDEX_FILE = DATA / "corpus.rpsi"
MODEL_FILE = DATA / "model.rpm"
HASHED_ONLY = ("post_blocks", "post_grams")


@lru_cache(maxsize=1)
def expected() -> dict:
    return json.loads((DATA / "expected.json").read_text(encoding="utf-8"))


def fresh_index(members, feature_types) -> SimilarityIndex:
    index = SimilarityIndex(feature_types)
    for sample_id, digests, class_name in members:
        index.add(sample_id, digests, class_name=class_name)
    return index


def test_fixtures_were_written_with_hashed_keys():
    for header, arrays in (read_container(INDEX_FILE),
                           read_container(MODEL_FILE, fmt=MODEL_CONTAINER)):
        assert header["format_version"] == 4
        assert any(name.endswith(HASHED_ONLY) for name in arrays)


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_format4_index_answers_as_recorded(mmap_mode):
    recorded = expected()["index"]
    index = SimilarityIndex.load(INDEX_FILE, mmap_mode=mmap_mode)
    assert list(index.sample_ids) == [m[0] for m in recorded["members"]]
    for ft in index.feature_types:
        assert [rows(index.top_k(q[ft], 10, feature_type=ft, min_score=0))
                for q in recorded["queries"]] == recorded["top_k"][ft]
    members = recorded["members"]
    assert [rows(index.top_k_digests(q, 6, exclude_ids=[members[i][0]]))
            for i, q in enumerate(recorded["queries"][:len(members)])] == \
        recorded["top_k_digests"]
    assert [[p.i, p.j, p.score]
            for p in index.pairwise_matrix(max_pairs=60, min_score=0)] == \
        recorded["pairwise_max_pairs_60"]


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_resaved_format4_index_is_a_fresh_build(mmap_mode, tmp_path):
    """A re-save writes the current format without the hashed-key
    arrays, byte for byte what a fresh build over the members writes."""

    recorded = expected()["index"]
    resaved = SimilarityIndex.load(INDEX_FILE, mmap_mode=mmap_mode).save(
        tmp_path / "resaved.rpsi")
    fresh = fresh_index(recorded["members"], recorded["feature_types"]).save(
        tmp_path / "fresh.rpsi")
    header, arrays = read_container(resaved)
    assert header["format_version"] == FORMAT_VERSION == 5
    assert not any(name.endswith(HASHED_ONLY) for name in arrays)
    assert resaved.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("mmap", [False, True])
def test_format4_model_decides_as_recorded(mmap, tmp_path):
    recorded = expected()["model"]
    queries = [SampleFeatures(sample_id=sid, class_name="", version="",
                              executable=sid, digests=digests)
               for sid, digests in recorded["queries"]]
    loaded = ClassificationService.load(MODEL_FILE, mmap=mmap)
    assert [[d.sample_id, d.predicted_class, d.confidence, d.decision]
            for d in loaded.classify_features(queries)] == \
        recorded["decisions"]
    anchor = loaded.similarity_index
    assert [rows(anchor.top_k(digests["ssdeep-file"], 5, min_score=0))
            for _, digests in recorded["queries"]] == \
        recorded["anchor_top_k"]
    classifier = load_model(MODEL_FILE, mmap_mode="r" if mmap else None)
    assert list(classifier.predict(queries)) == \
        [d[1] for d in recorded["decisions"]]

    # Re-saved, the anchor index is a fresh build's, with exact keys.
    resaved = loaded.save(tmp_path / "resaved.rpm")
    header, arrays = read_container(resaved, fmt=MODEL_CONTAINER)
    assert header["format_version"] == 6
    _, fresh = fresh_index(recorded["members"], ["ssdeep-file"]).get_state()
    index_arrays = {name.split(".", 1)[1]: array
                    for name, array in arrays.items()
                    if name.startswith("index.")}
    assert index_arrays.keys() == fresh.keys()
    assert all(np.array_equal(index_arrays[name], fresh[name])
               for name in fresh)


def test_from_state_refuses_a_hashed_state_it_would_mis_key():
    """``from_state`` reads the current layout only: handed a format-4
    state directly, whose keys are hashes, it refuses instead of
    answering from postings no query key can match."""

    from repro.exceptions import IndexFormatError
    from repro.upgrade import upgrade_index

    header, arrays = read_container(INDEX_FILE)
    with pytest.raises(IndexFormatError, match="older layout"):
        SimilarityIndex.from_state(header, arrays, source="old state")
    upgraded = SimilarityIndex.from_state(*upgrade_index(header, arrays))
    assert upgraded.n_members == len(expected()["index"]["members"])


def test_mapped_format4_index_keeps_its_views():
    """Only the postings the upgrade builds are private: a mapped
    format-4 file's signature pool, entry columns and vector rows stay
    read-only views of the file."""

    index = SimilarityIndex.load(INDEX_FILE, mmap_mode="r")
    store = index._stores["ssdeep-file"]
    views = [*index._pool._packed, store.entry_member, store.entry_block,
             store.entry_sig, index._vstores["vector-file"].matrix]
    assert not any(array.flags.writeable for array in views)
    assert all(array.flags.writeable for array in store._sealed)
