"""Tests for removing members and for the legacy sharded layouts.

``SimilarityIndex.remove`` tombstones members and every query answers
over the survivors, renumbered densely, exactly as a fresh index built
from them would (``test_index_tombstones.py`` holds the Hypothesis
property over random operation sequences).  Snapshots hold survivors
only, so a removal survives every persistence path.

Sharded index directories and ``"sharded": true`` snapshots written by
older builds load as one index over their survivors; the fixtures in
``data/legacy_sharded`` record what the sharded code answered, and the
directory's manifest error paths keep their messages.
"""

import json

import numpy as np
import pytest

from repro.exceptions import IndexFormatError
from repro.index import SimilarityIndex, load_index
from repro.index.legacy import load_sharded_directory

from legacy_fixtures import (
    LEGACY_DIR,
    assert_answers_as_recorded,
    copy_directory,
    directory_survivors,
    expected,
    fresh_directory_index,
)
from test_index_core import make_corpus

FT = "ssdeep-file"


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(90, seed=11)


@pytest.fixture(scope="module")
def legacy():
    return load_index(LEGACY_DIR)


@pytest.fixture(scope="module")
def fresh():
    return fresh_directory_index()


def build(corpus):
    index = SimilarityIndex([FT])
    index.add_many(corpus)
    return index


def _queries():
    return expected()["directory"]["queries"]


# ---------------------------------------- legacy directory == single index
@pytest.mark.parametrize("k", [1, 2, 5])
def test_top_k_matches_single_index(legacy, fresh, k):
    members = expected()["directory"]["members"]
    for i, query in enumerate(_queries()):
        for ft in legacy.feature_types:
            assert legacy.top_k(query[ft], k, feature_type=ft,
                                min_score=0) == \
                fresh.top_k(query[ft], k, feature_type=ft, min_score=0)
        if i < len(members):
            exclude = [members[i][0]]
            assert legacy.top_k_digests(query, k, exclude_ids=exclude) == \
                fresh.top_k_digests(query, k, exclude_ids=exclude)


def test_pairwise_matches_single_index_including_budget(legacy, fresh):
    assert legacy.pairwise_matrix() == fresh.pairwise_matrix()
    assert legacy.pairwise_matrix(max_pairs=40, min_score=0) == \
        fresh.pairwise_matrix(max_pairs=40, min_score=0)


def test_score_matrices_match_single_index(legacy, fresh):
    queries = {ft: [q[ft] for q in _queries()] for ft in legacy.feature_types}
    for ft, got in legacy.score_matrices(queries).items():
        assert np.array_equal(got, fresh.score_matrices(queries)[ft])
    exclude = [fresh.members_for_id(sample_id)
               for sample_id, _, _ in expected()["directory"]["members"]]
    exclude.append(frozenset())                  # the outsider query
    assert np.array_equal(
        legacy.score_matrices(queries, exclude=exclude)[FT],
        fresh.score_matrices(queries, exclude=exclude)[FT])


def test_save_load_round_trip():
    """The directory loads, eager and mapped, answering exactly what the
    sharded code that saved it recorded."""

    for mmap_mode in (None, "r"):
        index = load_index(LEGACY_DIR, mmap_mode=mmap_mode)
        assert index.n_tombstones == 0
        assert_answers_as_recorded(index)


def test_merge_to_single_and_back(tmp_path, legacy):
    """Saved as one file and loaded back, the directory's survivors keep
    answering as recorded."""

    path = legacy.save(tmp_path / "one.rpsi")
    for mmap_mode in (None, "r"):
        assert_answers_as_recorded(
            SimilarityIndex.load(path, mmap_mode=mmap_mode))


def test_load_index_dispatches_on_layout(tmp_path, legacy):
    single_path = legacy.save(tmp_path / "single.rpsi")
    for path in (LEGACY_DIR, single_path):
        loaded = load_index(path)
        assert isinstance(loaded, SimilarityIndex)
        assert loaded.sample_ids == legacy.sample_ids


def test_feature_builder_adopts_sharded_index(legacy):
    from repro.features.records import SampleFeatures
    from repro.features.similarity import SimilarityFeatureBuilder

    records = [SampleFeatures(sample_id=sid, class_name=cls, version="1",
                              executable=sid, digests=digests)
               for sid, digests, cls in directory_survivors()]
    direct = SimilarityFeatureBuilder([FT])
    direct_matrix = direct.fit_transform(records, exclude_self=True)

    adopted = SimilarityFeatureBuilder([FT])
    adopted.fit_from_index(legacy)
    adopted_matrix = adopted.transform(records, exclude_self=True)
    assert adopted_matrix.feature_names == direct_matrix.feature_names
    assert np.array_equal(adopted_matrix.X, direct_matrix.X)


# ------------------------------------------------- legacy error paths
def _rewrite_manifest(path, **changes):
    manifest = json.loads((path / "manifest.json").read_text())
    manifest.update(changes)
    (path / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def test_load_missing_directory(tmp_path):
    with pytest.raises(IndexFormatError, match="does not exist"):
        load_sharded_directory(tmp_path / "nope")


def test_load_directory_without_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(IndexFormatError, match="manifest.json"):
        load_index(tmp_path / "empty")


def test_load_corrupt_manifest(tmp_path):
    path = copy_directory(tmp_path)
    (path / "manifest.json").write_text("{broken", encoding="utf-8")
    with pytest.raises(IndexFormatError, match="corrupt manifest"):
        load_index(path)


def test_load_future_manifest_version(tmp_path):
    path = copy_directory(tmp_path)
    _rewrite_manifest(path, format_version=99)
    with pytest.raises(IndexFormatError, match="version 99"):
        load_index(path)


def test_load_unknown_routing(tmp_path):
    path = copy_directory(tmp_path)
    _rewrite_manifest(path, routing="md5")
    with pytest.raises(IndexFormatError, match="routing"):
        load_index(path)


def test_load_inconsistent_order(tmp_path):
    path = copy_directory(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text())
    _rewrite_manifest(path, order=manifest["order"][:-1])
    with pytest.raises(IndexFormatError, match="order assigns"):
        load_index(path)


def test_load_missing_shard_file(tmp_path):
    path = copy_directory(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text())
    (path / manifest["shards"][1]).unlink()
    with pytest.raises(IndexFormatError, match="does not exist"):
        load_index(path)


def test_n_shards_must_be_positive(tmp_path):
    path = copy_directory(tmp_path)
    _rewrite_manifest(path, n_shards=0, shards=[], tombstones=[])
    with pytest.raises(IndexFormatError, match="declares 0 shards"):
        load_index(path)


# ------------------------------------------------------ removal + compact
def test_remove_tombstones_and_compact(corpus):
    index = build(corpus)
    gone = [corpus[i][0] for i in (0, 7, 41)]
    for sample_id in gone:
        assert index.remove(sample_id) == 1
        assert index.remove(sample_id) == 0      # already tombstoned
    assert index.remove("never-added") == 0
    assert index.n_members == len(corpus) - 3
    assert index.total_members == len(corpus)
    assert index.n_tombstones == 3
    assert index.tombstone_ratio == pytest.approx(3 / len(corpus))

    survivors = [m for m in corpus if m[0] not in gone]
    reference = build(survivors)
    stats = index.stats()
    assert (stats["members"], stats["total_members"], stats["tombstones"],
            stats["labelled_members"]) == \
        (len(survivors), len(corpus), 3, reference.stats()["labelled_members"])
    for _, digests, _ in corpus[:15]:
        assert index.top_k(digests[FT], 10, min_score=0) == \
            reference.top_k(digests[FT], 10, min_score=0)
    assert index.pairwise_matrix() == reference.pairwise_matrix()

    assert index.compact() == 3
    assert index.compact() == 0
    assert index.n_tombstones == 0
    assert index.total_members == len(survivors)
    assert index.sample_ids == tuple(m[0] for m in survivors)
    for _, digests, _ in corpus[:15]:
        assert index.top_k(digests[FT], 10, min_score=0) == \
            reference.top_k(digests[FT], 10, min_score=0)


def test_removed_members_are_invisible_to_members_for_id(corpus):
    index = build(corpus)
    sample_id = corpus[3][0]
    assert index.members_for_id(sample_id) == frozenset({3})
    index.remove(sample_id)
    assert index.members_for_id(sample_id) == frozenset()
    # Later members renumber densely.
    assert index.members_for_id(corpus[4][0]) == frozenset({3})


# ------------------------------------------ removals survive persistence
def test_tombstones_survive_save_load_without_compact(tmp_path, corpus):
    """``remove()`` without ``compact()`` must persist: a reloaded index
    (what a restarted server sees after a lifecycle republish) must not
    resurrect the removed members.  The file holds the survivors only."""

    index = build(corpus)
    removed = [corpus[2][0], corpus[40][0], corpus[77][0]]
    for sample_id in removed:
        assert index.remove(sample_id) >= 1
    loaded = SimilarityIndex.load(index.save(tmp_path / "idx.rpsi"))
    assert loaded.n_tombstones == 0
    assert loaded.n_members == index.n_members
    assert loaded.sample_ids == index.sample_ids
    for sample_id in removed:
        assert loaded.members_for_id(sample_id) == frozenset()
    for _, digests, _ in corpus[:10]:
        assert loaded.top_k(digests[FT], 90, min_score=0) == \
            index.top_k(digests[FT], 90, min_score=0)


def test_tombstones_survive_get_state_from_state(corpus):
    index = build(corpus)
    index.remove(corpus[8][0])
    index.remove(corpus[9][0])
    header, arrays = index.get_state()
    assert header["sample_ids"] == list(index.sample_ids)
    restored = SimilarityIndex.from_state(header, arrays)
    assert restored.n_tombstones == 0
    assert restored.sample_ids == index.sample_ids
    assert restored.members_for_id(corpus[8][0]) == frozenset()
    for _, digests, _ in corpus[:10]:
        assert restored.top_k(digests[FT], 20, min_score=0) == \
            index.top_k(digests[FT], 20, min_score=0)


def test_tombstones_survive_with_unsealed_pending_tail(tmp_path, corpus):
    """Remove + fresh (unmerged) adds, then persist both ways: neither
    the removal nor the pending postings tail may be lost."""

    index = build(corpus[:60])
    index.seal()
    index.remove(corpus[3][0])
    for sample_id, digests, cls in corpus[60:70]:   # unsealed tail
        index.add(sample_id, digests, class_name=cls)
    header, arrays = index.get_state()
    restored = SimilarityIndex.from_state(header, arrays)
    loaded = SimilarityIndex.load(index.save(tmp_path / "t.rpsi"))
    for copy in (restored, loaded):
        assert copy.members_for_id(corpus[3][0]) == frozenset()
        assert copy.sample_ids == index.sample_ids
        for sample_id, digests, _ in corpus[60:70]:
            assert copy.members_for_id(sample_id)
            assert copy.top_k(digests[FT], 15, min_score=0) == \
                index.top_k(digests[FT], 15, min_score=0)


def test_tombstones_survive_the_model_artifact_round_trip(tmp_path):
    """The full serving path: purge a member of a trained service, save
    the ``.rpm``, reload it — the purged sample must stay gone (age-off
    durability across restarts depends on exactly this)."""

    from repro.api.service import ClassificationService
    from test_api_artifact import make_records

    records = make_records(24, seed=13, n_families=3)
    service = ClassificationService.train(
        records, feature_types=[FT], n_estimators=5, random_state=3,
        confidence_threshold=0.1)
    service.enable_mutation()
    victim = records[4].sample_id
    assert service.purge(victim) >= 1
    assert service.similarity_index.n_tombstones == 1
    path = tmp_path / "model.rpm"
    service.save(path)
    fresh = ClassificationService.load(path)
    fresh_index = fresh.similarity_index
    assert fresh_index.n_tombstones == 0
    assert fresh_index.members_for_id(victim) == frozenset()
    assert victim not in fresh_index.sample_ids
    assert fresh_index.sample_ids == service.similarity_index.sample_ids
    assert fresh.classify_features(records) == \
        service.classify_features(records)
