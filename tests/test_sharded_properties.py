"""Property-based tests for sharded layouts and removals.

Older builds split an index across N shards, routed by
``fnv32(sample_id) % n_shards``, and recorded removals as per-shard
tombstones.  Such layouts now load as one :class:`SimilarityIndex` over
their survivors.  The invariant pinned down over random corpora: for
**any** shard count, with and without removals, a sharded layout — and
a single index whose members were removed in place — answers ``top_k``
exactly like a fresh :class:`SimilarityIndex` built from the surviving
corpus, member indices, tie-breaks and scores included.  A second
property covers the persistence round-trips composed with removals and
compaction.

The layouts are written here the way the sharded code wrote them: a
``"sharded": true`` snapshot (model artifacts) and a directory holding
``manifest.json`` and one container per shard.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hashing.fnv import fnv_hash
from repro.hashing.ssdeep import fuzzy_hash
from repro.index import SimilarityIndex, load_index
from repro.upgrade import upgrade_index

FT = "ssdeep-file"

_settings = settings(max_examples=20, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

# Corpora are lists of byte blobs; related members are generated by
# mutating shared prefixes, so non-trivial similarity appears.
_blobs = st.lists(st.binary(min_size=200, max_size=1200), min_size=1,
                  max_size=6)
_mutation_seeds = st.randoms(use_true_random=False)
_shard_counts = st.integers(min_value=1, max_value=6)
# Which member positions to remove (taken modulo the corpus size).
_removals = st.lists(st.integers(min_value=0, max_value=200), max_size=5)


def _corpus_from_blobs(blobs, rnd):
    members = []
    for i, blob in enumerate(blobs):
        members.append((f"m{i}", {FT: fuzzy_hash(blob)}, f"class{i % 3}"))
        # A sibling: the same blob with a few byte flips.
        sibling = bytearray(blob)
        for _ in range(rnd.randrange(1, 6)):
            sibling[rnd.randrange(len(sibling))] = rnd.randrange(256)
        members.append((f"m{i}-sib", {FT: fuzzy_hash(bytes(sibling))},
                        f"class{i % 3}"))
    return members


def _removed_ids(members, removals):
    removed = {members[r % len(members)][0] for r in removals}
    # Never remove everything: an empty index trivially matches, and a
    # non-empty survivor set exercises the renumbering.
    if len(removed) == len(members):
        removed.pop()
    return removed


def _reference(members, removed_ids):
    reference = SimilarityIndex([FT])
    reference.add_many([m for m in members if m[0] not in removed_ids])
    return reference


def _shard_layout(members, removed_ids, n_shards):
    """Shards, global order and per-shard tombstones, routed by fnv32."""

    shards = [SimilarityIndex([FT]) for _ in range(n_shards)]
    order = []
    tombstones = [[] for _ in range(n_shards)]
    for sample_id, digests, class_name in members:
        shard_idx = fnv_hash(sample_id.encode("utf-8")) % n_shards
        local = shards[shard_idx].add(sample_id, digests,
                                      class_name=class_name)
        order.append(shard_idx)
        if sample_id in removed_ids:
            tombstones[shard_idx].append(local)
    return shards, order, tombstones


def _sharded_state(members, removed_ids, n_shards):
    """A ``"sharded": true`` snapshot, as model artifacts carried it."""

    shards, order, tombstones = _shard_layout(members, removed_ids,
                                              n_shards)
    shard_states = [shard.get_state() for shard in shards]
    header = {
        "sharded": True,
        "sharded_format_version": 1,
        "n_shards": n_shards,
        "feature_types": [FT],
        "ngram_length": shards[0].ngram_length,
        "routing": "fnv32",
        "order": order,
        "tombstones": tombstones,
        "shard_headers": [shard_header for shard_header, _ in shard_states],
    }
    arrays = {f"shard{shard_idx}.{name}": array
              for shard_idx, (_, shard_arrays) in enumerate(shard_states)
              for name, array in shard_arrays.items()}
    return header, arrays


def _write_sharded_directory(path, members, removed_ids, n_shards):
    """A sharded-index directory: one container per shard + manifest."""

    shards, order, tombstones = _shard_layout(members, removed_ids,
                                              n_shards)
    path.mkdir()
    shard_files = [f"shard-{i:04d}-00000000.rpsi" for i in range(n_shards)]
    for shard, name in zip(shards, shard_files):
        shard.save(path / name)
    manifest = {
        "format": "repro-sharded-index",
        "format_version": 1,
        "n_shards": n_shards,
        "feature_types": [FT],
        "ngram_length": shards[0].ngram_length,
        "routing": "fnv32",
        "members": len(members),
        "order": order,
        "tombstones": tombstones,
        "shards": shard_files,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True),
                                        encoding="utf-8")
    return path


def _assert_top_k_identical(index, reference, members, k):
    for _, digests, _ in members:
        query = digests[FT]
        assert index.top_k(query, k, min_score=0) == \
            reference.top_k(query, k, min_score=0)


@_settings
@given(_blobs, _mutation_seeds, _shard_counts, _removals)
def test_sharded_top_k_equals_single_index_over_survivors(
        blobs, rnd, n_shards, removals):
    members = _corpus_from_blobs(blobs, rnd)
    removed_ids = _removed_ids(members, removals)
    reference = _reference(members, removed_ids)

    sharded = SimilarityIndex.from_state(*upgrade_index(
        *_sharded_state(members, removed_ids, n_shards)))
    # The upgrade copies the survivors the way a fresh build adds them.
    header, arrays = sharded.get_state()
    want_header, want_arrays = reference.get_state()
    assert header == want_header
    assert list(arrays) == list(want_arrays)
    for name, array in want_arrays.items():
        assert arrays[name].dtype == array.dtype, name
        assert np.array_equal(arrays[name], array), name
    removed_in_place = SimilarityIndex([FT])
    removed_in_place.add_many(members)
    for sample_id in removed_ids:
        assert removed_in_place.remove(sample_id) == 1
    assert removed_in_place.n_tombstones == len(removed_ids)

    for index in (sharded, removed_in_place):
        assert index.n_members == reference.n_members
        assert index.sample_ids == reference.sample_ids
        _assert_top_k_identical(index, reference, members, len(members))
        assert index.pairwise_matrix(min_score=0) == \
            reference.pairwise_matrix(min_score=0)


@_settings
@given(_blobs, _mutation_seeds, _shard_counts, _removals)
def test_round_trip_then_compact_preserves_top_k(blobs, rnd, n_shards,
                                                 removals):
    members = _corpus_from_blobs(blobs, rnd)
    removed_ids = _removed_ids(members, removals)
    reference = _reference(members, removed_ids)

    index = SimilarityIndex([FT])
    index.add_many(members)
    for sample_id in removed_ids:
        index.remove(sample_id)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # Saves hold the survivors only, so no tombstone comes back.
        loaded = SimilarityIndex.load(index.save(tmp / "single.rpsi"))
        directory = load_index(_write_sharded_directory(
            tmp / "legacy.rpsd", members, removed_ids, n_shards))
        migrated = load_index(directory.save(tmp / "migrated.rpsi"))
    assert index.n_tombstones == len(removed_ids)
    assert index.compact() == len(removed_ids)
    assert index.n_tombstones == 0

    for candidate in (loaded, directory, migrated):
        assert candidate.n_tombstones == 0
        assert candidate.compact() == 0
    for candidate in (index, loaded, directory, migrated):
        _assert_top_k_identical(candidate, reference, members, len(members))
