"""Tombstones in :class:`SimilarityIndex`: one Hypothesis property.

Random operation sequences — ``add`` (repeated sample ids included),
``remove`` (of live, already-removed and unknown ids), ``compact``,
``get_state`` → ``from_state`` and ``save`` → ``load`` (eager and
``mmap_mode="r"``) — run over one- and two-type CTPH, vector and
mixed-family indexes.
After every operation but an add (and after the last) each query must
answer exactly what a fresh :class:`SimilarityIndex` built from the
survivors, in insertion order, answers: ``top_k``, ``top_k_digests`` with ``exclude_ids``,
``score_matrices`` with per-query and broadcast ``exclude``,
``pairwise_matrix`` under a ``max_pairs`` budget, ``members_for_id``,
``member_signatures``, ``sample_ids`` and ``class_names``; and
``get_state`` must return the fresh index's header and arrays.

``exclude`` indices are checked against the surviving member count;
the unit tests below pin the two rejection cases.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.hashing.ssdeep import fuzzy_hash
from repro.hashing.vector import vector_hash
from repro.index import SimilarityIndex

FAMILIES = {
    "ctph": ("ssdeep-file",),
    "two-ctph": ("ssdeep-file", "ssdeep-strings"),
    "vector": ("vector-file",),
    "both": ("ssdeep-file", "vector-file"),
}

#: Sample ids are drawn from a small pool so ids repeat.
N_IDS = 6

_settings = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_blobs = st.lists(st.binary(min_size=200, max_size=1200), min_size=1,
                  max_size=4)
# Adds and removes are drawn more often than the operations that clear
# tombstones (compact, state, save), so most states under test hold some.
KINDS = ("add",) * 4 + ("remove",) * 3 + ("compact", "state", "save")
# (kind, digest pick, sample-id pick, mmap flag for save).  A remove
# picks a live id, or with id pick N_IDS repeats the last removal, or
# with N_IDS + 1 names an id never added.
_operations = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 63),
              st.integers(0, N_IDS + 1), st.booleans()),
    min_size=4, max_size=30)


def _digest_pool(blobs, rnd) -> list[dict]:
    """Each blob plus a few-byte-flip sibling, hashed by both families."""

    pool = []
    for blob in blobs:
        sibling = bytearray(blob)
        for _ in range(rnd.randrange(1, 6)):
            sibling[rnd.randrange(len(sibling))] = rnd.randrange(256)
        for data in (blob, bytes(sibling)):
            pool.append({"ssdeep-file": fuzzy_hash(data),
                         "ssdeep-strings": fuzzy_hash(data[::-1]),
                         "vector-file": vector_hash(data)})
    return pool


def _assert_same_answers(index, fresh, types, pool, max_pairs, rnd):
    assert index.n_members == fresh.n_members
    assert index.sample_ids == fresh.sample_ids
    assert index.class_names == fresh.class_names
    for n in range(N_IDS):
        assert index.members_for_id(f"s{n}") == fresh.members_for_id(f"s{n}")
    for ft in types:
        assert index.member_signatures(ft) == fresh.member_signatures(ft)

    queries = [{ft: digests[ft] for ft in types} for digests in pool]
    query_ids = [f"s{rnd.randrange(N_IDS)}" for _ in queries]
    k = fresh.n_members + 1
    for query, sample_id in zip(queries, query_ids):
        for ft in types:
            assert index.top_k(query[ft], k, feature_type=ft,
                               min_score=0) == \
                fresh.top_k(query[ft], k, feature_type=ft, min_score=0)
        assert index.top_k_digests(query, 3, exclude_ids=[sample_id]) == \
            fresh.top_k_digests(query, 3, exclude_ids=[sample_id])

    by_type = {ft: [query[ft] for query in queries] for ft in types}
    per_query = [fresh.members_for_id(sample_id) for sample_id in query_ids]
    broadcast = [set(range(0, fresh.n_members, 2))]
    for exclude in (None, per_query, broadcast):
        got = index.score_matrices(by_type, exclude=exclude)
        want = fresh.score_matrices(by_type, exclude=exclude)
        for ft in types:
            assert np.array_equal(got[ft], want[ft])
    assert index.pairwise_matrix(max_pairs=max_pairs, min_score=0) == \
        fresh.pairwise_matrix(max_pairs=max_pairs, min_score=0)

    # The snapshot is byte for byte a fresh build's: with two CTPH
    # types, member order and type order intern signatures differently.
    header, arrays = index.get_state()
    fresh_header, fresh_arrays = fresh.get_state()
    assert header == fresh_header
    assert arrays.keys() == fresh_arrays.keys()
    for name, array in arrays.items():
        assert np.array_equal(array, fresh_arrays[name]), name


@_settings
@given(st.sampled_from(sorted(FAMILIES)), _blobs, st.randoms(
    use_true_random=False), _operations,
    st.one_of(st.none(), st.integers(1, 40)))
def test_interleaved_operations_match_fresh_index_over_survivors(
        family, blobs, rnd, operations, max_pairs):
    types = FAMILIES[family]
    pool = _digest_pool(blobs, rnd)
    index = SimilarityIndex(types)
    added: list[list] = []          # [sample_id, digests, class, alive]
    removed: list[str] = []
    tombstones = 0
    with tempfile.TemporaryDirectory() as tmp:
        # Start from one member per pool digest, so early removes have
        # something to hit.
        start = [("add", pick, pick, False) for pick in range(len(pool))]
        for step, (op, pick, id_pick, mapped) in enumerate(start
                                                           + operations):
            if op == "add":
                digests = pool[pick % len(pool)]
                sample_id = f"s{id_pick % N_IDS}"
                class_name = f"c{pick % 3}"
                member = index.add(sample_id, digests, class_name=class_name)
                assert member == sum(alive for *_, alive in added)
                added.append([sample_id, digests, class_name, True])
            elif op == "remove":
                live_ids = sorted({m[0] for m in added if m[3]})
                if id_pick < N_IDS and live_ids:
                    sample_id = live_ids[id_pick % len(live_ids)]
                elif id_pick == N_IDS and removed:
                    sample_id = removed[-1]
                else:
                    sample_id = "never-added"
                removed.append(sample_id)
                live = [m for m in added if m[0] == sample_id and m[3]]
                for m in live:
                    m[3] = False
                assert index.remove(sample_id) == len(live)
                tombstones += len(live)
            elif op == "compact":
                assert index.compact() == tombstones
                tombstones = 0
            elif op == "state":
                index = SimilarityIndex.from_state(*index.get_state())
                tombstones = 0
            else:
                path = index.save(Path(tmp) / f"step{step}.rpsi")
                index = SimilarityIndex.load(path,
                                             mmap_mode="r" if mapped else None)
                tombstones = 0
            assert index.n_tombstones == tombstones
            assert index.total_members == index.n_members + tombstones

            if op != "add" or step == len(start) + len(operations) - 1:
                fresh = SimilarityIndex(types)
                for sample_id, digests, class_name, alive in added:
                    if alive:
                        fresh.add(sample_id, digests, class_name=class_name)
                _assert_same_answers(index, fresh, types, pool, max_pairs,
                                     rnd)


# ------------------------------------------------------- exclude range
@pytest.fixture()
def tombstoned():
    rnd = np.random.default_rng(7)
    pool = [bytes(rnd.integers(0, 256, 1500, dtype=np.uint8))
            for _ in range(4)]
    index = SimilarityIndex(["ssdeep-file"])
    for i, blob in enumerate(pool):
        index.add(f"s{i}", {"ssdeep-file": fuzzy_hash(blob)})
    index.remove("s1")
    return index, [fuzzy_hash(blob) for blob in pool]


@pytest.mark.parametrize("with_tombstones", [False, True])
def test_exclude_rejects_a_negative_member_index(tombstoned, with_tombstones):
    index, digests = tombstoned
    if not with_tombstones:
        index.compact()
    with pytest.raises(ValidationError, match="exclude references member #-1"):
        index.score_matrix("ssdeep-file", digests[:1], exclude=[{-1}])


@pytest.mark.parametrize("with_tombstones", [False, True])
def test_exclude_rejects_an_out_of_range_member_index(tombstoned,
                                                      with_tombstones):
    index, digests = tombstoned
    if not with_tombstones:
        index.compact()
    # Three members survive: dense indices 0..2, so #3 is out of range
    # even though the index still holds a fourth (tombstoned) member.
    with pytest.raises(ValidationError, match="exclude references member #3"):
        index.score_matrix("ssdeep-file", digests[:2], exclude=[{0}, {3}])
    assert index.score_matrix("ssdeep-file", digests[:2],
                              exclude=[{0}, {2}]).shape == (2, 3)
