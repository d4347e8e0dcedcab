"""Access to the legacy sharded-layout fixtures in ``data/legacy_sharded``.

``corpus.rpsd`` (a 3-shard directory with 3 tombstones) and
``model.rpm`` (an artifact whose sharded anchor index has one purged
member) were written by the retired ``ShardedSimilarityIndex``;
``expected.json`` records what that code answered for a fixed query
set.  ``data/legacy_sharded/make_fixtures.py`` documents how they were
made.
"""

import json
import shutil
from functools import lru_cache
from pathlib import Path

from repro.index import SimilarityIndex

DATA = Path(__file__).resolve().parent / "data" / "legacy_sharded"
LEGACY_DIR = DATA / "corpus.rpsd"
LEGACY_MODEL = DATA / "model.rpm"


@lru_cache(maxsize=1)
def expected() -> dict:
    return json.loads((DATA / "expected.json").read_text(encoding="utf-8"))


def rows(matches) -> list[list]:
    """``top_k`` results in the fixture's ``[index, id, class, score]``
    row form."""

    return [[m.member_index, m.sample_id, m.class_name, m.score]
            for m in matches]


def assert_answers_as_recorded(index: SimilarityIndex) -> None:
    """``index`` answers the directory's query set exactly as the
    sharded code recorded."""

    recorded = expected()["directory"]
    assert list(index.sample_ids) == recorded["survivor_ids"]
    for ft in index.feature_types:
        assert [rows(index.top_k(q[ft], 10, feature_type=ft, min_score=0))
                for q in recorded["queries"]] == recorded["top_k"][ft]
    members = recorded["members"]
    assert [rows(index.top_k_digests(q, 6, exclude_ids=[members[i][0]]))
            for i, q in enumerate(recorded["queries"][:len(members)])] == \
        recorded["top_k_digests"]
    assert [[p.i, p.j, p.score]
            for p in index.pairwise_matrix(max_pairs=100, min_score=0)] == \
        recorded["pairwise_max_pairs_100"]


def directory_survivors() -> list[tuple]:
    """``(sample_id, digests, class_name)`` of the directory's surviving
    members, in insertion order.

    The last recorded member re-adds a purged id after its removal, so
    it survives although its id is listed as removed.
    """

    recorded = expected()["directory"]
    members = [tuple(m) for m in recorded["members"]]
    removed = set(recorded["removed"])
    return [m for m in members[:-1] if m[0] not in removed] + members[-1:]


def fresh_directory_index() -> SimilarityIndex:
    """A new index built from the directory's survivors."""

    index = SimilarityIndex(expected()["directory"]["feature_types"])
    for sample_id, digests, class_name in directory_survivors():
        index.add(sample_id, digests, class_name=class_name)
    return index


def copy_directory(tmp_path: Path) -> Path:
    """A writable copy of the legacy directory (for corruption tests)."""

    return Path(shutil.copytree(LEGACY_DIR, tmp_path / "corpus.rpsd"))
