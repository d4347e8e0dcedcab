"""Tests for similarity-index save/load: round-trip fidelity and the
error handling of the on-disk container."""

import json
import struct

import pytest

from repro.exceptions import IndexFormatError
from repro.hashing.ssdeep import fuzzy_hash
from repro.index import SimilarityIndex
from repro.index.storage import FORMAT_VERSION, MAGIC, read_container, \
    write_container

from test_index_core import make_corpus


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(80, seed=11)


@pytest.fixture(scope="module")
def index(corpus):
    idx = SimilarityIndex(["ssdeep-file"])
    idx.add_many(corpus)
    return idx


def test_round_trip_preserves_everything(index, corpus, tmp_path):
    path = index.save(tmp_path / "corpus.rpsi")
    loaded = SimilarityIndex.load(path)
    assert loaded.feature_types == index.feature_types
    assert loaded.ngram_length == index.ngram_length
    assert loaded.sample_ids == index.sample_ids
    assert loaded.class_names == index.class_names
    assert loaded.stats() == index.stats()
    for _, digests, _ in corpus[::7]:
        query = digests["ssdeep-file"]
        assert loaded.top_k(query, 30) == index.top_k(query, 30)
    assert loaded.pairwise_matrix(max_pairs=500) == \
        index.pairwise_matrix(max_pairs=500)


def test_loaded_index_stays_updatable(index, corpus, tmp_path):
    import random

    loaded = SimilarityIndex.load(index.save(tmp_path / "i.rpsi"))
    digest = fuzzy_hash(random.Random(3).randbytes(3000))
    member = loaded.add("newcomer", {"ssdeep-file": digest})
    assert member == len(corpus)
    assert loaded.top_k(digest, 1)[0].sample_id == "newcomer"


def test_empty_index_round_trips(tmp_path):
    path = SimilarityIndex(["ssdeep-file"]).save(tmp_path / "empty.rpsi")
    loaded = SimilarityIndex.load(path)
    assert loaded.n_members == 0
    assert loaded.top_k("3:abcdefgh:ijkl") == []


def test_missing_file_raises_clear_error(tmp_path):
    with pytest.raises(IndexFormatError, match="does not exist"):
        SimilarityIndex.load(tmp_path / "nope.rpsi")


def test_not_an_index_file(tmp_path):
    path = tmp_path / "junk.rpsi"
    path.write_bytes(b"definitely not an index" * 10)
    with pytest.raises(IndexFormatError, match="bad magic"):
        SimilarityIndex.load(path)
    path.write_bytes(b"xy")
    with pytest.raises(IndexFormatError, match="too short"):
        SimilarityIndex.load(path)


def test_future_version_rejected(index, tmp_path):
    path = index.save(tmp_path / "future.rpsi")
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, len(MAGIC), FORMAT_VERSION + 1)
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError, match="format version"):
        SimilarityIndex.load(path)


def test_truncated_payload_rejected(index, tmp_path):
    path = index.save(tmp_path / "trunc.rpsi")
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 40])
    with pytest.raises(IndexFormatError, match="truncated"):
        SimilarityIndex.load(path)


def test_corrupt_header_rejected(index, tmp_path):
    path = index.save(tmp_path / "header.rpsi")
    data = bytearray(path.read_bytes())
    data[20] ^= 0xFF  # first header byte: JSON no longer parses
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError, match="header"):
        SimilarityIndex.load(path)


def test_inconsistent_header_fields_rejected(tmp_path):
    # A structurally valid container whose header lies about its arrays.
    import numpy as np

    path = write_container(tmp_path / "liar.rpsi", {
        "ngram_length": 7,
        "feature_types": ["ssdeep-file"],
        "sample_ids": ["a"],
        "class_names": ["x", "y"],          # one more than sample_ids
    }, {
        "entry_type": np.zeros(0, dtype=np.int16),
        "entry_member": np.zeros(0, dtype=np.int32),
        "entry_block": np.zeros(0, dtype=np.int64),
        "sig_offsets": np.zeros(1, dtype=np.int64),
        "sig_bytes": np.zeros(0, dtype=np.uint8),
    })
    with pytest.raises(IndexFormatError, match="class names"):
        SimilarityIndex.load(path)
    # Postings over 5-grams, which this build never writes or reads.
    path = write_container(tmp_path / "five.rpsi", {
        "ngram_length": 5,
        "feature_types": ["ssdeep-file"],
        "sample_ids": [],
        "class_names": [],
    }, SimilarityIndex(["ssdeep-file"]).get_state()[1])
    with pytest.raises(IndexFormatError, match="5-gram"):
        SimilarityIndex.load(path)


def test_out_of_range_entry_references_rejected(tmp_path):
    import numpy as np

    arrays = {
        "entry_type": np.array([5], dtype=np.int16),    # no such type
        "entry_member": np.array([0], dtype=np.int32),
        "entry_block": np.array([3], dtype=np.int64),
        "sig_offsets": np.array([0, 4], dtype=np.int64),
        "sig_bytes": np.frombuffer(b"abcd", dtype=np.uint8).copy(),
    }
    header = {"ngram_length": 7, "feature_types": ["ssdeep-file"],
              "sample_ids": ["a"], "class_names": [""]}
    path = write_container(tmp_path / "badtype.rpsi", header, arrays)
    with pytest.raises(IndexFormatError, match="feature type"):
        SimilarityIndex.load(path)

    arrays["entry_type"] = np.array([0], dtype=np.int16)
    arrays["entry_member"] = np.array([9], dtype=np.int32)  # no such member
    path = write_container(tmp_path / "badmember.rpsi", header, arrays)
    with pytest.raises(IndexFormatError, match="member"):
        SimilarityIndex.load(path)


def test_header_with_absurd_shape_rejected_not_overflowed(tmp_path):
    """A corrupt header declaring huge dimensions must fail the size
    check (IndexFormatError), not wrap around int64 and crash later."""

    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "arrays": [{"name": "entry_type", "dtype": "|u1",
                    "shape": [2 ** 32, 2 ** 32]}],
    }).encode("utf-8")
    path = tmp_path / "absurd.rpsi"
    path.write_bytes(struct.pack("<8sIQ", MAGIC, FORMAT_VERSION, len(header))
                     + header)
    with pytest.raises(IndexFormatError, match="truncated"):
        read_container(path)


def test_container_rejects_disallowed_dtype(tmp_path):
    import numpy as np

    with pytest.raises(IndexFormatError, match="dtype"):
        write_container(tmp_path / "f.rpsi", {},
                        {"x": np.zeros(2, dtype=np.float64)})


def test_container_rejects_trailing_garbage(tmp_path, index):
    path = index.save(tmp_path / "trail.rpsi")
    with open(path, "ab") as fh:
        fh.write(b"extra")
    with pytest.raises(IndexFormatError, match="trailing"):
        read_container(path)


def test_header_records_format_version(index, tmp_path):
    header, _ = read_container(index.save(tmp_path / "v.rpsi"))
    assert header["format_version"] == FORMAT_VERSION
    # The header is honest JSON all the way down.
    json.dumps(header)


def test_v2_container_carries_columnar_arrays(index, tmp_path):
    """Formats v2+ persist the postings verbatim: the reader adopts the
    arrays instead of re-keying every gram on load.  Format 5 keys them
    exactly, so no gram or block-size array rides beside the keys."""

    assert FORMAT_VERSION == 5
    header, arrays = read_container(index.save(tmp_path / "cols.rpsi"))
    assert header["layout"] == "columnar"
    assert {"pool_bytes", "pool_offsets"} <= set(arrays)
    for name in ("entry_member", "entry_block", "entry_sig", "post_keys",
                 "post_offsets", "post_entries"):
        assert f"t0.{name}" in arrays
    assert not any(name.endswith(("post_blocks", "post_grams"))
                   for name in arrays)
    # Keys are sorted (searchsorted-ready) and offsets span the postings.
    import numpy as np

    keys = arrays["t0.post_keys"]
    assert np.all(np.diff(keys) > 0)
    assert arrays["t0.post_offsets"][-1] == len(arrays["t0.post_entries"])


def test_version_1_preamble_still_accepted(index, tmp_path):
    """A file stamped with the old format version (1) must keep loading
    — readers accept any version up to the current one."""

    import struct as _struct

    path = index.save(tmp_path / "old.rpsi")
    data = bytearray(path.read_bytes())
    _struct.pack_into("<I", data, len(MAGIC), 1)
    path.write_bytes(bytes(data))
    header, _ = read_container(path)
    assert header["layout"] == "columnar"


def test_version_1_flat_entries_load_in_entry_order(tmp_path):
    """A version-1 file (flat entries, written type by type) loads,
    eager and mapped, answering as a fresh build does, with its
    signature pool interned in the file's entry order."""

    import numpy as np

    types = ["ssdeep-file", "ssdeep-strings"]
    fresh = SimilarityIndex(types)
    for (sid, digests, cls), (_, more, _) in zip(
            make_corpus(20, seed=4),
            make_corpus(20, seed=9, feature_type="ssdeep-strings")):
        fresh.add(sid, {**digests, **more}, class_name=cls)
    header, arrays = fresh.get_state()
    bounds = arrays["pool_offsets"].tolist()
    pool = [arrays["pool_bytes"][a:b].tobytes().decode("ascii")
            for a, b in zip(bounds, bounds[1:])]
    columns = [np.concatenate([np.full(len(arrays[f"t{t}.entry_sig"]), t)
                               for t in range(2)])]
    columns += [np.concatenate([arrays[f"t{t}.{name}"] for t in range(2)])
                for name in ("entry_member", "entry_block", "entry_sig")]
    signatures = [pool[sig] for sig in columns[3].tolist()]
    v1 = {"entry_type": columns[0].astype(np.int16),
          "entry_member": columns[1], "entry_block": columns[2],
          "sig_offsets": np.cumsum([0] + [len(s) for s in signatures]),
          "sig_bytes": np.frombuffer("".join(signatures).encode("ascii"),
                                     dtype=np.uint8).copy()}
    path = write_container(tmp_path / "v1.rpsi", {
        name: header[name] for name in ("ngram_length", "feature_types",
                                        "sample_ids", "class_names")}, v1)
    in_entry_order = list(dict.fromkeys(signatures))
    assert in_entry_order != pool
    for mmap_mode in (None, "r"):
        loaded = SimilarityIndex.load(path, mmap_mode=mmap_mode)
        assert loaded._pool.strings == in_entry_order
        for ft in types:
            assert loaded.member_signatures(ft) == fresh.member_signatures(ft)
        for _, digests, _ in make_corpus(20, seed=4)[::3]:
            query = digests["ssdeep-file"]
            assert loaded.top_k(query, 20, min_score=0) == \
                fresh.top_k(query, 20, min_score=0)
