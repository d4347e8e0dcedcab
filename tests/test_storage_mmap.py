"""Tests for the v4 aligned container layout and the zero-copy mmap
load mode (``repro.index.storage`` and the loaders built on it).

Covers the alignment invariant, bit-identical mapped round trips,
read-only view semantics, survival of the mapping across
``os.replace``, legacy (v1–v3, unpadded) files loading bit-identically
through the materialising fallback, write durability (fsync of the
temp file and its directory), and the serving hot-reload path keeping
a stable file-descriptor count under repeated mapped reloads.
"""

import json
import os
import struct

import numpy as np
import pytest

from repro.exceptions import IndexFormatError
from repro.index import SimilarityIndex
from repro.index.storage import (
    ARRAY_ALIGNMENT,
    FORMAT_VERSION,
    MAGIC,
    read_container,
    write_container,
)

from test_index_core import make_corpus

PREAMBLE = struct.Struct("<8sIQ")


def sample_arrays():
    rng = np.random.default_rng(7)
    return {
        "small": np.arange(5, dtype=np.int64),
        "matrix": rng.integers(0, 2**63, size=(17, 3)).astype("<u8"),
        "bytes": rng.integers(0, 256, size=201).astype("|u1"),
        "empty": np.zeros(0, dtype=np.int32),
        "wide": np.arange(33, dtype=np.int16),
    }


def payload_offsets(path):
    """``(name, offset, n_bytes)`` per array, derived like the reader."""

    data = path.read_bytes()
    _magic, _version, header_len = PREAMBLE.unpack_from(data)
    header = json.loads(data[PREAMBLE.size:PREAMBLE.size + header_len])
    align = header.get("payload_alignment", 1)
    offset = PREAMBLE.size + header_len
    plan = []
    for descriptor in header["arrays"]:
        offset += -offset % align
        n_bytes = np.dtype(descriptor["dtype"]).itemsize * int(
            np.prod(descriptor["shape"], dtype=np.int64))
        plan.append((descriptor["name"], offset, n_bytes))
        offset += n_bytes
    return header, plan


def downgrade_to_unpadded(path, out_path, *, version=3):
    """Re-emit a v4 container as an old-style packed (unpadded) file."""

    data = path.read_bytes()
    magic, _version, header_len = PREAMBLE.unpack_from(data)
    header = json.loads(data[PREAMBLE.size:PREAMBLE.size + header_len])
    header.pop("payload_alignment")
    header["format_version"] = version
    _header, plan = payload_offsets(path)
    new_header = json.dumps(header, separators=(",", ":"),
                            sort_keys=True).encode("utf-8")
    out = bytearray(PREAMBLE.pack(magic, version, len(new_header)))
    out += new_header
    for _name, offset, n_bytes in plan:
        out += data[offset:offset + n_bytes]
    out_path.write_bytes(bytes(out))
    return out_path


# ----------------------------------------------------------- v4 layout
def test_v4_payloads_start_on_aligned_offsets(tmp_path):
    path = write_container(tmp_path / "c.rpsi", {"k": 1}, sample_arrays())
    header, plan = payload_offsets(path)
    assert header["format_version"] == FORMAT_VERSION == 5
    assert header["payload_alignment"] == ARRAY_ALIGNMENT == 64
    for name, offset, _n_bytes in plan:
        assert offset % ARRAY_ALIGNMENT == 0, name
    # The padding is real: the file is larger than the packed layout.
    _name, last_offset, last_bytes = plan[-1]
    assert path.stat().st_size == last_offset + last_bytes


def test_mmap_round_trip_is_bit_identical(tmp_path):
    arrays = sample_arrays()
    path = write_container(tmp_path / "c.rpsi", {"k": 1}, arrays)
    eager_header, eager = read_container(path)
    mapped_header, mapped = read_container(path, mmap_mode="r")
    assert mapped_header == eager_header
    assert set(mapped) == set(arrays)
    for name, original in arrays.items():
        assert np.array_equal(mapped[name], original), name
        assert np.array_equal(eager[name], original), name
        assert mapped[name].dtype == eager[name].dtype
        assert mapped[name].shape == eager[name].shape


def test_mmap_views_are_read_only(tmp_path):
    path = write_container(tmp_path / "c.rpsi", {}, sample_arrays())
    _header, arrays = read_container(path, mmap_mode="r")
    for name, array in arrays.items():
        if not array.size:
            continue
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array.reshape(-1)[0] = 0
    # The eager path still hands out private writeable arrays.
    _header, eager = read_container(path)
    for array in eager.values():
        assert array.flags.writeable


def test_unknown_mmap_mode_is_rejected(tmp_path):
    path = write_container(tmp_path / "c.rpsi", {}, sample_arrays())
    with pytest.raises(ValueError, match="mmap_mode"):
        read_container(path, mmap_mode="r+")


def test_mmap_views_survive_os_replace(tmp_path):
    arrays = sample_arrays()
    path = write_container(tmp_path / "c.rpsi", {"gen": 1}, arrays)
    _header, mapped = read_container(path, mmap_mode="r")
    # An operator publishes a different container over the same path.
    replacement = {"other": np.full(1000, 7, dtype=np.int64)}
    write_container(tmp_path / "next.rpsi", {"gen": 2}, replacement)
    os.replace(tmp_path / "next.rpsi", path)
    # The mapping pinned the old inode: every view still reads the
    # original bytes, bit-identically.
    for name, original in arrays.items():
        assert np.array_equal(mapped[name], original), name
    header, fresh = read_container(path, mmap_mode="r")
    assert header["gen"] == 2
    assert np.array_equal(fresh["other"], replacement["other"])


# -------------------------------------------------------- legacy files
def test_unpadded_legacy_container_loads_bit_identically(tmp_path):
    arrays = sample_arrays()
    modern = write_container(tmp_path / "modern.rpsi", {"k": 1}, arrays)
    for version in (3, 2):
        legacy = downgrade_to_unpadded(modern, tmp_path / f"v{version}.rpsi",
                                       version=version)
        assert legacy.stat().st_size < modern.stat().st_size
        header, loaded = read_container(legacy)
        assert header["format_version"] == version
        for name, original in arrays.items():
            assert np.array_equal(loaded[name], original), (version, name)
        # mmap_mode on an unaligned file silently falls back to the
        # materialising path: same arrays, but private and writeable.
        _header, fallback = read_container(legacy, mmap_mode="r")
        for name, original in arrays.items():
            assert np.array_equal(fallback[name], original), (version, name)
            assert fallback[name].flags.writeable or not original.size


def test_legacy_index_file_loads_and_answers_identically(tmp_path):
    corpus = make_corpus(24, seed=13)
    index = SimilarityIndex(["ssdeep-file"])
    index.add_many(corpus)
    modern = index.save(tmp_path / "modern.rpsi")
    legacy = downgrade_to_unpadded(modern, tmp_path / "legacy.rpsi")
    digest = corpus[0][1]["ssdeep-file"]
    expected = SimilarityIndex.load(modern).top_k(digest, k=5)
    assert expected  # the probe is a corpus member: never empty
    assert SimilarityIndex.load(legacy).top_k(digest, k=5) == expected
    assert SimilarityIndex.load(legacy, mmap_mode="r").top_k(digest, k=5) \
        == expected


def test_absurd_declared_alignment_is_rejected(tmp_path):
    path = write_container(tmp_path / "c.rpsi", {}, sample_arrays())
    data = bytearray(path.read_bytes())
    _magic, _version, header_len = PREAMBLE.unpack_from(data)
    header = json.loads(data[PREAMBLE.size:PREAMBLE.size + header_len])
    header["payload_alignment"] = "sixty-four"
    new_header = json.dumps(header, separators=(",", ":"),
                            sort_keys=True).encode("utf-8")
    # Keep the preamble length honest for the mutated header.
    out = PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(new_header)) + new_header \
        + bytes(data[PREAMBLE.size + header_len:])
    bad = tmp_path / "bad.rpsi"
    bad.write_bytes(out)
    with pytest.raises(IndexFormatError, match="payload alignment"):
        read_container(bad)


# ----------------------------------------------------------- durability
def test_write_fsyncs_file_and_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.fstat(fd).st_mode)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    write_container(tmp_path / "c.rpsi", {}, sample_arrays())
    import stat

    # One fsync of the temp file (regular) and one of the parent
    # directory, in that order — the pair that makes the publish
    # crash-durable, not just atomic.
    assert len(synced) == 2
    assert stat.S_ISREG(synced[0])
    assert stat.S_ISDIR(synced[1])


# --------------------------------------------------- serving FD hygiene
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc (Linux)")
def test_mmap_hot_reload_does_not_leak_file_descriptors(tmp_path):
    from repro.api.service import ClassificationService
    from repro.serving.model_manager import ModelManager

    from test_api_artifact import make_records

    records = make_records(24, seed=3, n_families=3)
    service = ClassificationService.train(records,
                                          feature_types=["ssdeep-file"],
                                          n_estimators=6, random_state=0)
    live = tmp_path / "model.rpm"
    service.save(live)
    manager = ModelManager(live, poll_interval=0, mmap=True, cache_size=0)
    assert manager.load_mode == "mmap"
    items = [(r.sample_id, r.sample_id.encode() * 64) for r in records[:4]]
    baseline_decisions, _gen = manager.classify_items(items)

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    manager.classify_items(items)
    before = open_fds()
    for round_no in range(5):
        # Publish fresh bytes (new mtime/inode) and hot-reload: each
        # reload maps the new file and drops the old mapping with its
        # generation — no descriptor may survive either step.
        staging = tmp_path / f"stage-{round_no}.rpm"
        service.save(staging)
        os.replace(staging, live)
        assert manager.maybe_reload() is True
        decisions, _gen = manager.classify_items(items)
        assert decisions == baseline_decisions
    assert open_fds() == before
    assert manager.generation == 6
