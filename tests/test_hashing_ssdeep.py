"""Tests for the CTPH (SSDeep) digest computation."""

import os
import random
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.binfmt.reader import is_elf
from repro.binfmt.strings_extract import strings_output
from repro.binfmt.symbols import nm_output
from repro.exceptions import (DigestFormatError, FeatureExtractionError,
                              HashingError)
from repro.features.extractors import FeatureExtractor
from repro.hashing.b64 import B64_ALPHABET, is_digest_alphabet
from repro.hashing.fnv import FNV_INIT, fnv_update
from repro.hashing.rolling import RollingHash
from repro.hashing.ssdeep import (
    MIN_BLOCKSIZE,
    SPAMSUM_LENGTH,
    FuzzyHasher,
    SsdeepDigest,
    fuzzy_hash,
    fuzzy_hash_file,
)
from repro.hashing.vector import VectorHasher


def test_digest_has_three_fields_and_valid_alphabet():
    digest = fuzzy_hash(random.Random(0).randbytes(4096))
    parsed = SsdeepDigest.parse(digest)
    assert parsed.block_size >= MIN_BLOCKSIZE
    assert 0 < len(parsed.chunk) <= SPAMSUM_LENGTH
    assert 0 < len(parsed.double_chunk) <= SPAMSUM_LENGTH // 2
    assert is_digest_alphabet(parsed.chunk)
    assert is_digest_alphabet(parsed.double_chunk)


def test_block_size_is_min_blocksize_times_power_of_two():
    for size in (10, 1_000, 20_000, 200_000):
        digest = SsdeepDigest.parse(fuzzy_hash(random.Random(size).randbytes(size)))
        ratio = digest.block_size / MIN_BLOCKSIZE
        assert ratio == int(ratio)
        assert int(ratio) & (int(ratio) - 1) == 0  # power of two


def test_deterministic():
    data = random.Random(1).randbytes(10_000)
    assert fuzzy_hash(data) == fuzzy_hash(data)


def test_different_inputs_give_different_digests():
    a = fuzzy_hash(random.Random(2).randbytes(8192))
    b = fuzzy_hash(random.Random(3).randbytes(8192))
    assert a != b


def test_empty_input():
    digest = FuzzyHasher().hash(b"")
    assert digest.is_empty
    assert str(digest) == f"{MIN_BLOCKSIZE}::"


def test_text_input_is_utf8_encoded():
    assert fuzzy_hash("some text input") == fuzzy_hash(b"some text input")


def test_small_input_uses_min_blocksize():
    digest = SsdeepDigest.parse(fuzzy_hash(b"tiny"))
    assert digest.block_size == MIN_BLOCKSIZE


def test_block_size_grows_with_input_size():
    small = SsdeepDigest.parse(fuzzy_hash(random.Random(4).randbytes(1_000)))
    large = SsdeepDigest.parse(fuzzy_hash(random.Random(5).randbytes(100_000)))
    assert large.block_size > small.block_size


def test_chunk_signature_is_about_full_length_for_random_data():
    # The retry loop halves the block size until the signature has at
    # least SPAMSUM_LENGTH/2 characters (for inputs large enough).
    digest = SsdeepDigest.parse(fuzzy_hash(random.Random(6).randbytes(50_000)))
    assert len(digest.chunk) >= SPAMSUM_LENGTH // 2


def test_hash_file(tmp_path):
    data = random.Random(7).randbytes(5000)
    path = tmp_path / "binary.bin"
    path.write_bytes(data)
    assert fuzzy_hash_file(path) == fuzzy_hash(data)


def test_hash_many_preserves_order():
    hasher = FuzzyHasher()
    items = [b"first input", b"second input", b"third input"]
    digests = hasher.hash_many(items)
    assert [str(d) for d in digests] == [str(hasher.hash(i)) for i in items]


def test_parse_rejects_malformed_digests():
    with pytest.raises(DigestFormatError):
        SsdeepDigest.parse("notadigest")
    with pytest.raises(DigestFormatError):
        SsdeepDigest.parse("abc:def")          # only two fields
    with pytest.raises(DigestFormatError):
        SsdeepDigest.parse("x:ABC:DEF")        # non-integer block size
    with pytest.raises(DigestFormatError):
        SsdeepDigest.parse("1:ABC:DEF")        # block size below minimum
    with pytest.raises(DigestFormatError):
        SsdeepDigest.parse("5:ABC:DEF")        # not 3 * 2**k
    with pytest.raises(DigestFormatError):
        SsdeepDigest.parse(f"{3 << 70}:ABC:DEF")   # past int64's range
    with pytest.raises(DigestFormatError):
        SsdeepDigest.parse("3:A!C:DEF")        # invalid alphabet
    with pytest.raises(DigestFormatError):
        SsdeepDigest.parse(1234)               # not a string


def test_roundtrip_parse_format():
    digest = fuzzy_hash(random.Random(8).randbytes(3000))
    assert str(SsdeepDigest.parse(digest)) == digest


def test_alphabet_is_standard_base64():
    assert len(B64_ALPHABET) == 64
    assert len(set(B64_ALPHABET)) == 64


def test_hash_file_reads_in_bounded_chunks(tmp_path):
    """A tiny chunk size must yield the same digest as one big read."""

    data = random.Random(5).randbytes(40_000)
    path = tmp_path / "streamed.bin"
    path.write_bytes(data)
    hasher = FuzzyHasher()
    assert hasher.hash_file(path, chunk_size=7) == hasher.hash(data)
    assert hasher.hash_file(path, chunk_size=1 << 16) == hasher.hash(data)


def test_hash_file_enforces_max_bytes(tmp_path):
    data = random.Random(6).randbytes(10_000)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    hasher = FuzzyHasher()
    with pytest.raises(HashingError, match="hashing limit"):
        hasher.hash_file(path, max_bytes=9_999)
    # At exactly the limit, and with the cap disabled, hashing succeeds.
    assert hasher.hash_file(path, max_bytes=10_000) == hasher.hash(data)
    assert hasher.hash_file(path, max_bytes=None) == hasher.hash(data)


def test_hash_file_rejects_bad_parameters(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"abc")
    with pytest.raises(HashingError):
        FuzzyHasher().hash_file(path, chunk_size=0)
    with pytest.raises(HashingError):
        FuzzyHasher().hash_file(path, max_bytes=-1)


def open_fd_count() -> int | None:
    """This process's open descriptors (``None`` without /proc)."""

    fd_dir = "/proc/self/fd"
    return len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_file_readers_refuse_a_fifo_without_blocking(tmp_path):
    # Opened for reading, a FIFO with no writer blocks forever; a daemon
    # thread and its join timeout turn a hang into a failure.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    before = open_fd_count()
    outcome = []

    def read():
        for reader in (FuzzyHasher().hash_file, VectorHasher().hash_file,
                       FeatureExtractor(["ssdeep-file"]).extract_file):
            try:
                reader(str(fifo))
            except (HashingError, FeatureExtractionError) as exc:
                outcome.append(str(exc))

    worker = threading.Thread(target=read, daemon=True)
    worker.start()
    worker.join(5.0)
    assert not worker.is_alive(), "reading a FIFO blocked"
    assert len(outcome) == 3
    assert all("not a regular file" in message for message in outcome)
    assert open_fd_count() == before


def test_file_readers_refuse_a_directory(tmp_path):
    before = open_fd_count()
    with pytest.raises(HashingError, match="not a regular file"):
        FuzzyHasher().hash_file(tmp_path)
    with pytest.raises(HashingError, match="not a regular file"):
        VectorHasher().hash_file(tmp_path)
    with pytest.raises(FeatureExtractionError, match="not a regular file"):
        FeatureExtractor(["ssdeep-file"]).extract_file(str(tmp_path))
    assert open_fd_count() == before


# ------------------------------------------------- whole-digest oracle
def reference_spamsum(data: bytes, min_blocksize: int,
                      spamsum_length: int) -> str:
    """Byte-at-a-time spamsum, the oracle for :meth:`FuzzyHasher.hash`.

    Both signatures are recomputed in full at every block size the
    retry loop tries, with the scalar rolling hash and 32-bit FNV.
    """

    block_size = min_blocksize
    while block_size * spamsum_length < len(data):
        block_size *= 2
    while True:
        roll = RollingHash()
        states = [FNV_INIT, FNV_INIT]
        signatures: tuple[list, list] = ([], [])
        caps = (spamsum_length - 1, spamsum_length // 2 - 1)
        for byte in data:
            value = roll.update(byte)
            for k, size in enumerate((block_size, 2 * block_size)):
                states[k] = fnv_update(states[k], byte)
                if value % size == size - 1 and len(signatures[k]) < caps[k]:
                    signatures[k].append(B64_ALPHABET[states[k] & 0x3F])
                    states[k] = FNV_INIT
        if roll.value != 0:
            for k in range(2):
                signatures[k].append(B64_ALPHABET[states[k] & 0x3F])
        chunk, double_chunk = ("".join(s) for s in signatures)
        if block_size > min_blocksize and len(chunk) < spamsum_length // 2:
            block_size //= 2
            continue
        return f"{block_size}:{chunk}:{double_chunk}"


def _seeded(build):
    """Inputs built from a seeded generator.  Hypothesis draws only the
    seed, since its own size draws lean small and short random inputs
    never make the retry loop halve."""

    return st.integers(0, 2 ** 32).map(lambda seed: build(random.Random(seed)))


def _low_entropy(rng: random.Random) -> bytes:
    alphabet = rng.sample(range(256), rng.randint(1, 3))
    return bytes(rng.choices(alphabet, k=rng.randint(0, 3000)))


def _sparse_triggers(rng: random.Random) -> bytes:
    # A random head, then a short pattern repeated: the pattern's few
    # rolling values rarely trigger, so the retry loop halves several
    # times, and each halving adds triggers in the head.
    pattern = rng.randbytes(rng.randint(1, 8))
    return (rng.randbytes(rng.randint(0, 400))
            + pattern * (rng.randint(0, 3000) // len(pattern)))


def _zero_tail(rng: random.Random) -> bytes:
    # Seven trailing zeros zero the rolling hash: no tail character.
    return rng.randbytes(rng.randint(1, 1500)) + bytes(rng.randint(0, 16))


_ORACLE_INPUTS = st.one_of(
    st.binary(max_size=64),                  # short: block size at the floor
    _seeded(lambda rng: rng.randbytes(rng.randint(0, 3000))),
    _seeded(_low_entropy),
    _seeded(_sparse_triggers),
    _seeded(_zero_tail),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_ORACLE_INPUTS)
@example(data=b"")
@example(data=b"\x00" * 2000)
def test_digest_matches_byte_at_a_time_spamsum(data):
    assert str(FuzzyHasher().hash(data)) == reference_spamsum(
        data, MIN_BLOCKSIZE, SPAMSUM_LENGTH)


def _size_decile_input(tiny_samples, case):
    if case == "random-64k":
        return random.Random(64).randbytes(64 * 1024)
    ordered = sorted(tiny_samples, key=lambda s: (len(s.data), s.relative_path))
    return ordered[case * len(ordered) // 10].data


@pytest.mark.parametrize("case", [*range(10), "random-64k"])
def test_extracted_digests_match_spamsum_at_workload_block_sizes(
        tiny_samples, case):
    # The inputs drawn above stay below block size 96; these reach the
    # sizes executables hash at: one tiny-corpus executable per size
    # decile (block sizes 24-192 over bytes, strings and nm text) and a
    # 64 KiB random input (block size 1,536).
    data = _size_decile_input(tiny_samples, case)
    digests = FeatureExtractor().extract(data).digests
    symbols = nm_output(data) if is_elf(data) else ""
    for feature, hashed in (("ssdeep-file", data),
                            ("ssdeep-strings", strings_output(data).encode()),
                            ("ssdeep-symbols", symbols.encode())):
        assert digests[feature] == reference_spamsum(
            hashed, MIN_BLOCKSIZE, SPAMSUM_LENGTH), feature
