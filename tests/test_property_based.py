"""Property-based tests (hypothesis) for the core data structures.

These pin down the invariants the rest of the pipeline silently relies
on: metric properties of the edit distances, digest well-formedness,
similarity score symmetry/boundedness, and ELF round-tripping.  The
per-pair oracle property of the scoring kernel lives in
``test_distance_scoring.py``; the properties here check the kernel
through the index's batch path, ``score_signature_pairs``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.binfmt.reader import ElfReader
from repro.binfmt.strings_extract import extract_strings
from repro.binfmt.structs import SymbolSpec
from repro.binfmt.writer import build_executable
from repro.distance.damerau import damerau_levenshtein_distance, osa_distance, \
    weighted_edit_distance
from repro.distance.levenshtein import levenshtein_distance
from repro.distance.scoring import indel_distance, ssdeep_score_from_distance
from repro.hashing.b64 import B64_ALPHABET
from repro.hashing.compare import compare_digests, normalize_repeats
from repro.hashing.rolling import RollingHash, rolling_hash_values
from repro.hashing.ssdeep import SsdeepDigest, fuzzy_hash
from repro.index.core import score_signature_pairs
from repro.ml.class_weight import compute_sample_weight
from repro.ml.metrics import accuracy_score, f1_score, precision_recall_fscore_support

# A compact alphabet keeps the edit-distance search space interesting.
_short_text = st.text(alphabet="ABCab01+/", max_size=24)
_blobs = st.binary(min_size=0, max_size=4096)
# Full-range unicode, astral code points included.
_any_text = st.text(max_size=16)
# Small block sizes bring in the score cap, large ones the plain scale.
_block_sizes = st.sampled_from((3, 6, 48, 3072))

_default_settings = settings(max_examples=60, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------- distances
@_default_settings
@given(_short_text, _short_text)
def test_edit_distances_are_metrics(a, b):
    for fn in (levenshtein_distance, osa_distance, damerau_levenshtein_distance):
        d_ab = fn(a, b)
        assert d_ab >= 0
        assert (d_ab == 0) == (a == b)
        assert d_ab == fn(b, a)                       # symmetry
        assert d_ab <= max(len(a), len(b))            # upper bound
        assert d_ab >= abs(len(a) - len(b))           # lower bound


@_default_settings
@given(_short_text, _short_text, _short_text)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein_distance(a, c) <= \
        levenshtein_distance(a, b) + levenshtein_distance(b, c)


def _dp_score(a, b, block_size):
    """One pair's score from the weighted-DP oracle; identical
    signatures score 100 (the reference's fast path)."""

    if a == b:
        return 100
    return ssdeep_score_from_distance(weighted_edit_distance(a, b),
                                      len(a), len(b), block_size)


@_default_settings
@given(_short_text, _short_text)
def test_vectorised_distances_agree_with_reference(a, b):
    assert indel_distance(a, b) == weighted_edit_distance(a, b)
    blocks = [3, 3072]
    assert score_signature_pairs([a, a], [b, b], blocks).tolist() == \
        [_dp_score(a, b, bs) for bs in blocks]


@_default_settings
@given(st.lists(st.tuples(_any_text, _any_text, _block_sizes), max_size=10))
def test_batch_engine_matches_scalar_on_unicode_pair_lists(pairs):
    """The batch path must agree with the scalar reference pair by pair —
    including empty strings, identical strings and astral code points."""

    left = [a for a, _, _ in pairs]
    right = [b for _, b, _ in pairs]
    blocks = [bs for _, _, bs in pairs]
    scores = score_signature_pairs(left, right, blocks)
    for i, (a, b, bs) in enumerate(pairs):
        assert indel_distance(a, b) == weighted_edit_distance(a, b)
        assert scores[i] == _dp_score(a, b, bs)


@_default_settings
@given(_any_text)
def test_batch_engine_degenerate_pairs(s):
    """Empty and all-identical pairs are the boundary cases."""

    assert indel_distance(s, s) == 0
    assert indel_distance(s, "") == len(s)
    assert indel_distance("", s) == len(s)
    assert indel_distance("", "") == 0
    identical = [s] * 5
    assert score_signature_pairs(identical, identical,
                                 [3] * 5).tolist() == [100] * 5
    if s:
        assert score_signature_pairs([s, ""], ["", s],
                                     [3072] * 2).tolist() == [0, 0]


# ------------------------------------------------------------------- hashing
@_default_settings
@given(_blobs)
def test_rolling_hash_vectorised_matches_scalar(data):
    scalar = RollingHash()
    expected = [scalar.update(byte) for byte in data]
    assert [int(v) for v in rolling_hash_values(data)] == expected


@_default_settings
@given(_blobs)
def test_fuzzy_hash_digest_is_well_formed(data):
    digest = SsdeepDigest.parse(fuzzy_hash(data))
    assert digest.block_size >= 3
    assert len(digest.chunk) <= 64
    assert len(digest.double_chunk) <= 32
    assert all(ch in B64_ALPHABET for ch in digest.chunk + digest.double_chunk)


@_default_settings
@given(_blobs)
def test_digest_string_round_trip(data):
    """``SsdeepDigest.parse(str(d)) == d`` for every computed digest."""

    digest = SsdeepDigest.parse(fuzzy_hash(data))
    assert SsdeepDigest.parse(str(digest)) == digest
    assert str(SsdeepDigest.parse(str(digest))) == str(digest)


@_default_settings
@given(st.integers(min_value=3, max_value=3 * 2 ** 20),
       st.text(alphabet=B64_ALPHABET, max_size=64),
       st.text(alphabet=B64_ALPHABET, max_size=32))
def test_digest_round_trip_for_constructed_digests(block_size, chunk, double_chunk):
    digest = SsdeepDigest(block_size=block_size, chunk=chunk,
                          double_chunk=double_chunk)
    assert SsdeepDigest.parse(str(digest)) == digest


@_default_settings
@given(st.binary(min_size=1, max_size=4096))
def test_fuzzy_hash_self_similarity_and_symmetry(data):
    digest = fuzzy_hash(data)
    if SsdeepDigest.parse(digest).is_empty:
        # Degenerate inputs (e.g. all zero bytes) produce an empty
        # signature; SSDeep defines comparisons with those as score 0.
        assert compare_digests(digest, digest) == 0
    else:
        assert compare_digests(digest, digest) == 100
    other = fuzzy_hash(data[::-1] + b"tail")
    assert compare_digests(digest, other) == compare_digests(other, digest)
    assert 0 <= compare_digests(digest, other) <= 100


@_default_settings
@given(st.text(alphabet="AB/+x", max_size=40), st.integers(min_value=1, max_value=5))
def test_normalize_repeats_never_lengthens(text, max_run):
    normalized = normalize_repeats(text, max_run=max_run)
    assert len(normalized) <= len(text)
    # No run longer than max_run survives.
    run = 1
    for previous, current in zip(normalized, normalized[1:]):
        run = run + 1 if previous == current else 1
        assert run <= max_run


# --------------------------------------------------------------------- binfmt
@_default_settings
@given(st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,18}", fullmatch=True),
                min_size=1, max_size=24, unique=True),
       st.binary(min_size=1, max_size=2048))
def test_elf_roundtrip_preserves_symbols_and_text(names, code):
    blob = build_executable(code=code, strings=["marker-string-1234"],
                            symbols=[SymbolSpec(name) for name in names])
    reader = ElfReader(blob)
    assert reader.section(".text").data == code
    recovered = sorted(s.name for s in reader.symbols if s.is_global)
    assert recovered == sorted(names)
    # The marker string may be embedded in a longer printable run when the
    # surrounding bytes happen to be printable too (exactly like `strings`).
    assert any("marker-string-1234" in run for run in extract_strings(blob))


@_default_settings
@given(st.binary(min_size=0, max_size=2048), st.integers(min_value=1, max_value=8))
def test_extract_strings_runs_are_printable_and_long_enough(data, min_length):
    for run in extract_strings(data, min_length=min_length):
        assert len(run) >= min_length
        assert all(0x20 <= ord(ch) <= 0x7E or ch == "\t" for ch in run)
        assert run.encode("ascii") in data


# ------------------------------------------------------------------------- ml
@_default_settings
@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=2, max_size=60),
       st.lists(st.sampled_from(["a", "b", "c"]), min_size=2, max_size=60))
def test_metric_bounds_and_micro_equals_accuracy(y_true, y_pred):
    n = min(len(y_true), len(y_pred))
    y_true, y_pred = y_true[:n], y_pred[:n]
    micro_p, micro_r, micro_f1, support = precision_recall_fscore_support(
        y_true, y_pred, average="micro")
    assert 0.0 <= micro_f1 <= 1.0
    assert micro_f1 == pytest.approx(accuracy_score(y_true, y_pred))
    assert support == n
    for average in ("macro", "weighted"):
        assert 0.0 <= f1_score(y_true, y_pred, average=average) <= 1.0


@_default_settings
@given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=3, max_size=50))
def test_balanced_sample_weights_give_equal_class_mass(labels):
    labels = np.asarray(labels, dtype=object)
    weights = compute_sample_weight("balanced", labels)
    assert weights.shape == labels.shape
    masses = {label: weights[labels == label].sum() for label in set(labels.tolist())}
    values = list(masses.values())
    assert np.allclose(values, values[0])
