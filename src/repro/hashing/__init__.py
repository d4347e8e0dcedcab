"""Fuzzy-hashing substrate: a from-scratch SSDeep (CTPH) implementation.

SSDeep (Kornblum 2006) computes *context triggered piecewise hashes*:

1. a 7-byte rolling hash slides over the input; whenever its value is
   congruent to ``block_size - 1`` a chunk boundary is "triggered",
2. each chunk is summarised by the low 6 bits of an FNV-style hash and
   encoded as one base64 character,
3. the digest is ``block_size:chunk_signature:double_block_signature``
   where the second signature is computed at twice the block size,
4. two digests are compared by a Damerau–Levenshtein-style edit distance
   between their signatures, scaled to a 0–100 similarity score.

This subpackage implements all four steps without external
dependencies.  The Python `ssdeep` bindings are not available in this
environment, so the implementation here *is* the substrate the paper's
pipeline runs on (see DESIGN.md).

Public entry points
-------------------
* :func:`fuzzy_hash` / :class:`FuzzyHasher` — compute digests,
* :class:`SsdeepDigest` — parse / format digest strings,
* :func:`compare_digests` — 0–100 similarity between two digests,
* :func:`repro.hashing.crypto.crypto_digest` — cryptographic digests for
  the exact-match baseline.

A second, fixed-length hash family lives in :mod:`repro.hashing.vector`:
TLSH-style 72-character ``vr1:`` digests whose similarity is a Hamming
distance over a 256-bit rank-quartile body (:func:`vector_hash`,
:class:`VectorHasher`, :func:`compare_vector_digests`).  Unlike CTPH,
every pair of vector digests is comparable — there is no block-size
gate — and corpus-scale scoring packs digests into ``uint64`` matrices
(:class:`repro.index.knn.PackedDigestStore`, which
:class:`repro.index.SimilarityIndex` embeds per ``vector-*`` type).
"""

from .rolling import ROLLING_WINDOW, RollingHash, rolling_hash_values
from .fnv import FNV_INIT, FNV_PRIME, fnv_hash, fnv_update
from .b64 import B64_ALPHABET, encode_low6
from .ssdeep import (
    MIN_BLOCKSIZE,
    SPAMSUM_LENGTH,
    FuzzyHasher,
    SsdeepDigest,
    fuzzy_hash,
    fuzzy_hash_file,
)
from .compare import (
    compare_digests,
    has_common_substring,
    normalize_repeats,
)
from .crypto import crypto_digest, crypto_digest_file
from .vector import (
    VECTOR_DIGEST_LENGTH,
    VECTOR_PREFIX,
    VectorDigest,
    VectorHasher,
    compare_vector_digests,
    is_vector_digest,
    is_vector_feature_type,
    vector_hash,
)

__all__ = [
    "ROLLING_WINDOW",
    "RollingHash",
    "rolling_hash_values",
    "FNV_INIT",
    "FNV_PRIME",
    "fnv_hash",
    "fnv_update",
    "B64_ALPHABET",
    "encode_low6",
    "MIN_BLOCKSIZE",
    "SPAMSUM_LENGTH",
    "FuzzyHasher",
    "SsdeepDigest",
    "fuzzy_hash",
    "fuzzy_hash_file",
    "compare_digests",
    "has_common_substring",
    "normalize_repeats",
    "crypto_digest",
    "crypto_digest_file",
    "VECTOR_DIGEST_LENGTH",
    "VECTOR_PREFIX",
    "VectorDigest",
    "VectorHasher",
    "compare_vector_digests",
    "is_vector_digest",
    "is_vector_feature_type",
    "vector_hash",
]
