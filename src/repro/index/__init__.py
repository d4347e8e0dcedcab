"""Persistent top-k similarity index subsystem.

This package turns the library's ad-hoc, rebuilt-per-fit candidate
structures into a first-class index that can be built once, updated
incrementally, queried repeatedly and shipped between processes:

* :class:`~repro.index.core.SimilarityIndex` — members bucketed by
  ``(feature_type, block_size)`` with 7-gram inverted postings;
  ``add`` / ``add_many`` incremental updates, ``top_k`` queries,
  a budgeted ``pairwise_matrix`` and dense ``score_matrix`` scoring
  (the backend of
  :class:`~repro.features.similarity.SimilarityFeatureBuilder`);
* :mod:`~repro.index.postings` — the columnar storage behind it:
  signatures interned in an index-wide pool, entries as ``int32``
  columns, postings as sorted CSR triples over FNV-64 hashed
  ``(block_size, gram)`` keys with a vectorised candidate walk
  (``np.searchsorted`` + slab gather + ``np.unique``), built
  incrementally through a merge-on-demand tail (``seal()`` forces the
  merge);
* :mod:`~repro.index.storage` — the single-file on-disk container
  (JSON header + raw NumPy arrays, versioned, magic ``RPROSIDX``;
  format v2 carries the columnar arrays, v1 files rebuild on load);
* :mod:`~repro.index.legacy` — readers for the retired sharded
  layouts (a ``manifest.json`` directory, or a ``"sharded": true``
  snapshot inside a model artifact), which load as one index over
  their surviving members; :func:`~repro.index.core.load_index` opens
  a file or such a directory.

Removing members
----------------
``SimilarityIndex.remove(sample_id)`` tombstones members without
touching the postings: every query answers over the survivors,
renumbered densely in insertion order, exactly as a fresh index built
from them would.  ``compact()`` drops tombstoned members physically,
and ``get_state`` / ``save`` always write the survivors only.

Digest format and comparability rules
-------------------------------------
An SSDeep digest is ``block_size:chunk:double_chunk``, where ``chunk``
was computed at ``block_size`` and ``double_chunk`` at twice that.  Two
digests are comparable only when their block sizes are **equal or one
step apart** (a factor of two); the index therefore expands every digest
into its ``(block_size, chunk)`` and ``(2 * block_size, double_chunk)``
signatures so comparability becomes exact block-size bucket matching.
Signatures are run-length normalised (runs longer than three characters
collapse to three) before indexing, and a pair can only score above zero
when it shares at least one **7-character substring** — the 7-gram
precondition that backs the inverted postings.  A consequence worth
remembering: signatures shorter than seven characters never match,
*even when identical*.  Scores are the SSDeep 0–100 scale (weighted
edit distance: insert/delete 1, substitute 3, transpose 5) with
identical signatures pinned to 100.

The same rules are documented from the CLI via
``repro-classify index stats`` and in the README's *Similarity index*
section.

Vector-digest members (second hash family)
------------------------------------------
Feature types named ``vector-*`` hold fixed-length ``vr1:`` digests
(:mod:`repro.hashing.vector`) instead of CTPH signatures.  They bypass
the posting machinery entirely: each vector store keeps one packed
``uint64`` row per member and candidates are scored by a vectorised
XOR + popcount Hamming sweep — every pair is comparable, no block-size
or 7-gram gate applies.  :class:`~repro.index.knn.VectorKNNIndex` is
the standalone top-k structure over one such packed matrix.
"""

from .core import (IndexMatch, PairScore, SimilarityIndex, expand_digest,
                   load_index)
from .knn import KNNMatch, PackedDigestStore, VectorKNNIndex, brute_force_top_k
from .storage import FORMAT_VERSION

__all__ = [
    "FORMAT_VERSION",
    "IndexMatch",
    "KNNMatch",
    "PackedDigestStore",
    "PairScore",
    "SimilarityIndex",
    "VectorKNNIndex",
    "brute_force_top_k",
    "expand_digest",
    "load_index",
]
