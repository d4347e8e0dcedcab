"""Digest extraction for one executable.

The three features of the paper (Section 3, "Feature Extraction"):

* ``ssdeep-file`` — fuzzy hash of the raw binary content,
* ``ssdeep-strings`` — fuzzy hash of the ``strings`` output (continuous
  printable characters),
* ``ssdeep-symbols`` — fuzzy hash of the ``nm`` output (global symbols
  from the symbol table).

plus the cryptographic digest (``sha256``) of the raw content used by
the exact-match baseline.  Stripped binaries yield an empty symbols
digest and are flagged, matching the paper's limitation discussion.

Every CTPH feature has a ``vector-*`` sibling computed over the same
content stream with the fixed-length TLSH-style digest from
:mod:`repro.hashing.vector` (``vector-file``, ``vector-strings``,
``vector-symbols``, ``vector-libs``).  Each content source — raw bytes,
``strings`` output, ``nm`` output, ``ldd`` output — is produced once
and hashed by whichever families the requested feature types cover.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..binfmt.dynamic import ldd_output
from ..binfmt.reader import ElfReader, is_elf
from ..binfmt.strings_extract import extract_strings, strings_output
from ..binfmt.symbols import extract_global_symbols, nm_output
from ..exceptions import (BinaryFormatError, FeatureExtractionError,
                          SymbolTableError)
from ..hashing.crypto import crypto_digest
from ..hashing.ssdeep import FuzzyHasher
from ..hashing.vector import VectorHasher
from .records import SampleFeatures

__all__ = ["FEATURE_TYPES", "EXTENDED_FEATURE_TYPES",
           "VECTOR_FEATURE_TYPES", "ALL_FEATURE_TYPES", "HASH_FAMILIES",
           "FeatureExtractor", "resolve_family_feature_types",
           "malformed_elf_total"]

#: The canonical feature types of the paper, in the order used throughout
#: the library.
FEATURE_TYPES: tuple[str, ...] = ("ssdeep-file", "ssdeep-strings", "ssdeep-symbols")

#: The paper's features plus the future-work ``ldd`` feature (fuzzy hash of
#: the shared-library dependency list).
EXTENDED_FEATURE_TYPES: tuple[str, ...] = FEATURE_TYPES + ("ssdeep-libs",)

#: Fixed-length vector-digest siblings of the CTPH features, computed
#: over the same content sources.
VECTOR_FEATURE_TYPES: tuple[str, ...] = (
    "vector-file", "vector-strings", "vector-symbols", "vector-libs")

#: Every feature type the extractor knows how to compute.
ALL_FEATURE_TYPES: tuple[str, ...] = EXTENDED_FEATURE_TYPES + VECTOR_FEATURE_TYPES

#: Hash-family selectors accepted by :func:`resolve_family_feature_types`.
HASH_FAMILIES: tuple[str, ...] = ("ctph", "vector", "both")


# Inputs with ELF magic whose headers or tables do not parse, counted
# for operational visibility (surfaced by the serving tier under
# GET /metrics).  Extraction runs on several serving threads at once,
# so increments take a lock.
_MALFORMED_ELF_LOCK = threading.Lock()
_MALFORMED_ELF_TOTAL = 0


def malformed_elf_total() -> int:
    """How many extractions in this process read a malformed ELF input
    as non-ELF input for the symbol feature.

    It counts extractions, not uploads: a serving process answers a
    re-upload of the same bytes from its extraction cache without
    parsing it again, so the re-upload is not counted again.
    """

    with _MALFORMED_ELF_LOCK:
        return _MALFORMED_ELF_TOTAL


def _count_malformed_elf() -> None:
    global _MALFORMED_ELF_TOTAL
    with _MALFORMED_ELF_LOCK:
        _MALFORMED_ELF_TOTAL += 1


def _vector_sibling(feature_type: str) -> str:
    """``ssdeep-file`` → ``vector-file`` (vector types map to themselves)."""

    if feature_type.startswith("vector-"):
        return feature_type
    return "vector-" + feature_type.split("-", 1)[1]


def resolve_family_feature_types(feature_types: Sequence[str],
                                 family: str) -> tuple[str, ...]:
    """Expand base CTPH feature types to the requested hash families.

    ``family="ctph"`` returns ``feature_types`` unchanged; ``"vector"``
    swaps each for its fixed-length vector sibling over the same content
    source; ``"both"`` appends the vector siblings after the CTPH block,
    giving the classifier parallel per-class feature columns from both
    families.
    """

    if family not in HASH_FAMILIES:
        raise FeatureExtractionError(
            f"family must be one of {HASH_FAMILIES}, got {family!r}")
    if family == "ctph":
        resolved = tuple(feature_types)
    elif family == "vector":
        resolved = tuple(_vector_sibling(ft) for ft in feature_types)
    else:
        resolved = tuple(feature_types) + tuple(
            _vector_sibling(ft) for ft in feature_types
            if _vector_sibling(ft) not in feature_types)
    seen: dict[str, None] = {}
    for ft in resolved:
        seen.setdefault(ft, None)
    resolved = tuple(seen)
    unknown = set(resolved) - set(ALL_FEATURE_TYPES)
    if unknown:
        raise FeatureExtractionError(
            f"family {family!r} expansion produced unknown feature types "
            f"{sorted(unknown)}; expected a subset of {ALL_FEATURE_TYPES}")
    return resolved


class FeatureExtractor:
    """Compute the fuzzy-hash features of executable bytes.

    Parameters
    ----------
    feature_types:
        Subset of :data:`FEATURE_TYPES` to compute (ablation experiments
        use this to drop features).
    min_string_length:
        Minimum printable-run length for the ``strings`` feature.
    include_symbol_addresses:
        Include addresses in the ``nm`` output before hashing (off by
        default; addresses change with every build and only add noise).
    """

    def __init__(self, feature_types: Sequence[str] = FEATURE_TYPES, *,
                 min_string_length: int = 4,
                 include_symbol_addresses: bool = False) -> None:
        unknown = set(feature_types) - set(ALL_FEATURE_TYPES)
        if unknown:
            raise FeatureExtractionError(
                f"unknown feature types {sorted(unknown)}; expected a subset of "
                f"{ALL_FEATURE_TYPES}")
        if not feature_types:
            raise FeatureExtractionError("feature_types must not be empty")
        self.feature_types = tuple(feature_types)
        self.min_string_length = int(min_string_length)
        self.include_symbol_addresses = bool(include_symbol_addresses)
        self._hasher = FuzzyHasher()
        self._vhasher = VectorHasher()

    # ----------------------------------------------------------------- API
    def extract(self, data: bytes, *, sample_id: str = "", class_name: str = "",
                version: str = "", executable: str = "") -> SampleFeatures:
        """Extract features from in-memory executable bytes."""

        if not data:
            raise FeatureExtractionError(f"sample {sample_id!r} is empty")

        digests: dict[str, str] = {}
        n_symbols = 0
        n_strings = 0
        stripped = False
        wanted = set(self.feature_types)

        if "ssdeep-file" in wanted:
            digests["ssdeep-file"] = str(self._hasher.hash(data))
        if "vector-file" in wanted:
            digests["vector-file"] = str(self._vhasher.hash(data))

        if wanted & {"ssdeep-strings", "vector-strings"}:
            text = strings_output(data, min_length=self.min_string_length)
            n_strings = text.count("\n")
            if "ssdeep-strings" in wanted:
                digests["ssdeep-strings"] = str(self._hasher.hash(text))
            if "vector-strings" in wanted:
                digests["vector-strings"] = str(self._vhasher.hash(text))

        if wanted & {"ssdeep-symbols", "vector-symbols"}:
            symbol_text = ""
            if is_elf(data):
                try:
                    reader = ElfReader(data)
                    symbol_text = nm_output(
                        reader, include_addresses=self.include_symbol_addresses)
                    n_symbols = symbol_text.count("\n")
                except BinaryFormatError as exc:
                    # A stripped binary has no symbols; one that does not
                    # parse is treated like non-ELF input, which has none
                    # either, so it cannot fail the batch it arrived in.
                    stripped = True
                    if not isinstance(exc, SymbolTableError):
                        _count_malformed_elf()
            else:
                stripped = True
            if "ssdeep-symbols" in wanted:
                digests["ssdeep-symbols"] = str(self._hasher.hash(symbol_text))
            if "vector-symbols" in wanted:
                digests["vector-symbols"] = str(self._vhasher.hash(symbol_text))

        if wanted & {"ssdeep-libs", "vector-libs"}:
            libs_text = ""
            if is_elf(data):
                try:
                    libs_text = ldd_output(data)
                except Exception:
                    libs_text = ""
            if "ssdeep-libs" in wanted:
                digests["ssdeep-libs"] = str(self._hasher.hash(libs_text))
            if "vector-libs" in wanted:
                digests["vector-libs"] = str(self._vhasher.hash(libs_text))

        return SampleFeatures(
            sample_id=sample_id or crypto_digest(data)[:16],
            class_name=class_name,
            version=version,
            executable=executable,
            digests=digests,
            sha256=crypto_digest(data),
            file_size=len(data),
            n_symbols=n_symbols,
            n_strings=n_strings,
            stripped=stripped,
        )

    def extract_file(self, path: str, *, sample_id: str = "",
                     class_name: str = "", version: str = "",
                     executable: str = "") -> SampleFeatures:
        """Extract features from a file on disk."""

        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise FeatureExtractionError(f"cannot read {path}: {exc}") from exc
        return self.extract(data, sample_id=sample_id or path,
                            class_name=class_name, version=version,
                            executable=executable)
