"""Structure-aware fuzzing of feature extraction over corrupt ELF files.

Real executables from :func:`repro.binfmt.writer.build_executable` get
one structural field overwritten — ``e_shoff``, ``e_shnum`` or
``e_shstrndx`` in the ELF header; ``sh_offset``, ``sh_size``,
``sh_link`` or ``sh_type`` of one section header — or are truncated at
an arbitrary offset, and go through
``FeatureExtractor(ALL_FEATURE_TYPES).extract``.

Invariant: every non-empty input yields :class:`SampleFeatures` (no
exception escapes, so a corrupt upload cannot fail the batch it was
coalesced into), and ``malformed_elf_total`` rises exactly for inputs
that carry the ELF magic but whose symbol table does not parse.
"""

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.binfmt import constants as C
from repro.binfmt.reader import ElfReader, is_elf
from repro.binfmt.structs import SymbolSpec
from repro.binfmt.symbols import nm_output
from repro.binfmt.writer import build_executable
from repro.exceptions import BinaryFormatError, SymbolTableError
from repro.features.extractors import (ALL_FEATURE_TYPES, FeatureExtractor,
                                       malformed_elf_total)
from repro.features.records import SampleFeatures

#: ``(offset, struct format)`` of the fuzzed ELF64 header fields.
HEADER_FIELDS = {"e_shoff": (40, "<Q"), "e_shnum": (60, "<H"),
                 "e_shstrndx": (62, "<H")}

#: ``(offset within a section header, struct format)`` of the fuzzed
#: section-header fields.
SECTION_FIELDS = {"sh_type": (4, "<I"), "sh_offset": (24, "<Q"),
                  "sh_size": (32, "<Q"), "sh_link": (40, "<I")}


def _executable(seed: int, *, stripped: bool) -> bytes:
    rnd = random.Random(seed)
    symbols = [SymbolSpec(f"fuzz_func_{i:02d}") for i in range(12)]
    symbols.append(SymbolSpec("fuzz_table", kind="object"))
    symbols.append(SymbolSpec("fuzz_local", kind="local"))
    return build_executable(
        code=rnd.randbytes(1500), strings=["fuzz target", "usage: fuzz"],
        symbols=symbols, comment="GCC: (GNU) 11.2.0",
        data=rnd.randbytes(64), needed_libraries=["libm.so.6", "libc.so.6"],
        stripped=stripped)


BASES = [_executable(1, stripped=False), _executable(2, stripped=True)]

_values = {fmt: st.one_of(
    st.integers(0, top), st.sampled_from([0, 1, 2, 3, 64, 4096, top]))
    for fmt, top in (("<H", 2 ** 16 - 1), ("<I", 2 ** 32 - 1),
                     ("<Q", 2 ** 64 - 1))}

_mutations = st.one_of(
    st.tuples(st.just("header"), st.sampled_from(sorted(HEADER_FIELDS)),
              st.data()),
    st.tuples(st.just("section"), st.sampled_from(sorted(SECTION_FIELDS)),
              st.data()),
    st.tuples(st.just("truncate"), st.integers(1, 1 << 16), st.data()),
)


def _mutate(base: bytes, mutation) -> bytes:
    kind, field, data = mutation
    if kind == "truncate":
        return base[:1 + field % len(base)]
    blob = bytearray(base)
    if kind == "header":
        offset, fmt = HEADER_FIELDS[field]
    else:
        (e_shoff,) = struct.unpack_from("<Q", base, 40)
        (e_shnum,) = struct.unpack_from("<H", base, 60)
        section = data.draw(st.integers(0, e_shnum - 1), label="section")
        field_offset, fmt = SECTION_FIELDS[field]
        offset = e_shoff + section * C.SHDR_SIZE + field_offset
    struct.pack_into(fmt, blob, offset, data.draw(_values[fmt], label=field))
    return bytes(blob)


def _symbols_parse(data: bytes) -> bool:
    """The extractor's own notion of a well-formed ELF: the header and
    symbol table read (a missing symbol table just means stripped)."""

    try:
        nm_output(ElfReader(data))
    except SymbolTableError:
        return True
    except BinaryFormatError:
        return False
    return True


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(range(len(BASES))), _mutations)
def test_corrupt_elf_always_extracts_and_is_counted_only_when_malformed(
        base, mutation):
    data = _mutate(BASES[base], mutation)
    before = malformed_elf_total()
    features = FeatureExtractor(ALL_FEATURE_TYPES).extract(data)
    assert isinstance(features, SampleFeatures)
    assert set(features.digests) == set(ALL_FEATURE_TYPES)
    malformed = is_elf(data) and not _symbols_parse(data)
    assert malformed_elf_total() - before == int(malformed)


@pytest.mark.parametrize("base", range(len(BASES)))
def test_unmutated_executables_are_not_counted(base):
    before = malformed_elf_total()
    FeatureExtractor(ALL_FEATURE_TYPES).extract(BASES[base])
    assert malformed_elf_total() == before
