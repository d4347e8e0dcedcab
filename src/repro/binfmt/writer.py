"""Minimal ELF64 writer.

The synthetic corpus generator (:mod:`repro.corpus`) needs to
materialise executables that behave like real HPC application binaries
under the paper's feature extractors:

* raw bytes that an SSDeep file hash can fingerprint,
* a ``.rodata``/``.comment`` section full of printable strings that the
  ``strings`` equivalent recovers,
* a ``.symtab``/``.strtab`` pair containing global function symbols
  that the ``nm`` equivalent recovers (and that a ``strip`` equivalent
  can remove).

:class:`ElfWriter` assembles such files.  The layout is intentionally
simple — header, one ``PT_LOAD`` program header, section contents, then
the section header table — but structurally valid: our reader, and any
standard ELF tool, can parse the result.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from ..exceptions import BinaryFormatError
from . import constants as C
from .structs import ElfHeader, ElfSymbol, ProgramHeader, SectionHeader, SymbolSpec

__all__ = ["ElfWriter", "build_executable"]


def _align(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""

    if alignment <= 1:
        return value
    return (value + alignment - 1) // alignment * alignment


@dataclass
class _PendingSection:
    """A section queued for emission."""

    name: str
    sh_type: int
    flags: int
    data: bytes
    addralign: int = 1
    entsize: int = 0
    link: int = 0
    info: int = 0
    addr: int = 0


class ElfWriter:
    """Assemble a small ELF64 executable from code, strings and symbols.

    Typical use (what the corpus builder does)::

        writer = ElfWriter()
        writer.set_text(code_bytes)
        writer.set_rodata(["OpenMalaria simulator", "usage: ..."])
        writer.add_symbols([SymbolSpec("om_simulate_timestep"), ...])
        writer.set_comment("GCC: (GNU) 10.3.0")
        blob = writer.build()
    """

    def __init__(self, *, base_vaddr: int = C.DEFAULT_BASE_VADDR,
                 elf_type: int = C.ET_EXEC) -> None:
        self.base_vaddr = int(base_vaddr)
        self.elf_type = int(elf_type)
        self._text: bytes = b""
        self._rodata_strings: list[str] = []
        self._extra_rodata: bytes = b""
        self._comment: str = ""
        self._symbols: list[SymbolSpec] = []
        self._data_section: bytes = b""
        self._strip_symbols: bool = False
        self._needed_libraries: list[str] = []

    # ------------------------------------------------------------ builders
    def set_text(self, code: bytes) -> "ElfWriter":
        """Set the contents of the ``.text`` section (the "machine code")."""

        self._text = bytes(code)
        return self

    def set_rodata(self, strings: Sequence[str], extra: bytes = b"") -> "ElfWriter":
        """Set printable strings (NUL-separated) and optional raw bytes."""

        self._rodata_strings = [str(s) for s in strings]
        self._extra_rodata = bytes(extra)
        return self

    def set_data(self, data: bytes) -> "ElfWriter":
        """Set contents of a writable ``.data`` section."""

        self._data_section = bytes(data)
        return self

    def set_comment(self, comment: str) -> "ElfWriter":
        """Set the ``.comment`` section (toolchain identification string)."""

        self._comment = str(comment)
        return self

    def add_symbols(self, symbols: Sequence[SymbolSpec]) -> "ElfWriter":
        """Queue symbols for the symbol table."""

        self._symbols.extend(symbols)
        return self

    def set_needed_libraries(self, names: Sequence[str]) -> "ElfWriter":
        """Declare shared-library dependencies (``DT_NEEDED`` entries).

        Emits a ``.dynstr`` string table and a ``.dynamic`` section the
        :mod:`repro.binfmt.dynamic` reader (the ``ldd`` equivalent) can
        recover.
        """

        self._needed_libraries = [str(n) for n in names if n]
        return self

    def without_symbol_table(self, stripped: bool = True) -> "ElfWriter":
        """Omit ``.symtab``/``.strtab`` entirely (a pre-stripped binary)."""

        self._strip_symbols = bool(stripped)
        return self

    # --------------------------------------------------------------- build
    def build(self) -> bytes:
        """Serialise the executable and return its bytes."""

        if not self._text:
            raise BinaryFormatError("cannot build an executable with empty .text")

        rodata = b"\x00".join(s.encode("utf-8", errors="replace")
                              for s in self._rodata_strings)
        if rodata:
            rodata += b"\x00"
        rodata += self._extra_rodata
        comment = self._comment.encode("utf-8", errors="replace") + b"\x00" \
            if self._comment else b""

        sections: list[_PendingSection] = [
            _PendingSection(name="", sh_type=C.SHT_NULL, flags=0, data=b""),
            _PendingSection(name=".text", sh_type=C.SHT_PROGBITS,
                            flags=C.SHF_ALLOC | C.SHF_EXECINSTR,
                            data=self._text, addralign=16),
        ]
        text_index = 1
        if rodata:
            sections.append(_PendingSection(name=".rodata", sh_type=C.SHT_PROGBITS,
                                            flags=C.SHF_ALLOC, data=rodata,
                                            addralign=8))
        if self._data_section:
            sections.append(_PendingSection(name=".data", sh_type=C.SHT_PROGBITS,
                                            flags=C.SHF_ALLOC | C.SHF_WRITE,
                                            data=self._data_section, addralign=8))
        if comment:
            sections.append(_PendingSection(name=".comment", sh_type=C.SHT_PROGBITS,
                                            flags=0, data=comment))

        if self._needed_libraries:
            dynstr, dynamic = self._build_dynamic()
            dynstr_index = len(sections) + 1
            sections.append(_PendingSection(name=".dynamic", sh_type=C.SHT_DYNAMIC,
                                            flags=C.SHF_ALLOC, data=dynamic,
                                            addralign=8, entsize=C.DYN_SIZE,
                                            link=dynstr_index))
            sections.append(_PendingSection(name=".dynstr", sh_type=C.SHT_STRTAB,
                                            flags=C.SHF_ALLOC, data=dynstr))

        symtab_data = b""
        strtab_data = b""
        symtab_link = 0
        first_global_index = 1
        if self._symbols and not self._strip_symbols:
            symtab_data, strtab_data, first_global_index = self._build_symtab(text_index)
            # .strtab will be appended right after .symtab below.
            symtab_link = len(sections) + 1
            sections.append(_PendingSection(name=".symtab", sh_type=C.SHT_SYMTAB,
                                            flags=0, data=symtab_data,
                                            addralign=8, entsize=C.SYM_SIZE,
                                            link=symtab_link,
                                            info=first_global_index))
            sections.append(_PendingSection(name=".strtab", sh_type=C.SHT_STRTAB,
                                            flags=0, data=strtab_data))

        # Section name string table, always last.
        shstrtab, name_offsets = self._build_shstrtab(
            [s.name for s in sections] + [".shstrtab"])
        sections.append(_PendingSection(name=".shstrtab", sh_type=C.SHT_STRTAB,
                                        flags=0, data=shstrtab))

        # ------------------------------------------------ lay out the file
        phnum = 1
        offset = C.EHDR_SIZE + phnum * C.PHDR_SIZE
        headers: list[SectionHeader] = []
        blob = bytearray()
        blob += b"\x00" * offset  # placeholder for ELF header + phdrs

        vaddr_cursor = self.base_vaddr + offset
        for section in sections:
            if section.sh_type == C.SHT_NULL:
                headers.append(SectionHeader())
                continue
            offset = _align(len(blob), section.addralign)
            blob += b"\x00" * (offset - len(blob))
            addr = 0
            if section.flags & C.SHF_ALLOC:
                addr = self.base_vaddr + offset
                vaddr_cursor = addr + len(section.data)
            headers.append(SectionHeader(
                sh_name=name_offsets[section.name],
                sh_type=section.sh_type,
                sh_flags=section.flags,
                sh_addr=addr,
                sh_offset=offset,
                sh_size=len(section.data),
                sh_link=section.link,
                sh_info=section.info,
                sh_addralign=section.addralign,
                sh_entsize=section.entsize,
            ))
            blob += section.data

        shoff = _align(len(blob), 8)
        blob += b"\x00" * (shoff - len(blob))
        for header in headers:
            blob += header.pack()

        # ----------------------------------------------- header + program
        ehdr = ElfHeader(
            e_type=self.elf_type,
            e_entry=self.base_vaddr + C.EHDR_SIZE + phnum * C.PHDR_SIZE,
            e_phoff=C.EHDR_SIZE,
            e_shoff=shoff,
            e_phnum=phnum,
            e_shnum=len(headers),
            e_shstrndx=len(headers) - 1,
        )
        phdr = ProgramHeader(
            p_offset=0,
            p_vaddr=self.base_vaddr,
            p_paddr=self.base_vaddr,
            p_filesz=len(blob),
            p_memsz=len(blob),
            p_flags=C.PF_R | C.PF_X,
        )
        blob[0:C.EHDR_SIZE] = ehdr.pack()
        blob[C.EHDR_SIZE:C.EHDR_SIZE + C.PHDR_SIZE] = phdr.pack()
        return bytes(blob)

    def write(self, path: str | os.PathLike) -> int:
        """Build and write the executable to ``path``; returns its size."""

        blob = self.build()
        with open(path, "wb") as fh:
            fh.write(blob)
        os.chmod(path, 0o755)
        return len(blob)

    # ----------------------------------------------------------- internals
    def _build_dynamic(self) -> tuple[bytes, bytes]:
        """Build ``.dynstr`` and ``.dynamic`` (DT_NEEDED entries + DT_NULL)."""

        import struct

        dynstr = bytearray(b"\x00")
        entries = bytearray()
        for name in self._needed_libraries:
            offset = len(dynstr)
            dynstr.extend(name.encode("utf-8", errors="replace") + b"\x00")
            entries += struct.pack("<qQ", C.DT_NEEDED, offset)
        entries += struct.pack("<qQ", C.DT_NULL, 0)
        return bytes(dynstr), bytes(entries)

    def _build_symtab(self, text_index: int) -> tuple[bytes, bytes, int]:
        """Build ``.symtab`` and ``.strtab`` contents.

        Local symbols must precede global ones (sh_info is the index of
        the first global symbol), so the specs are partitioned first.
        """

        strtab = bytearray(b"\x00")
        entries = bytearray()
        # Leading NULL symbol.
        entries += ElfSymbol(name="", value=0, size=0, bind=C.STB_LOCAL,
                             type=C.STT_NOTYPE, shndx=C.SHN_UNDEF).pack(0)

        local = [s for s in self._symbols if s.kind == "local"]
        non_local = [s for s in self._symbols if s.kind != "local"]
        value_cursor = self.base_vaddr + 0x1000

        def emit(spec: SymbolSpec) -> None:
            nonlocal value_cursor
            name_offset = len(strtab)
            strtab.extend(spec.name.encode("utf-8", errors="replace") + b"\x00")
            value = spec.value if spec.value is not None else value_cursor
            value_cursor += max(spec.size, 16)
            symbol = spec.to_symbol(shndx=text_index, value=value)
            entries.extend(symbol.pack(name_offset))

        for spec in local:
            emit(spec)
        first_global_index = 1 + len(local)
        for spec in non_local:
            emit(spec)
        return bytes(entries), bytes(strtab), first_global_index

    @staticmethod
    def _build_shstrtab(names: Sequence[str]) -> tuple[bytes, dict[str, int]]:
        """Build the section-name string table and per-name offsets."""

        table = bytearray(b"\x00")
        offsets: dict[str, int] = {"": 0}
        for name in names:
            if not name or name in offsets:
                continue
            offsets[name] = len(table)
            table.extend(name.encode("ascii") + b"\x00")
        return bytes(table), offsets


def build_executable(*, code: bytes, strings: Sequence[str],
                     symbols: Sequence[SymbolSpec],
                     comment: str = "",
                     data: bytes = b"",
                     needed_libraries: Sequence[str] = (),
                     stripped: bool = False,
                     base_vaddr: int = C.DEFAULT_BASE_VADDR) -> bytes:
    """One-call convenience wrapper around :class:`ElfWriter`."""

    writer = ElfWriter(base_vaddr=base_vaddr)
    writer.set_text(code)
    writer.set_rodata(strings)
    if data:
        writer.set_data(data)
    if comment:
        writer.set_comment(comment)
    if needed_libraries:
        writer.set_needed_libraries(needed_libraries)
    writer.add_symbols(symbols)
    writer.without_symbol_table(stripped)
    return writer.build()
