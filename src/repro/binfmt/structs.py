"""Dataclasses and (de)serialisation for ELF64 structures.

Everything is little-endian ELF64, the format of every x86-64 HPC
executable the paper's data set consists of.  The structures are kept
deliberately close to the on-disk layout so that the writer and reader
stay symmetric and easy to audit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..exceptions import TruncatedBinaryError
from . import constants as C

__all__ = ["ElfHeader", "SectionHeader", "ProgramHeader", "ElfSymbol",
           "ElfSection", "SymbolSpec"]

_EHDR_FMT = "<16sHHIQQQIHHHHHH"
_SHDR_FMT = "<IIQQQQIIQQ"
_PHDR_FMT = "<IIQQQQQQ"
_SYM_FMT = "<IBBHQQ"


@dataclass
class ElfHeader:
    """The ELF file header (Elf64_Ehdr)."""

    e_type: int = C.ET_EXEC
    e_machine: int = C.EM_X86_64
    e_version: int = C.EV_CURRENT
    e_entry: int = C.DEFAULT_BASE_VADDR
    e_phoff: int = 0
    e_shoff: int = 0
    e_flags: int = 0
    e_ehsize: int = C.EHDR_SIZE
    e_phentsize: int = C.PHDR_SIZE
    e_phnum: int = 0
    e_shentsize: int = C.SHDR_SIZE
    e_shnum: int = 0
    e_shstrndx: int = 0

    def pack(self) -> bytes:
        """Serialise to the 64-byte on-disk representation."""

        ident = (C.ELF_MAGIC +
                 bytes([C.ELFCLASS64, C.ELFDATA2LSB, C.EV_CURRENT,
                        C.ELFOSABI_SYSV]) +
                 bytes(8))
        return struct.pack(
            _EHDR_FMT, ident, self.e_type, self.e_machine, self.e_version,
            self.e_entry, self.e_phoff, self.e_shoff, self.e_flags,
            self.e_ehsize, self.e_phentsize, self.e_phnum,
            self.e_shentsize, self.e_shnum, self.e_shstrndx,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ElfHeader":
        """Parse the header from the start of ``data``."""

        if len(data) < C.EHDR_SIZE:
            raise TruncatedBinaryError(
                f"file too small for an ELF header ({len(data)} bytes)"
            )
        fields = struct.unpack_from(_EHDR_FMT, data, 0)
        (_ident, e_type, e_machine, e_version, e_entry, e_phoff, e_shoff,
         e_flags, e_ehsize, e_phentsize, e_phnum, e_shentsize, e_shnum,
         e_shstrndx) = fields
        return cls(e_type=e_type, e_machine=e_machine, e_version=e_version,
                   e_entry=e_entry, e_phoff=e_phoff, e_shoff=e_shoff,
                   e_flags=e_flags, e_ehsize=e_ehsize, e_phentsize=e_phentsize,
                   e_phnum=e_phnum, e_shentsize=e_shentsize, e_shnum=e_shnum,
                   e_shstrndx=e_shstrndx)


@dataclass
class SectionHeader:
    """A section header (Elf64_Shdr)."""

    sh_name: int = 0
    sh_type: int = C.SHT_NULL
    sh_flags: int = 0
    sh_addr: int = 0
    sh_offset: int = 0
    sh_size: int = 0
    sh_link: int = 0
    sh_info: int = 0
    sh_addralign: int = 1
    sh_entsize: int = 0

    def pack(self) -> bytes:
        return struct.pack(_SHDR_FMT, self.sh_name, self.sh_type, self.sh_flags,
                           self.sh_addr, self.sh_offset, self.sh_size,
                           self.sh_link, self.sh_info, self.sh_addralign,
                           self.sh_entsize)

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> "SectionHeader":
        if offset + C.SHDR_SIZE > len(data):
            raise TruncatedBinaryError(
                f"section header at offset {offset} extends past end of file"
            )
        fields = struct.unpack_from(_SHDR_FMT, data, offset)
        return cls(*fields)


@dataclass
class ProgramHeader:
    """A program header (Elf64_Phdr)."""

    p_type: int = C.PT_LOAD
    p_flags: int = C.PF_R | C.PF_X
    p_offset: int = 0
    p_vaddr: int = C.DEFAULT_BASE_VADDR
    p_paddr: int = C.DEFAULT_BASE_VADDR
    p_filesz: int = 0
    p_memsz: int = 0
    p_align: int = 0x1000

    def pack(self) -> bytes:
        return struct.pack(_PHDR_FMT, self.p_type, self.p_flags, self.p_offset,
                           self.p_vaddr, self.p_paddr, self.p_filesz,
                           self.p_memsz, self.p_align)

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> "ProgramHeader":
        if offset + C.PHDR_SIZE > len(data):
            raise TruncatedBinaryError(
                f"program header at offset {offset} extends past end of file"
            )
        fields = struct.unpack_from(_PHDR_FMT, data, offset)
        return cls(*fields)


@dataclass
class ElfSymbol:
    """A symbol-table entry (Elf64_Sym) plus its resolved name."""

    name: str
    value: int
    size: int
    bind: int
    type: int
    shndx: int

    @property
    def is_global(self) -> bool:
        """True for GLOBAL or WEAK binding."""

        return self.bind in (C.STB_GLOBAL, C.STB_WEAK)

    @property
    def is_defined(self) -> bool:
        """True if the symbol is defined in this object (not SHN_UNDEF)."""

        return self.shndx != C.SHN_UNDEF

    def nm_letter(self, text_section_indices: frozenset[int]) -> str:
        """The single-letter code ``nm`` would print for this symbol."""

        if not self.is_defined:
            return "U"
        if self.shndx in text_section_indices or self.type == C.STT_FUNC:
            letter = "t"
        elif self.type == C.STT_OBJECT:
            letter = "d"
        elif self.shndx == C.SHN_ABS:
            letter = "a"
        else:
            letter = "n"
        return letter.upper() if self.is_global else letter

    def pack(self, name_offset: int) -> bytes:
        info = ((self.bind & 0xF) << 4) | (self.type & 0xF)
        return struct.pack(_SYM_FMT, name_offset, info, 0, self.shndx,
                           self.value, self.size)

    @classmethod
    def unpack(cls, data: bytes, offset: int, strtab: bytes) -> "ElfSymbol":
        if offset + C.SYM_SIZE > len(data):
            raise TruncatedBinaryError(
                f"symbol entry at offset {offset} extends past end of file"
            )
        st_name, st_info, _st_other, st_shndx, st_value, st_size = \
            struct.unpack_from(_SYM_FMT, data, offset)
        name = _read_cstring(strtab, st_name)
        return cls(name=name, value=st_value, size=st_size,
                   bind=st_info >> 4, type=st_info & 0xF, shndx=st_shndx)


@dataclass
class ElfSection:
    """A parsed section: header metadata plus resolved name and content."""

    name: str
    header: SectionHeader
    data: bytes = b""


@dataclass
class SymbolSpec:
    """Writer-side description of a symbol to be emitted.

    ``kind`` is ``"func"`` (global text symbol, the paper's primary
    feature), ``"object"`` (global data symbol) or ``"local"``.
    """

    name: str
    kind: str = "func"
    size: int = 0
    value: int | None = None

    def to_symbol(self, shndx: int, value: int) -> ElfSymbol:
        if self.kind == "func":
            bind, stype = C.STB_GLOBAL, C.STT_FUNC
        elif self.kind == "object":
            bind, stype = C.STB_GLOBAL, C.STT_OBJECT
        elif self.kind == "weak":
            bind, stype = C.STB_WEAK, C.STT_FUNC
        elif self.kind == "local":
            bind, stype = C.STB_LOCAL, C.STT_FUNC
        else:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        return ElfSymbol(name=self.name, value=value, size=self.size,
                         bind=bind, type=stype, shndx=shndx)


def _read_cstring(strtab: bytes, offset: int) -> str:
    """Read a NUL-terminated string from a string table."""

    if offset >= len(strtab):
        return ""
    end = strtab.find(b"\x00", offset)
    if end == -1:
        end = len(strtab)
    return strtab[offset:end].decode("utf-8", errors="replace")
