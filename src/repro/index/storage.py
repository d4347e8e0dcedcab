"""On-disk container shared by the similarity index and model artifacts.

A saved container is one compact binary file:

====================  =======================================================
offset                content
====================  =======================================================
0                     8-byte magic (``b"RPROSIDX"`` for similarity indexes)
8                     format version, ``uint32`` little-endian
12                    header length in bytes, ``uint64`` little-endian
20                    UTF-8 JSON header
20 + header length    array payloads, C-contiguous, in header order
====================  =======================================================

The JSON header carries everything that is not bulk data (feature types,
sample ids, class names, n-gram length) plus one descriptor per array:
``{"name", "dtype", "shape"}``.  Only the small allowlisted set of dtypes
a container actually uses can appear, so a corrupted header cannot make
the reader allocate through an attacker-controlled dtype string.

Since format version 4 every array payload starts at the next
64-byte-aligned file offset (:data:`ARRAY_ALIGNMENT`): the writer pads
with zero bytes before each payload, records the alignment in the
header (``"payload_alignment": 64``), and the reader re-derives each
payload offset from the descriptor order plus that alignment — no
explicit offset table, the padded layout stays self-describing, and a
file remains readable even if its preamble version is re-stamped.
Alignment is what makes the zero-copy load mode safe and fast: with
``mmap_mode="r"`` the reader maps the file once and returns read-only
array views into the map instead of materialised copies — load cost is
O(header), the bulk payloads are faulted in lazily by the OS, and any
number of processes mapping the same file share one copy of the pages
in the page cache.  Files older than version 4 declare no alignment
(payloads are packed back to back) and always load through the
materialising copy path, bit-identically to previous releases.

The physical layout is parameterised by :class:`ContainerFormat` (magic,
version, dtype allowlist, error classes); :data:`INDEX_FORMAT` describes
similarity-index files and :mod:`repro.api.artifact` defines the model
artifact format on top of the same reader/writer.

Readers accept any file whose version is the format's current version or
lower; anything else (bad magic, truncated payload, unparsable header,
future version) raises the format's error class with a message naming
the file and the problem.

Writes are atomic and durable: the container is written to a ``*.tmp``
sibling, fsynced, moved into place with :func:`os.replace`, and the
parent directory is fsynced — an interrupted save can never leave a
half-written file under the final name, and a crash right after the
rename cannot lose the directory entry.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ..exceptions import IndexFormatError, ReproError, SimilarityIndexError

__all__ = ["FORMAT_VERSION", "MAGIC", "ARRAY_ALIGNMENT", "ContainerFormat",
           "INDEX_FORMAT", "write_container", "read_container",
           "read_container_header"]

#: Current similarity-index container format version.  Version 5 keys
#: the postings exactly (``(k << 42) | gram`` for block size ``3 * 2**k``,
#: :mod:`repro.index.postings`) and drops the two arrays (each key's
#: block size and gram) that versions 2–4 stored beside their FNV-64
#: hashed keys.  Version 4 pads every array payload to a 64-byte-aligned
#: file offset so the file can be memory-mapped and served zero-copy
#: (``read_container(..., mmap_mode="r")``).  Version 3 adds the
#: optional packed vector-digest sections (``v{idx}.*`` ``uint64``
#: matrices, :mod:`repro.index.knn`); version 2 carries the columnar
#: postings layout (interned signature pool + CSR posting arrays per
#: feature type); version 1 stores flat per-entry arrays.  Older layouts
#: are upgraded at load (:mod:`repro.upgrade`), their entries keyed once
#: into private postings; v1–v3 files, unpadded, load materialised.
FORMAT_VERSION = 5

#: File magic identifying a repro similarity index.
MAGIC = b"RPROSIDX"

#: Array payloads start at multiples of this offset since format
#: version 4.  64 bytes covers every dtype a container may declare and
#: matches the widest vector registers, so mapped views are always
#: element- and SIMD-aligned.
ARRAY_ALIGNMENT = 64

_PREAMBLE = struct.Struct("<8sIQ")


@dataclass(frozen=True)
class ContainerFormat:
    """Physical parameters of one container file family.

    Attributes
    ----------
    magic:
        8-byte file magic.
    version:
        Current format version; readers accept this version and lower.
    allowed_dtypes:
        dtype strings a well-formed header may declare.
    kind:
        Human-readable file-kind name used in error messages.
    format_error:
        Exception class raised for malformed/unsupported files.
    io_error:
        Exception class raised when the file cannot be written.
    """

    magic: bytes
    version: int
    allowed_dtypes: tuple[str, ...]
    kind: str
    format_error: type[ReproError]
    io_error: type[ReproError]


#: Container format of :class:`repro.index.SimilarityIndex` files.
INDEX_FORMAT = ContainerFormat(
    magic=MAGIC,
    version=FORMAT_VERSION,
    allowed_dtypes=("<i2", "<i4", "<i8", "|u1", "<u8"),
    kind="similarity index",
    format_error=IndexFormatError,
    io_error=SimilarityIndexError,
)


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory entry after a rename."""

    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        # Some filesystems (and all of Windows) refuse directory fsync;
        # the rename itself is still atomic, only crash durability of
        # the directory entry is best-effort there.
        pass
    finally:
        os.close(dir_fd)


def write_container(path: str | os.PathLike, header: Mapping,
                    arrays: Mapping[str, np.ndarray], *,
                    fmt: ContainerFormat = INDEX_FORMAT) -> Path:
    """Atomically and durably write ``header`` and ``arrays`` to ``path``."""

    path = Path(path)
    descriptors = []
    payloads = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        # dtype.str spells out the byte order even for native ('=') dtypes,
        # so this converts on big-endian hosts where byteorder is not '>'.
        if array.dtype.str.startswith(">"):
            array = array.astype(array.dtype.newbyteorder("<"))
        if array.dtype.str not in fmt.allowed_dtypes:
            raise fmt.format_error(
                f"cannot serialise array {name!r} with dtype {array.dtype.str!r}")
        descriptors.append({"name": name, "dtype": array.dtype.str,
                            "shape": list(array.shape)})
        payloads.append(array)

    align = ARRAY_ALIGNMENT
    full_header = dict(header)
    full_header["format_version"] = fmt.version
    full_header["payload_alignment"] = align
    full_header["arrays"] = descriptors
    header_bytes = json.dumps(full_header, separators=(",", ":"),
                              sort_keys=True).encode("utf-8")

    # Write-to-temp + fsync + rename keeps a concurrent reader (or a
    # crash at any point) from ever observing a truncated container
    # under the final name, including a crash right after the rename.
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(_PREAMBLE.pack(fmt.magic, fmt.version, len(header_bytes)))
            fh.write(header_bytes)
            offset = _PREAMBLE.size + len(header_bytes)
            for payload in payloads:
                pad = -offset % align
                if pad:
                    fh.write(b"\0" * pad)
                view = memoryview(payload).cast("B") if payload.size \
                    else b""
                fh.write(view)
                offset += pad + payload.nbytes
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        try:
            tmp_path.unlink()
        except OSError:
            pass
        raise fmt.io_error(
            f"cannot write {fmt.kind} file {path}: {exc}") from exc
    _fsync_directory(path.parent)
    return path


def _parse_descriptor(descriptor, path: Path, fmt: ContainerFormat
                      ) -> tuple[str, np.dtype, tuple[int, ...], int, int]:
    """Validate one header array descriptor; returns its read plan."""

    try:
        name = descriptor["name"]
        dtype_str = descriptor["dtype"]
        shape = tuple(int(dim) for dim in descriptor["shape"])
    except (TypeError, KeyError, ValueError) as exc:
        raise fmt.format_error(
            f"{path} has a malformed array descriptor: {descriptor!r}") from exc
    if dtype_str not in fmt.allowed_dtypes:
        raise fmt.format_error(
            f"{path} declares disallowed dtype {dtype_str!r} for array {name!r}")
    if any(dim < 0 for dim in shape):
        raise fmt.format_error(
            f"{path} declares a negative dimension for array {name!r}")
    dtype = np.dtype(dtype_str)
    # Arbitrary-precision Python ints: a header declaring absurd
    # dimensions must fail the size check, not wrap around int64.
    n_items = math.prod(shape)
    n_bytes = dtype.itemsize * n_items
    return name, dtype, shape, n_items, n_bytes


def read_container(path: str | os.PathLike, *,
                   fmt: ContainerFormat = INDEX_FORMAT,
                   mmap_mode: str | None = None
                   ) -> tuple[dict, dict[str, np.ndarray]]:
    """Read ``(header, arrays)`` from ``path``, validating the format.

    With the default ``mmap_mode=None`` every array is materialised:
    the header is streamed first and each payload is read directly into
    its own freshly-allocated (writeable) array, so peak memory is ~1x
    the payload size.  With ``mmap_mode="r"`` and a version-4 file, the
    file is mapped once and the returned arrays are read-only zero-copy
    views into the map — the call is O(header), payload pages fault in
    on first touch, and the views keep working even after the source
    path is :func:`os.replace`-d (the mapping pins the old inode).
    Files older than version 4 have no alignment guarantee and fall
    back to the materialising path regardless of ``mmap_mode``.
    """

    if mmap_mode not in (None, "r"):
        raise ValueError(f"unsupported mmap_mode {mmap_mode!r}; "
                         "use None (materialise) or 'r' (read-only map)")
    path = Path(path)
    if not path.is_file():
        raise fmt.format_error(f"{fmt.kind} file {path} does not exist")
    try:
        with open(path, "rb") as fh:
            return _read_open_container(fh, path, fmt, mmap_mode)
    except OSError as exc:
        raise fmt.format_error(
            f"cannot read {fmt.kind} file {path}: {exc}") from exc


def read_container_header(path: str | os.PathLike, *,
                          fmt: ContainerFormat = INDEX_FORMAT) -> dict:
    """Read and validate just the JSON header of a container file.

    O(header) regardless of payload size — no array is touched.  Used
    by callers that only need container metadata (e.g. the serving
    tier peeking at a model artifact's ``wal_checkpoint`` before
    deciding which write-ahead-log records still need replaying).
    """

    path = Path(path)
    if not path.is_file():
        raise fmt.format_error(f"{fmt.kind} file {path} does not exist")
    try:
        with open(path, "rb") as fh:
            file_size = os.fstat(fh.fileno()).st_size
            return _read_header(fh, path, fmt, file_size)[0]
    except OSError as exc:
        raise fmt.format_error(
            f"cannot read {fmt.kind} file {path}: {exc}") from exc


def _read_header(fh, path: Path, fmt: ContainerFormat,
                 file_size: int) -> tuple[dict, int]:
    """Parse and validate the preamble + JSON header of an open file;
    returns ``(header, header_end_offset)``."""

    preamble = fh.read(_PREAMBLE.size)
    if len(preamble) < _PREAMBLE.size:
        raise fmt.format_error(f"{path} is too short to be a {fmt.kind}")
    magic, version, header_len = _PREAMBLE.unpack(preamble)
    if magic != fmt.magic:
        raise fmt.format_error(f"{path} is not a {fmt.kind} file (bad magic)")
    if version > fmt.version:
        raise fmt.format_error(
            f"{path} uses {fmt.kind} format version {version}; this build "
            f"reads up to version {fmt.version}")

    header_end = _PREAMBLE.size + header_len
    if header_end > file_size:
        raise fmt.format_error(f"{path} is truncated (incomplete header)")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise fmt.format_error(f"{path} has a corrupt header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise fmt.format_error(f"{path} has a malformed header")
    return header, header_end


def _read_open_container(fh, path: Path, fmt: ContainerFormat,
                         mmap_mode: str | None
                         ) -> tuple[dict, dict[str, np.ndarray]]:
    file_size = os.fstat(fh.fileno()).st_size
    header, header_end = _read_header(fh, path, fmt, file_size)

    align = header.get("payload_alignment", 1)
    if not isinstance(align, int) or align < 1:
        raise fmt.format_error(
            f"{path} declares an invalid payload alignment {align!r}")
    # Zero-copy needs the v4 alignment guarantee; unpadded legacy files
    # (no declared alignment) fall back to the materialising path.
    use_mmap = mmap_mode == "r" and align % ARRAY_ALIGNMENT == 0
    mapped = None
    if use_mmap:
        # One shared read-only map for every array; the file descriptor
        # can be closed immediately (the mapping pins the inode), so
        # repeated reloads never accumulate descriptors.
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)

    arrays: dict[str, np.ndarray] = {}
    offset = header_end
    for descriptor in header["arrays"]:
        name, dtype, shape, n_items, n_bytes = _parse_descriptor(
            descriptor, path, fmt)
        offset += -offset % align
        if offset + n_bytes > file_size:
            raise fmt.format_error(
                f"{path} is truncated (array {name!r} ends past end of file)")
        if use_mmap:
            # np.frombuffer over ACCESS_READ yields non-writeable views:
            # a stray in-place mutation raises instead of corrupting the
            # shared page cache.
            array = np.frombuffer(mapped, dtype=dtype, count=n_items,
                                  offset=offset)
        else:
            fh.seek(offset)
            array = np.empty(n_items, dtype=dtype)
            if fh.readinto(memoryview(array).cast("B")) != n_bytes:
                raise fmt.format_error(
                    f"{path} is truncated (array {name!r} ends past end of file)")
        arrays[name] = array.reshape(shape)
        offset += n_bytes
    if offset != file_size:
        raise fmt.format_error(
            f"{path} has {file_size - offset} trailing bytes after the last array")
    return header, arrays
