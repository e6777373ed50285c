"""Columnar binary trace format: ``repro-ctrace`` version 1.

The text format (``reader.py``/``writer.py``) stays the interchange
format — human-readable, diffable, greppable — but parsing it costs a
string split and an object allocation per event, which caps replay
pipelines long before the simulation loops do.  This module stores the
same information *columnarly*: every event attribute becomes one dense
integer array, with the strings interned once into a symbol-table
footer.  Readers map the file and cast column slices straight out of
the page cache — zero copies, zero per-event objects — so sweeps that
fan out over worker processes share one physical copy of the trace.

On-disk layout (all integers little-endian)
-------------------------------------------

::

    header   (64 bytes)
      0   8s   magic            b"RCTRACE\\0"
      8   u16  version          1
      10  u16  flags            bit0 kind column present
                                bit1 client column present
                                bit2 user column present
                                bit3 process column present
      12  u32  reserved         0
      16  u64  n_events
      24  u32  n_file_symbols
      28  u32  n_client_symbols
      32  u32  n_user_symbols
      36  u32  n_process_symbols
      40  u64  columns_offset   (8-byte aligned)
      48  u64  footer_offset    (8-byte aligned)
      56  u64  file_size        (total bytes; truncation check)
    name     u16 length + UTF-8 bytes, zero-padded to 8
    columns  each padded to an 8-byte boundary, in order:
      file     n_events x u32   (always present)
      kind     n_events x u8    (flag bit0; absent => every event OPEN)
      client   n_events x u32   (flag bit1; absent => constant column)
      user     n_events x u32   (flag bit2; absent => constant column)
      process  n_events x u32   (flag bit3; absent => constant column)
    footer   four symbol blocks (file, client, user, process), each:
      u32 count, u32 blob_len, count x u32 string lengths,
      UTF-8 blob, zero-padded to 8

Codes are assigned in first-appearance order (the
:class:`~repro.traces.symbols.SymbolTable` discipline), so packing is
deterministic for a given event sequence.  An *absent* optional column
means the attribute is constant across the trace: its symbol block
holds exactly one entry (possibly the empty string), and every event
carries code 0.  Kind codes are fixed by the format — the
:class:`~repro.traces.events.EventKind` declaration order — and need no
symbol block.

Alignment matters: because every u32 column starts on an 8-byte
boundary, a reader can ``memoryview(mmap).cast("I")`` the column in
place.  On big-endian hosts (rare) the zero-copy cast is unsound, so
columns are copied through :class:`array.array` and byteswapped — same
values, one copy.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import sys
import tempfile
from array import array
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import TraceFormatError
from .events import EventKind, Trace, TraceEvent, collector_paused, events_from_columns
from .symbols import SymbolTable

MAGIC = b"RCTRACE\x00"
FORMAT_NAME = "repro-ctrace"
FORMAT_VERSION = 1

#: Conventional file suffix for columnar trace artifacts.
SUFFIX = ".ctrace"

_HEADER = struct.Struct("<8sHHIQIIIIQQQ")
_FLAG_KIND = 1
_FLAG_CLIENT = 2
_FLAG_USER = 4
_FLAG_PROCESS = 8

#: Fixed kind numbering: EventKind declaration order.
KINDS: Tuple[EventKind, ...] = tuple(EventKind)

_LITTLE_ENDIAN = sys.byteorder == "little"


class ColumnarFormatError(TraceFormatError):
    """A columnar trace file that cannot be interpreted."""


def _pad8(size: int) -> int:
    return (8 - size % 8) % 8


def _column_u32(values: Sequence[int]) -> array:
    column = array("I", values)
    assert column.itemsize == 4
    return column


class ColumnarTrace:
    """A trace held as dense integer columns plus symbol tables.

    ``file_codes`` (and the optional ``kind_codes`` / ``client_codes`` /
    ``user_codes`` / ``process_codes``) are flat integer sequences —
    ``array.array`` when built in memory, zero-copy ``memoryview`` casts
    when mapped from disk.  The ``*_symbols`` tuples decode each code
    back to its string; an optional column set to ``None`` means the
    attribute is constant (``*_symbols[0]``) across every event.

    Instances are deliberately *not* picklable when mmap-backed: sweep
    workers are expected to re-open the artifact (sharing pages through
    the OS cache), never to serialize events over a pipe.
    """

    __slots__ = (
        "name",
        "file_codes",
        "kind_codes",
        "client_codes",
        "user_codes",
        "process_codes",
        "file_symbols",
        "client_symbols",
        "user_symbols",
        "process_symbols",
        "version",
        "_mmap",
    )

    def __init__(
        self,
        name: str,
        file_codes: Sequence[int],
        file_symbols: Sequence[str],
        kind_codes: Optional[Sequence[int]] = None,
        client_codes: Optional[Sequence[int]] = None,
        client_symbols: Sequence[str] = ("",),
        user_codes: Optional[Sequence[int]] = None,
        user_symbols: Sequence[str] = ("",),
        process_codes: Optional[Sequence[int]] = None,
        process_symbols: Sequence[str] = ("",),
        version: int = FORMAT_VERSION,
        _mmap: Optional[mmap.mmap] = None,
    ):
        self.name = name
        self.file_codes = file_codes
        self.kind_codes = kind_codes
        self.client_codes = client_codes
        self.user_codes = user_codes
        self.process_codes = process_codes
        self.file_symbols = tuple(file_symbols)
        self.client_symbols = tuple(client_symbols) or ("",)
        self.user_symbols = tuple(user_symbols) or ("",)
        self.process_symbols = tuple(process_symbols) or ("",)
        self.version = version
        self._mmap = _mmap

    # -- construction -----------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Pack an event-object trace into in-memory columns."""
        events = trace.events
        files = SymbolTable()
        file_codes = _column_u32(files.encode(_field(events, "file_id")))
        kinds = _field(events, "kind")
        kind_codes: Optional[array] = None
        if kinds.count(EventKind.OPEN) != len(kinds):
            # tuple.index compares members by identity in C, where a dict
            # lookup would call Enum.__hash__ once per event.
            kind_codes = array("B", map(KINDS.index, kinds))
        client_codes, client_symbols = _pack_attribute(_field(events, "client_id"))
        user_codes, user_symbols = _pack_attribute(_field(events, "user_id"))
        process_codes, process_symbols = _pack_attribute(_field(events, "process_id"))
        return cls(
            name=trace.name,
            file_codes=file_codes,
            file_symbols=files.decode_sequence(range(len(files))),
            kind_codes=kind_codes,
            client_codes=client_codes,
            client_symbols=client_symbols,
            user_codes=user_codes,
            user_symbols=user_symbols,
            process_codes=process_codes,
            process_symbols=process_symbols,
        )

    # -- sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.file_codes)

    def __reduce__(self):
        raise TypeError(
            "ColumnarTrace is not picklable; workers should re-open the "
            "artifact (mmap pages are shared through the OS cache)"
        )

    # -- decoding ----------------------------------------------------------
    def kind_at(self, index: int) -> EventKind:
        """The :class:`EventKind` of one event."""
        if self.kind_codes is None:
            return EventKind.OPEN
        return KINDS[self.kind_codes[index]]

    def _attribute_at(self, codes, symbols: Tuple[str, ...], index: int) -> str:
        return symbols[0] if codes is None else symbols[codes[index]]

    def event_at(self, index: int) -> TraceEvent:
        """Decode one event (bounds follow the columns' own indexing)."""
        return TraceEvent(
            file_id=self.file_symbols[self.file_codes[index]],
            kind=self.kind_at(index),
            sequence=index,
            client_id=self._attribute_at(
                self.client_codes, self.client_symbols, index
            ),
            user_id=self._attribute_at(self.user_codes, self.user_symbols, index),
            process_id=self._attribute_at(
                self.process_codes, self.process_symbols, index
            ),
        )

    def iter_events(self) -> Iterator[TraceEvent]:
        """Decode every event, in order."""
        for index in range(len(self)):
            yield self.event_at(index)

    def to_trace(self) -> Trace:
        """Decode the full trace back to event objects (interchange)."""
        with collector_paused():
            events = events_from_columns(
                file_id=map(self.file_symbols.__getitem__, self.file_codes),
                kind=_decoded(self.kind_codes, KINDS),  # KINDS[0] is OPEN
                sequence=range(len(self)),
                client_id=_decoded(self.client_codes, self.client_symbols),
                user_id=_decoded(self.user_codes, self.user_symbols),
                process_id=_decoded(self.process_codes, self.process_symbols),
            )
        return Trace(events=events, name=self.name)

    def file_ids(self) -> List[str]:
        """The access sequence decoded to file-identifier strings."""
        return list(map(self.file_symbols.__getitem__, self.file_codes))

    def unique_files(self) -> int:
        """Number of distinct files appearing in the columns.

        Exact for slices too (a slice shares the parent's symbol table
        but need not touch every symbol), via the batch scan kernel.
        """
        from ..sim.kernel import scan_columns

        return scan_columns(self.file_codes, self.kind_codes).unique_files

    # -- zero-copy views ---------------------------------------------------
    def slice(self, start: int, stop: Optional[int] = None) -> "ColumnarTrace":
        """A zero-copy sub-trace over ``[start:stop)``.

        Columns are sliced views into the same backing buffer; symbol
        tables are shared.  :meth:`DistributedFileSystem.replay` cuts a
        windowed replay with it, without materializing events.
        """
        stop = len(self) if stop is None else stop
        return ColumnarTrace(
            name=f"{self.name}[{start}:{stop}]",
            file_codes=self.file_codes[start:stop],
            file_symbols=self.file_symbols,
            kind_codes=(
                None if self.kind_codes is None else self.kind_codes[start:stop]
            ),
            client_codes=(
                None
                if self.client_codes is None
                else self.client_codes[start:stop]
            ),
            client_symbols=self.client_symbols,
            user_codes=(
                None if self.user_codes is None else self.user_codes[start:stop]
            ),
            user_symbols=self.user_symbols,
            process_codes=(
                None
                if self.process_codes is None
                else self.process_codes[start:stop]
            ),
            process_symbols=self.process_symbols,
            version=self.version,
            _mmap=self._mmap,
        )

    def chunks(self, size: int) -> Iterator["ColumnarTrace"]:
        """Stream the trace as consecutive zero-copy slices of ``size``."""
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        for start in range(0, len(self), size):
            yield self.slice(start, min(start + size, len(self)))

    def column_nbytes(self) -> Dict[str, int]:
        """Per-column payload sizes in bytes (informational)."""
        sizes = {"file": 4 * len(self)}
        if self.kind_codes is not None:
            sizes["kind"] = len(self)
        for label, codes in (
            ("client", self.client_codes),
            ("user", self.user_codes),
            ("process", self.process_codes),
        ):
            if codes is not None:
                sizes[label] = 4 * len(self)
        return sizes


def _field(events: Sequence[TraceEvent], name: str) -> list:
    """One event attribute as a column, read in C."""
    return list(map(attrgetter(name), events))


def _pack_attribute(
    values: List[str],
) -> Tuple[Optional[array], Tuple[str, ...]]:
    """Intern one optional string column, eliding it when constant."""
    if not values:
        return None, ("",)
    first = values[0]
    if values.count(first) == len(values):
        return None, (first,)
    table = SymbolTable()
    codes = _column_u32(table.encode(values))
    return codes, tuple(table.decode_sequence(range(len(table))))


def _decoded(codes, symbols: Sequence) -> Iterable:
    """An optional column decoded lazily (an elided one is all code 0)."""
    return repeat(symbols[0]) if codes is None else map(symbols.__getitem__, codes)


# -- writing ----------------------------------------------------------------


def _swapped_bytes(column: array) -> bytes:
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped.tobytes()


def _encode_symbol_block(symbols: Sequence[str]) -> bytes:
    blobs = [name.encode("utf-8") for name in symbols]
    blob = b"".join(blobs)
    lengths = array("I", [len(piece) for piece in blobs])
    out = struct.pack("<II", len(blobs), len(blob))
    out += lengths.tobytes() if _LITTLE_ENDIAN else _swapped_bytes(lengths)
    out += blob
    return out + b"\x00" * _pad8(len(out))


def _column_bytes(column) -> bytes:
    """Serialize one column little-endian, whatever it is backed by."""
    if isinstance(column, memoryview):
        # Zero-copy views read from a little-endian file: already LE.
        return column.tobytes()
    if _LITTLE_ENDIAN or column.itemsize == 1:
        return column.tobytes()
    return _swapped_bytes(column)


def dump_columnar(trace: Union[Trace, ColumnarTrace], stream) -> int:
    """Serialize a trace to an open binary stream; returns bytes written.

    Accepts event-object traces (packed first) or already-columnar ones
    (re-serialized as-is, so ``pack`` round-trips are cheap).
    """
    columnar = (
        trace if isinstance(trace, ColumnarTrace) else ColumnarTrace.from_trace(trace)
    )
    n_events = len(columnar)
    flags = 0
    if columnar.kind_codes is not None:
        flags |= _FLAG_KIND
    if columnar.client_codes is not None:
        flags |= _FLAG_CLIENT
    if columnar.user_codes is not None:
        flags |= _FLAG_USER
    if columnar.process_codes is not None:
        flags |= _FLAG_PROCESS

    name_bytes = columnar.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ColumnarFormatError("trace name longer than 65535 UTF-8 bytes")
    name_section = struct.pack("<H", len(name_bytes)) + name_bytes
    name_section += b"\x00" * _pad8(len(name_section))

    columns = io.BytesIO()
    for column in (
        columnar.file_codes,
        columnar.kind_codes,
        columnar.client_codes,
        columnar.user_codes,
        columnar.process_codes,
    ):
        if column is None:
            continue
        payload = _column_bytes(column)
        columns.write(payload)
        columns.write(b"\x00" * _pad8(len(payload)))
    columns_blob = columns.getvalue()

    footer = b"".join(
        _encode_symbol_block(symbols)
        for symbols in (
            columnar.file_symbols,
            columnar.client_symbols,
            columnar.user_symbols,
            columnar.process_symbols,
        )
    )

    columns_offset = _HEADER.size + len(name_section)
    footer_offset = columns_offset + len(columns_blob)
    file_size = footer_offset + len(footer)
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        flags,
        0,
        n_events,
        len(columnar.file_symbols),
        len(columnar.client_symbols),
        len(columnar.user_symbols),
        len(columnar.process_symbols),
        columns_offset,
        footer_offset,
        file_size,
    )
    stream.write(header)
    stream.write(name_section)
    stream.write(columns_blob)
    stream.write(footer)
    return file_size


def write_columnar(
    trace: Union[Trace, ColumnarTrace], path: Union[str, Path]
) -> int:
    """Write a columnar trace file atomically; returns bytes written.

    The write goes through a same-directory temp file and an atomic
    rename, so concurrent readers (sweep workers mapping the artifact
    cache) never observe a torn file.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        prefix=target.stem, suffix=".tmp.ctrace", dir=target.parent
    )
    temp_path = Path(temp_name)
    try:
        with os.fdopen(handle, "wb") as stream:
            written = dump_columnar(trace, stream)
        temp_path.replace(target)
    finally:
        if temp_path.exists() and temp_path != target:
            temp_path.unlink(missing_ok=True)
    return written


# -- reading ----------------------------------------------------------------


def _parse_header(buffer: bytes, source: str) -> Tuple:
    if len(buffer) < _HEADER.size:
        raise ColumnarFormatError(
            f"{source}: too short for a {FORMAT_NAME} header "
            f"({len(buffer)} bytes)"
        )
    fields = _HEADER.unpack_from(buffer, 0)
    magic, version = fields[0], fields[1]
    if magic != MAGIC:
        raise ColumnarFormatError(
            f"{source}: bad magic {magic!r} (expected {MAGIC!r})"
        )
    if version > FORMAT_VERSION:
        raise ColumnarFormatError(
            f"{source}: format version {version} is newer than supported "
            f"version {FORMAT_VERSION}"
        )
    return fields


def _u32_view(view: memoryview, offset: int, count: int):
    """A u32 sequence over ``view[offset:offset + 4 * count]``.

    Zero-copy cast on little-endian hosts; copy-and-byteswap elsewhere.
    """
    raw = view[offset : offset + 4 * count]
    if _LITTLE_ENDIAN:
        return raw.cast("I")
    column = array("I")
    column.frombytes(raw.tobytes())
    column.byteswap()
    return column


def _utf8(raw: bytes, source: str, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ColumnarFormatError(f"{source}: {what} is not UTF-8 ({error})")


def _decode_symbol_block(
    view: memoryview, offset: int, source: str
) -> Tuple[Tuple[str, ...], int]:
    if offset + 8 > len(view):
        raise ColumnarFormatError(f"{source}: truncated symbol block")
    count, blob_len = struct.unpack_from("<II", view, offset)
    lengths_off = offset + 8
    blob_off = lengths_off + 4 * count
    end = blob_off + blob_len
    if end > len(view):
        raise ColumnarFormatError(f"{source}: truncated symbol block")
    lengths = _u32_view(view, lengths_off, count)
    if sum(lengths) != blob_len:
        raise ColumnarFormatError(
            f"{source}: symbol blob length disagrees with string lengths"
        )
    symbols: List[str] = []
    cursor = blob_off
    for length in lengths:
        raw = bytes(view[cursor : cursor + length])
        symbols.append(_utf8(raw, source, "a symbol"))
        cursor += length
    size = end - offset
    return tuple(symbols), size + _pad8(size)


def read_columnar(
    source: Union[str, Path], use_mmap: bool = True
) -> ColumnarTrace:
    """Read a columnar trace, zero-copy when possible.

    With ``use_mmap=True`` (the default) the file is mapped read-only
    and every column is a ``memoryview`` cast into the mapping — opening
    a multi-gigabyte trace costs a page table, not a read.  With
    ``use_mmap=False`` the file is read into one bytes object (still a
    single allocation; columns are views into it).

    Raises :class:`ColumnarFormatError` on any structural problem:
    wrong magic, unsupported version, a size/offset that disagrees
    with the actual file, or a column code with no symbol (or kind)
    to decode to.
    """
    path = Path(source)
    label = str(path)
    with path.open("rb") as handle:
        mapped: Optional[mmap.mmap] = None
        if use_mmap:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                mapped = None  # empty or unmappable file: fall through
        buffer = mapped if mapped is not None else handle.read()

    try:
        fields = _parse_header(
            bytes(buffer[: _HEADER.size]) if mapped is not None else buffer,
            label,
        )
    except ColumnarFormatError:
        if mapped is not None:
            mapped.close()
        raise
    (
        _magic,
        version,
        flags,
        _reserved,
        n_events,
        n_files,
        _n_clients,
        _n_users,
        _n_processes,
        columns_offset,
        footer_offset,
        file_size,
    ) = fields

    # On parse errors past this point the mapping is left to the garbage
    # collector: column views may already reference it, and closing a
    # mmap with exported buffers raises.  Refcounting reclaims both as
    # soon as the exception is handled.
    view = memoryview(buffer)
    if file_size != len(view):
        raise ColumnarFormatError(
            f"{label}: header says {file_size} bytes but file has "
            f"{len(view)} (truncated or overwritten)"
        )

    if len(view) < _HEADER.size + 2:
        raise ColumnarFormatError(f"{label}: no room for the trace name")
    name_len = struct.unpack_from("<H", view, _HEADER.size)[0]
    name_bytes = bytes(view[_HEADER.size + 2 : _HEADER.size + 2 + name_len])
    name = _utf8(name_bytes, label, "the trace name")

    # Bound every column by the footer before casting, so a lying
    # header fails here and never as a short, unaligned cast.
    if footer_offset > len(view):
        raise ColumnarFormatError(f"{label}: footer offset past end of file")
    cursor = columns_offset
    columns: Dict[int, Optional[memoryview]] = {}
    for flag, width in (
        (0, 4),  # the file column, always present
        (_FLAG_KIND, 1),
        (_FLAG_CLIENT, 4),
        (_FLAG_USER, 4),
        (_FLAG_PROCESS, 4),
    ):
        if flag and not flags & flag:
            columns[flag] = None
            continue
        size = width * n_events
        if cursor + size + _pad8(size) > footer_offset:
            raise ColumnarFormatError(
                f"{label}: columns overrun the footer offset"
            )
        columns[flag] = (
            _u32_view(view, cursor, n_events)
            if width == 4
            else view[cursor : cursor + n_events]
        )
        cursor += size + _pad8(size)
    file_codes, kind_codes = columns[0], columns[_FLAG_KIND]

    cursor = footer_offset
    blocks: List[Tuple[str, ...]] = []
    for _ in range(4):
        symbols, advance = _decode_symbol_block(view, cursor, label)
        blocks.append(symbols)
        cursor += advance
    file_symbols, client_symbols, user_symbols, process_symbols = blocks
    if len(file_symbols) != n_files:
        raise ColumnarFormatError(
            f"{label}: footer has {len(file_symbols)} file symbols, "
            f"header says {n_files}"
        )
    for column, codes, limit in (
        ("file", file_codes, n_files),
        ("kind", kind_codes, len(KINDS)),
        ("client", columns[_FLAG_CLIENT], len(client_symbols)),
        ("user", columns[_FLAG_USER], len(user_symbols)),
        ("process", columns[_FLAG_PROCESS], len(process_symbols)),
    ):
        if codes is not None and n_events and max(codes) >= limit:
            raise ColumnarFormatError(
                f"{label}: {column} column holds code {max(codes)}, "
                f"but only {limit} are defined"
            )

    return ColumnarTrace(
        name=name,
        file_codes=file_codes,
        file_symbols=file_symbols,
        kind_codes=kind_codes,
        client_codes=columns[_FLAG_CLIENT],
        client_symbols=client_symbols,
        user_codes=columns[_FLAG_USER],
        user_symbols=user_symbols,
        process_codes=columns[_FLAG_PROCESS],
        process_symbols=process_symbols,
        version=version,
        _mmap=mapped,
    )


def describe_columnar(source: Union[str, Path]) -> Dict[str, object]:
    """Header-level facts about a columnar file, without decoding events.

    Returns format version, event count, symbol counts, per-column byte
    sizes, footer size, and total size — the ``repro trace info``
    payload.  Raises :class:`ColumnarFormatError` on malformed files.
    """
    path = Path(source)
    with path.open("rb") as handle:
        header = handle.read(_HEADER.size)
    fields = _parse_header(header, str(path))
    (
        _magic,
        version,
        flags,
        _reserved,
        n_events,
        n_files,
        n_clients,
        n_users,
        n_processes,
        columns_offset,
        footer_offset,
        file_size,
    ) = fields
    actual = path.stat().st_size
    if file_size != actual:
        raise ColumnarFormatError(
            f"{path}: header says {file_size} bytes but file has {actual}"
        )
    columns = {"file": 4 * n_events}
    if flags & _FLAG_KIND:
        columns["kind"] = n_events
    if flags & _FLAG_CLIENT:
        columns["client"] = 4 * n_events
    if flags & _FLAG_USER:
        columns["user"] = 4 * n_events
    if flags & _FLAG_PROCESS:
        columns["process"] = 4 * n_events
    return {
        "format": FORMAT_NAME,
        "version": version,
        "events": n_events,
        "unique_files": n_files,
        "client_symbols": n_clients,
        "user_symbols": n_users,
        "process_symbols": n_processes,
        "columns": columns,
        "columns_bytes": footer_offset - columns_offset,
        "footer_bytes": file_size - footer_offset,
        "file_bytes": file_size,
    }


def is_columnar(source: Union[str, Path]) -> bool:
    """Whether a file starts with the columnar magic, well-formed or not.

    Tells a columnar trace from a text one, so a damaged columnar file
    reaches :func:`read_columnar` and its error instead of a text parser.
    """
    try:
        with Path(source).open("rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def validate_columnar(source: Union[str, Path]) -> bool:
    """Whether a file is a readable, well-formed columnar trace.

    A full :func:`read_columnar`, so every column code is range-checked
    and every symbol decoded.
    """
    try:
        read_columnar(source)
    except (OSError, ColumnarFormatError):
        return False
    return True
