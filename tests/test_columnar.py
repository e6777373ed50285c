"""Unit tests for the columnar binary trace format (``repro-ctrace``)."""

import os
import pickle
import struct
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.traces.columnar import (
    FORMAT_NAME,
    FORMAT_VERSION,
    KINDS,
    MAGIC,
    ColumnarFormatError,
    ColumnarTrace,
    describe_columnar,
    read_columnar,
    validate_columnar,
    write_columnar,
)
from repro.traces.events import Trace
from repro.traces.symbols import intern_sequence
from repro.workloads.synthetic import make_workload

WORKLOADS = ("server", "users", "write", "workstation")
EVENTS = 2000


class TestRoundTrip:
    def test_memory_round_trip_mixed(self, mixed_trace):
        decoded = ColumnarTrace.from_trace(mixed_trace).to_trace()
        assert decoded.events == mixed_trace.events
        assert decoded.name == mixed_trace.name

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_file_round_trip_workloads(self, workload, tmp_path):
        trace = make_workload(workload, EVENTS)
        path = tmp_path / f"{workload}.ctrace"
        write_columnar(trace, path)
        decoded = read_columnar(path).to_trace()
        assert decoded.events == trace.events

    def test_text_columnar_text_event_identical(self, tmp_path):
        from repro.traces.reader import read_trace
        from repro.traces.writer import write_trace

        original = make_workload("write", EVENTS)
        text_in = tmp_path / "in.trace"
        ctrace_path = tmp_path / "mid.ctrace"
        text_out = tmp_path / "out.trace"
        write_trace(original, text_in)
        write_columnar(read_trace(text_in), ctrace_path)
        write_trace(read_columnar(ctrace_path).to_trace(), text_out)
        assert read_trace(text_out).events == read_trace(text_in).events

    def test_codes_match_intern_sequence(self):
        trace = make_workload("users", EVENTS)
        ctrace = ColumnarTrace.from_trace(trace)
        codes, table = intern_sequence(trace.file_ids())
        assert list(ctrace.file_codes) == codes
        assert list(ctrace.file_symbols) == [
            table.decode(code) for code in range(len(table))
        ]

    def test_event_at_matches_iteration(self, mixed_trace):
        ctrace = ColumnarTrace.from_trace(mixed_trace)
        assert [
            ctrace.event_at(index) for index in range(len(ctrace))
        ] == list(ctrace.iter_events())


class TestLayout:
    def test_describe_reports_header_facts(self, tmp_path):
        trace = make_workload("write", EVENTS)
        path = tmp_path / "w.ctrace"
        written = write_columnar(trace, path)
        info = describe_columnar(path)
        assert info["format"] == FORMAT_NAME
        assert info["version"] == FORMAT_VERSION
        assert info["events"] == EVENTS
        assert info["unique_files"] == trace.unique_files()
        assert info["file_bytes"] == written == path.stat().st_size
        assert info["columns"]["file"] == 4 * EVENTS
        assert info["columns"]["kind"] == EVENTS  # write has mutations

    def test_constant_columns_elided(self):
        # Single attribution + all-OPEN events: only the file column.
        trace = Trace.from_file_ids(["a", "b", "a"], name="flat")
        ctrace = ColumnarTrace.from_trace(trace)
        assert ctrace.kind_codes is None
        assert ctrace.client_codes is None
        assert ctrace.user_codes is None
        assert ctrace.process_codes is None
        assert ctrace.column_nbytes() == {"file": 12}
        assert ctrace.to_trace().events == trace.events

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ctrace"
        path.write_bytes(b"NOTRACE\x00" + b"\x00" * 100)
        with pytest.raises(ColumnarFormatError):
            read_columnar(path)
        assert validate_columnar(path) is False

    def test_newer_version_rejected(self, tmp_path):
        trace = make_workload("server", 100)
        path = tmp_path / "future.ctrace"
        write_columnar(trace, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, len(MAGIC), FORMAT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(ColumnarFormatError):
            read_columnar(path)
        assert validate_columnar(path) is False

    def test_truncated_file_rejected(self, tmp_path):
        trace = make_workload("server", 100)
        path = tmp_path / "cut.ctrace"
        write_columnar(trace, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ColumnarFormatError):
            read_columnar(path)
        assert validate_columnar(path) is False

    def test_header_only_file_rejected(self, tmp_path):
        raw = bytearray(_users_ctrace()[:64])
        struct.pack_into("<Q", raw, 56, len(raw))  # file_size: the last field
        path = tmp_path / "header.ctrace"
        path.write_bytes(bytes(raw))
        with pytest.raises(ColumnarFormatError, match="trace name"):
            read_columnar(path)
        assert validate_columnar(path) is False

    @pytest.mark.parametrize(
        "column", ["file", "kind", "client", "user", "process"]
    )
    def test_out_of_range_code_rejected(self, mixed_trace, tmp_path, column):
        # A code with no symbol to decode to must fail the open, not
        # surface later as an IndexError inside replay.
        packed = ColumnarTrace.from_trace(mixed_trace)
        limits = {
            "file": len(packed.file_symbols),
            "kind": len(KINDS),
            "client": len(packed.client_symbols),
            "user": len(packed.user_symbols),
            "process": len(packed.process_symbols),
        }
        path = tmp_path / "codes.ctrace"
        write_columnar(packed, path)
        raw = bytearray(path.read_bytes())
        n = len(packed)
        u32_bytes = (4 * n + 7) // 8 * 8
        kind_bytes = (n + 7) // 8 * 8
        (columns_offset,) = struct.unpack_from("<Q", raw, 40)
        starts = {
            "file": columns_offset,
            "kind": columns_offset + u32_bytes,
            "client": columns_offset + u32_bytes + kind_bytes,
            "user": columns_offset + 2 * u32_bytes + kind_bytes,
            "process": columns_offset + 3 * u32_bytes + kind_bytes,
        }
        last = n - 1
        if column == "kind":
            raw[starts[column] + last] = limits[column]
        else:
            struct.pack_into("<I", raw, starts[column] + 4 * last, limits[column])
        path.write_bytes(bytes(raw))
        with pytest.raises(ColumnarFormatError, match=f"{column} column"):
            read_columnar(path)
        assert validate_columnar(path) is False

    def test_undecodable_symbol_fails_validation(self, mixed_trace, tmp_path):
        path = tmp_path / "utf8.ctrace"
        write_columnar(mixed_trace, path)
        raw = bytearray(path.read_bytes())
        (footer_offset,) = struct.unpack_from("<Q", raw, 48)
        # First file symbol: after the block's count, blob length and
        # four string lengths.
        raw[footer_offset + 8 + 4 * 4] = 0xFF
        path.write_bytes(bytes(raw))
        assert validate_columnar(path) is False

    def test_event_count_past_columns_rejected(self, tmp_path):
        path = tmp_path / "long.ctrace"
        write_columnar(make_workload("server", 100), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 16, 10**9 + 1)  # n_events
        path.write_bytes(bytes(raw))
        with pytest.raises(ColumnarFormatError, match="overrun"):
            read_columnar(path)
        assert validate_columnar(path) is False

    def test_validate_accepts_good_file(self, tmp_path):
        path = tmp_path / "ok.ctrace"
        write_columnar(make_workload("server", 100), path)
        assert validate_columnar(path) is True


_PACKED = []


def _users_ctrace() -> bytes:
    """A 300-event ``users`` trace, packed once."""
    if not _PACKED:
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "users.ctrace")
            write_columnar(make_workload("users", 300), path)
            with open(path, "rb") as stream:
                _PACKED.append(stream.read())
    return _PACKED[0]


#: A damaged file: ("cut", n) keeps the first n bytes, ("flip", bit)
#: inverts one bit, ("version", v) stamps a future format version.
damage = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, len(_users_ctrace()) - 1)),
    st.tuples(st.just("flip"), st.integers(0, 8 * len(_users_ctrace()) - 1)),
    st.tuples(st.just("version"), st.integers(FORMAT_VERSION + 1, 0xFFFF)),
)


class TestDamagedFiles:
    """A damaged ``.ctrace`` opens or raises ColumnarFormatError, never
    anything else.  Flips that still open are out of scope: the format
    has no checksum to catch them."""

    @settings(max_examples=300, deadline=None)
    @given(damage, st.booleans())
    @example(("flip", 522), True)  # the trace-name length: a non-UTF-8 name
    @example(("flip", 8 * 700), False)  # inside the symbol footer
    def test_open_or_format_error(self, how, use_mmap):
        raw = bytearray(_users_ctrace())
        kind, where = how
        if kind == "cut":
            raw = raw[:where]
        elif kind == "flip":
            raw[where // 8] ^= 1 << (where % 8)
        else:
            struct.pack_into("<H", raw, len(MAGIC), where)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "damaged.ctrace")
            with open(path, "wb") as stream:
                stream.write(raw)
            for reader in (
                lambda: read_columnar(path, use_mmap=use_mmap),
                lambda: describe_columnar(path),
            ):
                try:
                    reader()
                except ColumnarFormatError:
                    pass
            assert validate_columnar(path) in (True, False)


class TestViews:
    def test_slice_is_zero_copy_and_exact(self, tmp_path):
        trace = make_workload("write", EVENTS)
        path = tmp_path / "w.ctrace"
        write_columnar(trace, path)
        ctrace = read_columnar(path)
        view = ctrace.slice(100, 400)
        assert len(view) == 300
        assert view.to_trace().events == trace.slice(100, 400).events
        # Shared symbol tables, not copies.
        assert view.file_symbols is ctrace.file_symbols

    def test_chunks_cover_whole_trace(self):
        ctrace = ColumnarTrace.from_trace(make_workload("users", 2500))
        pieces = list(ctrace.chunks(400))
        assert sum(len(piece) for piece in pieces) == 2500
        rebuilt = [
            event for piece in pieces for event in piece.iter_events()
        ]
        assert [e.file_id for e in rebuilt] == ctrace.file_ids()

    def test_not_picklable(self):
        ctrace = ColumnarTrace.from_trace(make_workload("server", 100))
        with pytest.raises(TypeError):
            pickle.dumps(ctrace)

    def test_unique_files_exact_on_slices(self):
        trace = make_workload("workstation", EVENTS)
        ctrace = ColumnarTrace.from_trace(trace)
        assert ctrace.unique_files() == trace.unique_files()
        view = ctrace.slice(0, 500)
        assert view.unique_files() == trace.slice(0, 500).unique_files()
