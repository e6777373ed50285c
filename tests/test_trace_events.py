"""Unit tests for the trace event model."""

import gc

import pytest

from repro.traces.events import EventKind, Trace, TraceEvent, collector_paused


class TestEventKind:
    def test_from_string_accepts_every_kind(self):
        for kind in EventKind:
            assert EventKind.from_string(kind.value) is kind

    def test_from_string_normalizes_case_and_whitespace(self):
        assert EventKind.from_string("  OPEN ") is EventKind.OPEN
        assert EventKind.from_string("Write") is EventKind.WRITE

    def test_from_string_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            EventKind.from_string("mmap")

    def test_error_lists_valid_names(self):
        with pytest.raises(ValueError, match="open"):
            EventKind.from_string("bogus")


class TestTraceEvent:
    def test_defaults(self):
        event = TraceEvent("x")
        assert event.kind is EventKind.OPEN
        assert event.sequence == -1
        assert event.client_id == ""

    def test_with_sequence_preserves_fields(self):
        event = TraceEvent("x", EventKind.WRITE, client_id="c", user_id="u")
        renumbered = event.with_sequence(7)
        assert renumbered.sequence == 7
        assert renumbered.file_id == "x"
        assert renumbered.kind is EventKind.WRITE
        assert renumbered.client_id == "c"
        assert renumbered.user_id == "u"

    def test_is_open(self):
        assert TraceEvent("x").is_open
        assert not TraceEvent("x", EventKind.READ).is_open

    def test_is_mutation(self):
        assert TraceEvent("x", EventKind.WRITE).is_mutation
        assert TraceEvent("x", EventKind.CREATE).is_mutation
        assert TraceEvent("x", EventKind.DELETE).is_mutation
        assert not TraceEvent("x", EventKind.OPEN).is_mutation
        assert not TraceEvent("x", EventKind.CLOSE).is_mutation

    def test_frozen(self):
        event = TraceEvent("x")
        with pytest.raises(AttributeError):
            event.file_id = "y"

    def test_equality_and_hash_by_fields(self):
        fields = ("x", EventKind.WRITE, 3, "c", "u", "p")
        event = TraceEvent(*fields)
        assert event == TraceEvent(*fields)
        # The hash of the field tuple, as a frozen dataclass hashed it.
        assert hash(event) == hash(TraceEvent(*fields)) == hash(fields)
        assert len({event, TraceEvent(*fields)}) == 1
        for index, other in enumerate(("y", EventKind.OPEN, 4, "d", "v", "q")):
            changed = list(fields)
            changed[index] = other
            assert event != TraceEvent(*changed)

    def test_repr_names_every_field(self):
        event = TraceEvent("x", EventKind.WRITE, 3, "c", "u", "p")
        assert repr(event) == (
            "TraceEvent(file_id='x', kind=<EventKind.WRITE: 'write'>, "
            "sequence=3, client_id='c', user_id='u', process_id='p')"
        )


class TestCollectorPaused:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_state(self, enabled):
        try:
            (gc.enable if enabled else gc.disable)()
            with collector_paused():
                assert not gc.isenabled()
                with collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_state_when_the_body_raises(self, enabled):
        try:
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(KeyError):
                with collector_paused():
                    raise KeyError("boom")
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestTrace:
    def test_append_assigns_sequence(self):
        trace = Trace()
        trace.append(TraceEvent("a"))
        trace.append(TraceEvent("b"))
        assert [e.sequence for e in trace] == [0, 1]

    def test_append_keeps_explicit_sequence(self):
        trace = Trace()
        trace.append(TraceEvent("a", sequence=42))
        assert trace[0].sequence == 42

    def test_extend_and_len(self):
        trace = Trace()
        trace.extend(TraceEvent(c) for c in "abc")
        assert len(trace) == 3

    def test_file_ids(self):
        trace = Trace.from_file_ids(["a", "b", "a"])
        assert trace.file_ids() == ["a", "b", "a"]

    def test_unique_files(self):
        trace = Trace.from_file_ids(["a", "b", "a", "c"])
        assert trace.unique_files() == 3

    def test_open_events_projection(self, mixed_trace):
        opens = mixed_trace.open_events()
        assert opens.file_ids() == ["a", "a"]
        assert [e.sequence for e in opens] == [0, 1]

    def test_open_events_preserves_attribution(self, mixed_trace):
        opens = mixed_trace.open_events()
        assert opens[0].client_id == "c1"

    def test_slice_renumbers(self):
        trace = Trace.from_file_ids(list("abcdef"))
        sliced = trace.slice(2, 5)
        assert sliced.file_ids() == ["c", "d", "e"]
        assert [e.sequence for e in sliced] == [0, 1, 2]

    def test_slice_open_ended(self):
        trace = Trace.from_file_ids(list("abcd"))
        assert trace.slice(2).file_ids() == ["c", "d"]

    def test_getitem(self):
        trace = Trace.from_file_ids(["a", "b"])
        assert trace[1].file_id == "b"

    def test_iteration_order(self):
        trace = Trace.from_file_ids(list("xyz"))
        assert [e.file_id for e in trace] == ["x", "y", "z"]

    def test_from_file_ids_kind(self):
        trace = Trace.from_file_ids(["a"], kind=EventKind.WRITE)
        assert trace[0].kind is EventKind.WRITE
