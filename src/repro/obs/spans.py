"""Request-scoped distributed tracing: ``repro.span/1``.

The registry answers "how many?", the flight recorder "why this
one?", the time-series "when did it change?".  This module answers the
remaining question — "where did *this request's* time go?" — with
Dapper-style spans: typed, timed operations carrying a ``trace`` id
(one per end-to-end request), a ``span`` id (one per operation), and a
``parent`` id (the enclosing operation), so one slam request can be
followed from the worker process through the daemon's lock queue into
the cache and back out.

The moving parts:

* :class:`Span` — one timed operation.  ``start_ns`` is
  ``time.monotonic_ns()`` (CLOCK_MONOTONIC on Linux, shared by every
  process on the host), so spans recorded by different processes lay
  out on one comparable timeline when merged.
* :class:`SpanBuffer` — the bounded per-process sink.  Admission
  happens at ``start_span``; the ring retains the newest ``capacity``
  spans while ``started``/``finished``/``dropped`` stay exact, the
  same honesty contract as :class:`~repro.obs.tracing.FlightRecorder`.
  The ``sample`` knob is a deterministic every-Nth request filter
  (request 0 is always sampled), so two identical runs trace identical
  request indices.
* The ``X-Repro-Trace`` header (:data:`TRACE_HEADER`) — the
  propagation contract.  A client that wants its request traced sends
  ``<trace_id>:<span_id>``; the daemon opens a server span with that
  trace id and parent, and echoes the header back.  Malformed values
  are ignored, never an error: tracing must not be able to fail a
  request.
* ``repro.span/1`` JSONL export/load, merge-on-trace-id analysis, and
  a Chrome trace-event export (via the shared writer in
  :mod:`repro.obs.tracing`) that Perfetto renders as a multi-process
  timeline.

Spans are recorded only by code that holds a :class:`SpanBuffer`
explicitly — the daemon (``repro serve --spans``) and the slam
workers; a site without one checks a ``None`` attribute and moves on.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .export import Pathish, meta_record, read_records, write_records
from .quantiles import percentile
from .registry import ObservabilityError
from .tracing import chrome_payload, write_chrome_json

#: Schema tag stamped on (and demanded from) every span export.
SPAN_SCHEMA = "repro.span/1"

#: The propagation header: ``X-Repro-Trace: <trace_id>:<span_id>``.
TRACE_HEADER = "X-Repro-Trace"

#: Span kinds: who measured this interval.
SPAN_KINDS = ("client", "server", "internal")

#: Default ring capacity of a :class:`SpanBuffer`.
DEFAULT_CAPACITY = 65536

#: Longest accepted ``X-Repro-Trace`` value; anything bigger is
#: ignored like any other malformed header.
MAX_HEADER_LENGTH = 256


class Span:
    """One timed operation inside a trace.

    Created open by :meth:`SpanBuffer.start_span` (which is also the
    moment it is admitted to the ring); :meth:`finish` stamps the
    duration exactly once.  Usable as a context manager.  Spans are
    owned by the thread that started them — annotate and finish from
    that thread only; the *buffer* is what handler threads share.
    """

    __slots__ = (
        "trace",
        "span",
        "parent",
        "name",
        "kind",
        "process",
        "tid",
        "start_ns",
        "duration_ns",
        "annotations",
        "_buffer",
    )

    def __init__(
        self,
        trace: str,
        span: str,
        parent: Optional[str],
        name: str,
        kind: str,
        process: str,
        start_ns: int,
    ):
        self.trace = trace
        self.span = span
        self.parent = parent
        self.name = name
        self.kind = kind
        self.process = process
        self.tid = threading.get_ident() & 0xFFFFFF
        self.start_ns = start_ns
        self.duration_ns = -1  # open; finish() stamps it
        self.annotations: Dict[str, Any] = {}
        self._buffer: Optional["SpanBuffer"] = None

    def annotate(self, key: str, value: Any) -> "Span":
        self.annotations[key] = value
        return self

    def finish(self, end_ns: Optional[int] = None) -> "Span":
        """Stamp the duration (idempotent; later calls are no-ops)."""
        if self.duration_ns < 0:
            end = time.monotonic_ns() if end_ns is None else end_ns
            self.duration_ns = max(end - self.start_ns, 0)
            buffer = self._buffer
            if buffer is not None:
                buffer._note_finished()
        return self

    @property
    def finished(self) -> bool:
        return self.duration_ns >= 0

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()

    def to_dict(self) -> Dict[str, Any]:
        """The ``repro.span/1`` record (unfinished spans read as 0 ns)."""
        return {
            "kind": "span",
            "trace": self.trace,
            "span": self.span,
            "parent": self.parent,
            "name": self.name,
            "span_kind": self.kind,
            "process": self.process,
            "tid": self.tid,
            "start_ns": self.start_ns,
            "duration_ns": max(self.duration_ns, 0),
            "annotations": dict(self.annotations),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_ns}ns" if self.finished else "open"
        return f"Span({self.name!r}, trace={self.trace}, {state})"


class SpanBuffer:
    """Bounded per-process span sink with exact accounting.

    Thread-safe: the daemon's handler threads start spans
    concurrently.  The ring retains the newest ``capacity`` spans;
    ``started`` / ``finished`` / ``dropped`` / ``sampled_out`` are
    exact over the buffer's lifetime, so an export always says how
    much it under-reports (the flight recorder's honesty contract).

    Ids are ``<8-hex process nonce><10-hex counter>`` — unique across
    the processes of one run without any coordination, while the
    *sampling* decision stays deterministic (it depends only on the
    request index and ``sample``).
    """

    def __init__(
        self,
        process: str = "proc",
        capacity: int = DEFAULT_CAPACITY,
        sample: int = 1,
    ):
        if capacity < 1:
            raise ObservabilityError(
                f"span buffer capacity must be >= 1, got {capacity}"
            )
        if sample < 1:
            raise ObservabilityError(
                f"span sample must be >= 1 (every Nth request), got {sample}"
            )
        self.process = process
        self.capacity = capacity
        self.sample = sample
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._nonce = os.urandom(4).hex()
        self._ids = 0
        self.started = 0
        self.finished = 0
        self.dropped = 0
        self.requests = 0
        self.sampled_out = 0

    def _next_id(self) -> str:
        with self._lock:
            self._ids += 1
            serial = self._ids
        return f"{self._nonce}{serial:010x}"

    def should_sample(self) -> bool:
        """Deterministic every-``sample``-th request decision.

        Counts a request either way; request 0 is always sampled, so a
        run with ``sample=N`` traces request indices 0, N, 2N, … — the
        same indices on every identical run.
        """
        with self._lock:
            index = self.requests
            self.requests += 1
            due = index % self.sample == 0
            if not due:
                self.sampled_out += 1
        return due

    def start_span(
        self,
        name: str,
        trace: Optional[str] = None,
        parent: Optional[str] = None,
        kind: str = "internal",
        start_ns: Optional[int] = None,
    ) -> Span:
        """Open (and admit) a span; mint a fresh trace id when none given."""
        if kind not in SPAN_KINDS:
            raise ObservabilityError(
                f"span kind must be one of {SPAN_KINDS}, got {kind!r}"
            )
        span = Span(
            trace=trace if trace is not None else self._next_id(),
            span=self._next_id(),
            parent=parent,
            name=name,
            kind=kind,
            process=self.process,
            start_ns=time.monotonic_ns() if start_ns is None else start_ns,
        )
        span._buffer = self
        with self._lock:
            self.started += 1
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(span)
        return span

    def _note_finished(self) -> None:
        with self._lock:
            self.finished += 1

    def spans(self) -> List[Span]:
        """The retained spans, oldest first (a copy, safe to iterate)."""
        with self._lock:
            return list(self._ring)

    def records(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans()]

    def __len__(self) -> int:
        return len(self._ring)

    def summary(self) -> Dict[str, Any]:
        """Exact accounting block (embedded in ``/stats`` and exports)."""
        with self._lock:
            return {
                "schema": SPAN_SCHEMA,
                "process": self.process,
                "capacity": self.capacity,
                "sample": self.sample,
                "started": self.started,
                "finished": self.finished,
                "dropped": self.dropped,
                "requests": self.requests,
                "sampled_out": self.sampled_out,
                "retained": len(self._ring),
            }


# -- the propagation header --------------------------------------------------


def format_header(trace: str, span: str) -> str:
    """Encode the ``X-Repro-Trace`` value: ``<trace_id>:<span_id>``."""
    return f"{trace}:{span}"


def parse_header(value: Optional[str]) -> Optional[Tuple[str, str]]:
    """Decode an ``X-Repro-Trace`` value to ``(trace_id, parent_span_id)``.

    Returns None for anything malformed — an absent, oversized, or
    garbled header means "not traced", never an error, because tracing
    must not be able to fail a request.
    """
    if not value or not isinstance(value, str):
        return None
    if len(value) > MAX_HEADER_LENGTH:
        return None
    trace, sep, parent = value.partition(":")
    if not sep or not trace or not parent or ":" in parent:
        return None
    return trace, parent


# -- JSONL export / load -----------------------------------------------------

_REQUIRED_STR = ("trace", "span", "name", "span_kind", "process")


def validate_span(record: Dict[str, Any], source: str = "<span>") -> None:
    """Check one record against the ``repro.span/1`` vocabulary."""
    if record.get("kind") != "span":
        raise ObservabilityError(
            f"{source}: expected a span record, got kind={record.get('kind')!r}"
        )
    for field in _REQUIRED_STR:
        if not isinstance(record.get(field), str) or not record[field]:
            raise ObservabilityError(
                f"{source}: span record needs a non-empty string {field!r}"
            )
    if record["span_kind"] not in SPAN_KINDS:
        raise ObservabilityError(
            f"{source}: span_kind must be one of {SPAN_KINDS}, "
            f"got {record['span_kind']!r}"
        )
    parent = record.get("parent")
    if parent is not None and not isinstance(parent, str):
        raise ObservabilityError(
            f"{source}: span parent must be a string or null, got {parent!r}"
        )
    for field in ("start_ns", "duration_ns"):
        value = record.get(field)
        if not isinstance(value, int) or value < 0:
            raise ObservabilityError(
                f"{source}: span {field} must be a non-negative integer, "
                f"got {value!r}"
            )
    if not isinstance(record.get("annotations"), dict):
        raise ObservabilityError(
            f"{source}: span annotations must be an object"
        )


def span_records(
    buffer: SpanBuffer, meta: Optional[Dict[str, Any]] = None
) -> List[Dict[str, Any]]:
    """The export records: one meta line, then the retained spans."""
    return [meta_record(SPAN_SCHEMA, buffer.summary(), meta)] + buffer.records()


def write_spans_jsonl(
    buffer: SpanBuffer,
    path: Pathish,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the retained spans to ``path`` as JSONL; returns lines."""
    return write_records(path, span_records(buffer, meta))


def load_spans_jsonl(path: Pathish) -> Dict[str, Any]:
    """Read and validate one span export.

    Returns ``{"meta": ..., "spans": [...]}`` with every span checked
    against the schema, so a loaded file feeds straight into
    :func:`merge_spans`.
    """
    meta, spans = read_records(path, SPAN_SCHEMA, validate_span)
    return {"meta": meta, "spans": spans}


# -- merge and analysis ------------------------------------------------------

#: Child-span name -> breakdown category.  The daemon emits exactly
#: these names; anything else folds into "other".
CHILD_CATEGORIES = {
    "lock.wait": "lock",
    "cache.open": "cache",
    "cache.fetch": "cache",
    "cache.invalidate": "cache",
    "journal.append": "journal",
    "response.write": "write",
}


def _endpoint_of(span: Dict[str, Any]) -> str:
    """The endpoint a server/client span served (annotation, else name)."""
    endpoint = span.get("annotations", {}).get("endpoint")
    if isinstance(endpoint, str) and endpoint:
        return endpoint
    name = span.get("name", "")
    _, _, tail = name.rpartition(" ")
    if tail.startswith("/"):
        return tail
    _, _, tail = name.rpartition(":")
    return tail if tail.startswith("/") else name or "?"


def merge_spans(
    client_spans: Iterable[Dict[str, Any]],
    server_spans: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Align client and server spans on trace id.

    Returns ``{"traces": [...], "paired": n, "client_only": n,
    "server_only": n}``.  Each trace entry carries the client root
    (``span_kind == "client"``), the server root (``span_kind ==
    "server"``), and the server root's internal children sorted by
    start time.  A trace with both roots is *paired* only when the
    server root's parent is the client span id — same trace id with a
    broken parent link counts as unpaired, so the checker catches a
    daemon that drops the header's span component.
    """
    traces: Dict[str, Dict[str, Any]] = {}

    def entry(trace: str) -> Dict[str, Any]:
        found = traces.get(trace)
        if found is None:
            found = {
                "trace": trace,
                "client": None,
                "server": None,
                "children": [],
            }
            traces[trace] = found
        return found

    for span in client_spans:
        if span.get("span_kind") == "client":
            entry(span["trace"])["client"] = span
    for span in server_spans:
        slot = entry(span["trace"])
        if span.get("span_kind") == "server":
            # Keep the first server root per trace (a retried request
            # re-sends the same header; the retry's span still belongs
            # to the trace but the breakdown uses the root that paired).
            if slot["server"] is None or (
                slot["client"] is not None
                and span.get("parent") == slot["client"]["span"]
                and slot["server"].get("parent")
                != slot["client"]["span"]
            ):
                slot["server"] = span
        else:
            slot["children"].append(span)

    paired = client_only = server_only = 0
    ordered = []
    for trace in traces.values():
        trace["children"].sort(key=lambda span: span["start_ns"])
        client, server = trace["client"], trace["server"]
        if client is not None and server is not None and (
            server.get("parent") == client["span"]
        ):
            trace["paired"] = True
            paired += 1
        else:
            trace["paired"] = False
            if client is not None and server is None:
                client_only += 1
            elif server is not None and client is None:
                server_only += 1
        ordered.append(trace)
    ordered.sort(
        key=lambda trace: (
            trace["client"] or trace["server"] or {"start_ns": 0}
        )["start_ns"]
    )
    return {
        "traces": ordered,
        "paired": paired,
        "client_only": client_only,
        "server_only": server_only,
    }


def _child_shares(
    traces: List[Dict[str, Any]],
) -> Tuple[Dict[str, int], int]:
    """Summed child durations by category, plus summed server time."""
    by_category: Dict[str, int] = {}
    server_total = 0
    for trace in traces:
        server = trace["server"]
        if server is not None:
            server_total += server["duration_ns"]
        for child in trace["children"]:
            category = CHILD_CATEGORIES.get(child["name"], "other")
            by_category[category] = (
                by_category.get(category, 0) + child["duration_ns"]
            )
    return by_category, server_total


def endpoint_breakdown(merged: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-endpoint latency decomposition over the merged traces.

    For every endpoint with at least one server span: request counts,
    client- and server-side p50/p99 (shared interpolation, so the two
    columns are directly comparable), the per-trace ``client -
    server`` delta (network + queueing — the time the daemon never
    saw), and each child category's share of total server time.
    """
    by_endpoint: Dict[str, List[Dict[str, Any]]] = {}
    for trace in merged["traces"]:
        anchor = trace["server"] or trace["client"]
        if anchor is None:
            continue
        by_endpoint.setdefault(_endpoint_of(anchor), []).append(trace)

    rows = []
    for endpoint in sorted(by_endpoint):
        traces = by_endpoint[endpoint]
        client_ns = sorted(
            t["client"]["duration_ns"] for t in traces if t["client"]
        )
        server_ns = sorted(
            t["server"]["duration_ns"] for t in traces if t["server"]
        )
        deltas = sorted(
            t["client"]["duration_ns"] - t["server"]["duration_ns"]
            for t in traces
            if t["paired"]
        )
        shares, server_total = _child_shares(traces)
        row: Dict[str, Any] = {
            "endpoint": endpoint,
            "requests": len(traces),
            "paired": sum(1 for t in traces if t["paired"]),
            "client_p50_ms": percentile(client_ns, 0.50) / 1e6,
            "client_p99_ms": percentile(client_ns, 0.99) / 1e6,
            "server_p50_ms": percentile(server_ns, 0.50) / 1e6,
            "server_p99_ms": percentile(server_ns, 0.99) / 1e6,
            "net_queue_p50_ms": percentile(deltas, 0.50) / 1e6,
            "net_queue_p99_ms": percentile(deltas, 0.99) / 1e6,
            "server_total_ms": server_total / 1e6,
        }
        for category in ("lock", "cache", "journal", "write", "other"):
            row[f"{category}_share"] = (
                shares.get(category, 0) / server_total if server_total else 0.0
            )
        rows.append(row)
    return rows


def slowest_traces(
    merged: Dict[str, Any], top: int = 5
) -> List[Dict[str, Any]]:
    """The ``top`` slowest traces by client-observed (else server) time."""

    def observed(trace: Dict[str, Any]) -> int:
        anchor = trace["client"] or trace["server"]
        return anchor["duration_ns"] if anchor else 0

    return sorted(merged["traces"], key=observed, reverse=True)[:top]


def format_span_tree(trace: Dict[str, Any]) -> List[str]:
    """Render one trace as an indented span tree (analyzer output)."""

    def ms(span: Dict[str, Any]) -> str:
        return f"{span['duration_ns'] / 1e6:.3f} ms"

    def notes(span: Dict[str, Any]) -> str:
        annotations = span.get("annotations") or {}
        if not annotations:
            return ""
        inner = " ".join(
            f"{key}={annotations[key]}" for key in sorted(annotations)
        )
        return f"  [{inner}]"

    lines = [f"trace {trace['trace']}"]
    client, server = trace["client"], trace["server"]
    if client is not None:
        delta = ""
        if trace["paired"]:
            delta_ms = (
                client["duration_ns"] - server["duration_ns"]
            ) / 1e6
            delta = f"  (net+queue {delta_ms:.3f} ms)"
        lines.append(
            f"  {client['process']} {client['name']} {ms(client)}"
            f"{notes(client)}{delta}"
        )
    if server is not None:
        lines.append(
            f"  {server['process']} {server['name']} {ms(server)}"
            f"{notes(server)}"
        )
        for child in trace["children"]:
            lines.append(f"    {child['name']} {ms(child)}{notes(child)}")
    return lines


# -- Chrome trace-event export -----------------------------------------------


def spans_chrome_trace(
    spans: Iterable[Dict[str, Any]],
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Spans as a Chrome trace-event object (Perfetto, about:tracing).

    Each distinct ``process`` becomes a pid with a ``process_name``
    metadata event; spans become complete (``ph: "X"``) events on
    their recording thread's track.  Because every process stamped
    ``CLOCK_MONOTONIC``, client and server spans of one trace line up
    on a single timeline when the processes shared a host.
    """
    pids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for span in spans:
        process = span["process"]
        pid = pids.get(process)
        if pid is None:
            pid = len(pids) + 1
            pids[process] = pid
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        args = {
            "trace": span["trace"],
            "span": span["span"],
            "parent": span.get("parent"),
        }
        args.update(span.get("annotations") or {})
        events.append(
            {
                "name": span["name"],
                "cat": span["span_kind"],
                "ph": "X",
                "ts": span["start_ns"] / 1e3,
                "dur": max(span["duration_ns"], 1) / 1e3,
                "pid": pid,
                "tid": span.get("tid", 1),
                "args": args,
            }
        )
    other: Dict[str, Any] = {"schema": SPAN_SCHEMA}
    if meta:
        other.update(meta)
    return chrome_payload(events, other)


def write_spans_chrome_trace(
    spans: Sequence[Dict[str, Any]],
    path: Pathish,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the Chrome trace-event export; returns the event count."""
    return write_chrome_json(spans_chrome_trace(spans, meta), path)
