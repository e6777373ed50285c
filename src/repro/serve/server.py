"""The aggregating-cache daemon behind ``repro serve``.

:class:`CacheDaemon` hosts one shared
:class:`~repro.core.aggregating_cache.AggregatingServerCache` on
:class:`repro.obs.host.HttpHost` (a threaded HTTP/1.1 server with its
own framing) and speaks the ``repro.serve/1`` wire schema.  The design
constraints:

* **Single-writer cache.**  The cache and its successor metadata are
  plain dict machinery with no internal synchronization (see the
  thread-safety audit in :mod:`repro.core.aggregating_cache`), so the
  daemon serializes *every* cache touch — accesses, invalidations,
  journal appends, and stats snapshots — under one lock.  Handler
  threads do their socket and JSON work concurrently; only the cache
  critical section is serial.  A ``/fetch`` batch is processed under a
  single lock acquisition, which is both faster (one acquire per N
  events) and what makes the journal order equal the access order.
* **Deterministic accounting.**  When journaling is enabled the daemon
  records every access and invalidation in arrival order; replaying
  the journal through a fresh cache with the same scenario reproduces
  the served hit/miss counters exactly.  The ``serve`` check of
  ``scripts/smoke.py`` rests on that equality.
* **Port 0 by default.**  Scenarios bind an ephemeral port unless they
  pin one; the chosen port is exposed as :attr:`CacheDaemon.port`,
  printed on startup, and optionally written to ``--port-file`` so
  scripted callers (CI) never race on a hard-coded port.
* **Clean exit.**  ``run()`` installs SIGTERM/SIGINT handlers that
  wake the serve loop; :meth:`close` is idempotent and always releases
  the listening socket, so a supervised daemon dies without orphans.

Binding, the serve thread, ``close()``, request framing and the
response write come from :class:`repro.obs.host.HttpHost`, the host
``MetricsServer`` shares; routing, the body limit, error mapping, spans
and telemetry stay here.

Observability — the daemon is a *production-monitoring surface*, not
just a replay harness:

* **Per-endpoint telemetry.**  Every endpoint keeps its own
  :class:`EndpointStats` — a latency
  :class:`~repro.obs.quantiles.Histogram` each request records into
  once, per-status-code counters, and an error count.  ``/stats``
  exposes the summaries under ``endpoints`` and the merged ``/open`` +
  ``/fetch`` latency under ``latency_ns``; ``/metrics`` renders the
  counters and that merged latency as a Prometheus histogram.
* **Windowed time-series.**  :class:`DaemonTelemetry` closes
  fixed-duration (and optionally fixed-event-count) windows over the
  served counters and retains a bounded ring of ``repro.ts/1``
  ``source="serve"`` samples — hit ratio, prefetch efficiency, request
  rate, and the window's latency (the merged histogram minus its
  snapshot at the previous close) — under a monotonic ``seq`` cursor.
  ``GET /stats?since=N`` returns only windows with ``index >= N``, so
  a live poller
  (:class:`repro.obs.live.StatsStream`, ``repro top --attach``,
  ``repro drift --url``) pays one small JSON body per poll instead of
  re-downloading history.
* **Structured access log.**  ``--access-log PATH`` appends one JSON
  line per request (request id, endpoint, method, status, latency,
  files touched, trace id) with size-based rotation — see
  :class:`AccessLog`.  Lines land in request-id order.
* **Request tracing.**  With a :class:`~repro.obs.spans.SpanBuffer`
  attached (``--spans PATH``), every request opens a server span —
  joined to the client's trace when the request carries
  ``X-Repro-Trace`` — with child spans for lock wait, the cache
  operation (annotated hit/miss and group-fetch accounting), the
  journal append, and the response write.  The trace id is echoed
  into the access log and the response header, and the buffer is
  exported as ``repro.span/1`` JSONL on close; ``repro spans`` merges
  it with the slam workers' client spans.

The instrumentation keeps the repository's observability stance: the
idle daemon emits nothing (the sampler thread wakes, sees no activity,
and goes back to sleep), the per-request cost is a handful of dict
increments under the lock the request already holds, and the latency
work a ``/stats`` call or a window close does under it is bounded by
the bucket count, not by the requests served.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..obs import spans as obs_spans
from ..obs.export import EXPOSITION_CONTENT_TYPE, exposition
from ..obs.host import HttpHost, Request
from ..obs.quantiles import Histogram
from ..obs.spans import Span, SpanBuffer
from . import schema as wire
from .scenario import Scenario

#: Default access-log rotation threshold.
ACCESS_LOG_MAX_BYTES = 16 * 1024 * 1024


def latency_block(latency: Histogram) -> Dict[str, Any]:
    """A ``/stats`` ``latency_ns`` block: exact count and mean, p50/p95/p99."""
    quantiles = latency.quantiles((0.50, 0.95, 0.99))
    block = {"count": latency.count, "mean_ns": latency.mean}
    block.update(zip(("p50_ns", "p95_ns", "p99_ns"), quantiles))
    return block


class EndpointStats:
    """One endpoint's request accounting: latency histogram, statuses, errors."""

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self.name = endpoint.strip("/").replace("/", "_") or "root"
        self.latency = Histogram(self.name)
        self.errors = 0
        self.statuses: Dict[int, int] = {}

    @property
    def requests(self) -> int:
        return self.latency.count

    def record(self, status: int, ns: int) -> None:
        """Fold one completed request in (caller holds the daemon lock)."""
        self.latency.observe(ns)
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status >= 400:
            self.errors += 1

    def summary(self) -> Dict[str, Any]:
        """The ``/stats`` ``endpoints`` entry for this endpoint."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "statuses": {
                str(code): count
                for code, count in sorted(self.statuses.items())
            },
            "latency_ns": latency_block(self.latency),
        }


class AccessLog:
    """Structured JSONL access log with size-based rotation.

    One JSON object per line: ``ts`` (epoch seconds), ``id`` (the
    request id, 1, 2, 3, ... in file order), ``endpoint``, ``method``,
    ``status``, ``latency_ns``, and ``events`` (files touched by the
    request; 0 for read-only endpoints).  When the file would exceed
    ``max_bytes`` it is rotated to ``<path>.1`` (…``.N`` up to
    ``backups``) before the write, so no single log file grows without
    bound under slam load.

    Thread-safe via its own lock, which numbers a line and writes it in
    one critical section, so file order is id order.  Handler threads
    log after releasing the cache lock, so logging never extends the
    cache's serial section.
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_bytes: int = ACCESS_LOG_MAX_BYTES,
        backups: int = 1,
    ):
        if max_bytes < 1:
            raise wire.WireError(f"access-log max_bytes must be >= 1, got {max_bytes}")
        if backups < 0:
            raise wire.WireError(f"access-log backups must be >= 0, got {backups}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self.lines = 0
        self.rotations = 0
        self._lock = threading.Lock()
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream = self.path.open("a", encoding="utf-8")
        self._size = self.path.stat().st_size

    def write(self, record: Dict[str, Any]) -> int:
        """Number ``record`` as the next ``id``, append it; returns the id."""
        with self._lock:
            self.lines += 1
            record["id"] = self.lines
            line = json.dumps(record, sort_keys=True) + "\n"
            encoded = len(line.encode("utf-8"))
            if self._size and self._size + encoded > self.max_bytes:
                self._rotate()
            self._stream.write(line)
            self._stream.flush()
            self._size += encoded
            return self.lines

    def _rotate(self) -> None:
        """Shift ``path`` -> ``path.1`` -> … -> ``path.backups``."""
        self._stream.close()
        if self.backups:
            for index in range(self.backups, 1, -1):
                older = self.path.with_name(f"{self.path.name}.{index - 1}")
                if older.exists():
                    older.replace(
                        self.path.with_name(f"{self.path.name}.{index}")
                    )
            self.path.replace(self.path.with_name(f"{self.path.name}.1"))
        else:
            self.path.unlink()
        self._stream = self.path.open("a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def close(self) -> None:
        with self._lock:
            if not self._stream.closed:
                self._stream.close()

    def summary(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "lines": self.lines,
            "rotations": self.rotations,
            "max_bytes": self.max_bytes,
        }


class DaemonTelemetry:
    """Windowed ``repro.ts/1`` time-series over the daemon's counters.

    Windows close on a timer (``window_seconds``, the request-rate
    signal survives idle gaps) and, when ``window_events > 0``, as soon
    as that many accesses accumulate (deterministic windows under
    load — what the ``live-obs`` smoke check keys its drift scenario
    on).  Each closed window is one ``source="serve"`` sample dict —
    the exact vocabulary of :class:`repro.obs.timeseries.WindowSample`
    plus serve-only extras (``requests``, ``errors``,
    ``requests_per_sec``, and the window's ``latency_ns`` block: the
    daemon's ``/open`` + ``/fetch`` latency histogram minus its
    snapshot at the previous window close).

    ``seq`` counts every window ever emitted; the ring retains the
    newest ``retain`` of them and ``dropped`` says how many aged out.
    ``GET /stats?since=N`` filters on the per-window ``index``, so a
    poller's cursor survives ring truncation (it just sees a gap and
    the ``dropped`` count says why).

    All mutation happens under the daemon's lock; empty windows (no
    requests, no accesses) are skipped so an idle daemon emits nothing
    and pays nothing beyond the sampler thread's periodic wakeup.
    """

    def __init__(
        self,
        window_seconds: float,
        window_events: int,
        retain: int,
        label: str = "",
    ):
        self.window_seconds = window_seconds
        self.window_events = window_events
        self.retain = retain
        self.label = label
        self.windows: deque = deque(maxlen=retain)
        self.seq = 0
        self.dropped = 0
        self.requests = 0
        self.errors = 0
        self.opened_at = time.perf_counter()
        self.start_accesses = 0
        self._last: Optional[Tuple[int, ...]] = None
        self._last_latency = Histogram()

    def snapshot_due(self, accesses: int) -> bool:
        """Should the event-count trigger close a window now?"""
        return (
            self.window_events > 0
            and accesses - self.start_accesses >= self.window_events
        )

    def close_window(
        self, counters: Tuple[int, ...], latency: Histogram, group_size: int
    ) -> Optional[Dict[str, Any]]:
        """Close the current window over a counter snapshot.

        ``counters`` is ``(accesses, hits, misses, evictions, installs,
        group_fetches, files_retrieved, invalidations)`` and ``latency``
        the ``/open`` + ``/fetch`` latency histogram — both cumulative,
        read under the daemon lock.  Returns the emitted sample dict,
        or None when the window was empty (skipped; the window clock
        restarts so a later active window reports an honest duration).
        """
        now = time.perf_counter()
        if self._last is None:
            # The baseline is daemon start, where every counter is 0 —
            # the first window must cover everything served so far.
            self._last = (0,) * len(counters)
        deltas = tuple(a - b for a, b in zip(counters, self._last))
        (
            accesses,
            hits,
            misses,
            evictions,
            installs,
            group_fetches,
            files_retrieved,
            invalidations,
        ) = deltas
        if accesses == 0 and self.requests == 0:
            self.opened_at = now
            return None
        seconds = max(now - self.opened_at, 1e-9)
        # Deferred import: repro.obs.timeseries is import-light, but the
        # serve package must stay importable before obs finishes loading.
        from ..obs.timeseries import WindowSample

        sample = WindowSample(
            source="serve",
            index=self.seq,
            start=self.start_accesses,
            events=accesses,
            seconds=seconds,
            hits=hits,
            misses=misses,
            remote_requests=misses,
            store_fetches=files_retrieved,
            bytes_fetched=files_retrieved,
            group_installs=installs,
            companion_slots=group_fetches * max(group_size - 1, 0),
            speculative_fetches=max(files_retrieved - group_fetches, 0),
            evictions=evictions,
            invalidations=invalidations,
            entropy=None,
            label=self.label,
        )
        record = sample.to_dict()
        record["requests"] = self.requests
        record["errors"] = self.errors
        record["requests_per_sec"] = self.requests / seconds
        record["latency_ns"] = latency_block(latency - self._last_latency)
        if len(self.windows) == self.windows.maxlen:
            self.dropped += 1
        self.windows.append(record)
        self.seq += 1
        # Open the next window.
        self._last = counters
        self.start_accesses = counters[0]
        self._last_latency = latency
        self.opened_at = now
        self.requests = 0
        self.errors = 0
        return record

    def payload(self, since: Optional[int] = None) -> Dict[str, Any]:
        """The ``/stats`` ``telemetry`` section (caller holds the lock)."""
        if since is None:
            windows = list(self.windows)
        else:
            windows = [w for w in self.windows if w["index"] >= since]
        return {
            "schema": wire.TS_SCHEMA,
            "seq": self.seq,
            "window_seconds": self.window_seconds,
            "window_events": self.window_events,
            "retain": self.retain,
            "retained": len(self.windows),
            "dropped": self.dropped,
            "windows": windows,
        }


class CacheDaemon(HttpHost):
    """One shared aggregating server cache behind the JSON-over-HTTP API.

    Parameters
    ----------
    scenario:
        The validated deployment description; supplies the cache
        configuration, bind address, journal policy, and telemetry
        window defaults.
    host / port:
        Optional overrides of the scenario's bind address (the CLI's
        ``--host`` / ``--port`` flags).  Port 0 binds an ephemeral port;
        read the chosen one from :attr:`port`.
    access_log:
        Optional path for the structured JSONL access log (the CLI's
        ``--access-log``); ``access_log_max_bytes`` sets the rotation
        threshold.
    window_seconds / window_events:
        Optional overrides of the scenario's telemetry windows (the
        CLI's ``--stats-window`` / ``--stats-window-events``).
    spans / span_log / span_capacity / span_sample:
        Request tracing.  Pass a ready :class:`SpanBuffer` (embedded
        use, tests) or a ``span_log`` path (the CLI's ``--spans``) —
        the latter builds a ``process="serve"`` buffer and writes it
        as ``repro.span/1`` JSONL on :meth:`close`.  Requests carrying
        ``X-Repro-Trace`` are always traced; headerless requests are
        traced every ``span_sample``-th (default: all).  With neither
        argument tracing is off and requests pay one ``None`` check.
    """

    def __init__(
        self,
        scenario: Scenario,
        host: Optional[str] = None,
        port: Optional[int] = None,
        access_log: Optional[Union[str, Path]] = None,
        access_log_max_bytes: int = ACCESS_LOG_MAX_BYTES,
        window_seconds: Optional[float] = None,
        window_events: Optional[int] = None,
        spans: Optional[SpanBuffer] = None,
        span_log: Optional[Union[str, Path]] = None,
        span_capacity: int = obs_spans.DEFAULT_CAPACITY,
        span_sample: int = 1,
    ):
        self.scenario = scenario
        self.cache = scenario.build_cache()
        if spans is None and span_log is not None:
            spans = SpanBuffer(
                process="serve", capacity=span_capacity, sample=span_sample
            )
        self.spans = spans
        self._span_log = Path(span_log) if span_log is not None else None
        self._lock = threading.RLock()
        self._seq = 0
        self._request_ids = 0
        self._errors = 0
        self._invalidations = 0
        self._invalidation_misses = 0
        self._endpoints: Dict[str, EndpointStats] = {}
        self.telemetry = DaemonTelemetry(
            window_seconds=(
                window_seconds
                if window_seconds is not None
                else scenario.telemetry_window_seconds
            ),
            window_events=(
                window_events
                if window_events is not None
                else scenario.telemetry_window_events
            ),
            retain=scenario.telemetry_retain,
            label=scenario.name,
        )
        self.access_log = (
            AccessLog(access_log, max_bytes=access_log_max_bytes)
            if access_log is not None
            else None
        )
        self._journal: Optional[deque] = (
            deque(maxlen=scenario.journal_max_events)
            if scenario.journal_enabled
            else None
        )
        self._journaled = 0
        self._started = time.time()
        self._stop = threading.Event()
        super().__init__(
            host if host is not None else scenario.host,
            port if port is not None else scenario.port,
            "repro-serve",
        )
        self._sampler = (
            threading.Thread(
                target=self._sampler_loop,
                name="repro-serve-sampler",
                daemon=True,
            )
            if self.telemetry.window_seconds > 0
            else None
        )

    # -- lifecycle ---------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def accesses(self) -> int:
        """Cache accesses served so far (the ``accesses`` field of /stats)."""
        with self._lock:
            return self._seq

    def start(self) -> "CacheDaemon":
        """Serve from a background thread (tests, embedded use)."""
        super().start()
        if self._sampler is not None:
            self._sampler.start()
        return self

    def close(self) -> None:
        """Stop serving, release the socket, flush the logs; safe to call twice."""
        if self._closed:
            return
        self._stop.set()
        super().close()
        if self._sampler is not None and self._sampler.is_alive():
            self._sampler.join(timeout=5)
        if self.access_log is not None:
            self.access_log.close()
        if self.spans is not None and self._span_log is not None:
            obs_spans.write_spans_jsonl(
                self.spans,
                self._span_log,
                meta={"role": "server", "scenario": self.scenario.name},
            )

    def _sampler_loop(self) -> None:
        """Close a telemetry window every ``window_seconds`` of activity."""
        while not self._stop.wait(self.telemetry.window_seconds):
            self.force_sample()

    def force_sample(self) -> Optional[Dict[str, Any]]:
        """Close the current telemetry window now (timer, event trigger, tests).

        Skips (returns None) when the window is empty, like the timer.
        """
        with self._lock:
            return self.telemetry.close_window(
                self._counter_snapshot(),
                self._served_latency(),
                self.scenario.group_size,
            )

    def run(
        self,
        port_file: Optional[Path] = None,
        announce=print,
    ) -> int:
        """Blocking CLI entry: serve until SIGTERM/SIGINT or ``/shutdown``.

        Installs signal handlers (restored on exit), optionally writes
        the bound port to ``port_file`` for scripted callers, and always
        closes the socket on the way out.  Returns the process exit
        code (0 for every clean stop).
        """
        received: List[int] = []

        def handle(signum, frame):
            received.append(signum)
            self._stop.set()

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, handle)
            except ValueError:  # pragma: no cover - non-main threads
                pass
        self.start()
        if port_file is not None:
            Path(port_file).write_text(f"{self.port}\n", encoding="utf-8")
        if announce is not None:
            announce(
                f"serving {wire.SERVE_SCHEMA} scenario "
                f"{self.scenario.name!r} on {self.url} "
                f"(capacity {self.scenario.capacity}, "
                f"g={self.scenario.group_size}, pid {os.getpid()})"
            )
            if self.access_log is not None:
                announce(f"access log: {self.access_log.path}")
            if self._span_log is not None:
                announce(
                    f"request tracing on: {obs_spans.SPAN_SCHEMA} spans "
                    f"to {self._span_log} on exit"
                )
        try:
            while not self._stop.wait(0.2):
                pass
        except KeyboardInterrupt:  # pragma: no cover - signal path covers it
            pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.close()
            if announce is not None:
                reason = (
                    f"signal {received[0]}" if received else "shutdown request"
                )
                announce(
                    f"stopped after {self._seq} accesses ({reason}); "
                    f"socket released"
                )
        return 0

    # -- request dispatch --------------------------------------------------
    _ROUTES = {
        ("POST", "/open"),
        ("POST", "/fetch"),
        ("POST", "/invalidate"),
        ("POST", "/shutdown"),
        ("GET", "/stats"),
        ("GET", "/metrics"),
        ("GET", "/journal"),
        ("GET", "/healthz"),
    }

    #: Paths that get their own EndpointStats entry.  Anything else
    #: (port scans, typos) folds into one ``/_other`` bucket so a 404
    #: storm cannot grow the endpoint table without bound.
    _KNOWN_PATHS = frozenset(path for _method, path in _ROUTES)

    #: Read-only observability endpoints.  These are fully counted in
    #: the per-endpoint stats but excluded from the telemetry windows'
    #: request totals — otherwise an attached poller's own ``/stats``
    #: traffic would keep emitting windows on an idle daemon (and its
    #: request rate would measure the monitoring, not the serving).
    _OBSERVABILITY_PATHS = frozenset(
        ("/stats", "/metrics", "/healthz", "/journal")
    )

    def _dispatch(self, request: Request) -> None:
        started = time.perf_counter_ns()
        method = request.method
        raw_path, _, query = request.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        root = self._open_server_span(request, method, path)
        # Echo the trace back so a caller (and its logs) can confirm
        # which trace the server actually recorded.
        echo = ()
        if root is not None:
            echo = ((obs_spans.TRACE_HEADER, obs_spans.format_header(root.trace, root.span)),)
        events = 0
        raw: Optional[bytes] = None
        try:
            if (method, path) not in self._ROUTES:
                if path in self._KNOWN_PATHS:
                    raise wire.WireError(
                        f"{path} does not accept {method}", status=405
                    )
                raise wire.WireError(f"unknown endpoint {path}", status=404)
            if method == "POST":
                length = wire.parse_content_length(
                    request.headers.get("Content-Length")
                )
                if length > wire.MAX_BODY_BYTES:
                    raise wire.WireError(
                        f"body of {length} bytes exceeds "
                        f"{wire.MAX_BODY_BYTES}",
                        status=413,
                    )
                raw = request.rfile.read(length) if length else b""
            else:
                raw = b""
            status, payload = self._handle(method, path, raw, query, root)
        except wire.WireError as error:
            if raw is None and method == "POST":
                # The body is still on the stream (or cannot be framed at
                # all); keep-alive would parse it as the next request.
                request.close_connection = True
            # Record before responding: once a client has seen the reply
            # it may immediately scrape /stats, and the counters must
            # already include this request (no read-your-writes gap).
            request_id = self._record(
                path, method, error.status, started, 0, root
            )
            request.respond(
                error.status, wire.error_body(str(error), error.status),
                "application/json", echo,
            )
            self._finish_root(root, path, error.status, request_id, 0)
            return
        except Exception as error:  # pragma: no cover - defensive 500
            request_id = self._record(path, method, 500, started, 0, root)
            request.respond(
                500, wire.error_body(repr(error), 500), "application/json", echo
            )
            self._finish_root(root, path, 500, request_id, 0)
            return
        if isinstance(payload, dict):
            events = int(payload.get("count", 0)) or (
                1 if path in ("/open", "/invalidate") else 0
            )
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8")
        )
        content_type = (
            EXPOSITION_CONTENT_TYPE if path == "/metrics" else "application/json"
        )
        request_id = self._record(path, method, status, started, events, root)
        write_span = self._child(root, "response.write")
        request.respond(status, body, content_type, echo)
        if write_span is not None:
            write_span.finish()
            write_span.annotate("bytes", len(body))
        self._finish_root(root, path, status, request_id, events)

    # -- request tracing ---------------------------------------------------
    def _open_server_span(
        self, request: Request, method: str, path: str
    ) -> Optional[Span]:
        """The per-request server span, or None when tracing is off.

        A request carrying ``X-Repro-Trace`` joins the caller's trace
        (its span id becomes the parent, so the merged tree hangs the
        server work under the client span).  Headerless requests mint
        a local trace, subject to the buffer's deterministic sampling
        knob — the daemon stays fully accounted even when nobody
        propagates ids.  Malformed headers mean "not propagated",
        never an error.
        """
        buffer = self.spans
        if buffer is None:
            return None
        context = obs_spans.parse_header(
            request.headers.get(obs_spans.TRACE_HEADER)
        )
        if context is not None:
            return buffer.start_span(
                f"{method} {path}",
                trace=context[0],
                parent=context[1],
                kind="server",
            )
        if buffer.should_sample():
            return buffer.start_span(f"{method} {path}", kind="server")
        return None

    def _child(self, root: Optional[Span], name: str) -> Optional[Span]:
        """A child span under this request's server span (or nothing)."""
        if root is None:
            return None
        return self.spans.start_span(
            name, trace=root.trace, parent=root.span
        )

    @staticmethod
    def _finish_root(
        root: Optional[Span],
        path: str,
        status: int,
        request_id: int,
        events: int,
    ) -> None:
        if root is None:
            return
        root.finish()
        root.annotate("endpoint", path)
        root.annotate("status", status)
        root.annotate("request_id", request_id)
        root.annotate("events", events)

    @contextmanager
    def _locked(self, root: Optional[Span]):
        """The cache lock, with the wait measured as a ``lock.wait`` span.

        The untraced path is a plain acquire/release; the traced path
        times the acquire alone, so a breakdown can separate "queued
        behind the single-writer lock" from "doing cache work".
        """
        if root is None:
            with self._lock:
                yield
            return
        wait = self.spans.start_span(
            "lock.wait", trace=root.trace, parent=root.span
        )
        self._lock.acquire()
        wait.finish()
        try:
            yield
        finally:
            self._lock.release()

    def _record(
        self,
        path: str,
        method: str,
        status: int,
        started_ns: int,
        events: int,
        root: Optional[Span] = None,
    ) -> int:
        """Fold one completed request into every telemetry surface.

        Returns the assigned request id — the join key shared by the
        access-log line and the server span's ``request_id``
        annotation.  With an access log, the log numbers the request
        as it writes the line (so file order is id order, and the file
        I/O stays outside the cache lock); without one, the id is taken
        under the cache lock.
        """
        elapsed = time.perf_counter_ns() - started_ns
        telemetry = self.telemetry
        access_log = self.access_log
        bucket = path if path in self._KNOWN_PATHS else "/_other"
        with self._lock:
            if access_log is None:
                self._request_ids += 1
                request_id = self._request_ids
            endpoint = self._endpoints.get(bucket)
            if endpoint is None:
                endpoint = EndpointStats(bucket)
                self._endpoints[bucket] = endpoint
            endpoint.record(status, elapsed)
            observability = path in self._OBSERVABILITY_PATHS
            if status >= 400:
                self._errors += 1
                if not observability:
                    telemetry.errors += 1
            if not observability:
                telemetry.requests += 1
            if telemetry.snapshot_due(self._seq):
                self.force_sample()
        if access_log is not None:
            request_id = access_log.write(
                {
                    "ts": time.time(),
                    "endpoint": path,
                    "method": method,
                    "status": status,
                    "latency_ns": elapsed,
                    "events": events,
                    "trace": root.trace if root is not None else None,
                }
            )
        return request_id

    def _served_latency(self) -> Histogram:
        """The ``/open`` and ``/fetch`` latency, merged (caller holds the lock)."""
        latency = Histogram()
        for path in ("/open", "/fetch"):
            if path in self._endpoints:
                latency.merge(self._endpoints[path].latency)
        return latency

    def _counter_snapshot(self) -> Tuple[int, ...]:
        """Cumulative counters for telemetry windows (caller holds lock)."""
        stats = self.cache.stats
        log = self.cache.fetch_log
        return (
            self._seq,
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.installs,
            log.group_fetches,
            log.files_retrieved,
            self._invalidations,
        )

    # -- endpoint handlers -------------------------------------------------
    def _handle(
        self,
        method: str,
        path: str,
        raw: bytes,
        query: str = "",
        root: Optional[Span] = None,
    ) -> Tuple[int, Any]:
        if path == "/open":
            return 200, self._do_open(wire.parse_body(raw, "open"), root)
        if path == "/fetch":
            return 200, self._do_fetch(wire.parse_body(raw, "fetch"), root)
        if path == "/invalidate":
            return 200, self._do_invalidate(
                wire.parse_body(raw, "invalidate"), root
            )
        if path == "/stats":
            return 200, self.stats_payload(since=wire.parse_since(query))
        if path == "/metrics":
            return 200, self.prometheus_text().encode("utf-8")
        if path == "/journal":
            return 200, self._do_journal()
        if path == "/healthz":
            return 200, {"ok": True, "scenario": self.scenario.name}
        if path == "/shutdown":
            if not self.scenario.allow_shutdown:
                raise wire.WireError(
                    "shutdown over the wire is disabled by this scenario",
                    status=403,
                )
            # Respond first, then wake the run() loop; close() must not
            # run on this handler thread (shutdown() would deadlock).
            self._stop.set()
            return 200, {"stopping": True}
        raise wire.WireError(f"unknown endpoint {path}", status=404)  # pragma: no cover

    def _do_open(
        self, payload: Dict[str, Any], root: Optional[Span] = None
    ) -> Dict[str, Any]:
        file_id, _client = wire.parse_open(payload)
        cache = self.cache
        with self._locked(root):
            span = self._child(root, "cache.open")
            fetches_before = cache.fetch_log.group_fetches
            shipped_before = cache.fetch_log.files_retrieved
            installed_before = cache.fetch_log.predicted_installed
            hit = cache.access(file_id)
            if hit:
                group: List[str] = []
                installed = 0
            else:
                # The tracker already observed file_id inside access(),
                # and build() is read-only over the metadata, so this
                # re-derivation returns exactly the group access() built.
                group = list(cache.builder.build(file_id))
                installed = cache.fetch_log.predicted_installed - installed_before
            if span is not None:
                span.finish()
                shipped = cache.fetch_log.files_retrieved - shipped_before
                span.annotate("file", file_id)
                span.annotate("hit", hit)
                span.annotate("fetch", "none" if hit else "group")
                span.annotate(
                    "group_fetches",
                    cache.fetch_log.group_fetches - fetches_before,
                )
                span.annotate("files_shipped", shipped)
                # The simulation's whole-file model: one file, one unit.
                span.annotate("bytes_shipped", shipped)
                span.annotate("installed", installed)
            self._journal_append(root, [file_id])
            self._seq += 1
            seq = self._seq
        return {"hit": hit, "group": group, "installed": installed, "seq": seq}

    def _journal_append(
        self, root: Optional[Span], entries: List[str], invalidate: bool = False
    ) -> None:
        """Append journal entries under the held lock, as one child span."""
        journal = self._journal
        if journal is None:
            return
        span = self._child(root, "journal.append")
        entry = wire.journal_entry
        journal.extend(entry(file_id, invalidate) for file_id in entries)
        self._journaled += len(entries)
        if span is not None:
            span.finish()
            span.annotate("entries", len(entries))

    def _do_fetch(
        self, payload: Dict[str, Any], root: Optional[Span] = None
    ) -> Dict[str, Any]:
        files, _client, detail = wire.parse_fetch(payload)
        cache = self.cache
        results: Optional[List[bool]] = [] if detail else None
        hits = 0
        with self._locked(root):
            span = self._child(root, "cache.fetch")
            if span is not None:
                log = cache.fetch_log
                before = (log.group_fetches, log.files_retrieved)
                installs_before = cache.stats.installs
            access = cache.access
            for file_id in files:
                if access(file_id):
                    hits += 1
                    if results is not None:
                        results.append(True)
                elif results is not None:
                    results.append(False)
            if span is not None:
                span.finish()
                log = cache.fetch_log
                shipped = log.files_retrieved - before[1]
                span.annotate("events", len(files))
                span.annotate("hits", hits)
                span.annotate("misses", len(files) - hits)
                span.annotate("group_fetches", log.group_fetches - before[0])
                span.annotate("files_shipped", shipped)
                span.annotate("bytes_shipped", shipped)
                span.annotate(
                    "installed", cache.stats.installs - installs_before
                )
            self._journal_append(root, files)
            self._seq += len(files)
            seq = self._seq
        response: Dict[str, Any] = {
            "count": len(files),
            "hits": hits,
            "misses": len(files) - hits,
            "seq": seq,
        }
        if results is not None:
            response["results"] = results
        return response

    def _do_invalidate(
        self, payload: Dict[str, Any], root: Optional[Span] = None
    ) -> Dict[str, Any]:
        file_id = wire.parse_invalidate(payload)
        with self._locked(root):
            span = self._child(root, "cache.invalidate")
            dropped = self.cache.invalidate(file_id)
            if span is not None:
                span.finish()
                span.annotate("file", file_id)
                span.annotate("dropped", dropped)
            if dropped:
                self._invalidations += 1
                self._journal_append(root, [file_id], invalidate=True)
            else:
                self._invalidation_misses += 1
        if not dropped:
            raise wire.WireError(
                f"file {file_id!r} is not resident", status=404
            )
        return {"invalidated": True, "file": file_id}

    def _do_journal(self) -> Dict[str, Any]:
        if self._journal is None:
            raise wire.WireError(
                "journaling is disabled by this scenario", status=404
            )
        with self._lock:
            entries = list(self._journal)
            total = self._journaled
        return {
            "encoding": wire.JOURNAL_ENCODING,
            "entries": entries,
            "total": total,
            "truncated": total > len(entries),
        }

    # -- observable state --------------------------------------------------
    def stats_payload(self, since: Optional[int] = None) -> Dict[str, Any]:
        """The ``/stats`` snapshot (also usable in-process).

        ``since`` filters the ``telemetry.windows`` list to windows
        with ``index >= since`` (the ``?since=`` query parameter); the
        counter sections are always complete.
        """
        with self._lock:
            payload = {
                "schema": wire.SERVE_SCHEMA,
                "scenario": self.scenario.to_dict(),
                "uptime_seconds": time.time() - self._started,
                "accesses": self._seq,
                "requests": {
                    endpoint: stats.requests
                    for endpoint, stats in self._endpoints.items()
                },
                "errors": self._errors,
                "invalidations": self._invalidations,
                "invalidation_misses": self._invalidation_misses,
                "journal": {
                    "enabled": self._journal is not None,
                    "events": self._journaled,
                    "retained": (
                        len(self._journal) if self._journal is not None else 0
                    ),
                },
                "latency_ns": latency_block(self._served_latency()),
                "endpoints": {
                    stats.name: stats.summary()
                    for stats in self._endpoints.values()
                },
                "telemetry": self.telemetry.payload(since=since),
                "cache": self.cache.stats_dict(),
            }
            if self.access_log is not None:
                payload["access_log"] = self.access_log.summary()
            if self.spans is not None:
                payload["spans"] = self.spans.summary()
        return payload

    def prometheus_text(self, prefix: str = "repro_serve") -> str:
        """Render the daemon's counters in Prometheus text format.

        ``_total`` counters, latest-value gauges and the ``/open`` +
        ``/fetch`` latency histogram, as rows for
        :func:`repro.obs.export.exposition`: the replay telemetry's page
        uses the same renderer, so one scrape config covers both.
        """
        stats = self.stats_payload()
        with self._lock:
            latency = self._served_latency()
        cache = stats["cache"]
        rows = [
            ("accesses_total", "counter", "Demand accesses served", stats["accesses"]),
            ("hits_total", "counter", "Server cache hits", cache["hits"]),
            ("misses_total", "counter", "Server cache misses", cache["misses"]),
            ("evictions_total", "counter", "Server cache evictions", cache["evictions"]),
            ("installs_total", "counter", "Companions installed by group fetches", cache["installs"]),
            ("group_fetches_total", "counter", "Group retrievals from the store", cache["group_fetches"]),
            ("files_retrieved_total", "counter", "Files shipped from the store", cache["files_retrieved"]),
            ("invalidations_total", "counter", "Files dropped by callback breaks", stats["invalidations"]),
            ("errors_total", "counter", "Requests rejected or failed", stats["errors"]),
        ]
        for name, summary in sorted(stats["endpoints"].items()):
            rows.append(
                (
                    f"requests_{name}_total",
                    "counter",
                    f"Requests to /{name}",
                    summary["requests"],
                )
            )
            rows.append(
                (
                    f"errors_{name}_total",
                    "counter",
                    f"Rejected or failed requests to /{name}",
                    summary["errors"],
                )
            )
        rows += [
            (
                "telemetry_windows_total",
                "counter",
                "Telemetry windows emitted",
                stats["telemetry"]["seq"],
            ),
            ("hit_ratio", "gauge", "Lifetime server hit ratio", float(cache["hit_ratio"])),
            ("mean_group_size", "gauge", "Mean files shipped per group fetch", float(cache["mean_group_size"])),
            ("resident_files", "gauge", "Files resident in the cache", cache["resident"]),
            ("metadata_entries", "gauge", "Successor-list metadata entries", cache["metadata_entries"]),
            ("uptime_seconds", "gauge", "Daemon uptime", float(stats["uptime_seconds"])),
        ]
        rows.append(
            ("latency_ns", "histogram", "Latency of /open and /fetch requests", latency)
        )
        return exposition(
            (f"{prefix}_{name}", kind, help_text, value)
            for name, kind, help_text, value in rows
        )
