"""``repro slam`` — the multi-process load driver for the cache daemon.

Replays a trace against a running :class:`~repro.serve.server.CacheDaemon`
from N worker processes and reports what a load test of a production
cache tier would report: client-side latency percentiles (p50/p95/p99),
achieved request and event rates, retry/error counts, and the
server-side hit ratio and prefetch efficiency pulled from ``/stats``.

Sharding
--------
The trace is split into ``workers`` contiguous shards, one per worker
process, so each worker replays an in-order stream of its own — the
shape of N independent clients hammering one shared cache.  Two shard
forms exist:

* in-memory file-id lists (synthetic workloads, text traces), shipped
  to the worker through the process arguments;
* ``.ctrace`` ranges (``path``, ``lo``, ``hi``): the worker re-opens
  the columnar artifact and walks its shard through zero-copy chunked
  slices of the shared mmap, so a million-event slam never
  materializes the trace in the parent or pickles it to workers.

Workers batch ``batch`` events per ``POST /fetch`` request over one
keep-alive connection, time every request with ``perf_counter_ns``,
and retry exactly once on a reset connection (an idle keep-alive
connection the daemon closed, transient RSTs under load) before
counting an error.  Results travel back over a ``multiprocessing``
queue; the parent merges latency samples and counters into one
:class:`SlamReport`.

For ``--workers 1`` the driver runs inline in the calling process —
same code path minus the fork, which keeps tests and tiny smokes fast.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from ..errors import ReproError
from ..obs.host import read_head
from ..obs.quantiles import percentile
from . import schema as wire

__all__ = [
    "MAX_SAMPLES_PER_WORKER",
    "RETRYABLE",
    "ServeConnection",
    "SlamError",
    "SlamReport",
    "make_shards",
    "percentile",
    "run_slam",
    "write_report",
]

#: Exceptions worth one reconnect-and-retry: the connection died under
#: us (a closed idle keep-alive connection, transient RST).
RETRYABLE = (ConnectionResetError, ConnectionAbortedError, BrokenPipeError)

#: What a failed round trip raises besides :data:`RETRYABLE`: a socket
#: error or timeout, or a response that breaks HTTP/1.1 framing.
_FAILED = (OSError, wire.WireError)

#: Per-worker cap on retained latency samples; counters stay exact.
MAX_SAMPLES_PER_WORKER = 200_000


class SlamError(ReproError):
    """The load run could not complete (connection, protocol, worker)."""


# ``percentile`` lives in :mod:`repro.obs.quantiles` (re-exported here
# for compatibility): the daemon's LatencyRing, the windowed telemetry,
# and this report all interpolate identically, so a client p99 and a
# server p99 are directly comparable.


def _parse_url(url: str) -> Tuple[str, int]:
    parts = urlsplit(url if "//" in url else f"http://{url}")
    if parts.scheme not in ("", "http"):
        raise SlamError(f"only http:// daemons are supported, got {url!r}")
    if not parts.hostname or not parts.port:
        raise SlamError(
            f"--url must name host and port (http://HOST:PORT), got {url!r}"
        )
    return parts.hostname, parts.port


class ServeConnection:
    """One keep-alive HTTP/1.1 connection speaking ``repro.serve/1``.

    The connection keeps one socket and one buffered reader, sends each
    request in one send and reads the response head with
    :func:`repro.obs.host.read_head`, then exactly ``Content-Length``
    body bytes.  ``request()`` JSON-round-trips one call and retries
    exactly once on a dead connection (reopening it first); the retry
    count is exposed so load reports can show how flaky the link was.
    Anything beyond one retry, any non-2xx response, any framing
    violation or any malformed body raises :class:`SlamError` — the
    driver treats protocol violations as failures, never as data.
    """

    def __init__(self, url: str, timeout: float = 10.0):
        self.host, self.port = _parse_url(url)
        self.timeout = timeout
        self.retries = 0
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._host_field = f"Host: {self.host}:{self.port}\r\n"

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def __enter__(self) -> "ServeConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _once(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), self.timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._rfile = self._sock.makefile("rb")
        head = f"{method} {path} HTTP/1.1\r\n{self._host_field}"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        if headers:
            for name, value in headers.items():
                head += f"{name}: {value}\r\n"
        self._sock.sendall((head + "\r\n").encode("latin-1") + (body or b""))
        response = read_head(self._rfile)
        if response is None:
            raise ConnectionResetError("the daemon closed the connection without a response")
        line, fields = response
        version, _, rest = line.partition(b" ")
        status = rest[:3]
        if version not in (b"HTTP/1.1", b"HTTP/1.0") or not (
            status.isdigit() and rest[3:4] in (b"", b" ")
        ):
            raise wire.WireError(f"malformed status line {line[:80]!r}")
        if "content-length" not in fields:
            raise wire.WireError("the response has no Content-Length")
        length = wire.parse_content_length(fields["content-length"])
        payload = self._rfile.read(length)
        if len(payload) < length:
            raise wire.WireError(f"the response body ended at {len(payload)} of {length} bytes")
        if version == b"HTTP/1.0" or fields.connection_close:
            self.close()
        return int(status), payload

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        expect_error: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One JSON call; returns ``(status, decoded body)``.

        Non-2xx statuses raise unless ``expect_error`` (tests poke the
        4xx paths deliberately); the structured error body is folded
        into the exception message either way.  ``headers`` adds extra
        request headers (the tracing ``X-Repro-Trace`` propagation).
        """
        body = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        try:
            status, raw = self._once(method, path, body, headers)
        except RETRYABLE:
            # One reconnect, one retry: /open and /fetch are idempotent
            # enough for load purposes (a duplicated event is a counted,
            # journaled access like any other), and a single retry
            # absorbs keep-alive churn without masking a dead daemon.
            self.close()
            self.retries += 1
            time.sleep(0.05)
            try:
                status, raw = self._once(method, path, body, headers)
            except _FAILED as error:
                self.close()
                raise SlamError(
                    f"{method} {path} failed after retry: {error!r}"
                )
        except _FAILED as error:
            # The stream may hold part of a response: start afresh.
            self.close()
            raise SlamError(f"{method} {path} failed: {error!r}")
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            if path == "/metrics":  # text endpoint; callers read raw
                decoded = {"text": raw.decode("utf-8", "replace")}
            else:
                raise SlamError(
                    f"{method} {path} returned undecodable body "
                    f"(status {status})"
                )
        if status >= 400 and not expect_error:
            detail = decoded.get("error") if isinstance(decoded, dict) else None
            raise SlamError(
                f"{method} {path} -> {status}: {detail or raw[:200]!r}"
            )
        return status, decoded

    def fetch(
        self,
        files: Sequence[str],
        client: str = "",
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"files": list(files)}
        if client:
            payload["client"] = client
        _status, body = self.request("POST", "/fetch", payload, headers=headers)
        return body

    def stats(self) -> Dict[str, Any]:
        _status, body = self.request("GET", "/stats")
        return wire.validate_stats(body)


# -- shards ------------------------------------------------------------------

#: ("files", [ids...]) or ("ctrace", path, lo, hi)
ShardSpec = Tuple


def make_shards(
    source: Union[Sequence[str], str, Path], workers: int
) -> List[ShardSpec]:
    """Split a trace source into ``workers`` contiguous shards.

    ``source`` is a file-id sequence (synthetic workload, text trace)
    or a ``.ctrace`` path; columnar shards stay as (path, lo, hi)
    ranges so worker processes share the mmap's pages instead of
    pickled events.  Empty shards are dropped, so tiny traces simply
    use fewer workers.
    """
    if workers < 1:
        raise SlamError(f"workers must be >= 1, got {workers}")
    if isinstance(source, (str, Path)):
        from ..traces.columnar import describe_columnar, validate_columnar

        path = str(source)
        if not validate_columnar(path):
            raise SlamError(
                f"{path} is not a valid .ctrace artifact (pack it with "
                f"'repro trace pack' or pass --workload)"
            )
        total = int(describe_columnar(path)["events"])
        bounds = _split(total, workers)
        return [("ctrace", path, lo, hi) for lo, hi in bounds if hi > lo]
    ids = list(source)
    bounds = _split(len(ids), workers)
    return [("files", ids[lo:hi]) for lo, hi in bounds if hi > lo]


def _split(total: int, parts: int) -> List[Tuple[int, int]]:
    base, remainder = divmod(total, parts)
    bounds = []
    low = 0
    for index in range(parts):
        high = low + base + (1 if index < remainder else 0)
        bounds.append((low, high))
        low = high
    return bounds


def _shard_batches(shard: ShardSpec, batch: int):
    """Yield file-id batches for one shard.

    Columnar shards decode chunk by chunk off the mmap (zero-copy
    column slices; only the ids of the current batch are materialized).
    """
    if shard[0] == "files":
        ids = shard[1]
        for low in range(0, len(ids), batch):
            yield ids[low : low + batch]
        return
    from ..traces.columnar import read_columnar

    _kind, path, lo, hi = shard
    view = read_columnar(path).slice(lo, hi)
    for chunk in view.chunks(batch):
        yield chunk.file_ids()


def _slam_worker(
    url: str,
    shard: ShardSpec,
    batch: int,
    timeout: float,
    client_name: str,
    span_log: Optional[str] = None,
    span_sample: int = 1,
    span_capacity: Optional[int] = None,
) -> Dict[str, Any]:
    """Replay one shard; returns this worker's counters and samples.

    With ``span_log`` set the worker mints a trace id per sampled
    request, propagates it in the ``X-Repro-Trace`` header so the
    daemon's server span joins the trace, records a matching client
    span around the whole round trip, and writes the buffer to
    ``span_log`` as ``repro.span/1`` JSONL on the way out (even after
    a failure — a partial trace still merges).
    """
    latencies: List[int] = []
    events = requests = hits = errors = 0
    buffer = None
    if span_log:
        from ..obs import spans as spans_mod

        buffer = spans_mod.SpanBuffer(
            process=client_name,
            capacity=span_capacity or spans_mod.DEFAULT_CAPACITY,
            sample=span_sample,
        )
    connection = ServeConnection(url, timeout=timeout)
    started = time.perf_counter()
    try:
        for files in _shard_batches(shard, batch):
            span = headers = None
            if buffer is not None and buffer.should_sample():
                span = buffer.start_span("client /fetch", kind="client")
                headers = {
                    spans_mod.TRACE_HEADER: spans_mod.format_header(
                        span.trace, span.span
                    )
                }
            began = time.perf_counter_ns()
            body = connection.fetch(files, client=client_name, headers=headers)
            elapsed = time.perf_counter_ns() - began
            if span is not None:
                span.finish()
                span.annotate("endpoint", "/fetch")
                span.annotate("events", len(files))
                span.annotate("hits", int(body.get("hits", 0)))
                span.annotate("request", requests)
            if len(latencies) < MAX_SAMPLES_PER_WORKER:
                latencies.append(elapsed)
            requests += 1
            events += int(body.get("count", len(files)))
            hits += int(body.get("hits", 0))
    except SlamError as error:
        errors += 1
        failure = str(error)
    else:
        failure = ""
    finally:
        connection.close()
    result = {
        "client": client_name,
        "events": events,
        "requests": requests,
        "hits": hits,
        "misses": events - hits,
        "retries": connection.retries,
        "errors": errors,
        "failure": failure,
        "seconds": time.perf_counter() - started,
        "latencies_ns": latencies,
    }
    if buffer is not None:
        spans_mod.write_spans_jsonl(
            buffer, span_log, meta={"role": "client", "url": url}
        )
        result["span_log"] = span_log
        result["spans"] = buffer.summary()
    return result


def _worker_entry(queue, kwargs) -> None:  # pragma: no cover - child process
    try:
        queue.put(_slam_worker(**kwargs))
    except BaseException as error:  # noqa: BLE001 - must reach the parent
        queue.put(
            {
                "client": kwargs.get("client_name", "?"),
                "events": 0,
                "requests": 0,
                "hits": 0,
                "misses": 0,
                "retries": 0,
                "errors": 1,
                "failure": repr(error),
                "seconds": 0.0,
                "latencies_ns": [],
            }
        )


@dataclass
class SlamReport:
    """Everything one load run measured, client side and server side."""

    url: str
    workers: int
    batch: int
    events: int = 0
    requests: int = 0
    client_hits: int = 0
    client_misses: int = 0
    retries: int = 0
    errors: int = 0
    failures: List[str] = field(default_factory=list)
    seconds: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    worker_latency: List[Dict[str, Any]] = field(default_factory=list)
    spans: Dict[str, Any] = field(default_factory=dict)
    server: Dict[str, Any] = field(default_factory=dict)
    delta: Dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0

    @property
    def requests_per_sec(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    @property
    def served_hit_ratio(self) -> float:
        """Hit ratio of the traffic *this run* pushed (from /stats deltas)."""
        accesses = self.delta.get("hits", 0) + self.delta.get("misses", 0)
        return self.delta.get("hits", 0) / accesses if accesses else 0.0

    @property
    def worker_p99_spread_ms(self) -> Dict[str, float]:
        """min/median/max of the per-worker p99s (straggler visibility).

        The merged p99 averages workers together; a single straggler
        worker (bad core, contended socket) vanishes into it.  The
        spread makes that worker visible: a max far above the median
        is one slow client, not a slow server.
        """
        values = sorted(w["p99_ms"] for w in self.worker_latency)
        if not values:
            return {"min": 0.0, "median": 0.0, "max": 0.0}
        return {
            "min": values[0],
            "median": percentile(values, 0.50),
            "max": values[-1],
        }

    def to_dict(self) -> Dict[str, Any]:
        return wire.slam_report_payload(
            {
                "url": self.url,
                "workers": self.workers,
                "batch": self.batch,
                "events": self.events,
                "requests": self.requests,
                "client_hits": self.client_hits,
                "client_misses": self.client_misses,
                "retries": self.retries,
                "errors": self.errors,
                "failures": self.failures,
                "seconds": self.seconds,
                "events_per_sec": self.events_per_sec,
                "requests_per_sec": self.requests_per_sec,
                "latency_ms": {
                    "p50": self.p50_ms,
                    "p95": self.p95_ms,
                    "p99": self.p99_ms,
                    "mean": self.mean_ms,
                },
                "workers_latency": {
                    "per_worker": self.worker_latency,
                    "p99_spread_ms": self.worker_p99_spread_ms,
                },
                "spans": self.spans,
                "served_hit_ratio": self.served_hit_ratio,
                "server": self.server,
                "delta": self.delta,
            }
        )

    def _server_error_cell(self) -> str:
        """The daemon-side error delta, broken down by endpoint.

        ``0`` on a clean run; otherwise e.g. ``7 (invalidate 5, open 2)``
        so a 4xx storm names its endpoint instead of hiding in the
        total while throughput still looks healthy.
        """
        total = self.delta.get("server_errors", 0)
        per_endpoint = self.delta.get("endpoint_errors") or {}
        if not total:
            return "0"
        if not per_endpoint:
            return str(total)
        breakdown = ", ".join(
            f"{name} {count}"
            for name, count in sorted(
                per_endpoint.items(), key=lambda item: (-item[1], item[0])
            )
        )
        return f"{total} ({breakdown})"

    def rows(self) -> List[List[str]]:
        """Render-ready table rows (the CLI prints these as markdown)."""
        server_cache = self.server.get("cache", {})
        spread = self.worker_p99_spread_ms
        return [
            ["metric", "value"],
            ["events replayed", f"{self.events:,}"],
            ["requests", f"{self.requests:,} (batch {self.batch})"],
            ["workers", str(self.workers)],
            ["wall time", f"{self.seconds:.2f}s"],
            ["events/s", f"{self.events_per_sec:,.0f}"],
            ["requests/s", f"{self.requests_per_sec:,.0f}"],
            ["latency p50", f"{self.p50_ms:.2f} ms"],
            ["latency p95", f"{self.p95_ms:.2f} ms"],
            ["latency p99", f"{self.p99_ms:.2f} ms"],
            [
                "worker p99 min/med/max",
                f"{spread['min']:.2f} / {spread['median']:.2f} / "
                f"{spread['max']:.2f} ms",
            ],
            ["retries", str(self.retries)],
            ["errors", str(self.errors)],
            ["server errors (this run)", self._server_error_cell()],
            ["served hit ratio (this run)", f"{self.served_hit_ratio:.3f}"],
            [
                "server lifetime hit ratio",
                f"{server_cache.get('hit_ratio', 0.0):.3f}",
            ],
            [
                "server prefetch efficiency",
                f"{server_cache.get('prefetch_efficiency', 0.0):.3f}",
            ],
            [
                "server mean group size",
                f"{server_cache.get('mean_group_size', 0.0):.2f}",
            ],
        ]


def _endpoint_error_delta(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, int]:
    """Per-endpoint server error growth between two ``/stats`` snapshots.

    Reads the daemon's ``endpoints`` section (absent on pre-telemetry
    daemons — then this is empty, never an error) and keeps only the
    endpoints whose error counter actually moved, so the report names
    the endpoint a 4xx storm hit instead of folding it into a total.
    """
    first = before.get("endpoints") or {}
    second = after.get("endpoints") or {}
    if not isinstance(first, dict) or not isinstance(second, dict):
        return {}
    deltas: Dict[str, int] = {}
    for name, summary in second.items():
        if not isinstance(summary, dict):
            continue
        grown = summary.get("errors", 0) - (
            (first.get(name) or {}).get("errors", 0)
        )
        if grown:
            deltas[name] = grown
    return deltas


def run_slam(
    url: str,
    source: Union[Sequence[str], str, Path],
    workers: int = 2,
    batch: int = 16,
    timeout: float = 30.0,
    raise_on_error: bool = True,
    span_dir: Optional[Union[str, Path]] = None,
    span_sample: int = 1,
    span_capacity: Optional[int] = None,
) -> SlamReport:
    """Slam a daemon with a trace from N worker processes.

    ``source`` follows :func:`make_shards`.  The report's ``delta``
    section is computed from ``/stats`` snapshots taken immediately
    before and after the run, so ``served_hit_ratio`` reflects this
    run's traffic even against a warm daemon.  Worker failures raise
    :class:`SlamError` unless ``raise_on_error=False`` (the report then
    carries the failure strings).

    ``span_dir`` turns on request tracing: each worker writes its
    client spans to ``<span_dir>/spans-<worker>.jsonl`` and propagates
    trace ids to the daemon via ``X-Repro-Trace`` (every
    ``span_sample``-th request, deterministically); merge them against
    the daemon's span export with ``repro spans``.
    """
    if batch < 1:
        raise SlamError(f"batch must be >= 1, got {batch}")
    shards = make_shards(source, workers)
    if not shards:
        raise SlamError("the trace source produced no events to replay")
    span_logs: List[str] = []
    if span_dir is not None:
        base = Path(span_dir)
        base.mkdir(parents=True, exist_ok=True)
        span_logs = [
            str(base / f"spans-worker{index:02d}.jsonl")
            for index in range(len(shards))
        ]
    probe = ServeConnection(url, timeout=timeout)
    try:
        before = probe.stats()
    finally:
        probe.close()

    started = time.perf_counter()
    results: List[Dict[str, Any]] = []
    if len(shards) == 1:
        results.append(
            _slam_worker(
                url,
                shards[0],
                batch,
                timeout,
                "worker00",
                span_log=span_logs[0] if span_logs else None,
                span_sample=span_sample,
                span_capacity=span_capacity,
            )
        )
    else:
        queue: multiprocessing.Queue = multiprocessing.Queue()
        processes = []
        for index, shard in enumerate(shards):
            kwargs = {
                "url": url,
                "shard": shard,
                "batch": batch,
                "timeout": timeout,
                "client_name": f"worker{index:02d}",
                "span_log": span_logs[index] if span_logs else None,
                "span_sample": span_sample,
                "span_capacity": span_capacity,
            }
            process = multiprocessing.Process(
                target=_worker_entry, args=(queue, kwargs), daemon=True
            )
            process.start()
            processes.append(process)
        for _ in processes:
            results.append(queue.get())
        for process in processes:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - hung worker guard
                process.terminate()
    seconds = time.perf_counter() - started

    probe = ServeConnection(url, timeout=timeout)
    try:
        after = probe.stats()
    finally:
        probe.close()

    latencies = sorted(
        ns for result in results for ns in result["latencies_ns"]
    )
    worker_latency = []
    for result in sorted(results, key=lambda r: r["client"]):
        samples = sorted(result["latencies_ns"])
        worker_latency.append(
            {
                "client": result["client"],
                "requests": result["requests"],
                "p50_ms": percentile(samples, 0.50) / 1e6,
                "p99_ms": percentile(samples, 0.99) / 1e6,
            }
        )
    spans_section: Dict[str, Any] = {}
    if span_logs:
        spans_section = {
            "dir": str(span_dir),
            "sample": span_sample,
            "files": [r["span_log"] for r in results if r.get("span_log")],
            "client_spans": sum(
                r["spans"]["started"] for r in results if r.get("spans")
            ),
            "sampled_out": sum(
                r["spans"]["sampled_out"] for r in results if r.get("spans")
            ),
        }
    report = SlamReport(
        url=url,
        workers=len(shards),
        batch=batch,
        events=sum(r["events"] for r in results),
        requests=sum(r["requests"] for r in results),
        client_hits=sum(r["hits"] for r in results),
        client_misses=sum(r["misses"] for r in results),
        retries=sum(r["retries"] for r in results),
        errors=sum(r["errors"] for r in results),
        failures=[r["failure"] for r in results if r["failure"]],
        seconds=seconds,
        p50_ms=percentile(latencies, 0.50) / 1e6,
        p95_ms=percentile(latencies, 0.95) / 1e6,
        p99_ms=percentile(latencies, 0.99) / 1e6,
        mean_ms=(sum(latencies) / len(latencies) / 1e6) if latencies else 0.0,
        worker_latency=worker_latency,
        spans=spans_section,
        server=after,
        delta={
            "hits": after["cache"]["hits"] - before["cache"]["hits"],
            "misses": after["cache"]["misses"] - before["cache"]["misses"],
            "group_fetches": (
                after["cache"]["group_fetches"]
                - before["cache"]["group_fetches"]
            ),
            "accesses": after.get("accesses", 0) - before.get("accesses", 0),
            "server_errors": (
                after.get("errors", 0) - before.get("errors", 0)
            ),
            "endpoint_errors": _endpoint_error_delta(before, after),
        },
    )
    if raise_on_error and report.failures:
        raise SlamError(
            f"{report.errors} worker(s) failed: " + "; ".join(report.failures)
        )
    return report


def write_report(report: SlamReport, path: Union[str, Path]) -> Path:
    """Write the report JSON (``repro.slam/1``); returns the path."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target
