"""serve-mixed: a ``repro serve`` daemon under write-workload traffic.

The daemon runs the benchmark's own scenario (``serve-mixed.json``:
300-file cache, g=5, journal on and never truncated) as a subprocess.
The traffic is the ``write`` workload: 2 clients, about 35% WRITE/CREATE
events, and thousands of distinct files against the 300-file cache.

The loop is closed: one client thread walks the request plan
(:mod:`plan`) in order and sends each request on its trace client's own
keep-alive ``ServeConnection`` (2 connections, matching the 2-CPU host),
waiting for each reply before the next, so exactly one request is in
flight.  The trace is sized from ``--seconds`` so the plan, and with it
every served counter, is fixed by the seed.

The plan runs twice, each time against a fresh daemon, and must serve
identical counts both times.  Latencies and events/s take each request's
and each slice's faster run (:func:`fastest_of`); on ``--trace 1`` the
second run is traced instead.

This is the only workload through ``serve.client`` -> loopback ->
``serve.server`` dispatch and lock -> ``AggregatingServerCache`` ->
journal -> response.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from drift import NOMINAL_HTTP_S, DriftMeter, HttpPeer, low_quantile
from inputs import cold_setup
from measure import (
    FAILED,
    NOT_RESIDENT,
    OK,
    Latencies,
    Outcome,
    classify,
    peak_rss_mb,
    per_kevent,
)
from plan import FETCH, INVALIDATE, chunks, trace_plan

WORKLOAD = "write"

#: Trace events per second of ``--seconds``, sized so the plan takes
#: about that long on an undisturbed host.
EVENTS_PER_SECOND = 4000

#: Fewest trace events, so every percentile keeps its sample support.
MIN_EVENTS = 20_000

#: Bracketed slices the plan is split into.
SLICES = 40

#: Repetitions of the in-process layer timings (low quantile reported).
REPEATS = 5

#: Counters of ``/stats`` ``cache`` that a journal replay must reproduce.
REPLAYED_FIELDS = (
    "hits",
    "misses",
    "evictions",
    "installs",
    "group_fetches",
    "files_retrieved",
    "predicted_installed",
    "resident",
    "metadata_entries",
)

STARTUP_TIMEOUT_S = 60.0

#: Per-layer metrics serve-mixed does not measure; they read 0.  It runs
#: no offline engine, kernel or sweep.  The daemon's grouping runs, but
#: it exposes no chain or singleton counters, so grouping shows here
#: only as ``core.aggregating_cache.mean_group_size``.
UNMEASURED_LAYERS = (
    "sim.kernel.client_runs_s",
    "sim.kernel.import_s",
    "sim.kernel.replay_s",
    "sim.kernel.export_s",
    "sim.kernel.segments_per_kevent",
    "sim.engine.dispatch_s",
    "core.grouping.files_per_group_fetch",
    "core.grouping.chain_length_mean",
    "core.grouping.singleton_builds_per_kevent",
    "caching.client_evictions_per_kevent",
    "caching.client_installs_per_kevent",
    "core.aggregating_cache.replay_g1_s",
    "core.aggregating_cache.replay_grouped_s",
    "core.aggregating_cache.group_fetches_per_kevent",
    "sim.sweep.overhead_s",
)


class Daemon:
    """One ``python -m repro serve`` subprocess and its lifecycle."""

    def __init__(self, ctx, tag: str, cpus=None, span_capacity: int = 0):
        self.ctx = ctx
        self.cpus = cpus
        self.port_file = ctx.workdir / f"{tag}.port"
        self.log = ctx.workdir / f"{tag}.log"
        self.span_log = ctx.workdir / f"{tag}-spans.jsonl" if span_capacity else None
        self.span_capacity = span_capacity
        self.process: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> "Daemon":
        """Spawn the daemon and wait until ``/healthz`` answers 200."""
        # The environment carries this run's fresh REPRO_TRACE_CACHE
        # (set by inputs.cold_setup), so the daemon never reads ~/.cache.
        env = dict(os.environ)
        source = str(self.ctx.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (source, env.get("PYTHONPATH")) if part
        )
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(self.ctx.scenario.source),
            "--port-file",
            str(self.port_file),
        ]
        if self.span_log is not None:
            command += [
                "--spans",
                str(self.span_log),
                "--span-capacity",
                str(self.span_capacity),
            ]
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        if self.cpus:
            os.sched_setaffinity(self.process.pid, self.cpus)
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while not self._healthy():
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} during start-up: "
                    f"{self.log.read_text(errors='replace')[-2000:]}"
                )
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon did not become healthy in time")
            time.sleep(0.002)
        return self

    def _healthy(self) -> bool:
        try:
            text = self.port_file.read_text(encoding="ascii")
        except FileNotFoundError:
            return False
        if not text.endswith("\n"):
            return False
        self.url = f"http://127.0.0.1:{int(text)}"
        connection = http.client.HTTPConnection("127.0.0.1", int(text), timeout=5)
        try:
            connection.request("GET", "/healthz")
            return connection.getresponse().status == 200
        except OSError:
            return False
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.process.pid))

    def stop(self) -> int:
        """SIGTERM and wait; returns the exit status (0 is a clean stop)."""
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


def _payload(path: str, files, client: str) -> dict:
    if path == FETCH:
        return {"files": list(files), "client": client}
    return {"file": files[0]}


def drive(meter, url: str, plan, names, spans=None) -> Dict:
    """Send the plan in order, closed loop; raw per-request and per-slice times.

    With ``spans`` (a ``SpanBuffer``) every request carries an
    ``X-Repro-Trace`` header and gets a client span.  ``latency_ns`` is
    aligned with the plan and ``slice_s`` with its :data:`SLICES` slices.
    """
    from repro.obs import spans as obs_spans
    from repro.serve.client import ServeConnection, SlamError

    connections = [ServeConnection(url) for _name in names]
    outcomes = {OK: 0, NOT_RESIDENT: 0, FAILED: 0}
    served = {"events": 0, "hits": 0, "invalidated": 0}
    latency_ns: List[int] = []
    slice_s: List[float] = []
    clock = time.perf_counter_ns

    def send(part):
        replies = []
        for client, path, files in part:
            headers = span = None
            if spans is not None:
                span = spans.start_span(f"client {path}", kind="client")
                headers = {
                    obs_spans.TRACE_HEADER: obs_spans.format_header(span.trace, span.span)
                }
            payload = _payload(path, files, names[client])
            start = clock()
            try:
                status, body = connections[client].request(
                    "POST", path, payload, expect_error=True, headers=headers
                )
                error = False
            except SlamError:
                status, body, error = 0, {}, True
            elapsed = clock() - start
            if span is not None:
                span.finish()
                span.annotate("endpoint", path)
            replies.append((path, status, error, elapsed, body))
        return replies

    meter.pause()
    try:
        for part in chunks(plan, SLICES):
            replies, raw = meter.measure(lambda: send(part))
            slice_s.append(raw)
            for path, status, error, elapsed, body in replies:
                latency_ns.append(elapsed)
                outcome = classify(path, status, error)
                outcomes[outcome] += 1
                if outcome == OK and path == FETCH:
                    served["events"] += int(body["count"])
                    served["hits"] += int(body["hits"])
                elif outcome == OK:
                    served["invalidated"] += 1
    finally:
        retries = sum(connection.retries for connection in connections)
        for connection in connections:
            connection.close()
    served.update(
        outcomes=outcomes, retries=retries, latency_ns=latency_ns, slice_s=slice_s
    )
    return served


def fastest_of(plan, runs, scale: float):
    """Latencies and events/s from the fastest of repeated plan runs.

    Every run sends the same requests in the same slices, so a request's
    latency and a slice's time are their minimum over the runs: a burst
    of interference must hit every run to count.  Returns the
    :class:`Latencies` and the raw events per second.
    """
    latencies = Latencies()
    latencies.scale = scale
    fastest = map(min, zip(*(run["latency_ns"] for run in runs)))
    for (_client, path, _files), ns in zip(plan, fastest):
        latencies.add("fetch" if path == FETCH else "invalidate", ns * 1e-9)
    slice_s = sum(map(min, zip(*(run["slice_s"] for run in runs))))
    return latencies, runs[0]["events"] / slice_s


def _get(url: str, path: str) -> dict:
    from repro.serve.client import ServeConnection

    with ServeConnection(url) as connection:
        _status, body = connection.request("GET", path)
    return body


def check(scenario, url: str, before: dict, after: dict, served: Dict):
    """The served counters against the journal and the per-response sums.

    Returns the named check results and the journal entries.
    """
    from repro.serve import schema

    journal = _get(url, "/journal")
    cache = scenario.build_cache()
    schema.replay_journal(cache, journal["entries"])
    replayed = cache.stats_dict()
    outcomes = served["outcomes"]
    return {
        "journal_complete": not journal["truncated"]
        and journal["total"] == len(journal["entries"]),
        "journal_replay_equal": all(
            replayed[name] == after["cache"][name] for name in REPLAYED_FIELDS
        ),
        "hits_equal": served["hits"]
        == after["cache"]["hits"] - before["cache"]["hits"],
        "events_equal": served["events"] == after["accesses"] - before["accesses"],
        "invalidations_equal": served["invalidated"]
        == after["invalidations"] - before["invalidations"]
        and outcomes[NOT_RESIDENT]
        == after["invalidation_misses"] - before["invalidation_misses"],
    }, journal["entries"]


def _serve_once(ctx, daemon: Daemon, plan, names, spans=None):
    before = _get(daemon.url, "/stats")
    served = drive(ctx.meter, daemon.url, plan, names, spans)
    after = _get(daemon.url, "/stats")
    checks, entries = check(ctx.scenario, daemon.url, before, after, served)
    return served, before, after, checks, entries


def split_cpus():
    """CPUs for the client and for the serving side, or None on one CPU.

    A request's round trip costs more when client and server share a CPU
    than when each has its own, and the scheduler's placement differs
    from run to run; pinning the two sides apart fixes it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


def run(ctx) -> Outcome:
    events = max(MIN_EVENTS, round(EVENTS_PER_SECOND * ctx.seconds))
    daemons = []
    layout = split_cpus()
    client_cpus, server_cpus = layout if layout else (None, None)
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)
    peer = HttpPeer(cpus=server_cpus)
    # Served time is mostly the stdlib HTTP stack in two processes, so the
    # reference here is HTTP round trips to a stdlib echo server, which
    # tracked the serve loop's slowdowns fully.
    ctx.meter = DriftMeter(reference=peer, nominal_s=NOMINAL_HTTP_S)

    def start(_ctrace):
        daemon = Daemon(ctx, f"daemon-{len(daemons)}", server_cpus)
        daemons.append(daemon)
        return daemon.start()

    try:
        setup = cold_setup(
            ctx, WORKLOAD, events, then=start, release=lambda d: d.stop()
        )
        daemon = setup.extra
        plan, names = trace_plan(setup.ctrace)
        since = ctx.meter.phase()
        served, before, after, checks, entries = _serve_once(ctx, daemon, plan, names)
        peak = daemon.peak_rss_mb()
        exits = [daemon.stop()]
        # The second run: a fresh daemon, traced on --trace 1.
        buffer = None
        if ctx.trace:
            from repro.obs.spans import SpanBuffer

            buffer = SpanBuffer(process="perfbench", capacity=len(plan) + 16)
            second = Daemon(
                ctx, "daemon-traced", server_cpus, span_capacity=8 * len(plan) + 1024
            )
        else:
            second = Daemon(ctx, "daemon-again", server_cpus)
        daemons.append(second.start())
        again, _b, _a, again_checks, _e = _serve_once(
            ctx, second, plan, names, spans=buffer
        )
        exits.append(second.stop())
        scale = ctx.meter.scale(since)
        checks.update({f"again_{k}": v for k, v in again_checks.items()})
        checks["runs_agree"] = all(
            served[key] == again[key] for key in ("events", "hits", "invalidated")
        )
        attempted = 2 * len(plan)
        failed = served["outcomes"][FAILED] + again["outcomes"][FAILED]
        metrics: Dict[str, float] = {}
        if ctx.trace:
            metrics.update(_span_layers(second, buffer, scale))
            metrics.update(_timed_layers(ctx, after, scale, plan, names, entries))
            metrics.update(setup.layers)
            metrics.update(_counted_layers(after, served, again))
            latencies, events_per_s_raw = fastest_of(plan, [served], scale)
        else:
            latencies, events_per_s_raw = fastest_of(plan, [served, again], scale)
            accesses = after["accesses"] - before["accesses"]
            delta = {
                name: after["cache"][name] - before["cache"][name]
                for name in ("hits", "misses", "files_retrieved")
            }
            metrics.update(
                {
                    "setup_s": setup.seconds,
                    "events_per_s": events_per_s_raw / scale,
                    "hit_ratio": delta["hits"] / accesses,
                    "demand_fetches_per_kevent": per_kevent(delta["misses"], accesses),
                    "store_fetches_per_kevent": per_kevent(
                        delta["files_retrieved"], accesses
                    ),
                    "peak_rss_mb": peak,
                }
            )
            metrics.update(latencies.metrics())
        checks["daemons_exit_0"] = all(code == 0 for code in exits)
    finally:
        for daemon in daemons:
            daemon.stop()
        peer.close()
    detail = {
        "events": events,
        "requests": len(plan),
        "outcomes": served["outcomes"],
        "latency_raw": latencies.summaries(),
        "events_per_s_raw": events_per_s_raw,
        "setup_steps_s": setup.steps,
        "checks": checks,
    }
    return Outcome(all(checks.values()), attempted, failed, metrics, detail)


def _counted_layers(after: dict, untraced: Dict, traced: Dict) -> Dict[str, float]:
    """Cache counters of the untraced daemon, retries and tracing overhead.

    Both runs sent the same slices inside one phase, so the overhead is
    the ratio of their raw sending times.
    """
    cache = after["cache"]
    return {
        "serve.client.retries": untraced["retries"] + traced["retries"],
        "core.aggregating_cache.prefetch_efficiency": cache["prefetch_efficiency"],
        "core.aggregating_cache.mean_group_size": cache["mean_group_size"],
        "core.aggregating_cache.evictions_per_kevent": per_kevent(
            cache["evictions"], after["accesses"]
        ),
        "core.successors.metadata_entries": cache["metadata_entries"],
        "caching.server_hit_ratio": cache["hit_ratio"],
        "trace.overhead": 1.0 - sum(untraced["slice_s"]) / sum(traced["slice_s"]),
    }


def _timed_layers(ctx, after, scale, plan, names, entries) -> Dict[str, float]:
    """Server-measured latency and in-process schema/cache timings, nominal.

    The server's own /fetch percentiles were taken while the plan ran, so
    that phase's ``scale`` applies.
    """
    server_fetch = after["endpoints"]["fetch"]["latency_ns"]
    return {
        "serve.server.fetch_p50_ms": server_fetch["p50_ns"] * 1e-6 * scale,
        "serve.server.fetch_p99_ms": server_fetch["p99_ns"] * 1e-6 * scale,
        "serve.schema.parse_fetch_us": _parse_fetch_us(ctx.meter, plan, names),
        "core.aggregating_cache.server_access_us": _server_access_us(
            ctx.meter, ctx.scenario, entries
        ),
    }


def _span_layers(daemon, client_spans, scale: float) -> Dict[str, float]:
    """Network+queue delta and server child shares per endpoint, from spans."""
    from repro.obs import spans as obs_spans

    server = obs_spans.load_spans_jsonl(daemon.span_log)["spans"]
    merged = obs_spans.merge_spans(client_spans.records(), server)
    rows = {row["endpoint"]: row for row in obs_spans.endpoint_breakdown(merged)}
    out = {}
    for endpoint, name in ((FETCH, "fetch"), (INVALIDATE, "invalidate")):
        row = rows[endpoint]
        out[f"serve.{name}.net_queue_p50_ms"] = row["net_queue_p50_ms"] * scale
        for share in ("lock", "cache", "journal", "write"):
            out[f"serve.{name}.{share}_share"] = row[f"{share}_share"]
    return out


def _low_quantile_per_item(meter, work, items: int) -> float:
    """Nominal microseconds per item of ``work``, low quantile of repeats."""
    since = meter.phase()
    samples = []
    for _ in range(REPEATS):
        _none, raw = meter.measure(work)
        samples.append(raw / items * 1e6)
    return low_quantile(samples) * meter.scale(since)


def _parse_fetch_us(meter, plan, names) -> float:
    """``parse_body`` + ``parse_fetch`` on the recorded /fetch bodies, per body."""
    from repro.serve import schema

    bodies = [
        json.dumps(_payload(path, files, names[client])).encode("utf-8")
        for client, path, files in plan
        if path == FETCH
    ]

    def parse_all():
        for raw in bodies:
            schema.parse_fetch(schema.parse_body(raw, "fetch"))

    return _low_quantile_per_item(meter, parse_all, len(bodies))


def _server_access_us(meter, scenario, entries) -> float:
    """The journal's event stream through ``scenario.build_cache()``, per event."""
    from repro.serve.schema import decode_journal_entry

    decoded = [decode_journal_entry(entry) for entry in entries]

    def replay():
        cache = scenario.build_cache()
        access = cache.access
        invalidate = cache.invalidate
        for file_id, invalidation in decoded:
            if invalidation:
                invalidate(file_id)
            else:
                access(file_id)

    return _low_quantile_per_item(meter, replay, len(decoded))
