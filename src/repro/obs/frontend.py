"""The observability front end: ``repro metrics``, ``explain``, ``top``
and ``drift``, with the one live dashboard every ``repro top`` mode
draws through.

:mod:`repro.cli` registers the subcommands; this module declares their
options and runs them, importing the replay machinery inside each
handler.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..analysis.export import rows_to_markdown
from ..cli import (
    add_poll_options,
    add_replay_options,
    system_for,
    throughput_line,
    trace_for,
)
from ..errors import ReproError


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Replay one workload with metric collection on; report + export.

    This is the observability layer end-to-end: the replay runs inside
    :func:`repro.obs.collecting`, the hot components record into the
    registry, and the snapshot is printed as tables (and written as
    JSONL with ``--out``).  ``--window N`` additionally records the
    windowed time-series (``--ts-out`` exports it as ``repro.ts/1``).
    """
    from contextlib import nullcontext

    from ..caching import POLICIES, make_cache
    from . import collecting, windowing, write_jsonl, write_ts_jsonl

    baselines = [name for name in args.baselines.split(",") if name]
    if baselines == ["all"]:
        baselines = sorted(POLICIES)
    unknown = sorted(set(baselines) - set(POLICIES))
    if unknown:
        raise ReproError(
            f"unknown baseline policies: {', '.join(unknown)} "
            f"(choose from: {', '.join(sorted(POLICIES))})"
        )

    trace = trace_for(args)
    ts_context = windowing(window=args.window) if args.window else nullcontext()
    with collecting() as registry, ts_context as collector:
        system = system_for(args, args.client_capacity)
        started = time.perf_counter()
        system.replay(trace)
        seconds = time.perf_counter() - started
        sequence = trace.file_ids() if baselines else ()
        for name in baselines:
            # Replay the same sequence through a plain (non-grouping)
            # policy in the same registry.  The instance policy_name
            # override namespaces its counters as cache.baseline.<name>.*
            # so they never mix with the aggregating system's cache.lru.*.
            cache = make_cache(name, args.client_capacity)
            cache.policy_name = f"baseline.{name}"
            for key in sequence:
                cache.access(key)

    snapshot = registry.snapshot()
    rows = [["counter / gauge", "value"]]
    for name, value in snapshot["counters"].items():
        rows.append([name, str(value)])
    for name, value in snapshot["gauges"].items():
        rows.append([name, f"{value:g}"])
    print(rows_to_markdown(rows))
    hist_rows = [["histogram", "count", "mean", "min", "max"]]
    for name, summary in snapshot["histograms"].items():
        hist_rows.append(
            [
                name,
                str(summary["count"]),
                f"{summary['mean']:,.1f}",
                f"{summary['min']:,}" if summary["min"] is not None else "-",
                f"{summary['max']:,}" if summary["max"] is not None else "-",
            ]
        )
    print()
    print(rows_to_markdown(hist_rows))

    if baselines:
        counters = snapshot["counters"]
        if not any(name.startswith("cache.") for name in counters):
            # An all-zero comparison table would silently masquerade as
            # "every policy missed everything"; say what happened.
            print(
                "\nno cache.* counters were recorded — metric collection "
                "was disabled\nduring the replay, so the baseline "
                "comparison table is unavailable."
            )
        else:

            def _policy_row(label: str, prefix: str) -> List[str]:
                hits = counters.get(f"{prefix}.hits", 0)
                misses = counters.get(f"{prefix}.misses", 0)
                evictions = counters.get(f"{prefix}.evictions", 0)
                opens = hits + misses
                rate = f"{hits / opens:.3f}" if opens else "-"
                return [label, rate, str(hits), str(misses), str(evictions)]

            compare_rows = [["policy", "hit rate", "hits", "misses", "evictions"]]
            compare_rows.append(
                _policy_row(f"aggregating system (g={args.group_size})", "cache.lru")
            )
            for name in baselines:
                compare_rows.append(
                    _policy_row(f"baseline {name}", f"cache.baseline.{name}")
                )
            print("\nbaseline vs aggregating (from obs counters; system row sums")
            print("client + server caches, so its hit rate is not one cache's):\n")
            print(rows_to_markdown(compare_rows))

    if args.window and collector is not None:
        from ..analysis.ascii_chart import render_sparkline

        hit_series = collector.series("hit_ratio")
        entropy_series = collector.series("entropy")
        print(
            f"\nwindowed series: {len(collector.samples)} windows of "
            f"{args.window} events"
        )
        if hit_series:
            print(
                f"  hit ratio  {render_sparkline(hit_series)}  "
                f"last {hit_series[-1]:.3f}"
            )
        if entropy_series:
            print(
                f"  entropy    {render_sparkline(entropy_series)}  "
                f"last {entropy_series[-1]:.3f} bits"
            )
        if args.ts_out is not None:
            lines = write_ts_jsonl(
                collector,
                args.ts_out,
                meta={
                    "workload": args.workload,
                    "events": args.events,
                    "seed": args.seed,
                    "group_size": args.group_size,
                },
            )
            print(f"wrote {lines} repro.ts/1 JSONL lines to {args.ts_out}")

    print(f"\n{throughput_line(len(trace), seconds)}")
    if args.out is not None:
        lines = write_jsonl(
            registry,
            args.out,
            meta={
                "workload": args.workload,
                "events": args.events,
                "seed": args.seed,
                "group_size": args.group_size,
            },
        )
        print(f"wrote {lines} JSONL records to {args.out}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Replay one workload under the flight recorder and explain it.

    The whole distributed system (clients + server, grouping on) runs
    inside :func:`repro.obs.tracing.recording`; the decision trace is
    then folded into the questions the recorder exists to answer —
    prefetch efficiency per component, eviction causes, the groups that
    wasted the most cache space, and (with ``--file``) the retained
    history of one file.  ``--out`` / ``--chrome`` export the ring as
    schema-tagged JSONL and a Perfetto-loadable trace-event file.
    """
    from . import tracing

    trace = trace_for(args)
    with tracing.recording(capacity=args.buffer, sample=args.sample) as recorder:
        system_for(args, args.cache_size).replay(trace)

    emitted = sum(recorder.emitted.values())
    print(
        f"traced {len(trace)} events of {args.workload} "
        f"(cache {args.cache_size}, server {args.server_capacity}, "
        f"g={args.group_size}): {emitted} records emitted, "
        f"{len(recorder)} retained (buffer {args.buffer}, "
        f"sample {args.sample})\n"
    )

    rows = [
        [
            "component",
            "opens",
            "hit rate",
            "demand",
            "group installs",
            "prefetch eff.",
            "wasted share",
            "evicted unused",
        ]
    ]
    for summary in recorder.summary():
        if not summary["opens"] and not summary["group_installs"]:
            continue
        opens = summary["opens"]
        rate = f"{summary['hits'] / opens:.3f}" if opens else "-"
        rows.append(
            [
                summary["component"],
                str(opens),
                rate,
                str(summary["demand_fetches"]),
                str(summary["group_installs"]),
                f"{summary['prefetch_efficiency']:.3f}",
                f"{summary['wasted_fetch_share']:.3f}",
                str(summary["group_evicted_unused"]),
            ]
        )
    print(rows_to_markdown(rows))

    causes = recorder.eviction_causes()
    if causes:
        cause_rows = [["eviction cause", "count"]]
        for cause, count in sorted(causes.items(), key=lambda kv: (-kv[1], kv[0])):
            cause_rows.append([cause, str(count)])
        print("\ntop eviction causes:\n")
        print(rows_to_markdown(cause_rows))

    wasteful = recorder.top_wasteful_groups(args.top)
    if wasteful:
        waste_rows = [["group leader", "wasted installs", "total installs"]]
        for leader, wasted, installs in wasteful:
            waste_rows.append([leader, str(wasted), str(installs)])
        print("\ngroups that wasted the most cache space:\n")
        print(rows_to_markdown(waste_rows))

    if args.file:
        print()
        print(recorder.explain_file(args.file, at=args.at))

    meta = {
        "workload": args.workload,
        "events": args.events,
        "seed": args.seed,
        "cache_size": args.cache_size,
        "server_capacity": args.server_capacity,
        "group_size": args.group_size,
    }
    if args.out is not None:
        lines = tracing.write_trace_jsonl(recorder, args.out, meta=meta)
        print(f"\nwrote {lines} {tracing.TRACE_SCHEMA} JSONL lines to {args.out}")
    if args.chrome is not None:
        count = tracing.write_chrome_trace(recorder, args.chrome, meta=meta)
        print(f"wrote {count} Chrome trace events to {args.chrome}")
    return 0


class _Dashboard:
    """Live terminal rendering for every ``repro top`` mode.

    A replay or a sweep feeds it collector samples (:meth:`on_sample`)
    and knows its ``total``; ``--attach`` feeds it a live daemon's
    serve windows (:meth:`on_window`) as an unbounded stream
    (``total=None``).  On a tty it redraws in place with ANSI cursor
    movement; off a tty (or with ``--plain``) it emits one append-only
    line per sample, so logs and tests see the same information
    without control codes.
    """

    def __init__(
        self,
        title: str,
        plain: bool,
        total: Optional[int] = None,
        workers: int = 0,
        stream=None,
    ):
        self.title = title
        self.total = total
        self.stream = stream if stream is not None else sys.stdout
        self.plain = plain or not self.stream.isatty()
        self.lanes: List[int] = [0] * workers
        #: Sparkline label -> (values, format of the latest value).
        self.series: Dict[str, Tuple[List[float], str]] = {}
        self.done = 0
        self.stats: dict = {}
        self.health: dict = {}
        self._started = time.perf_counter()
        self._drawn = 0

    def _add(self, label: str, value: float, fmt: str) -> None:
        self.series.setdefault(label, ([], fmt))[0].append(value)

    def on_sample(self, sample) -> None:
        """Collector ``on_sample`` hook: fold one replay or sweep sample in."""
        self.done += 1
        if sample.source == "replay":
            self._add("hit ratio", sample.hit_ratio, "{:.3f}")
            self._add("events/s", sample.events_per_sec, "{:,.0f}")
            entropy = ""
            if sample.entropy is not None:
                self._add("entropy", sample.entropy, "{:.3f} bits")
                entropy = f"  H={sample.entropy:.3f}"
            self._show(
                f"window {sample.index + 1}/{self.total}  "
                f"hit={sample.hit_ratio:.3f}  "
                f"ev/s={sample.events_per_sec:,.0f}{entropy}"
            )
            return
        if self.lanes:
            # Submission order round-robins over the pool, so point
            # index mod workers is the point's lane.
            self.lanes[sample.start % len(self.lanes)] += 1
        self._show(
            f"point {self.done}/{self.total}  {sample.label}  {sample.seconds:.2f}s"
        )

    def on_window(self, window, health: dict, stats: Optional[dict]) -> None:
        """Fold one :class:`~repro.obs.live.LiveWindow` in, with the poll
        loop's health counters and the latest ``/stats`` payload."""
        self.done += 1
        self.health = health
        if stats is not None:
            self.stats = stats
        self._add("hit ratio", window.hit_ratio, "{:.3f}")
        self._add("req/s", window.requests_per_sec, "{:,.0f}")
        self._add("p95 ms", window.p95_ms, "{:.2f}")
        self._show(
            f"window {window.index}  hit={window.hit_ratio:.3f}  "
            f"req/s={window.requests_per_sec:,.0f}  "
            f"p95={window.p95_ms:.2f}ms  "
            f"events={window.sample.events}  errors={window.errors}"
        )

    def _show(self, line: str) -> None:
        if self.plain:
            self.stream.write(line + "\n")
            self.stream.flush()
        else:
            self._redraw()

    def _lines(self) -> List[str]:
        from ..analysis.ascii_chart import render_sparkline

        width = 48
        elapsed = time.perf_counter() - self._started
        lines = [f"repro top — {self.title}"]
        for label, (values, fmt) in self.series.items():
            lines.append(
                f"  {label:<11}{render_sparkline(values[-width:]):<{width}} "
                f"{fmt.format(values[-1])}"
            )
        cache = self.stats.get("cache", {})
        if cache:
            lines.append(
                f"  lifetime   accesses {self.stats.get('accesses', 0):,}  "
                f"hit {cache.get('hit_ratio', 0.0):.3f}  "
                f"errors {self.stats.get('errors', 0)}"
            )
        for lane, count in enumerate(self.lanes):
            share = count / self.total if self.total else 0.0
            bar = "#" * int(share * width)
            lines.append(f"  worker {lane}   {bar:<{width}} {count} pts")
        if self.total is None:
            failures = self.health.get("failures", 0)
            restarts = self.health.get("restarts", 0)
            gaps = self.health.get("gaps", 0)
            flaky = (
                f"  failures {failures}  restarts {restarts}  gaps {gaps}"
                if failures or restarts or gaps
                else ""
            )
            lines.append(
                f"  stream     {self.done} window(s)  {elapsed:5.1f}s{flaky}"
            )
        else:
            fraction = self.done / self.total if self.total else 1.0
            bar = "#" * int(fraction * width)
            lines.append(
                f"  progress   [{bar:<{width}}] {self.done}/{self.total}  "
                f"{elapsed:5.1f}s"
            )
        return lines

    def _redraw(self) -> None:
        lines = self._lines()
        out = self.stream
        if self._drawn:
            out.write(f"\x1b[{self._drawn}F")  # to start of first drawn line
        for line in lines:
            out.write(f"\x1b[2K{line}\n")
        self._drawn = len(lines)
        out.flush()

    def finish(self) -> None:
        """Leave a final, complete frame on screen (tty mode only); an
        attached stream that never saw a window draws nothing."""
        if not self.plain and (self.done or self.total is not None):
            self._redraw()


def _never_reached(stream, url: str) -> bool:
    """Whether every poll of a :class:`~repro.obs.live.StatsStream`
    failed; if so, says so on stderr."""
    if stream.polls and stream.failures == stream.polls:
        print(
            f"never reached {url}: {stream.failures} failed poll(s) "
            f"— is the daemon running?",
            file=sys.stderr,
        )
        return True
    return False


def _cmd_top_attach(args: argparse.Namespace) -> int:
    """``repro top --attach URL``: dashboard over a live daemon.

    Polls ``/stats?since=`` on the daemon and renders its serve
    windows until ``--duration`` elapses (or forever without one;
    Ctrl-C detaches cleanly — the daemon is someone else's process).
    """
    from .live import StatsStream

    dashboard = _Dashboard(f"attached to {args.attach}", args.plain)
    stream = StatsStream(
        args.attach, timeout=args.timeout, poll_seconds=args.poll
    )
    raws: List[dict] = []
    try:
        with stream:
            for window in stream.stream(duration=args.duration):
                dashboard.on_window(window, stream.summary(), stream.last_stats)
                if args.ts_out is not None:
                    raws.append(window.raw)
    except KeyboardInterrupt:
        pass
    dashboard.finish()
    if _never_reached(stream, args.attach):
        return 1
    summary = stream.summary()
    print(
        f"detached from {args.attach}: {summary['windows']} window(s) over "
        f"{summary['polls']} poll(s), {summary['failures']} failure(s), "
        f"{summary['restarts']} restart(s), {summary['gaps']} gap(s)"
    )
    if args.ts_out is not None:
        from .export import TS_SCHEMA, meta_record, write_records

        meta = {"source": "serve", "url": args.attach, "samples": len(raws)}
        lines = write_records(args.ts_out, [meta_record(TS_SCHEMA, meta)] + raws)
        print(f"wrote {lines} repro.ts/1 JSONL lines to {args.ts_out}")
    return 0


def _parse_listen(value: str):
    """Parse a ``HOST:PORT`` listen spec (host optional)."""
    host, separator, port = value.rpartition(":")
    if not separator or not port.isdigit():
        raise ReproError(
            f"--listen expects HOST:PORT (got {value!r}); use :0 for a "
            f"free port on localhost"
        )
    return host or "127.0.0.1", int(port)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live windowed-telemetry dashboard over a replay or a sweep.

    Replay mode drives one distributed system through the trace window
    by window; ``--sweep`` instead watches a ``fig3``-style parameter
    sweep point by point (``--workers N`` fans it out, and the dashboard
    shows one lane per worker); ``--attach URL`` renders a running
    ``repro serve`` daemon's live telemetry windows instead of replaying
    anything locally.  ``--listen HOST:PORT`` additionally serves the
    live series as Prometheus text from ``/metrics``.
    """
    if args.attach:
        return _cmd_top_attach(args)
    from . import WindowedCollector, serve_metrics, windowing, write_ts_jsonl

    # Built first: it rejects a window < 1 before the window divides.
    collector = WindowedCollector(window=args.window)
    if args.sweep:
        from ..experiments.fig3 import FIG3_CAPACITIES, FIG3_GROUP_SIZES, fig3_point
        from ..sim.sweep import SweepGrid, run_sweep

        grid = (
            SweepGrid()
            .add_axis("capacity", FIG3_CAPACITIES)
            .add_axis("group_size", FIG3_GROUP_SIZES)
        )
        point = partial(
            fig3_point, workload=args.workload, events=args.events, seed=args.seed
        )
        run = partial(run_sweep, grid, point, workers=args.workers)
        dashboard = _Dashboard(
            f"fig3 sweep on {args.workload}, {len(grid)} points, "
            f"workers {args.workers}",
            args.plain,
            total=len(grid),
            workers=max(args.workers, 1),
        )
    else:
        trace = trace_for(args)
        run = partial(system_for(args, args.client_capacity).replay, trace)
        dashboard = _Dashboard(
            f"{args.workload} replay, {len(trace)} events, window {args.window}",
            args.plain,
            total=(len(trace) + args.window - 1) // args.window,
        )
    collector.on_sample = dashboard.on_sample
    server = None
    if args.listen:
        host, port = _parse_listen(args.listen)
        server = serve_metrics(collector, host, port)
        print(f"serving live metrics at {server.url}", file=sys.stderr)
    try:
        with windowing(collector=collector):
            run()
    finally:
        if server is not None:
            server.close()
    dashboard.finish()
    if args.ts_out is not None:
        lines = write_ts_jsonl(
            collector,
            args.ts_out,
            meta={
                "workload": args.workload,
                "events": args.events,
                "seed": args.seed,
                "mode": "sweep" if args.sweep else "replay",
            },
        )
        print(f"wrote {lines} repro.ts/1 JSONL lines to {args.ts_out}")
    return 0


def _report_drift(alerts, fail_on_drift: bool, subject: str) -> int:
    """Print a drift scan's alerts as a table; return the exit status
    (2 on drift with ``--fail-on-drift``)."""
    from ..analysis.drift import drift_rows

    if not alerts:
        print(f"no drift detected: the {subject} is steady at this threshold")
        return 0
    header = ["metric", "window", "event", "direction", "value", "baseline", "z"]
    rows = [header] + [
        [str(row[key]) for key in header] for row in drift_rows(alerts)
    ]
    print(rows_to_markdown(rows))
    print()
    for alert in alerts:
        print(f"  - {alert.describe()}")
    return 2 if fail_on_drift else 0


def _cmd_drift_url(args: argparse.Namespace, metrics: List[str]) -> int:
    """``repro drift --url``: online drift alerts over a live daemon.

    Attaches a :class:`~repro.obs.live.StatsStream` to the daemon — the
    cursor starts at 0, so the first poll scans the daemon's whole
    retained window history — then keeps polling for ``--duration``
    seconds, feeding every window to a streaming monitor and printing
    alerts the moment they fire.  ``--duration 0`` (the default) scans
    the retained history in one poll and exits, which is how a CI step
    asks "did the workload shift while I was slamming?" after the
    fact.
    """
    from ..analysis.drift import StreamingDriftMonitor
    from .live import StatsStream

    monitor = StreamingDriftMonitor(
        metrics=metrics,
        history=args.history,
        threshold=args.threshold,
        alpha=args.alpha,
    )
    stream = StatsStream(args.url, timeout=args.timeout, poll_seconds=args.poll)
    print(
        f"watching {args.url} for {', '.join(metrics)} drift "
        f"(history {args.history}, z >= {args.threshold:g}, "
        f"duration {args.duration:g}s)"
    )
    try:
        with stream:
            for window in stream.stream(duration=args.duration):
                for alert in monitor.observe(window.sample):
                    print(f"  ! {alert.describe()}")
    except KeyboardInterrupt:
        pass
    if _never_reached(stream, args.url):
        return 1
    summary = stream.summary()
    print(
        f"\nscanned {monitor.samples_seen} serve window(s) from {args.url} "
        f"({summary['polls']} poll(s), {summary['failures']} failure(s), "
        f"{summary['restarts']} restart(s), {summary['gaps']} gap(s))\n"
    )
    return _report_drift(monitor.alerts, args.fail_on_drift, "served series")


def _cmd_drift(args: argparse.Namespace) -> int:
    """Change-point scan of a windowed series; exit 2 on drift if asked.

    With a positional ``series`` path, scans an existing ``repro.ts/1``
    export; with ``--url`` it polls a running ``repro serve`` daemon's
    telemetry stream (retained history first, then live windows for
    ``--duration`` seconds) and alerts online; otherwise replays the
    chosen workload with windowing on and scans the fresh series.
    Alerts are event-indexed, so a flagged window can be cross-examined
    with ``repro explain``.
    """
    from ..analysis.drift import DRIFT_SOURCES, detect_drift
    from . import load_ts_jsonl, windowing

    metrics = [name for name in args.metrics.split(",") if name]
    if args.url:
        return _cmd_drift_url(args, metrics)
    if args.series is not None:
        loaded = load_ts_jsonl(args.series)
        samples = loaded["samples"]
        origin = str(args.series)
    else:
        trace = trace_for(args)
        system = system_for(args, args.client_capacity)
        with windowing(window=args.window) as collector:
            system.replay(trace)
        samples = collector.samples
        origin = f"{args.workload} ({len(trace)} events, window {args.window})"

    scanned = sum(1 for sample in samples if sample.source in DRIFT_SOURCES)
    alerts = detect_drift(
        samples,
        metrics=metrics,
        history=args.history,
        threshold=args.threshold,
        alpha=args.alpha,
    )
    print(
        f"scanned {scanned} windows of {origin} for "
        f"{', '.join(metrics)} drift (history {args.history}, "
        f"z >= {args.threshold:g})\n"
    )
    return _report_drift(alerts, args.fail_on_drift, "series")


def _metrics_options(metrics: argparse.ArgumentParser) -> None:
    add_replay_options(metrics)
    metrics.add_argument(
        "--out", type=Path, default=None, help="write the snapshot as JSONL"
    )
    metrics.add_argument(
        "--baselines",
        default="",
        help=(
            "comma-separated plain policies (or 'all') to replay alongside "
            "the aggregating system for a counter-backed comparison table"
        ),
    )
    metrics.add_argument(
        "--window",
        type=int,
        default=0,
        help="also record a windowed time-series at this resolution (events)",
    )
    metrics.add_argument(
        "--ts-out",
        type=Path,
        default=None,
        help="write the windowed series as repro.ts/1 JSONL (needs --window)",
    )
    metrics.set_defaults(handler=_cmd_metrics)


def _explain_options(explain: argparse.ArgumentParser) -> None:
    add_replay_options(explain, client_option="--cache-size")
    explain.add_argument(
        "--file", default="", help="narrate the retained history of one file"
    )
    explain.add_argument(
        "--at",
        type=int,
        default=None,
        help="trace seq of interest for --file (marks the matching record)",
    )
    explain.add_argument(
        "--top", type=int, default=10, help="wasteful groups to list"
    )
    explain.add_argument(
        "--buffer",
        type=int,
        default=65536,
        help="ring-buffer capacity in records (accounting stays exact beyond it)",
    )
    explain.add_argument(
        "--sample",
        type=int,
        default=1,
        help="keep every Nth record of each kind in the ring (1 = all)",
    )
    explain.add_argument(
        "--out", type=Path, default=None, help="write the trace as repro.trace/1 JSONL"
    )
    explain.add_argument(
        "--chrome",
        type=Path,
        default=None,
        help="write a Chrome trace-event JSON (Perfetto / about:tracing)",
    )
    explain.set_defaults(handler=_cmd_explain)


def _top_options(top: argparse.ArgumentParser) -> None:
    add_replay_options(top)
    top.add_argument(
        "--window", type=int, default=2000, help="telemetry window (events)"
    )
    top.add_argument(
        "--sweep",
        action="store_true",
        help="watch a fig3 parameter sweep instead of a single replay",
    )
    top.add_argument(
        "--attach",
        default="",
        metavar="URL",
        help=(
            "attach to a running repro serve daemon (http://HOST:PORT) and "
            "render its live telemetry windows instead of replaying"
        ),
    )
    add_poll_options(
        top, "--attach", None, "detach after this many seconds (default: until Ctrl-C)"
    )
    top.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for --sweep (one dashboard lane per worker)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append-only output (no ANSI redraw); implied off a terminal",
    )
    top.add_argument(
        "--listen",
        default="",
        help="serve live Prometheus text on HOST:PORT/metrics (:0 = free port)",
    )
    top.add_argument(
        "--ts-out",
        type=Path,
        default=None,
        help="also write the series as repro.ts/1 JSONL when done",
    )
    top.set_defaults(handler=_cmd_top)


def _drift_options(drift: argparse.ArgumentParser) -> None:
    drift.add_argument(
        "series",
        nargs="?",
        type=Path,
        default=None,
        help="existing repro.ts/1 JSONL to scan (default: replay a workload)",
    )
    add_replay_options(drift)
    drift.add_argument(
        "--window", type=int, default=2000, help="telemetry window (events)"
    )
    drift.add_argument(
        "--metrics",
        default="hit_ratio,entropy",
        help="comma-separated sample metrics to scan (default: hit_ratio,entropy)",
    )
    drift.add_argument(
        "--history",
        type=int,
        default=8,
        help="rolling-baseline length in windows (also the warmup)",
    )
    drift.add_argument(
        "--threshold",
        type=float,
        default=4.0,
        help="z-score magnitude that constitutes drift",
    )
    drift.add_argument(
        "--alpha",
        type=float,
        default=0.3,
        help="EWMA smoothing factor in (0, 1]; 1 tests raw window values",
    )
    drift.add_argument(
        "--url",
        default="",
        help=(
            "poll a running repro serve daemon's telemetry stream instead "
            "of a file or replay (http://HOST:PORT)"
        ),
    )
    add_poll_options(
        drift,
        "--url",
        0.0,
        "keep polling this many seconds after the retained history "
        "(default: 0 = one poll over the history, then exit)",
    )
    drift.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="exit with status 2 when any alert fires (for CI gates)",
    )
    drift.set_defaults(handler=_cmd_drift)


#: Subcommand name -> the function that declares its options and handler.
OPTIONS = {
    "metrics": _metrics_options,
    "explain": _explain_options,
    "top": _top_options,
    "drift": _drift_options,
}
