"""The serving front end: ``repro serve`` (the aggregating-cache
daemon), ``repro slam`` (the load driver) and ``repro spans`` (the
client/server span merge).

:mod:`repro.cli` registers the subcommands; this module declares their
options and runs them.  ``repro serve`` imports only the serving
stack: everything else is imported inside the handler that needs it.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any, Callable, Dict, List


def _checked(value: Any, check: Callable[[Any, str], Any], option: str) -> Any:
    """``value`` run through a scenario field's ``check``, unless unset."""
    return value if value is None else check(value, option)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the aggregating-cache daemon for one scenario, until stopped.

    Blocks in :meth:`repro.serve.server.CacheDaemon.run`: SIGTERM,
    SIGINT (Ctrl-C), or a ``POST /shutdown`` all exit cleanly with
    status 0 and a released socket.  ``--port-file`` publishes the
    bound port for scripted callers (scenarios default to port 0, so
    parallel CI legs never collide).
    """
    from .scenario import (
        check_port,
        check_ring_size,
        check_sample_period,
        check_window_events,
        check_window_seconds,
        load_scenario,
    )
    from .server import CacheDaemon

    scenario = load_scenario(args.scenario)
    daemon = CacheDaemon(
        scenario,
        host=args.host if args.host else None,
        port=_checked(args.port, check_port, "--port"),
        access_log=args.access_log,
        access_log_max_bytes=args.access_log_max_bytes,
        window_seconds=_checked(
            args.stats_window, check_window_seconds, "--stats-window"
        ),
        window_events=_checked(
            args.stats_window_events, check_window_events, "--stats-window-events"
        ),
        span_log=args.spans,
        span_capacity=_checked(args.span_capacity, check_ring_size, "--span-capacity"),
        span_sample=_checked(args.span_sample, check_sample_period, "--span-sample"),
    )
    return daemon.run(port_file=args.port_file)


def _cmd_slam(args: argparse.Namespace) -> int:
    """Slam a running daemon with a trace from N worker processes.

    The traffic source is, in priority order: ``--trace`` (a text
    trace or a zero-copy ``.ctrace`` artifact), the ``--workload``
    family, or the workload named by ``--scenario`` (so one scenario
    file describes both sides of a load test).  Prints the latency
    report as a table and optionally writes it as ``repro.slam/1``
    JSON for CI artifacts.
    """
    from ..analysis.export import rows_to_markdown
    from ..experiments.common import DEFAULT_EVENTS
    from ..traces.columnar import is_columnar
    from ..traces.reader import read_trace
    from ..workloads.synthetic import make_workload
    from .client import run_slam, write_report
    from .scenario import check_ring_size, check_sample_period

    # Checked here: each worker process builds its own span ring and sampler.
    span_capacity = _checked(args.span_capacity, check_ring_size, "--span-capacity")
    span_sample = _checked(args.span_sample, check_sample_period, "--span-sample")
    workload, events, seed = args.workload, args.events, args.seed
    if args.scenario is not None:
        from . import load_scenario

        scenario = load_scenario(args.scenario)
        workload = workload or scenario.workload
        events = events if events is not None else scenario.events
        seed = seed if seed is not None else scenario.seed
    if events is None:
        events = DEFAULT_EVENTS

    if args.trace is not None:
        if is_columnar(args.trace):
            source = args.trace  # workers re-open the mmap themselves
            described = f"ctrace {args.trace}"
        else:
            source = read_trace(args.trace).file_ids()
            described = f"trace {args.trace} ({len(source)} events)"
    else:
        workload = workload or "server"
        source = list(make_workload(workload, events, seed).file_ids())
        described = f"workload {workload} ({len(source)} events)"

    print(
        f"slamming {args.url} with {described}: "
        f"{args.workers} worker(s), batch {args.batch}"
    )
    report = run_slam(
        args.url,
        source,
        workers=args.workers,
        batch=args.batch,
        timeout=args.timeout,
        span_dir=args.spans,
        span_sample=span_sample,
        span_capacity=span_capacity,
    )
    print()
    print(rows_to_markdown(report.rows()))
    if args.report is not None:
        write_report(report, args.report)
        print(f"\nwrote repro.slam/1 report to {args.report}")
    if args.spans is not None:
        spans = report.spans or {}
        print(
            f"\nwrote {spans.get('client_spans', 0)} client span(s) to "
            f"{spans.get('files', 0)} repro.span/1 file(s) under {args.spans}"
        )
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    """Merge client and server span logs into one request timeline.

    Aligns ``repro.span/1`` JSONL exports from slam workers
    (``--client``, repeatable/globbable) and the daemon (``--server``)
    on trace id, prints the pairing summary, a per-endpoint latency
    breakdown (client-observed vs server-measured, the network+queue
    delta between them, and where server time went), and span trees for
    the slowest traces.  ``--chrome`` additionally writes the merged
    timeline as Chrome trace-event JSON — one Perfetto process track
    per slam worker plus one for the daemon.
    """
    from ..analysis.export import rows_to_markdown
    from ..obs.spans import (
        endpoint_breakdown,
        format_span_tree,
        load_spans_jsonl,
        merge_spans,
        slowest_traces,
        write_spans_chrome_trace,
    )

    client_spans: List[Dict[str, Any]] = []
    client_meta: List[Dict[str, Any]] = []
    for path in args.client:
        loaded = load_spans_jsonl(path)
        client_spans.extend(loaded["spans"])
        client_meta.append(loaded["meta"])
    server_spans: List[Dict[str, Any]] = []
    server_meta: List[Dict[str, Any]] = []
    for path in args.server:
        loaded = load_spans_jsonl(path)
        server_spans.extend(loaded["spans"])
        server_meta.append(loaded["meta"])

    merged = merge_spans(client_spans, server_spans)
    print(
        f"loaded {len(client_spans)} client span(s) from "
        f"{len(args.client)} file(s), {len(server_spans)} server span(s) "
        f"from {len(args.server)} file(s)"
    )
    print(
        f"traces: {merged['paired']} paired, "
        f"{merged['client_only']} client-only, "
        f"{merged['server_only']} server-only"
    )
    dropped = sum(int(meta.get("dropped", 0)) for meta in client_meta + server_meta)
    if dropped:
        print(f"warning: {dropped} span(s) were dropped at capture (ring full)")

    rows = endpoint_breakdown(merged)
    if rows:
        table = [
            [
                "endpoint",
                "requests",
                "paired",
                "client p50/p99 (ms)",
                "server p50/p99 (ms)",
                "net+queue p50/p99 (ms)",
                "lock",
                "cache",
                "journal",
                "write",
            ]
        ]
        for row in rows:
            table.append(
                [
                    row["endpoint"],
                    str(row["requests"]),
                    str(row["paired"]),
                    f"{row['client_p50_ms']:.3f} / {row['client_p99_ms']:.3f}",
                    f"{row['server_p50_ms']:.3f} / {row['server_p99_ms']:.3f}",
                    f"{row['net_queue_p50_ms']:.3f} / {row['net_queue_p99_ms']:.3f}",
                    f"{row['lock_share'] * 100:.1f}%",
                    f"{row['cache_share'] * 100:.1f}%",
                    f"{row['journal_share'] * 100:.1f}%",
                    f"{row['write_share'] * 100:.1f}%",
                ]
            )
        print()
        print(rows_to_markdown(table))

    slowest = slowest_traces(merged, top=args.top)
    if slowest:
        print(f"\nslowest {len(slowest)} trace(s):")
        for trace in slowest:
            print()
            for line in format_span_tree(trace):
                print(f"  {line}")

    if args.chrome is not None:
        spans = client_spans + server_spans
        count = write_spans_chrome_trace(
            spans,
            args.chrome,
            meta={"paired": merged["paired"], "source": "repro spans"},
        )
        print(
            f"\nwrote {count} Chrome trace event(s) to {args.chrome} "
            "(open in Perfetto / chrome://tracing)"
        )
    return 0


def _serve_options(serve: argparse.ArgumentParser) -> None:
    serve.add_argument(
        "scenario", type=Path, help="scenario file (see scenarios/README.md)"
    )
    serve.add_argument(
        "--host", default="", help="bind host (overrides the scenario)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (overrides the scenario; 0 = ephemeral)",
    )
    serve.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port here once listening (for scripts/CI)",
    )
    serve.add_argument(
        "--access-log",
        type=Path,
        default=None,
        help="append one JSON line per request here (rotated by size)",
    )
    serve.add_argument(
        "--access-log-max-bytes",
        type=int,
        default=16 * 1024 * 1024,
        help="rotate the access log past this size (default: 16 MiB)",
    )
    serve.add_argument(
        "--stats-window",
        type=float,
        default=None,
        help=(
            "telemetry window in seconds (overrides the scenario; "
            "0 disables the timer-driven sampler)"
        ),
    )
    serve.add_argument(
        "--stats-window-events",
        type=int,
        default=None,
        help=(
            "also close a telemetry window every N accesses "
            "(overrides the scenario; 0 = timer only)"
        ),
    )
    serve.add_argument(
        "--spans",
        type=Path,
        default=None,
        help=(
            "enable request tracing and write repro.span/1 JSONL here "
            "on exit (off by default; zero cost when off)"
        ),
    )
    serve.add_argument(
        "--span-capacity",
        type=int,
        default=65536,
        help="retain at most this many spans (ring; default: 65536)",
    )
    serve.add_argument(
        "--span-sample",
        type=int,
        default=1,
        help=(
            "self-sample 1-in-N headerless requests (requests carrying "
            "X-Repro-Trace are always traced; default: 1 = all)"
        ),
    )
    serve.set_defaults(handler=_cmd_serve)


def _slam_options(slam: argparse.ArgumentParser) -> None:
    from ..experiments.common import DEFAULT_EVENTS
    from ..workloads.synthetic import WORKLOADS

    slam.add_argument(
        "--url",
        required=True,
        help="daemon base URL (http://HOST:PORT, as printed by repro serve)",
    )
    slam.add_argument(
        "--scenario",
        type=Path,
        default=None,
        help="scenario file supplying the default workload/events/seed",
    )
    slam.add_argument(
        "--workload",
        default="",
        choices=["", *sorted(WORKLOADS)],
        help="synthetic workload to replay (default: scenario's, else server)",
    )
    slam.add_argument(
        "--events",
        type=int,
        default=None,
        help=f"trace length (default: scenario's, else {DEFAULT_EVENTS})",
    )
    slam.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: per-workload)"
    )
    slam.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="replay a stored trace instead (.ctrace shards stay zero-copy)",
    )
    slam.add_argument(
        "--workers", type=int, default=2, help="load-driver worker processes"
    )
    slam.add_argument(
        "--batch", type=int, default=16, help="events per /fetch request"
    )
    slam.add_argument(
        "--timeout", type=float, default=30.0, help="per-request timeout (s)"
    )
    slam.add_argument(
        "--report",
        type=Path,
        default=None,
        help="write the latency report as repro.slam/1 JSON",
    )
    slam.add_argument(
        "--spans",
        type=Path,
        default=None,
        help=(
            "trace requests: write one repro.span/1 JSONL per worker "
            "into this directory and send X-Repro-Trace headers"
        ),
    )
    slam.add_argument(
        "--span-sample",
        type=int,
        default=1,
        help="trace 1-in-N requests per worker (default: 1 = all)",
    )
    slam.add_argument(
        "--span-capacity",
        type=int,
        default=None,
        help="per-worker span ring capacity (default: 65536)",
    )
    slam.set_defaults(handler=_cmd_slam)


def _spans_options(spans_cmd: argparse.ArgumentParser) -> None:
    spans_cmd.add_argument(
        "--client",
        type=Path,
        nargs="+",
        required=True,
        help="slam worker span logs (spans-worker*.jsonl)",
    )
    spans_cmd.add_argument(
        "--server",
        type=Path,
        nargs="+",
        required=True,
        help="daemon span log(s) (the serve --spans file)",
    )
    spans_cmd.add_argument(
        "--chrome",
        type=Path,
        default=None,
        help="also write the merged timeline as Chrome trace-event JSON",
    )
    spans_cmd.add_argument(
        "--top",
        type=int,
        default=5,
        help="show span trees for the N slowest traces (default: 5)",
    )
    spans_cmd.set_defaults(handler=_cmd_spans)


#: Subcommand name -> the function that declares its options and handler.
OPTIONS = {
    "serve": _serve_options,
    "slam": _slam_options,
    "spans": _spans_options,
}
