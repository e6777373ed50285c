"""The workload and trace front end: ``repro profile``, ``graph``,
``workloads``, ``anonymize``, ``generate``, ``inspect`` and ``trace``
(``pack`` / ``info``).

:mod:`repro.cli` registers the subcommands; this module declares their
options and runs them, importing the trace and analysis layers inside
each handler.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from ..analysis.export import rows_to_markdown
from ..cli import add_common_options, trace_for


def _cmd_profile(args: argparse.Namespace) -> int:
    from ..analysis.predictability import profile_sequence
    from .reader import read_trace

    if args.trace is not None:
        trace = read_trace(args.trace)
        sequence = trace.file_ids()
        name = trace.name
    else:
        sequence = list(trace_for(args).file_ids())
        name = args.workload
    profile = profile_sequence(sequence, name=name, window=args.window)
    print(profile.render())
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from ..core.graph import RelationshipGraph, graph_summary_rows, hub_files

    sequence = trace_for(args).file_ids()
    graph = RelationshipGraph.from_sequence(sequence)
    print(
        f"relationship graph of {args.workload}: "
        f"{len(graph.nodes())} files, {len(graph.edges())} edges\n"
    )
    print(rows_to_markdown(graph_summary_rows(graph, top=args.top)))
    print("\nhub files (most distinct predecessors):")
    for file_id, in_degree in hub_files(graph, top=5):
        print(f"  {in_degree:4d}  {file_id}")
    groups = graph.covering_groups(args.group_size)
    print(f"\ncovering set at g={args.group_size}: {len(groups)} groups")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from ..workloads.catalog import catalog_rows

    if args.name:
        from ..workloads.catalog import describe_workload

        profile = describe_workload(args.name)
        print(f"{profile.name}: {profile.stands_in_for}")
        print(f"\n{profile.character}\n")
        print("mechanisms:")
        for mechanism in profile.dominant_mechanisms:
            print(f"  - {mechanism}")
        print("calibration targets (machine-checked):")
        for target in profile.calibration_targets:
            print(f"  - {target}")
        return 0
    print(rows_to_markdown(catalog_rows()))
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from .anonymize import anonymize_trace, enumerate_trace
    from .reader import read_trace
    from .writer import write_trace

    trace = read_trace(args.trace)
    if args.key:
        anonymized = anonymize_trace(trace, key=args.key)
    else:
        anonymized = enumerate_trace(trace)
    write_trace(anonymized, args.out)
    print(
        f"anonymized {len(trace)} events "
        f"({'keyed hash' if args.key else 'enumeration'}) -> {args.out}"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .writer import write_trace

    trace = trace_for(args)
    write_trace(trace, args.out)
    print(f"wrote {len(trace)} events ({trace.unique_files()} files) to {args.out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .reader import read_trace
    from .stats import summarize

    trace = read_trace(args.trace)
    summary = summarize(trace)
    rows = [["property", "value"]] + [list(row) for row in summary.as_rows()]
    print(rows_to_markdown(rows))
    return 0


def _cmd_trace_pack(args: argparse.Namespace) -> int:
    from .columnar import (
        describe_columnar,
        is_columnar,
        read_columnar,
        write_columnar,
    )
    from .reader import read_trace

    if is_columnar(args.trace):
        source = read_columnar(args.trace)
    else:
        source = read_trace(args.trace)
    written = write_columnar(source, args.out)
    info = describe_columnar(args.out)
    print(
        f"packed {info['events']} events ({info['unique_files']} files) "
        f"-> {args.out} ({written} bytes, {info['format']} v{info['version']})"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from .columnar import (
        ColumnarTrace,
        FORMAT_NAME,
        FORMAT_VERSION,
        describe_columnar,
        is_columnar,
        read_columnar,
    )
    from .reader import read_trace

    if is_columnar(args.trace):
        ctrace = read_columnar(args.trace)  # rejects a damaged file
        info = describe_columnar(args.trace)
    else:
        # Text traces get the same report, computed from an in-memory
        # packing (what `repro trace pack` would write).
        ctrace = ColumnarTrace.from_trace(read_trace(args.trace))
        columns = ctrace.column_nbytes()
        info = {
            "format": f"{FORMAT_NAME} (unpacked text)",
            "version": FORMAT_VERSION,
            "events": len(ctrace),
            "unique_files": len(ctrace.file_symbols),
            "client_symbols": len(ctrace.client_symbols),
            "user_symbols": len(ctrace.user_symbols),
            "process_symbols": len(ctrace.process_symbols),
            "columns": columns,
            "columns_bytes": sum(columns.values()),
            "footer_bytes": None,
            "file_bytes": args.trace.stat().st_size,
        }
    rows = [["property", "value"]]
    for key in (
        "format",
        "version",
        "events",
        "unique_files",
        "client_symbols",
        "user_symbols",
        "process_symbols",
    ):
        rows.append([key.replace("_", " "), str(info[key])])
    for column, nbytes in sorted(info["columns"].items()):
        rows.append([f"column bytes ({column})", str(nbytes)])
    for key in ("columns_bytes", "footer_bytes", "file_bytes"):
        if info.get(key) is not None:
            rows.append([key.replace("_", " "), str(info[key])])
    print(rows_to_markdown(rows))
    if args.bench:
        print()
        print(rows_to_markdown(_trace_bench_rows(ctrace)))
    return 0


def _trace_bench_rows(ctrace) -> list:
    """One-shot timings of every columnar path over one trace.

    Times a single pass each of the stateless column scan and the
    array-backed replay kernel (on a fresh reference-configuration
    system), so ``repro trace info --bench`` answers "how fast does
    *this* trace replay on *this* machine, per path" without
    pytest-benchmark.
    One-shot wall clock, not a calibrated benchmark — the strict CI
    gate owns the careful numbers.
    """
    from ..sim import kernel as _kernel
    from ..sim.engine import DistributedFileSystem

    events = len(ctrace)
    config = dict(client_capacity=250, server_capacity=300, group_size=5)

    def run_scan():
        _kernel.scan_columns(ctrace.file_codes, ctrace.kind_codes)

    def run_kernel_v2():
        _kernel.replay_columns_v2(DistributedFileSystem(**config), ctrace)

    rows = [["path", "seconds", "events/s"]]
    for label, run in (
        ("scan", run_scan),
        ("kernel_v2 (array LRU)", run_kernel_v2),
    ):
        started = time.perf_counter()
        run()
        seconds = time.perf_counter() - started
        rate = f"{events / seconds:,.0f}" if seconds > 0 and events else "-"
        rows.append([label, f"{seconds:.3f}", rate])
    return rows


def _profile_options(profile: argparse.ArgumentParser) -> None:
    add_common_options(profile, workload_default="workstation")
    profile.add_argument(
        "--trace", type=Path, default=None, help="profile a stored trace instead"
    )
    profile.add_argument(
        "--window", type=int, default=2000, help="timeline window (events)"
    )
    profile.set_defaults(handler=_cmd_profile)


def _graph_options(graph: argparse.ArgumentParser) -> None:
    add_common_options(graph, workload_default="workstation")
    graph.add_argument("--top", type=int, default=12, help="edges to show")
    graph.add_argument("--group-size", type=int, default=5)
    graph.set_defaults(handler=_cmd_graph)


def _workloads_options(workloads_cmd: argparse.ArgumentParser) -> None:
    workloads_cmd.add_argument(
        "name", nargs="?", default="", help="one workload for full detail"
    )
    workloads_cmd.set_defaults(handler=_cmd_workloads)


def _anonymize_options(anonymize: argparse.ArgumentParser) -> None:
    anonymize.add_argument("trace", type=Path)
    anonymize.add_argument("--out", type=Path, required=True)
    anonymize.add_argument(
        "--key",
        default="",
        help="HMAC key for stable hashing; omit for sequential enumeration",
    )
    anonymize.set_defaults(handler=_cmd_anonymize)


def _generate_options(generate: argparse.ArgumentParser) -> None:
    from ..experiments.common import DEFAULT_EVENTS
    from ..workloads.synthetic import WORKLOADS

    generate.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS)
    )
    generate.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--out", type=Path, required=True)
    generate.set_defaults(handler=_cmd_generate)


def _inspect_options(inspect: argparse.ArgumentParser) -> None:
    inspect.add_argument("trace", type=Path)
    inspect.set_defaults(handler=_cmd_inspect)


def _trace_options(trace_cmd: argparse.ArgumentParser) -> None:
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    pack = trace_sub.add_parser(
        "pack",
        help="pack a text trace into the columnar binary format",
    )
    pack.add_argument("trace", type=Path, help="input trace (text or columnar)")
    pack.add_argument("out", type=Path, help="output .ctrace file")
    pack.set_defaults(handler=_cmd_trace_pack)
    info = trace_sub.add_parser(
        "info",
        help="event count, unique files, column sizes, format version",
    )
    info.add_argument("trace", type=Path, help="trace file (columnar or text)")
    info.add_argument(
        "--bench",
        action="store_true",
        help="time one replay of this trace per kernel path (events/s)",
    )
    info.set_defaults(handler=_cmd_trace_info)


#: Subcommand name -> the function that declares its options and handler.
OPTIONS = {
    "profile": _profile_options,
    "graph": _graph_options,
    "workloads": _workloads_options,
    "anonymize": _anonymize_options,
    "generate": _generate_options,
    "inspect": _inspect_options,
    "trace": _trace_options,
}
