"""The evaluation front end: ``repro fig3`` and the other figure
subcommands (one per row of :data:`~repro.experiments.STUDIES` that
names a command), ``headline``, ``report`` and ``compare``.

:mod:`repro.cli` registers the subcommands; this module declares their
options and runs them, importing the experiments inside each handler.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from inspect import signature
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ..analysis.export import rows_to_markdown
from ..cli import add_common_options, throughput_line, trace_for
from .studies import Study


def _sweep_progress() -> Optional[Callable[[int, int, dict, float], None]]:
    """A stderr status-line callback with ETA, or None off a terminal.

    Uses the sweep runner's 4-argument progress form: the elapsed time
    it reports extrapolates to a remaining-time estimate once at least
    one point has completed.
    """
    if not sys.stderr.isatty():
        return None

    def progress(index: int, total: int, params: dict, elapsed: float) -> None:
        if index:
            eta = elapsed / index * (total - index)
            line = f"sweep {index + 1}/{total}  elapsed {elapsed:5.1f}s  eta {eta:5.1f}s"
        else:
            line = f"sweep 1/{total}"
        print(f"\r{line:<60}", end="", file=sys.stderr, flush=True)

    return progress


def _cmd_figure(study: Study, args: argparse.Namespace) -> int:
    """Run one table row's figure; print its chart and table (and write
    its CSV with ``--csv``)."""
    from ..analysis.ascii_chart import render_figure
    from ..analysis.export import figure_to_csv

    options: Dict[str, Any] = {"events": args.events, "seed": args.seed}
    if "workload" in vars(args):
        options["workload"] = args.workload
    throughput = ""
    if study.credit:
        progress = _sweep_progress()
        started = time.perf_counter()
        figure = study.run(workers=args.workers, progress=progress, **options)
        seconds = time.perf_counter() - started
        if progress is not None:  # clear the status line
            print("\r" + " " * 60 + "\r", end="", file=sys.stderr, flush=True)
        if study.credit == "point":
            replays = sum(len(series.points) for series in figure.series)
        else:
            replays = len(figure.series)
        throughput = throughput_line(args.events * replays, seconds)
    else:
        figure = study.run(**options)
    print(render_figure(figure, width=args.width, height=args.height))
    print()
    print(rows_to_markdown(figure.to_rows()))
    if throughput:
        print(f"\n{throughput}")
    if args.csv is not None:
        figure_to_csv(figure, args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def figure_options(study: Study, parser: argparse.ArgumentParser) -> None:
    """Declare a figure subcommand's options: its ``--workload`` default
    is the runner's, and it takes ``--workers`` exactly when the runner
    does."""
    parameters = signature(study.run).parameters
    workload = parameters.get("workload")
    add_common_options(parser, workload.default if workload else "")
    parser.add_argument(
        "--csv", type=Path, default=None, help="also write the series as CSV"
    )
    if "workers" in parameters:
        parser.add_argument(
            "--workers",
            type=int,
            default=1,
            help=(
                "worker processes for the parameter sweep (default: 1 = "
                "serial; results are identical either way)"
            ),
        )
    parser.add_argument(
        "--width", type=int, default=72, help="chart width in characters"
    )
    parser.add_argument(
        "--height", type=int, default=20, help="chart height in characters"
    )
    parser.set_defaults(handler=partial(_cmd_figure, study))


def _cmd_headline(args: argparse.Namespace) -> int:
    from .headline import run_headline

    report = run_headline(events=args.events, seed=args.seed)
    print(rows_to_markdown(report.to_rows()))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from ..analysis.report import write_report

    def progress(section_id):
        print(f"  running {section_id}...", file=sys.stderr)

    path = write_report(
        args.out,
        events=args.events,
        charts=not args.no_charts,
        explain=args.explain,
        drift=args.drift,
        progress=progress,
    )
    print(f"wrote full evaluation report to {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Cache-policy shootout: hit rates of every policy on one workload."""
    from ..caching import POLICIES, make_cache
    from ..core.aggregating_cache import AggregatingClientCache

    sequence = trace_for(args).file_ids()
    rows = [["policy", "hit rate", "misses"]]
    for name in sorted(POLICIES):
        cache = make_cache(name, args.capacity)
        for key in sequence:
            cache.access(key)
        rows.append(
            [name, f"{cache.stats.hit_rate:.3f}", str(cache.stats.misses)]
        )
    aggregating = AggregatingClientCache(
        capacity=args.capacity, group_size=args.group_size
    )
    aggregating.replay(sequence)
    rows.append(
        [
            f"aggregating g{args.group_size}",
            f"{aggregating.stats.hit_rate:.3f}",
            str(aggregating.stats.misses),
        ]
    )
    print(
        f"workload {args.workload}, {args.events} events, "
        f"capacity {args.capacity} files:\n"
    )
    print(rows_to_markdown(rows))
    return 0


def _headline_options(headline: argparse.ArgumentParser) -> None:
    add_common_options(headline)
    headline.set_defaults(handler=_cmd_headline)


def _report_options(report: argparse.ArgumentParser) -> None:
    report.add_argument("--out", type=Path, default=Path("report.md"))
    report.add_argument(
        "--events", type=int, default=20_000, help="events per workload"
    )
    report.add_argument(
        "--no-charts", action="store_true", help="tables only, no ASCII charts"
    )
    report.add_argument(
        "--explain",
        action="store_true",
        help=(
            "append the prefetch-provenance section (per-workload prefetch "
            "efficiency and wasted-fetch share from traced replays)"
        ),
    )
    report.add_argument(
        "--drift",
        action="store_true",
        help=(
            "append the workload-drift section (change-point scan of each "
            "workload's windowed hit-ratio and entropy series)"
        ),
    )
    report.set_defaults(handler=_cmd_report)


def _compare_options(compare: argparse.ArgumentParser) -> None:
    add_common_options(compare, workload_default="workstation")
    compare.add_argument(
        "--capacity", type=int, default=300, help="cache capacity in files"
    )
    compare.add_argument(
        "--group-size", type=int, default=5, help="aggregating cache group size"
    )
    compare.set_defaults(handler=_cmd_compare)


#: Subcommand name -> the function that declares its options and handler.
OPTIONS = {
    "headline": _headline_options,
    "report": _report_options,
    "compare": _compare_options,
}
