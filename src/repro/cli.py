"""Command-line interface: ``repro <experiment> [options]``.

Runs any of the paper's figure reproductions end-to-end, renders the
result as an ASCII chart plus a data table, and optionally writes CSV.
Also exposes workload generation and trace inspection so the substrate
is usable standalone::

    repro fig3 --workload server          # paper figures...
    repro fig7
    repro headline                        # abstract claims, recomputed
    repro placement | hoard | cooperation # Section 6 future-work studies
    repro attribution | adaptation | servercap | compare
    repro profile --workload users        # predictability tooling
    repro metrics --workload server       # observability snapshot (JSONL)
    repro explain --workload server       # traced replay: why hits/misses
    repro top --workload server           # live windowed-telemetry dashboard
    repro drift --workload server         # change-point scan of the series
    repro graph --workload server         # relationship-graph inspection
    repro workloads [name]                # the synthetic workload catalog
    repro report --out report.md          # regenerate everything
    repro generate / inspect / anonymize  # trace tooling
    repro serve scenarios/smoke.json      # aggregating-cache daemon (HTTP API)
    repro slam --url http://host:port     # multi-process load driver
    repro spans --client s-*.jsonl --server spans.jsonl  # trace merge

This module holds the parser, the dispatch and the helpers the front
ends share.  Each subcommand's options and handler live in the front
end of its family, next to its layer: ``repro.experiments.frontend``
(figures, headline, report, compare), ``repro.traces.frontend``
(workload and trace tooling), ``repro.obs.frontend`` (metrics, explain,
top, drift) and ``repro.serve.frontend`` (serve, slam, spans).  A
command imports only its own front end, and a front end imports heavy
modules inside its handlers.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Any, Callable, List, Optional

from ._lazy import load
from .errors import ReproError

_EXPERIMENTS = "repro.experiments.frontend"
_TRACES = "repro.traces.frontend"
_OBS = "repro.obs.frontend"
_SERVE = "repro.serve.frontend"

#: The subcommands after the figure ones, in help order: name, help
#: text and front end.  The figure subcommands, listed first, are the
#: rows of :data:`repro.experiments.STUDIES` that name a command.
COMMANDS = (
    ("headline", "recompute the paper's abstract/conclusion claims", _EXPERIMENTS),
    ("profile", "predictability profile: entropy timeline + hotspots", _TRACES),
    (
        "metrics",
        "replay a workload with metric collection on; print/export a snapshot",
        _OBS,
    ),
    (
        "explain",
        "replay a workload under the decision-trace flight recorder: "
        "prefetch efficiency, eviction causes, per-file history",
        _OBS,
    ),
    (
        "top",
        "live windowed-telemetry dashboard: sparkline hit ratio, "
        "throughput, and entropy over a replay (or --sweep)",
        _OBS,
    ),
    (
        "drift",
        "change-point scan of a windowed series: flags hit-ratio "
        "collapses and entropy regime shifts with event indexes",
        _OBS,
    ),
    ("graph", "inspect a workload's inter-file relationship graph", _TRACES),
    ("report", "regenerate the whole evaluation into one Markdown file", _EXPERIMENTS),
    ("workloads", "describe the built-in synthetic workloads", _TRACES),
    ("compare", "hit-rate shootout: every cache policy on one workload", _EXPERIMENTS),
    ("anonymize", "anonymize a stored trace (keyed hash or enumeration)", _TRACES),
    ("generate", "synthesize a workload trace to a file", _TRACES),
    ("inspect", "summarize a stored trace file", _TRACES),
    (
        "serve",
        "host an aggregating server cache behind a JSON-over-HTTP "
        "API, configured by a scenario file",
        _SERVE,
    ),
    (
        "slam",
        "replay a trace against a running daemon from N worker "
        "processes; report latency percentiles and served hit ratio",
        _SERVE,
    ),
    (
        "spans",
        "merge client and server repro.span/1 logs into one "
        "correlated timeline; latency breakdown + Chrome trace",
        _SERVE,
    ),
    ("trace", "columnar binary trace tooling (pack / info)", _TRACES),
)


def add_common_options(parser: argparse.ArgumentParser, workload_default: str = "") -> None:
    """``--workload``, ``--events`` and ``--seed`` for a workload subcommand."""
    from .experiments.common import DEFAULT_EVENTS
    from .workloads.synthetic import WORKLOADS

    if workload_default:
        parser.add_argument(
            "--workload",
            default=workload_default,
            choices=sorted(WORKLOADS),
            help=f"workload to replay (default: {workload_default})",
        )
    parser.add_argument(
        "--events",
        type=int,
        default=DEFAULT_EVENTS,
        help=f"trace length in accesses (default: {DEFAULT_EVENTS})",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: per-workload)"
    )


def add_replay_options(
    parser: argparse.ArgumentParser, client_option: str = "--client-capacity"
) -> None:
    """The workload and system options of a command that replays one
    workload through :func:`system_for` (``explain`` spells the client
    capacity ``--cache-size``)."""
    add_common_options(parser, workload_default="server")
    parser.add_argument(
        client_option, type=int, default=250, help="client cache capacity"
    )
    parser.add_argument(
        "--server-capacity", type=int, default=300, help="server cache capacity"
    )
    parser.add_argument(
        "--group-size", type=int, default=5, help="aggregating group size g"
    )


def add_poll_options(
    parser: argparse.ArgumentParser,
    mode: str,
    duration: Optional[float],
    duration_help: str,
) -> None:
    """``--duration``, ``--poll`` and ``--timeout`` of the live-daemon
    mode that the ``mode`` option selects."""
    parser.add_argument(
        "--duration", type=float, default=duration, help=f"{mode}: {duration_help}"
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help=f"{mode}: seconds between /stats polls (default: 0.5)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help=f"{mode}: per-poll socket timeout in seconds",
    )


def trace_for(args: argparse.Namespace):
    """The workload trace that ``--workload``/``--events``/``--seed`` name."""
    from .workloads.synthetic import make_workload

    return make_workload(args.workload, args.events, args.seed)


def system_for(args: argparse.Namespace, client_capacity: int):
    """A fresh distributed system with the replay options' geometry."""
    from .sim.engine import DistributedFileSystem

    return DistributedFileSystem(
        client_capacity=client_capacity,
        server_capacity=args.server_capacity,
        group_size=args.group_size,
    )


def throughput_line(events: int, seconds: float) -> str:
    """The ``throughput:`` line for ``events`` replayed in ``seconds``."""
    rate = events / seconds if seconds > 0 else 0.0
    return f"throughput: {events:,} events in {seconds:.2f}s ({rate:,.0f} events/s)"


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, registered by name and help text alone.

    ``declare`` adds its options and handler; it runs when the
    subcommand is parsed or its help or usage printed, so a command
    imports its own front end and no other.
    """

    def __init__(
        self,
        *args: Any,
        declare: Optional[Callable[[argparse.ArgumentParser], None]] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._declare = declare

    def declare(self) -> "_Subcommand":
        """Declare the options, once; returns the parser."""
        declare, self._declare = self._declare, None
        if declare is not None:
            declare(self)
        return self

    def parse_known_args(self, args=None, namespace=None):
        self.declare()
        return super().parse_known_args(args, namespace)

    def format_usage(self) -> str:
        self.declare()
        return super().format_usage()

    def format_help(self) -> str:
        self.declare()
        return super().format_help()


class _Root(argparse.ArgumentParser):
    """The ``repro`` parser.

    The figure subcommands come from the evaluation table, so they join
    the fixed :data:`COMMANDS`, ahead of them, only when a name outside
    :data:`COMMANDS` is parsed or the subcommands are listed (help,
    usage, errors): a fixed subcommand never imports the experiments.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.commands = self.add_subparsers(
            dest="command", required=True, parser_class=_Subcommand
        )
        self._figures_added = False

    def _add_figures(self) -> None:
        if self._figures_added:
            return
        self._figures_added = True
        from .experiments.studies import STUDIES

        # add_parser appends, but the figure subcommands come first: move
        # the fixed ones behind them.
        parsers, listed = self.commands.choices, self.commands._choices_actions
        fixed = dict(parsers), list(listed)
        parsers.clear()
        listed.clear()
        for study in STUDIES:
            if study.command:
                self.commands.add_parser(
                    study.command, help=study.help, declare=partial(_figure_options, study)
                )
        parsers.update(fixed[0])
        listed.extend(fixed[1])

    def _check_value(self, action: argparse.Action, value: Any) -> None:
        # argparse checks a subcommand name here, before dispatching it.
        if action is self.commands and value not in action.choices:
            self._add_figures()
        super()._check_value(action, value)

    def format_usage(self) -> str:
        self._add_figures()
        return super().format_usage()

    def format_help(self) -> str:
        self._add_figures()
        return super().format_help()

    def declare(self) -> "_Root":
        """Add every subcommand and declare all their options; returns
        the parser (for tools that walk the whole command line)."""
        self._add_figures()
        for parser in self.commands.choices.values():
            parser.declare()
        return self


def _front_end_options(front_end: str, name: str, parser: argparse.ArgumentParser) -> None:
    load(front_end).OPTIONS[name](parser)


def _figure_options(study, parser: argparse.ArgumentParser) -> None:
    load(_EXPERIMENTS).figure_options(study, parser)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests).

    Subcommands declare their options on first use; ``declare()`` on
    the result declares every one.
    """
    parser = _Root(
        prog="repro",
        description=(
            "Reproduce 'Group-Based Management of Distributed File Caches' "
            "(ICDCS 2002): figures, headline claims, and workload tooling."
        ),
    )
    for name, help_text, front_end in COMMANDS:
        parser.commands.add_parser(
            name, help=help_text, declare=partial(_front_end_options, front_end, name)
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that left raises here, not at exit
        return code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader left (``repro fig3 | head``; sockets wrap their
        # own): silence the exit-time flush, exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
