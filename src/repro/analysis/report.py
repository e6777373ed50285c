"""Full-evaluation report generation.

``repro report`` regenerates every paper figure plus the extension
studies at a chosen scale and writes one self-contained Markdown
document — charts, tables, and headline claims — so a fresh machine can
produce its own EXPERIMENTS-style record with a single command.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..errors import AnalysisError
from .ascii_chart import render_figure
from .export import figure_to_markdown, rows_to_markdown
from .series import FigureData

#: One report section: title, and a builder returning FigureData.
SectionBuilder = Callable[[], FigureData]


def _figure_section(figure: FigureData, charts: bool) -> str:
    """Render one figure as a report section."""
    parts: List[str] = [f"## {figure.title}", ""]
    if charts:
        parts.append("```")
        parts.append(render_figure(figure))
        parts.append("```")
        parts.append("")
    parts.append(figure_to_markdown(figure, caption=False))
    if figure.notes:
        parts.append("")
        parts.append(f"*{figure.notes}*")
    parts.append("")
    return "\n".join(parts)


def default_sections(events: int) -> List[Tuple[str, SectionBuilder]]:
    """The standard full-evaluation section list at a given scale.

    Imports are deferred so building a custom report does not drag in
    every experiment module.
    """
    from ..experiments import (
        run_adaptation,
        run_attribution,
        run_cooperation,
        run_fig3,
        run_fig4,
        run_fig5,
        run_fig7,
        run_fig8,
        run_hoarding,
        run_peer_caching,
        run_placement,
        run_server_capacity,
    )

    sections: List[Tuple[str, SectionBuilder]] = []
    for workload in ("server", "write"):
        sections.append(
            (f"fig3-{workload}", lambda w=workload: run_fig3(workload=w, events=events))
        )
    for workload in ("workstation", "users", "server"):
        sections.append(
            (f"fig4-{workload}", lambda w=workload: run_fig4(workload=w, events=events))
        )
    for workload in ("workstation", "server"):
        sections.append(
            (f"fig5-{workload}", lambda w=workload: run_fig5(workload=w, events=events))
        )
    sections.append(("fig7", lambda: run_fig7(events=events)))
    for workload in ("write", "users"):
        sections.append(
            (f"fig8-{workload}", lambda w=workload: run_fig8(workload=w, events=events))
        )
    sections.extend(
        [
            ("placement", lambda: run_placement(events=events)),
            ("hoarding", lambda: run_hoarding(events=events)),
            ("cooperation", lambda: run_cooperation(events=events)),
            ("attribution", lambda: run_attribution(events=events)),
            ("adaptation", lambda: run_adaptation(events=events)),
            ("server-capacity", lambda: run_server_capacity(events=events)),
            ("peer-caching", lambda: run_peer_caching(events=events)),
        ]
    )
    return sections


#: Workloads the provenance section traces, in report order.
PROVENANCE_WORKLOADS = ("server", "users", "write", "workstation")


def provenance_rows(
    events: int = 20_000,
    workloads: Sequence[str] = PROVENANCE_WORKLOADS,
    client_capacity: int = 250,
    server_capacity: int = 300,
    group_size: int = 5,
) -> List[List[str]]:
    """Per-workload prefetch-provenance table from traced replays.

    Each workload is replayed through the full distributed system under
    the flight recorder; the per-component provenance tables are summed
    into one row.  Files are whole-file transfers, so the wasted-fetch
    share doubles as the wasted-bytes share.  The ring buffer is kept
    minimal — the provenance accounting is exact regardless of how many
    records the ring retains.
    """
    from ..obs import tracing
    from ..sim.engine import DistributedFileSystem
    from ..workloads.synthetic import make_workload

    rows: List[List[str]] = [
        [
            "workload",
            "opens",
            "hit rate",
            "group installs",
            "prefetch efficiency",
            "wasted-fetch share",
        ]
    ]
    for workload in workloads:
        trace = make_workload(workload, events)
        with tracing.recording(capacity=1) as recorder:
            system = DistributedFileSystem(
                client_capacity=client_capacity,
                server_capacity=server_capacity,
                group_size=group_size,
            )
            system.replay(trace)
        if len(trace) and not sum(recorder.emitted.values()):
            # The recorder saw nothing from a non-empty replay: metric
            # collection was disabled underneath it, so an all-zero row
            # would be a lie.  Dash the row; the section adds a note.
            rows.append([workload, "-", "-", "-", "-", "-"])
            continue
        opens = hits = demand = installs = used = 0
        for summary in recorder.summary():
            opens += summary["opens"]
            hits += summary["hits"]
            demand += summary["demand_fetches"]
            installs += summary["group_installs"]
            used += summary["group_used"]
        shipped = demand + installs
        rows.append(
            [
                workload,
                str(opens),
                f"{hits / opens:.3f}" if opens else "-",
                str(installs),
                f"{used / installs:.3f}" if installs else "-",
                f"{(installs - used) / shipped:.3f}" if shipped else "-",
            ]
        )
    return rows


def _provenance_section(events: int) -> str:
    """The ``--explain`` report section: traced prefetch provenance."""
    rows = provenance_rows(events=events)
    parts = [
        "## Prefetch provenance (traced replays)",
        "",
        "Each workload replayed through the full client/server system "
        "under the decision-trace flight recorder (`repro explain`).  "
        "Prefetch efficiency is the fraction of group-fetched files "
        "demanded before eviction; the wasted-fetch share counts unused "
        "prefetches against everything shipped — with whole-file "
        "transfers this is the wasted-bytes share.",
        "",
        rows_to_markdown(rows),
        "",
    ]
    if any(row[1] == "-" for row in rows[1:]):
        parts.append(
            "*Dashed rows: metric collection was disabled during the "
            "traced replay, so no provenance was recorded for that "
            "workload — re-run with observability enabled.*"
        )
        parts.append("")
    return "\n".join(parts)


def workload_drift_rows(
    events: int = 20_000,
    workloads: Sequence[str] = PROVENANCE_WORKLOADS,
    window: int = 1000,
    client_capacity: int = 250,
    server_capacity: int = 300,
    group_size: int = 5,
    history: int = 8,
    threshold: float = 4.0,
) -> List[List[str]]:
    """Per-workload drift-alert table from windowed replays.

    Each workload is replayed with windowed telemetry on, the hit-ratio
    and entropy series run through :func:`repro.analysis.drift.detect_drift`,
    and every alert becomes a row.  A workload with no alerts gets one
    ``steady`` row — the expected answer for the stationary synthetic
    catalog, and the baseline against which a flagged production trace
    stands out.
    """
    from ..obs import windowing
    from ..sim.engine import DistributedFileSystem
    from ..workloads.synthetic import make_workload
    from .drift import detect_drift

    rows: List[List[str]] = [
        ["workload", "windows", "metric", "window", "event", "shift", "z"]
    ]
    for workload in workloads:
        trace = make_workload(workload, events)
        system = DistributedFileSystem(
            client_capacity=client_capacity,
            server_capacity=server_capacity,
            group_size=group_size,
        )
        with windowing(window=window) as collector:
            system.replay(trace)
        windows = str(len(collector.samples))
        alerts = detect_drift(
            collector.samples, history=history, threshold=threshold
        )
        if not alerts:
            rows.append([workload, windows, "-", "-", "-", "steady", "-"])
            continue
        for alert in alerts:
            rows.append(
                [
                    workload,
                    windows,
                    alert.metric,
                    str(alert.index),
                    str(alert.start),
                    alert.direction,
                    f"{alert.zscore:+.1f}",
                ]
            )
    return rows


def _drift_section(events: int) -> str:
    """The ``--drift`` report section: per-workload change points."""
    parts = [
        "## Workload drift (windowed telemetry)",
        "",
        "Each workload replayed with windowed time-series telemetry "
        "(`repro.obs.windowing`); the hit-ratio and successor-entropy "
        "series are scanned by the rolling-mean/EWMA z-score detector "
        "(`repro drift`).  `steady` means no change point crossed the "
        "threshold — the expected answer for the stationary synthetic "
        "catalog; alerts are event-indexed so a flagged window can be "
        "cross-examined with `repro explain`.",
        "",
        rows_to_markdown(workload_drift_rows(events=events)),
        "",
    ]
    return "\n".join(parts)


def engine_path_rows(events: int) -> List[List[str]]:
    """Which replay loop the engine's dispatch selects per input form.

    Replays the reference workload under metric collection once as an
    event trace and once as a columnar trace, then reads back the
    ``engine.replay.path.*`` counters.  Deterministic: the rows carry
    the dispatch choice and the event count, not wall clock — the
    benchmark gate owns throughput numbers.
    """
    from ..obs import collecting
    from ..sim.engine import DistributedFileSystem
    from ..traces.columnar import ColumnarTrace
    from ..workloads.synthetic import make_workload

    trace = make_workload("server", events)
    rows: List[List[str]] = [["input form", "replay path", "events"]]
    for label, payload in (
        ("event trace", trace),
        ("columnar trace", ColumnarTrace.from_trace(trace)),
    ):
        with collecting() as registry:
            DistributedFileSystem(
                client_capacity=250, server_capacity=300, group_size=5
            ).replay(payload)
        counters = registry.snapshot()["counters"]
        prefix = "engine.replay.path."
        paths = sorted(
            name[len(prefix):] for name in counters if name.startswith(prefix)
        )
        rows.append([label, ", ".join(paths) or "-", str(len(payload))])
    return rows


def _engine_section(events: int) -> str:
    """Report section: the replay paths actually taken at this scale."""
    return (
        "## Replay engine paths\n\n"
        "The fused loop the engine's dispatch selected for each input "
        "form of the reference workload, from the "
        "`engine.replay.path.*` counters.  `kernel_v2` is the "
        "array-backed eviction core (columnar traces of any length); "
        "`fast` is the string-keyed fused loop for event traces.  "
        "Throughput is gated separately by `make bench-check`.\n\n"
        + rows_to_markdown(engine_path_rows(events)) + "\n"
    )


def build_report(
    events: int = 20_000,
    charts: bool = True,
    sections: Optional[Sequence[Tuple[str, SectionBuilder]]] = None,
    progress: Optional[Callable[[str], None]] = None,
    explain: bool = False,
    drift: bool = False,
) -> str:
    """Regenerate the evaluation and return the Markdown text.

    ``sections`` overrides the standard list (pairs of id + builder);
    ``progress`` receives each section id as it starts; ``explain``
    appends the traced prefetch-provenance section; ``drift`` appends
    the per-workload change-point section from windowed telemetry.
    """
    if events <= 0:
        raise AnalysisError(f"events must be positive, got {events}")
    chosen = list(sections) if sections is not None else default_sections(events)
    buffer = io.StringIO()
    buffer.write("# Full evaluation report\n\n")
    buffer.write(
        "Regenerated from scratch by `repro report`: every paper figure "
        "plus the Section 6 extension studies, at "
        f"{events} events per workload.  All numbers are deterministic "
        "for this scale and the default seeds.\n\n"
    )

    from ..experiments import run_headline

    if progress is not None:
        progress("headline")
    headline = run_headline(events=events)
    buffer.write("## Headline claims\n\n")
    buffer.write(rows_to_markdown(headline.to_rows()))
    buffer.write("\n\n")

    if progress is not None:
        progress("engine-paths")
    buffer.write(_engine_section(events))
    buffer.write("\n")

    for section_id, builder in chosen:
        if progress is not None:
            progress(section_id)
        figure = builder()
        buffer.write(_figure_section(figure, charts))
        buffer.write("\n")
    if explain:
        if progress is not None:
            progress("provenance")
        buffer.write(_provenance_section(events))
        buffer.write("\n")
    if drift:
        if progress is not None:
            progress("drift")
        buffer.write(_drift_section(events))
        buffer.write("\n")
    return buffer.getvalue()


def write_report(
    destination: Union[str, Path],
    events: int = 20_000,
    charts: bool = True,
    sections: Optional[Sequence[Tuple[str, SectionBuilder]]] = None,
    progress: Optional[Callable[[str], None]] = None,
    explain: bool = False,
    drift: bool = False,
) -> Path:
    """Build the report and write it to ``destination``; returns the path."""
    path = Path(destination)
    path.write_text(
        build_report(
            events=events,
            charts=charts,
            sections=sections,
            progress=progress,
            explain=explain,
            drift=drift,
        ),
        encoding="utf-8",
    )
    return path
