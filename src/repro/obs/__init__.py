"""repro.obs — lightweight observability for the replay machinery.

A process-local :class:`~repro.obs.registry.MetricsRegistry` of
counters, gauges, and histograms (with ns-precision timers), a
module-level enable flag that keeps disabled runs allocation-free, and
JSONL snapshot export.  The hot components — the aggregating caches,
successor tracker, group builder, replay engine, and sweep runner —
are instrumented against this package; the ``repro metrics`` CLI
subcommand replays a workload with collection on and exports the
snapshot.

Typical use::

    from repro import obs

    with obs.collecting() as registry:
        system.replay(trace)
    obs.write_jsonl(registry, "results/metrics.jsonl")

The :mod:`~repro.obs.tracing` sibling answers the per-decision
question ("why did this open miss?"): a ring-buffered flight recorder
of typed records with prefetch-provenance accounting, activated with
:func:`recording` and exported as ``repro.trace/1`` JSONL or Chrome
trace-event JSON.

The :mod:`~repro.obs.timeseries` sibling answers the over-time
question ("when did the hit ratio collapse?"): windowed telemetry
streamed during replays and sweeps, activated with :func:`windowing`
and exported as ``repro.ts/1`` JSONL or Prometheus/OpenMetrics text
(optionally served live from a ``/metrics`` endpoint)::

    with obs.windowing(window=2000) as collector:
        system.replay(trace)
    obs.write_ts_jsonl(collector, "results/series.jsonl")

Every JSONL export here, ``repro.span/1`` request spans included, goes
through the one codec in :mod:`~repro.obs.export`; each schema
supplies only its records and a per-record check.  Its ``exposition``
renders both Prometheus pages, the replay telemetry's and the daemon's.
:mod:`~repro.obs.quantiles` holds the one latency :class:`Histogram`
(log-bucketed, mergeable, quantiles within 1%) the registry, the
daemon and the slam driver share.
"""

from .export import (
    SCHEMA,
    TS_SCHEMA,
    load_jsonl,
    snapshot_records,
    write_jsonl,
)
from .live import DEFAULT_POLL_SECONDS, LiveWindow, StatsStream
from .quantiles import percentile
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
    collecting,
    disable,
    enable,
    enabled,
    get_registry,
    set_registry,
)
from .timeseries import (
    MetricsServer,
    WindowedCollector,
    WindowSample,
    get_collector,
    load_ts_jsonl,
    prometheus_text,
    serve_metrics,
    set_collector,
    ts_records,
    windowing,
    write_ts_jsonl,
)
from .spans import (
    SPAN_SCHEMA,
    TRACE_HEADER,
    Span,
    SpanBuffer,
    endpoint_breakdown,
    format_header,
    format_span_tree,
    load_spans_jsonl,
    merge_spans,
    parse_header,
    slowest_traces,
    span_records,
    spans_chrome_trace,
    write_spans_chrome_trace,
    write_spans_jsonl,
)
from .tracing import (
    TRACE_SCHEMA,
    FlightRecorder,
    chrome_payload,
    chrome_trace,
    load_trace_jsonl,
    recording,
    set_recorder,
    trace_records,
    write_chrome_json,
    write_chrome_trace,
    write_trace_jsonl,
)

__all__ = [
    "SCHEMA",
    "SPAN_SCHEMA",
    "TRACE_HEADER",
    "TRACE_SCHEMA",
    "TS_SCHEMA",
    "Span",
    "SpanBuffer",
    "endpoint_breakdown",
    "format_header",
    "format_span_tree",
    "load_spans_jsonl",
    "merge_spans",
    "parse_header",
    "percentile",
    "slowest_traces",
    "span_records",
    "spans_chrome_trace",
    "write_spans_chrome_trace",
    "write_spans_jsonl",
    "chrome_payload",
    "write_chrome_json",
    "DEFAULT_POLL_SECONDS",
    "LiveWindow",
    "StatsStream",
    "MetricsServer",
    "WindowSample",
    "WindowedCollector",
    "get_collector",
    "load_ts_jsonl",
    "prometheus_text",
    "serve_metrics",
    "set_collector",
    "ts_records",
    "windowing",
    "write_ts_jsonl",
    "FlightRecorder",
    "chrome_trace",
    "load_trace_jsonl",
    "recording",
    "set_recorder",
    "trace_records",
    "write_chrome_trace",
    "write_trace_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityError",
    "collecting",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "load_jsonl",
    "set_registry",
    "snapshot_records",
    "write_jsonl",
]
