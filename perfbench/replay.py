"""replay-hit and replay-miss: ``DistributedFileSystem.replay(ColumnarTrace)``.

Both replay a cold system per pass (one client cache per trace client,
a 300-file server cache, g=5, LRU successor lists of 8) through the
engine's public entry point, which dispatches to the array kernel.

* replay-hit: the ``server`` workload, one client, a client cache of
  2,000 files against about 1.9k distinct files at 200k events, so the
  working set fits and the hit ratio is about 0.99.  The kernel's hit
  path does nearly all the work.
* replay-miss: the ``users`` workload, 12 interleaved clients with
  100-file caches against about 1.9k distinct files, so the working set
  is far larger than every cache and the hit ratio is about 0.80.
  Successor observation, group build, install and eviction dominate,
  and per-client segmentation plus state import/export run every pass.

``events_per_s`` is the trace length over the low-quantile pass time,
scaled to the nominal host by the references of the timed passes
(:mod:`drift`).

Replay sends no requests; its ``fetch_*`` and ``invalidate_*`` restate
``events_per_s`` at request size (:func:`plan.restated_latencies`).
"""

from __future__ import annotations

import time
from typing import Dict, List

from drift import low_quantile
from inputs import cold_setup
from layers import LayerClock, obs_grouping, patched
from measure import Outcome, peak_rss_mb, per_kevent, reset_peak_rss
from plan import restated_latencies

SPECS = {
    "replay-hit": {"workload": "server", "events": 200_000, "client_capacity": 2000},
    "replay-miss": {"workload": "users", "events": 200_000, "client_capacity": 100},
}
SERVER_CAPACITY = 300
GROUP_SIZE = 5
SUCCESSOR_CAPACITY = 8

#: Target length of one bracketed slice of passes.
SLICE_S = 0.2

#: Per-layer metrics of layers replay does not run through; they read 0.
UNMEASURED_LAYERS = (
    "core.aggregating_cache.replay_g1_s",
    "core.aggregating_cache.replay_grouped_s",
    "core.aggregating_cache.group_fetches_per_kevent",
    "sim.sweep.overhead_s",
    "serve.server.fetch_p50_ms",
    "serve.server.fetch_p99_ms",
    "serve.fetch.net_queue_p50_ms",
    "serve.fetch.lock_share",
    "serve.fetch.cache_share",
    "serve.fetch.journal_share",
    "serve.fetch.write_share",
    "serve.invalidate.net_queue_p50_ms",
    "serve.invalidate.lock_share",
    "serve.invalidate.cache_share",
    "serve.invalidate.journal_share",
    "serve.invalidate.write_share",
    "serve.client.retries",
    "serve.schema.parse_fetch_us",
    "core.aggregating_cache.server_access_us",
    "core.aggregating_cache.prefetch_efficiency",
    "core.aggregating_cache.mean_group_size",
    "core.aggregating_cache.evictions_per_kevent",
)


def new_system(client_capacity: int):
    from repro.sim.engine import DistributedFileSystem

    return DistributedFileSystem(
        client_capacity,
        SERVER_CAPACITY,
        GROUP_SIZE,
        successor_capacity=SUCCESSOR_CAPACITY,
    )


def reference_metrics(ctrace, client_capacity: int):
    """The oracle: per-event ``DistributedFileSystem.access()`` over the trace."""
    system = new_system(client_capacity)
    access = system.access
    for event in ctrace.iter_events():
        access(event.client_id or "client00", event.file_id)
    return system.metrics()


def _kernel_targets():
    from repro.sim import engine, kernel

    return [
        (engine.DistributedFileSystem, "replay", "sim.engine.dispatch_s"),
        (kernel, "v2_import", "sim.kernel.import_s"),
        (kernel, "replay_columns_v2", "sim.kernel.replay_s"),
        (kernel, "client_runs", "sim.kernel.client_runs_s"),
        (kernel.V2ReplayState, "export", "sim.kernel.export_s"),
    ]


def _passes(ctx, ctrace, capacity, per_slice, seconds, expected, clock=None):
    """Replay passes for ``seconds``.

    Returns raw pass times, raw layer samples, mismatches and the phase's
    raw-to-nominal scale.
    """
    times: List[float] = []
    layer_samples: Dict[str, List[float]] = {}
    mismatches = 0

    def work():
        out = []
        for _ in range(per_slice):
            start = time.perf_counter()
            metrics = new_system(capacity).replay(ctrace)
            elapsed = time.perf_counter() - start
            out.append((elapsed, metrics, clock.take() if clock else {}))
        return out

    deadline = time.perf_counter() + seconds
    since = ctx.meter.phase()
    while not times or time.perf_counter() < deadline:
        timed, _raw = ctx.meter.measure(work)
        for elapsed, metrics, taken in timed:
            times.append(elapsed)
            mismatches += metrics != expected
            for key, value in taken.items():
                layer_samples.setdefault(key, []).append(value)
    return times, layer_samples, mismatches, ctx.meter.scale(since)


def _counter_layers(ctrace, capacity: int, first):
    """One replay under ``repro.obs.collecting()``: grouping and cache counts.

    Returns the metrics and whether the counted replay matched ``first``.
    """
    from repro import obs
    from repro.sim.kernel import client_runs

    n = len(ctrace)
    with obs.collecting() as registry:
        metrics = new_system(capacity).replay(ctrace)
    clients = metrics.client_stats.values()
    server = metrics.server_stats
    out = obs_grouping(registry.snapshot(), n, "engine.group_fetch.size")
    out.update(
        {
            "sim.kernel.segments_per_kevent": per_kevent(len(client_runs(ctrace)), n),
            "core.successors.metadata_entries": metrics.metadata_entries,
            "caching.client_evictions_per_kevent": per_kevent(
                sum(stats.evictions for stats in clients), n
            ),
            "caching.client_installs_per_kevent": per_kevent(
                sum(stats.installs for stats in clients), n
            ),
            "caching.server_hit_ratio": server.hits / (server.hits + server.misses),
        }
    )
    return out, metrics == first


def run(ctx) -> Outcome:
    spec = SPECS[ctx.workload]
    capacity = spec["client_capacity"]
    setup = cold_setup(ctx, spec["workload"], spec["events"])
    ctrace = setup.ctrace
    n = len(ctrace)
    start = time.perf_counter()
    first = new_system(capacity).replay(ctrace)
    per_slice = max(1, round(SLICE_S / (time.perf_counter() - start)))

    reset_peak_rss()
    budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    times, _none, mismatches, scale = _passes(
        ctx, ctrace, capacity, per_slice, budget, first
    )
    peak = peak_rss_mb()
    attempted = len(times)
    metrics: Dict[str, float] = {}
    detail = {
        "events": n,
        "passes": len(times),
        "passes_per_slice": per_slice,
        "setup_steps_s": setup.steps,
        "events_per_s_raw": n / low_quantile(times),
        "timed_scale": scale,
    }
    if ctx.trace:
        clock = LayerClock()
        with patched(clock.wrap, _kernel_targets()):
            traced, samples, traced_mismatches, traced_scale = _passes(
                ctx, ctrace, capacity, per_slice, budget, first, clock
            )
        attempted += len(traced)
        mismatches += traced_mismatches
        counted, same = _counter_layers(ctrace, capacity, first)
        mismatches += not same
        metrics.update(
            {
                key: low_quantile(values) * traced_scale
                for key, values in samples.items()
            }
        )
        metrics.update(setup.layers)
        metrics.update(counted)
        metrics["trace.overhead"] = 1.0 - (low_quantile(times) * scale) / (
            low_quantile(traced) * traced_scale
        )
    else:
        events_per_s = n / (low_quantile(times) * scale)
        metrics.update(
            {
                "setup_s": setup.seconds,
                "events_per_s": events_per_s,
                "hit_ratio": first.mean_client_hit_rate,
                "demand_fetches_per_kevent": per_kevent(first.remote_requests, n),
                "store_fetches_per_kevent": per_kevent(first.store_fetches, n),
                "peak_rss_mb": peak,
            }
        )
        metrics.update(restated_latencies(events_per_s))
    oracle_equal = reference_metrics(ctrace, capacity) == first
    detail.update(oracle_equal=oracle_equal, pass_mismatches=mismatches)
    correct = oracle_equal and mismatches == 0
    return Outcome(correct, attempted, mismatches, metrics, detail)
