"""sweep-fig3: ``run_fig3(workload="server", events=120_000, workers=1)``.

The paper's Figure 3 grid (8 capacities x g in {1,2,3,5,7,10}, 48
points) run serially.  It is the only workload through
``AggregatingClientCache.replay`` over integer codes, the loop behind
every figure; the g=1 points skip grouping entirely.  Each timed slice
is one whole grid; ``events_per_s`` is the grid's events over the sum of
each point's low-quantile time across the run's grids, scaled to the
nominal host (:mod:`drift`).

The sweep sends no requests; its ``fetch_*`` and ``invalidate_*``
restate ``events_per_s`` at request size (:func:`plan.restated_latencies`).
"""

from __future__ import annotations

import time
from typing import Dict, List

from drift import low_quantile
from inputs import cold_setup
from layers import LayerClock, obs_grouping, patched
from measure import Outcome, peak_rss_mb, per_kevent, reset_peak_rss
from plan import restated_latencies

WORKLOAD = "server"
#: Twice the figure default of 60k events: across seeds, the grid's
#: demand and store fetches per kevent spread over 0.15-0.2 of their
#: median at 60k and 0.09-0.10 at 120k.
EVENTS = 120_000
SUCCESSOR_CAPACITY = 8

#: Layer key of the reference slices run between grid points.
REFERENCE_KEY = "drift.reference"

#: Grid points re-checked against per-event ``AggregatingClientCache.access()``:
#: the LRU corner, the paper's g=5, and the largest group at the largest cache.
ORACLE_POINTS = ((1, 100), (5, 400), (10, 800))

#: Per-layer metrics of layers the sweep does not run through; they read 0.
UNMEASURED_LAYERS = (
    "sim.kernel.client_runs_s",
    "sim.kernel.import_s",
    "sim.kernel.replay_s",
    "sim.kernel.export_s",
    "sim.kernel.segments_per_kevent",
    "sim.engine.dispatch_s",
    "core.successors.metadata_entries",
    "caching.client_evictions_per_kevent",
    "caching.client_installs_per_kevent",
    "caching.server_hit_ratio",
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


def _grid(seed: int, progress=None):
    """One Figure 3 grid; ``progress`` is called as each point starts."""
    from repro.experiments import fig3

    return fig3.run_fig3(
        workload=WORKLOAD, events=EVENTS, seed=seed, workers=1, progress=progress
    )


def _points(figure) -> Dict[tuple, float]:
    """``(group_size, capacity) -> demand fetches`` of a Figure 3 result."""
    out = {}
    for series in figure.series:
        group_size = 1 if series.label == "lru" else int(series.label[1:])
        for capacity, fetches in series.points:
            out[(group_size, int(capacity))] = int(fetches)
    return out


def _reference_fetches(codes, group_size: int, capacity: int) -> int:
    """The oracle: per-event ``AggregatingClientCache.access()``."""
    from repro.core.aggregating_cache import AggregatingClientCache

    cache = AggregatingClientCache(
        capacity=capacity,
        group_size=group_size,
        successor_capacity=SUCCESSOR_CAPACITY,
    )
    access = cache.access
    for code in codes:
        access(code)
    return cache.demand_fetches


def _grids(ctx, seconds, expected, clock=None):
    """Whole grids for ``seconds``.

    Returns raw per-point times, raw layer samples, mismatches and the
    phase's raw-to-nominal scale.  The sweep's own progress callback,
    which fires as each point starts, marks where each point began and
    ended and runs a reference slice between every two points;
    ``point_times[i][g]`` (point ``i`` in grid ``g``) excludes it.
    """
    point_times: List[List[float]] = [[] for _ in expected]
    layer_samples: Dict[str, List[float]] = {}
    mismatches = 0
    reference = ctx.meter.reference
    if clock is not None:
        # Timed as its own key, so it is not counted as sweep overhead.
        reference = clock.wrap(reference, REFERENCE_KEY)
    deadline = time.perf_counter() + seconds
    since = ctx.meter.phase()
    while not point_times[0] or time.perf_counter() < deadline:
        starts: List[float] = []
        ends: List[float] = []

        def between_points(*_point):
            if starts:
                ends.append(time.perf_counter())
                reference()
            starts.append(time.perf_counter())

        def work():
            figure = _grid(ctx.seed, between_points)
            ends.append(time.perf_counter())
            return figure

        figure, _raw = ctx.meter.measure(work)
        mismatches += _points(figure) != expected
        for index, (began, ended) in enumerate(zip(starts, ends)):
            point_times[index].append(ended - began)
        if clock is not None:
            taken = clock.take()
            taken.pop(REFERENCE_KEY)
            for key, value in taken.items():
                layer_samples.setdefault(key, []).append(value)
    return point_times, layer_samples, mismatches, ctx.meter.scale(since)


def _grid_seconds(point_times) -> float:
    """Raw seconds of one grid with every point at its low-quantile time."""
    return sum(low_quantile(times) for times in point_times)


def _replay_key(cache, *_args, **_kwargs) -> str:
    if cache.group_size == 1:
        return "core.aggregating_cache.replay_g1_s"
    return "core.aggregating_cache.replay_grouped_s"


def _counted_grid(seed: int):
    """One grid under ``repro.obs.collecting()``; returns the figure and snapshot."""
    from repro import obs

    with obs.collecting() as registry:
        figure = _grid(seed)
    return figure, registry.snapshot()


def run(ctx) -> Outcome:
    from repro.core.aggregating_cache import AggregatingClientCache
    from repro.experiments import fig3
    from repro.experiments.common import workload_codes

    setup = cold_setup(ctx, WORKLOAD, EVENTS)
    # Memoize the integer codes the sweep replays before timing, as a
    # figure command's prewarm does.
    codes = workload_codes(WORKLOAD, EVENTS, ctx.seed)

    figure, snapshot = _counted_grid(ctx.seed)
    expected = _points(figure)
    replayed = len(expected) * EVENTS
    counters = snapshot["counters"]
    fetches = sum(expected.values())

    reset_peak_rss()
    budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    point_times, _none, mismatches, scale = _grids(ctx, budget, expected)
    peak = peak_rss_mb()
    grids = len(point_times[0])
    metrics: Dict[str, float] = {}
    detail = {
        "events": EVENTS,
        "grid_points": len(expected),
        "setup_steps_s": setup.steps,
        "events_per_s_raw": replayed / _grid_seconds(point_times),
        "timed_scale": scale,
    }
    if ctx.trace:
        clock = LayerClock()
        targets = [
            (fig3, "run_fig3", "sim.sweep.overhead_s"),
            (AggregatingClientCache, "replay", _replay_key),
        ]
        with patched(clock.wrap, targets):
            traced_times, samples, traced_mismatches, traced_scale = _grids(
                ctx, budget, expected, clock
            )
        grids += len(traced_times[0])
        mismatches += traced_mismatches
        metrics.update(
            {
                key: low_quantile(values) * traced_scale
                for key, values in samples.items()
            }
        )
        metrics.update(setup.layers)
        metrics.update(obs_grouping(snapshot, replayed, "client_cache.group_fetch.size"))
        metrics["core.aggregating_cache.group_fetches_per_kevent"] = per_kevent(
            counters.get("client_cache.group_fetches", 0), replayed
        )
        metrics["trace.overhead"] = 1.0 - (_grid_seconds(point_times) * scale) / (
            _grid_seconds(traced_times) * traced_scale
        )
    else:
        events_per_s = replayed / (_grid_seconds(point_times) * scale)
        metrics.update(
            {
                "setup_s": setup.seconds,
                "events_per_s": events_per_s,
                "hit_ratio": 1.0 - fetches / replayed,
                "demand_fetches_per_kevent": per_kevent(fetches, replayed),
                "store_fetches_per_kevent": per_kevent(
                    counters.get("client_cache.files_retrieved", 0), replayed
                ),
                "peak_rss_mb": peak,
            }
        )
        metrics.update(restated_latencies(events_per_s))
    oracle = {point: _reference_fetches(codes, *point) for point in ORACLE_POINTS}
    oracle_equal = all(expected[point] == value for point, value in oracle.items())
    counted_equal = counters.get("client_cache.misses", 0) == fetches
    detail.update(
        grids=grids,
        oracle_equal=oracle_equal,
        counters_equal=counted_equal,
        grid_mismatches=mismatches,
    )
    correct = oracle_equal and counted_equal and mismatches == 0
    attempted = grids * len(expected)
    return Outcome(correct, attempted, mismatches * len(expected), metrics, detail)
