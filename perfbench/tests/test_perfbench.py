"""Self-tests for the benchmark's own helpers."""

import json
import math

import pytest

import drift
import layers
import measure
import plan
import spread


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- drift normalization -------------------------------------------------------


def test_low_quantile_interpolates():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert drift.low_quantile(values, 0.0) == 1.0
    assert drift.low_quantile(values, 0.5) == 3.0
    assert drift.low_quantile(values, 0.1) == pytest.approx(1.4)
    with pytest.raises(ValueError):
        drift.low_quantile([])


def test_meter_scales_raw_seconds_to_the_nominal_host():
    clock = FakeClock()
    speed = {"slowdown": 1.0}

    def reference():
        clock.now += drift.NOMINAL_SLICE_S * speed["slowdown"]

    def work():
        clock.now += 0.5 * speed["slowdown"]

    for slowdown in (1.0, 2.0, 3.0):
        speed["slowdown"] = slowdown
        meter = drift.DriftMeter(clock=clock, reference=reference)
        _none, raw = meter.measure(work)
        assert raw == pytest.approx(0.5 * slowdown)
        assert raw * meter.scale() == pytest.approx(0.5)
        assert raw * meter.slice_scale() == pytest.approx(0.5)
        assert meter.reference_rate == pytest.approx(1 / (drift.NOMINAL_SLICE_S * slowdown))


def test_bursts_do_not_move_the_reference_time():
    clock = FakeClock()
    times = iter([1.0, 1.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 7.0, 1.0])

    def reference():
        clock.now += next(times)

    meter = drift.DriftMeter(clock=clock, reference=reference)
    for _ in range(10):
        meter.measure(lambda: None)
    assert meter.reference_time() == pytest.approx(1.0)


def test_meter_shares_references_between_slices_until_paused():
    clock = FakeClock()
    calls = []

    def reference():
        calls.append(clock.now)
        clock.now += 0.01

    meter = drift.DriftMeter(clock=clock, reference=reference)
    for _ in range(3):
        meter.measure(lambda: None)
    assert len(calls) == 4
    meter.pause()
    meter.measure(lambda: None)
    assert len(calls) == 6
    assert meter.reference_s == pytest.approx([0.01] * 6)


def test_slice_scale_uses_only_the_references_around_the_last_slice():
    clock = FakeClock()
    durations = iter([1.0, 1.0, 4.0, 1.0])

    def reference():
        clock.now += drift.NOMINAL_SLICE_S * next(durations)

    meter = drift.DriftMeter(clock=clock, reference=reference)
    meter.measure(lambda: None)
    assert meter.slice_scale() == pytest.approx(1.0)
    meter.measure(lambda: None)
    # Bracketed by a nominal and a 4x slow reference: geometric mean 2x.
    assert meter.slice_scale() == pytest.approx(0.5)
    meter.measure(lambda: None)
    assert meter.slice_scale() == pytest.approx(0.5)
    assert meter.scale() == pytest.approx(1.0)


def test_reference_slice_is_deterministic():
    assert drift.reference_slice(5000) == drift.reference_slice(5000)


# -- percentiles and the sample-count rule ---------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert measure.percentile(values, 0.5) == 3.0
    assert measure.percentile(values, 0.0) == 1.0
    assert measure.percentile(values, 1.0) == 5.0
    assert measure.percentile(values, 0.25) == 2.0
    assert measure.percentile([0.0, 10.0], 0.99) == pytest.approx(9.9)
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)
    with pytest.raises(ValueError):
        measure.percentile(values, 1.5)


def test_p99_needs_ten_samples_beyond_it():
    assert measure.samples_beyond(1000, 0.99) == 10
    assert measure.samples_beyond(999, 0.99) == 9
    assert measure.samples_beyond(20, 0.5) == 10
    measure.require_tail(1000, 0.99, "ok")
    with pytest.raises(ValueError, match="p99"):
        measure.require_tail(999, 0.99, "short")


def test_latency_summary_reports_ms_and_count():
    latencies = [i * 1e-6 for i in range(1, 1001)]
    summary = measure.latency_summary(latencies, "test")
    assert summary["samples"] == 1000
    assert summary["p50_ms"] == pytest.approx(0.5005e-3 * 1e3)
    assert summary["p99_ms"] == pytest.approx(measure.percentile(latencies, 0.99) * 1e3)
    with pytest.raises(ValueError):
        measure.latency_summary(latencies[:500], "test")


def test_spread_is_interquartile_distance_over_median():
    values = [float(v) for v in range(1, 11)]
    q1, _q2, q3 = (2.75, 5.5, 8.25)
    assert spread.spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert spread.seed_list("3-5") == [3, 4, 5]
    assert spread.seed_list("2,9") == [2, 9]


# -- failure classification ---------------------------------------------------------


@pytest.mark.parametrize(
    "path,status,error,expected",
    [
        ("/fetch", 200, False, measure.OK),
        ("/invalidate", 200, False, measure.OK),
        ("/invalidate", 404, False, measure.NOT_RESIDENT),
        ("/fetch", 404, False, measure.FAILED),
        ("/invalidate", 400, False, measure.FAILED),
        ("/fetch", 413, False, measure.FAILED),
        ("/fetch", 500, False, measure.FAILED),
        ("/invalidate", 503, False, measure.FAILED),
        ("/fetch", 0, True, measure.FAILED),
        ("/invalidate", 200, True, measure.FAILED),
    ],
)
def test_classify(path, status, error, expected):
    assert measure.classify(path, status, error) == expected


# -- request plans -------------------------------------------------------------------


def test_request_plan_batches_per_client_and_flushes_on_mutation():
    open_, write = 0, 2
    # Client 0 fills a whole batch, then client 1 opens twice and writes.
    clients = [0] * plan.BATCH + [1, 1, 1, 0]
    files = [f"a{i}" for i in range(plan.BATCH)] + ["b", "c", "d", "e"]
    kinds = [open_] * (plan.BATCH + 2) + [write, open_]
    requests = plan.request_plan(clients, files, kinds, {write})
    assert requests == [
        (0, plan.FETCH, tuple(files[: plan.BATCH])),
        (1, plan.FETCH, ("b", "c")),
        (1, plan.INVALIDATE, ("d",)),
        (0, plan.FETCH, ("e",)),
    ]


def test_request_plan_covers_every_event_once():
    clients = [i % 3 for i in range(200)]
    files = list(range(200))
    kinds = [2 if i % 7 == 0 else 0 for i in range(200)]
    requests = plan.request_plan(clients, files, kinds, {2})
    sent = sorted(f for _client, _path, batch in requests for f in batch)
    assert sent == files
    assert all(len(batch) <= plan.BATCH for _c, _p, batch in requests)
    assert all(len(batch) == 1 for _c, path, batch in requests if path == plan.INVALIDATE)


def _write_trace(seed, events=3000):
    from repro.traces.columnar import ColumnarTrace
    from repro.workloads import make_workload

    return ColumnarTrace.from_trace(make_workload("write", events, seed))


def test_trace_plans_are_fixed_by_the_seed():
    first, names = plan.trace_plan(_write_trace(5))
    assert plan.trace_plan(_write_trace(5)) == (first, names)
    assert plan.trace_plan(_write_trace(6))[0] != first
    assert len(names) == 2
    paths = {path for _client, path, _files in first}
    assert paths == {plan.FETCH, plan.INVALIDATE}


def test_restated_latencies_move_with_events_per_s():
    latencies = plan.restated_latencies(2000.0)
    assert latencies["invalidate_p50_ms"] == latencies["invalidate_p99_ms"] == 0.5
    assert latencies["fetch_p50_ms"] == latencies["fetch_p99_ms"] == plan.BATCH * 0.5
    assert set(latencies) == {
        name for name in measure.END_TO_END if name.endswith("_ms")
    }


def test_chunks_split_contiguously():
    parts = plan.chunks(list(range(10)), 3)
    assert [list(part) for part in parts] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert len(plan.chunks([1, 2], 5)) == 2


# -- traced-run clock ------------------------------------------------------------------


def test_layer_clock_reports_self_time():
    clock = FakeClock()
    layer_clock = layers.LayerClock(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 0.5

    wrapped_inner = layer_clock.wrap(inner, "inner")
    layer_clock.wrap(outer, lambda: "outer")()
    assert layer_clock.take() == {"inner": 2.0, "outer": 1.5}
    assert layer_clock.take() == {}


def test_patched_wraps_and_restores():
    class Owner:
        def method(self):
            return 1

        @classmethod
        def build(cls):
            return cls

    clock = layers.LayerClock()
    with layers.patched(clock.wrap, [(Owner, "method", "m"), (Owner, "build", "b")]):
        assert Owner().method() == 1
        assert Owner.build() is Owner
    assert set(clock.take()) == {"m", "b"}
    assert "__wrapped__" not in vars(Owner)["method"].__dict__
    assert isinstance(vars(Owner)["build"], classmethod)


# -- the result line ---------------------------------------------------------------------


def test_result_line_shape():
    outcome = measure.Outcome(True, 3, 0, {"a_s": 1.25, "b": 2})
    line = json.loads(measure.result_line(outcome, {"a_s": "s", "b": "count"}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {
        "a_s": {"value": 1.25, "unit": "s"},
        "b": {"value": 2.0, "unit": "count"},
    }


def test_result_line_refuses_missing_or_non_finite_values():
    with pytest.raises(ValueError):
        measure.result_line(measure.Outcome(True, 1, 0, {}), {"a": "s"})
    with pytest.raises(ValueError):
        measure.result_line(measure.Outcome(True, 1, 0, {"a": math.nan}), {"a": "s"})
