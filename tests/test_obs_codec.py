"""The ``repro.*`` JSONL codec and the Prometheus exposition (``repro.obs.export``).

Every loader must either load a file or raise
:class:`ObservabilityError` — never a raw Python exception — and every
writer's output must load back unchanged.  The malformed lines below
are regressions; the hypothesis tests fuzz the same boundary.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import (
    MetricsRegistry,
    ObservabilityError,
    SpanBuffer,
    WindowedCollector,
    WindowSample,
    load_jsonl,
    load_spans_jsonl,
    load_trace_jsonl,
    load_ts_jsonl,
    write_jsonl,
    write_spans_jsonl,
    write_trace_jsonl,
    write_ts_jsonl,
)
from repro.obs.export import exposition
from repro.obs.tracing import FlightRecorder

#: schema -> (loader, one valid non-meta record of that schema).
LOADERS = {
    "repro.obs/1": (load_jsonl, {"kind": "counter", "name": "c", "value": 1}),
    "repro.ts/1": (load_ts_jsonl, WindowSample(events=1, hits=1).to_dict()),
    "repro.trace/1": (
        load_trace_jsonl,
        {"kind": "open", "seq": 1, "component": "c", "file": "f", "hit": True, "resident": 1},
    ),
    "repro.span/1": (
        load_spans_jsonl,
        {
            "kind": "span",
            "trace": "t",
            "span": "s",
            "parent": None,
            "name": "n",
            "span_kind": "client",
            "process": "p",
            "tid": 1,
            "start_ns": 0,
            "duration_ns": 1,
            "annotations": {},
        },
    ),
}


def _write(path: Path, schema: str, lines) -> None:
    meta = json.dumps({"kind": "meta", "schema": schema})
    path.write_text("\n".join([meta, *lines]) + "\n", encoding="utf-8")


def _mutated(schema: str, **fields) -> str:
    return json.dumps({**LOADERS[schema][1], **fields})


def test_exposition_pins_help_type_order_number_format_and_eof():
    text = exposition(
        [
            ("a_total", "counter", "Things counted", 12),
            ("b_ratio", "gauge", "A ratio", 2 / 3),
            ("c_big", "gauge", "A big float", 1234567.0),
        ]
    )
    assert text.splitlines() == [
        "# HELP a_total Things counted.",
        "# TYPE a_total counter",
        "a_total 12",
        "# HELP b_ratio A ratio.",
        "# TYPE b_ratio gauge",
        "b_ratio 0.666667",
        "# HELP c_big A big float.",
        "# TYPE c_big gauge",
        "c_big 1.23457e+06",
        "# EOF",
    ]
    assert text.endswith("# EOF\n")
    assert exposition([]) == "# EOF\n"


MALFORMED = [
    *[
        pytest.param(schema, line, id=f"{schema.split('/')[0]}-{name}")
        for schema in sorted(LOADERS)
        for name, line in (("list", "[1,2]"), ("number", "42"), ("null", "null"))
    ],
    pytest.param(
        "repro.obs/1", '{"kind": "counter", "name": "c"}', id="counter-without-value"
    ),
    pytest.param("repro.ts/1", _mutated("repro.ts/1", evictions="x"), id="evictions-str"),
    pytest.param("repro.ts/1", _mutated("repro.ts/1", seconds=None), id="seconds-null"),
    pytest.param(
        "repro.ts/1", _mutated("repro.ts/1", index=float("inf")), id="index-infinity"
    ),
    pytest.param("repro.ts/1", _mutated("repro.ts/1", index=float("nan")), id="index-nan"),
    pytest.param("repro.trace/1", _mutated("repro.trace/1", kind=[1]), id="kind-list"),
]


@pytest.mark.parametrize("schema,line", MALFORMED)
def test_malformed_line_raises_observability_error(tmp_path, schema, line):
    path = tmp_path / "bad.jsonl"
    _write(path, schema, [line])
    loader = LOADERS[schema][0]
    with pytest.raises(ObservabilityError, match=r"bad\.jsonl:2: "):
        loader(path)


@pytest.mark.parametrize("schema", sorted(LOADERS))
def test_valid_record_loads(tmp_path, schema):
    path = tmp_path / "good.jsonl"
    loader, record = LOADERS[schema]
    _write(path, schema, [json.dumps(record)])
    assert loader(path)["meta"] == {}


def test_non_utf8_file_is_rejected(tmp_path):
    path = tmp_path / "binary.jsonl"
    path.write_bytes(b'{"kind": "meta", "schema": "repro.ts/1"}\n\xff\xfe\n')
    with pytest.raises(ObservabilityError, match="not UTF-8"):
        load_ts_jsonl(path)


def test_drift_on_malformed_file_is_an_error_not_a_traceback(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    _write(path, "repro.ts/1", ["[1,2]"])
    assert main(["drift", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


# -- hypothesis fuzz at the codec boundary -----------------------------------


def _json_values(nan: bool):
    """Nested JSON values with huge integers; ``NaN``/``Infinity`` if ``nan``."""
    return st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.sampled_from([10**400, -(10**400)])
        | st.floats(allow_nan=nan, allow_infinity=nan)
        | st.text(max_size=8),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=8), children, max_size=3),
        max_leaves=8,
    )


JSON_VALUES = _json_values(nan=True)


def _line(schema: str):
    """One line: an own-kind record with a field replaced (and maybe one
    dropped), any JSON value, or random text."""
    base = LOADERS[schema][1]
    keys = st.sampled_from(sorted(base))

    def mutate(edit):
        replaced, value, dropped = edit
        record = {**base, replaced: value}
        record.pop(dropped, None)
        return json.dumps(record)

    mutated = st.tuples(keys, JSON_VALUES, st.none() | keys).map(mutate)
    return mutated | JSON_VALUES.map(json.dumps) | st.text(max_size=40)


@pytest.mark.parametrize("schema", sorted(LOADERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzz_loader_loads_or_raises_observability_error(schema, data):
    lines = data.draw(st.lists(_line(schema), min_size=1, max_size=2), label="lines")
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "fuzz.jsonl"
        _write(path, schema, lines)
        try:
            LOADERS[schema][0](path)
        except ObservabilityError:
            pass


# -- writer round trips -------------------------------------------------------

NAMES = st.text(min_size=1, max_size=12)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
COUNTS = st.integers(min_value=0, max_value=10**12)
#: Round trips compare values, and NaN never equals itself.
COMPARABLE = _json_values(nan=False)
META = st.dictionaries(st.sampled_from(["workload", "seed", "note"]), COMPARABLE, max_size=2)


def _round_trip(write, load, subject, meta):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "out" / "export.jsonl"
        lines = write(subject, path, meta=meta)
        assert len(path.read_text(encoding="utf-8").splitlines()) == lines
        return load(path)


@settings(max_examples=25, deadline=None)
@given(
    counters=st.dictionaries(NAMES, COUNTS, max_size=4),
    gauges=st.dictionaries(NAMES, FINITE, max_size=4),
    observed=st.dictionaries(NAMES, st.lists(COUNTS, max_size=4), max_size=3),
    meta=META,
)
def test_snapshot_writer_round_trips(counters, gauges, observed, meta):
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.counter("c." + name).inc(value)
    for name, value in gauges.items():
        registry.gauge("g." + name).set(value)
    for name, values in observed.items():
        for value in values:
            registry.histogram("h." + name).observe(value)
    loaded = _round_trip(write_jsonl, load_jsonl, registry, meta)
    expected = registry.snapshot()
    for summary in expected["histograms"].values():
        del summary["kind"], summary["name"]
    assert loaded == {"meta": meta, **expected}


@settings(max_examples=25, deadline=None)
@given(
    samples=st.lists(
        st.builds(
            WindowSample,
            source=st.sampled_from(["replay", "sweep", "serve"]),
            index=COUNTS,
            start=COUNTS,
            events=COUNTS,
            seconds=FINITE,
            hits=COUNTS,
            misses=COUNTS,
            store_fetches=COUNTS,
            evictions=COUNTS,
            entropy=st.none() | FINITE,
            label=st.text(max_size=12),
        ),
        max_size=5,
    ),
    meta=META,
)
def test_timeseries_writer_round_trips(samples, meta):
    collector = WindowedCollector(window=7)
    for sample in samples:
        collector.append(sample)
    loaded = _round_trip(write_ts_jsonl, load_ts_jsonl, collector, meta)
    assert loaded["samples"] == samples
    assert loaded["meta"]["samples"] == len(samples)


@settings(max_examples=25, deadline=None)
@given(
    opens=st.lists(st.tuples(NAMES, NAMES, st.booleans(), COUNTS), max_size=6),
    meta=META,
)
def test_trace_writer_round_trips(opens, meta):
    recorder = FlightRecorder(capacity=4)
    for component, file_id, hit, resident in opens:
        recorder.open(component, file_id, hit, resident)
        if not hit:
            recorder.demand_fetch(component, file_id)
    loaded = _round_trip(write_trace_jsonl, load_trace_jsonl, recorder, meta)
    assert loaded["records"] == recorder.records()
    assert loaded["meta"]["retained"] == len(recorder)


@settings(max_examples=25, deadline=None)
@given(
    spans=st.lists(
        st.tuples(
            NAMES,
            st.sampled_from(["client", "server", "internal"]),
            st.dictionaries(st.text(max_size=8), COMPARABLE, max_size=3),
        ),
        max_size=4,
    ),
    meta=META,
)
def test_span_writer_round_trips(spans, meta):
    buffer = SpanBuffer(process="fuzz")
    for name, kind, annotations in spans:
        with buffer.start_span(name, kind=kind) as span:
            for key, value in annotations.items():
                span.annotate(key, value)
    loaded = _round_trip(write_spans_jsonl, load_spans_jsonl, buffer, meta)
    assert loaded["spans"] == buffer.records()
