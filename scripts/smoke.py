#!/usr/bin/env python
"""The CI smoke checks, one subcommand each.

Run from the repo root (``make smoke`` runs all five, ``make smoke
SMOKE=serve`` one of them)::

    PYTHONPATH=src python scripts/smoke.py {trace,ts,serve,live-obs,spans} [--artifacts DIR]

Each subcommand runs its own producer, then checks what came out:

``trace``
    ``repro explain --out`` on a traced replay; the ``repro.trace/1``
    export must load and agree with its own meta accounting.
``ts``
    ``repro metrics --window --ts-out``; the ``repro.ts/1`` export must
    load, hold monotone in-range windows and render parseable
    Prometheus text, and ``repro drift`` must run on it.
``serve``
    slams a daemon from worker processes and requires its served
    counters to equal a replay of its own journal exactly; then a CLI
    ``repro slam`` with a latency report, the same journal check on
    the warm daemon, and its ``/metrics`` must parse with a latency
    histogram that counts every ``/open`` and ``/fetch`` request.
``live-obs``
    a daemon with an access log and event-count windows: windows
    streamed during a slam converge to the lifetime counters, ``repro
    drift --url`` is clean, then exits 2 after an injected shift, and
    the access log is valid JSONL with increasing ids.  Then ``repro top
    --attach`` runs during a CLI slam against a wall-clock-window daemon,
    and ``repro drift`` must scan its export.
``spans``
    a traced slam against a traced daemon: every client span pairs with
    a server span, the cache span annotations reconcile with ``/stats``,
    and ``repro spans`` writes a Chrome trace with a track per process.

Every daemon is ``repro serve scenarios/smoke.json --port 0 --port-file``
plus the check's own flags, and must exit 0 on SIGTERM.  A failed check
prints ``FAIL: ...`` and exits 1.  ``--artifacts DIR`` keeps the
exports, the slam report and the span logs in DIR (CI uploads it);
without it they go to a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src"
if str(REPO_SRC) not in sys.path:  # runnable without PYTHONPATH too
    sys.path.insert(0, str(REPO_SRC))

from repro.obs.live import StatsStream  # noqa: E402
from repro.obs.registry import ObservabilityError  # noqa: E402
from repro.obs.spans import load_spans_jsonl, merge_spans  # noqa: E402
from repro.obs.timeseries import TS_SCHEMA, load_ts_jsonl, prometheus_text  # noqa: E402
from repro.obs.tracing import TRACE_SCHEMA, load_trace_jsonl  # noqa: E402
from repro.serve import ServeConnection, load_scenario, run_slam  # noqa: E402
from repro.serve.schema import replay_journal  # noqa: E402
from repro.workloads.synthetic import make_workload  # noqa: E402

SCENARIO = REPO_ROOT / "scenarios" / "smoke.json"
ENV = dict(os.environ)
ENV["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + ENV.get("PYTHONPATH", "")
PORT_WAIT_S = 20.0
EXIT_WAIT_S = 10.0

#: Slam shape shared by the in-process slams of every check.
WORKERS = 2
BATCH = 16


# -- shared fixtures ---------------------------------------------------------


def fail(message: str) -> SystemExit:
    print(f"FAIL: {message}")
    return SystemExit(1)


def require_clean(problems: List[str], what: str) -> None:
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        raise fail(f"{what}: {len(problems)} problem(s)")


def repro_command(*args) -> List[str]:
    return [sys.executable, "-m", "repro", *map(str, args)]


def repro(*args, expect: int = 0, why: str = "") -> str:
    """Run ``python -m repro ARGS``, echo its output, require exit ``expect``."""
    done = subprocess.run(
        repro_command(*args), env=ENV, cwd=REPO_ROOT, capture_output=True, text=True
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != expect:
        raise fail(
            f"repro {' '.join(map(str, args))} exited {done.returncode} "
            f"(expected {expect}{why})"
        )
    return done.stdout


def workload(events: int) -> List[str]:
    """The smoke scenario's own workload, as file ids."""
    scenario = load_scenario(SCENARIO)
    seed = scenario.seed if scenario.seed is not None else 0
    return list(make_workload(scenario.workload, events, seed).file_ids())


def _wait_for_port(port_file: Path, process: subprocess.Popen) -> int:
    deadline = time.monotonic() + PORT_WAIT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise fail(
                f"daemon exited early with code {process.returncode} "
                f"before announcing a port"
            )
        try:
            text = port_file.read_text(encoding="utf-8").strip()
        except OSError:
            text = ""
        if text:
            return int(text)
        time.sleep(0.05)
    raise fail(f"daemon did not announce a port within {PORT_WAIT_S:.0f}s")


@contextmanager
def daemon(*flags) -> Iterator[str]:
    """``repro serve`` on the smoke scenario with ``flags``; yields its URL.

    On exit the daemon gets SIGTERM and must exit 0 within
    ``EXIT_WAIT_S``; it is reaped even when the body failed.
    """
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        port_file = Path(tmp) / "port"
        process = subprocess.Popen(
            repro_command(
                "serve", SCENARIO, "--port", "0", "--port-file", port_file, *flags
            ),
            env=ENV,
            cwd=REPO_ROOT,
        )
        try:
            url = f"http://127.0.0.1:{_wait_for_port(port_file, process)}"
            print(f"daemon pid {process.pid} listening on {url}")
            yield url
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                code = process.wait(timeout=EXIT_WAIT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                code = None
    if code is None:
        raise fail(f"daemon ignored SIGTERM for {EXIT_WAIT_S:.0f}s")
    if code != 0:
        raise fail(f"daemon exited with code {code} after SIGTERM")
    print("daemon exited cleanly on SIGTERM")


# -- trace: the repro.trace/1 export -----------------------------------------

#: Record kinds a traced replay must retain (an inactive recorder fails).
TRACE_KINDS = ("open", "group_fetch")


def check_trace(path: Path) -> List[str]:
    """Validate one exported trace; returns a list of problems.

    The meta line's ``retained`` count matches the record lines, no
    kind exceeds its ``emitted`` total, ``seq`` strictly increases, and
    every kind in :data:`TRACE_KINDS` is present.
    """
    problems: List[str] = []
    try:
        loaded = load_trace_jsonl(path)
    except (ObservabilityError, OSError) as error:
        return [str(error)]
    meta = loaded["meta"]
    records = loaded["records"]

    retained = meta.get("retained")
    if retained != len(records):
        problems.append(
            f"meta claims {retained} retained records, file has {len(records)}"
        )
    emitted = meta.get("emitted") or {}
    counts = {}
    last_seq = 0
    for record in records:
        counts[record["kind"]] = counts.get(record["kind"], 0) + 1
        if record["seq"] <= last_seq:
            problems.append(
                f"seq not strictly increasing at {record['kind']} "
                f"seq={record['seq']} (previous {last_seq})"
            )
        last_seq = record["seq"]
    for kind, count in sorted(counts.items()):
        total = emitted.get(kind, 0)
        if count > total:
            problems.append(
                f"{count} retained {kind} records but meta says only "
                f"{total} were emitted"
            )
    for kind in TRACE_KINDS:
        if not counts.get(kind):
            problems.append(f"no {kind} records retained (recorder inactive?)")
    return problems


def smoke_trace(out: Path) -> None:
    path = out / "trace_smoke.jsonl"
    repro(
        "explain", "--workload", "server", "--events", 4000,
        "--cache-size", 150, "--out", path,
    )
    require_clean(check_trace(path), f"{path} ({TRACE_SCHEMA})")
    print(f"trace ok: {path} (schema {TRACE_SCHEMA})")


# -- ts: the repro.ts/1 export -----------------------------------------------


#: One sample line: a metric name, an optional ``le`` label, a value.
PROM_SAMPLE = re.compile(r'([A-Za-z_:][A-Za-z0-9_:]*)(?:\{le="([^"]*)"\})? (\S+)')


def check_prometheus(text: str) -> List[str]:
    """Parse one Prometheus/OpenMetrics exposition; returns problems.

    Every sample needs a ``# TYPE``d family: a counter or gauge by its
    own name, a histogram through its ``_bucket``, ``_sum`` and
    ``_count`` samples.  An ``le`` label is accepted only on a
    histogram's ``_bucket`` samples, which must carry one.
    """
    problems: List[str] = []
    declared = {}
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("prometheus text is not '# EOF'-terminated")
    for number, line in enumerate(lines, start=1):
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                problems.append(f"prometheus line {number}: bad TYPE: {line!r}")
            else:
                declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = PROM_SAMPLE.fullmatch(line)
        if match is None:
            problems.append(
                f"prometheus line {number}: expected 'name value' or "
                f"'name{{le=\"bound\"}} value': {line!r}"
            )
            continue
        name, le, value = match.groups()
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            stem = name[: -len(suffix)]
            if name.endswith(suffix) and declared.get(stem) == "histogram":
                family = stem
        kind = declared.get(family)
        if kind is None:
            problems.append(
                f"prometheus line {number}: metric {name} has no # TYPE"
            )
        elif kind == "histogram" and family == name:
            problems.append(
                f"prometheus line {number}: histogram {name} sample lacks "
                f"a _bucket, _sum or _count suffix"
            )
        elif (le is not None) != (kind == "histogram" and name == family + "_bucket"):
            problems.append(
                f"prometheus line {number}: an le label belongs on, and only "
                f"on, a histogram's _bucket samples: {line!r}"
            )
        for what, number_text in (("le bound", le), ("value", value)):
            if number_text is None:
                continue
            try:
                float(number_text)
            except ValueError:
                problems.append(
                    f"prometheus line {number}: non-numeric {what} {number_text!r}"
                )
    return problems


def check_timeseries(path: Path) -> List[str]:
    """Validate one exported series; returns a list of problems.

    The meta line's ``samples`` count matches the file, per-source
    ``index`` and replay window ``start`` strictly increase, replay
    windows are non-empty and within ``window``, no counter is
    negative, ratios lie in [0, 1], at least one replay sample exists,
    and the Prometheus rendering of the samples parses.
    """
    problems: List[str] = []
    try:
        loaded = load_ts_jsonl(path)
    except (ObservabilityError, OSError) as error:
        return [str(error)]
    meta = loaded["meta"]
    samples = loaded["samples"]

    claimed = meta.get("samples")
    if claimed != len(samples):
        problems.append(
            f"meta claims {claimed} samples, file has {len(samples)}"
        )
    window = meta.get("window")
    if not isinstance(window, int) or window < 1:
        problems.append(f"meta window must be a positive int, got {window!r}")

    last_index = {}
    last_start = None
    replay_samples = 0
    for position, sample in enumerate(samples):
        where = f"sample {position} ({sample.source})"
        previous = last_index.get(sample.source)
        if previous is not None and sample.index <= previous:
            problems.append(
                f"{where}: index {sample.index} not strictly increasing "
                f"(previous {previous})"
            )
        last_index[sample.source] = sample.index
        if sample.source == "replay":
            replay_samples += 1
            if last_start is not None and sample.start <= last_start:
                problems.append(
                    f"{where}: window start {sample.start} not strictly "
                    f"increasing (previous {last_start})"
                )
            last_start = sample.start
            if sample.events < 1:
                problems.append(f"{where}: empty window ({sample.events} events)")
            if isinstance(window, int) and sample.events > window:
                problems.append(
                    f"{where}: {sample.events} events exceed window {window}"
                )
        for counter in (
            "events",
            "hits",
            "misses",
            "remote_requests",
            "store_fetches",
            "bytes_fetched",
            "group_installs",
            "evictions",
            "invalidations",
        ):
            if getattr(sample, counter) < 0:
                problems.append(
                    f"{where}: negative {counter} ({getattr(sample, counter)})"
                )
        for ratio in ("hit_ratio", "prefetch_efficiency", "wasted_fetch_share"):
            value = getattr(sample, ratio)
            if not 0.0 <= value <= 1.0:
                problems.append(f"{where}: {ratio} {value} outside [0, 1]")
        if sample.entropy is not None and sample.entropy < 0:
            problems.append(f"{where}: negative entropy ({sample.entropy})")
    if not replay_samples:
        problems.append("no replay samples in the series (collector inactive?)")

    problems.extend(check_prometheus(prometheus_text(samples)))
    return problems


def smoke_ts(out: Path) -> None:
    path = out / "ts_smoke.jsonl"
    repro(
        "metrics", "--workload", "server", "--events", 6000,
        "--window", 500, "--ts-out", path,
    )
    require_clean(check_timeseries(path), f"{path} ({TS_SCHEMA})")
    print(f"timeseries ok: {path} (schema {TS_SCHEMA})")
    repro("drift", path, "--history", 4)


# -- serve: served counters equal a replay of the journal --------------------

SERVE_EVENTS = 5000

#: ``/stats`` ``cache`` fields a journal replay must reproduce exactly.
REPLAYED = ("hits", "misses", "accesses", "evictions", "group_fetches", "hit_ratio")


def check_journal(url: str) -> None:
    """Slam ``url``; its counters must then equal a replay of its journal."""
    report = run_slam(url, workload(SERVE_EVENTS), workers=WORKERS, batch=BATCH)
    if report.errors:
        raise fail(f"slam reported {report.errors} request error(s)")
    if report.events != SERVE_EVENTS:
        raise fail(f"slam replayed {report.events} events, expected {SERVE_EVENTS}")

    with ServeConnection(url) as conn:
        stats = conn.stats()
        _status, journal = conn.request("GET", "/journal")
    if journal.get("truncated"):
        raise fail(
            "daemon journal is truncated; raise journal.max_events in the "
            "scenario so the replay check can run"
        )
    fresh = load_scenario(SCENARIO).build_cache()
    replay_journal(fresh, journal.get("entries", []))
    local = fresh.stats_dict()
    served = stats["cache"]
    for key in REPLAYED:
        if served.get(key) != local.get(key):
            raise fail(
                f"served {key}={served.get(key)} but the journal replay "
                f"gives {key}={local.get(key)}"
            )
    print(
        f"served counters equal the journal replay: {served['accesses']} "
        f"accesses, hit-ratio {float(served['hit_ratio']):.6f}"
    )
    print(
        f"OK: {report.events} events via {WORKERS} worker(s), "
        f"p50 {report.p50_ms:.3f}ms p99 {report.p99_ms:.3f}ms, "
        f"{report.events_per_sec:,.0f} events/s, "
        f"{report.retries} retrie(s)"
    )


def check_metrics(url: str) -> None:
    """``/metrics`` parses, and its latency ``_count`` is every /open and /fetch."""
    with ServeConnection(url) as conn:
        _status, body = conn.request("GET", "/metrics")
        stats = conn.stats()
    text = body["text"]
    require_clean(check_prometheus(text), "daemon /metrics")
    counted = re.findall(r"^repro_serve_latency_ns_count (\d+)$", text, re.MULTILINE)
    served = sum(stats["requests"].get(path, 0) for path in ("/open", "/fetch"))
    if counted != [str(served)]:
        raise fail(
            f"/metrics latency histogram counts {counted} request(s), but "
            f"/stats has {served} /open + /fetch requests"
        )
    print(f"/metrics parses; its latency histogram counts all {served} requests")


def smoke_serve(out: Path) -> None:
    report_file = out / "slam_report.json"
    with daemon() as url:
        check_journal(url)
        repro(
            "slam", "--url", url, "--scenario", SCENARIO,
            "--events", SERVE_EVENTS, "--workers", 4, "--batch", 8,
            "--report", report_file,
        )
        if not report_file.is_file():
            raise fail(f"repro slam wrote no report at {report_file}")
        check_journal(url)
        check_metrics(url)


# -- live-obs: streamed windows, drift, access log, top --attach -------------

LIVE_EVENTS = 6000
WINDOW_EVENTS = 500
ACCESS_LOG_FIELDS = ("ts", "id", "endpoint", "method", "status", "latency_ns")

# --alpha 1 tests raw window values: each event-count window is already
# a large sample, and EWMA smoothing would let the rolling baseline
# absorb the shifted windows before the smoothed value strays far
# enough to trip the z-test.
DRIFT_URL_FLAGS = ("--history", 8, "--alpha", 1)


def check_convergence(url: str) -> None:
    """Stream windows during a slam; sums must equal lifetime counters."""
    stream = StatsStream(url)
    report = run_slam(url, workload(LIVE_EVENTS), workers=WORKERS, batch=BATCH)
    if report.errors:
        raise fail(f"slam reported {report.errors} request error(s)")
    if report.delta.get("server_errors"):
        raise fail(
            f"daemon counted {report.delta['server_errors']} error(s) "
            f"during the slam: {report.delta.get('endpoint_errors')}"
        )

    # one final poll drains every window the slam closed; the partial
    # tail window stays open, so compare against the *windowed* portion
    windows = stream.poll()
    if not windows:
        raise fail("StatsStream saw no telemetry windows during the slam")
    stats = stream.final_stats()
    stream.close()

    telemetry = stats["telemetry"]
    if telemetry["dropped"]:
        raise fail(
            f"retention ring dropped {telemetry['dropped']} window(s) "
            f"mid-smoke; raise telemetry.retain in the scenario"
        )
    streamed_events = sum(w.sample.events for w in windows)
    streamed_hits = sum(w.sample.hits for w in windows)
    streamed_misses = sum(w.sample.misses for w in windows)
    cache = stats["cache"]
    tail_events = stats["accesses"] - streamed_events
    tail_hits = cache["hits"] - streamed_hits
    tail_misses = cache["misses"] - streamed_misses
    if tail_events < 0 or tail_events >= WINDOW_EVENTS:
        raise fail(
            f"streamed window events ({streamed_events}) do not converge "
            f"to lifetime accesses ({stats['accesses']}); unflushed tail "
            f"of {tail_events} exceeds one window ({WINDOW_EVENTS})"
        )
    if tail_hits < 0 or tail_misses < 0 or tail_hits + tail_misses != tail_events:
        raise fail(
            f"window hit/miss sums diverge from lifetime counters: "
            f"streamed {streamed_hits}h/{streamed_misses}m vs lifetime "
            f"{cache['hits']}h/{cache['misses']}m"
        )
    print(
        f"convergence OK: {len(windows)} window(s) streamed, "
        f"{streamed_events}/{stats['accesses']} events windowed "
        f"(tail {tail_events} still open), hits+misses reconcile"
    )


def inject_shift(url: str) -> None:
    """Collapse the hit ratio with uniform random opens over a wide space.

    The namespace is over 3x the event count and disjoint from the
    workload's, so almost every open misses and installed groups never
    get re-referenced — the one access pattern group prefetching cannot
    absorb.  (A *sequential* scan would not do: the group prefetcher
    absorbs it, which is the paper's point.)
    """
    rng = random.Random(11)
    shifted = [f"shifted/{rng.randrange(20000)}" for _ in range(LIVE_EVENTS)]
    report = run_slam(url, shifted, workers=WORKERS, batch=BATCH)
    if report.errors:
        raise fail(f"shift slam reported {report.errors} error(s)")
    print(
        f"injected shift: {LIVE_EVENTS} uniform-random opens, served hit "
        f"ratio this run {report.served_hit_ratio:.3f}"
    )


def check_access_log(path: Path) -> None:
    """Every line is JSON with the required fields; ids strictly increase."""
    if not path.exists():
        raise fail(f"access log {path} was never created")
    last_id = -1
    lines = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)  # raises on a torn line
        for field in ACCESS_LOG_FIELDS:
            if field not in record:
                raise fail(f"access log line missing {field!r}: {record}")
        if record["id"] <= last_id:
            raise fail(
                f"access log ids not strictly increasing: "
                f"{record['id']} after {last_id}"
            )
        last_id = record["id"]
        lines += 1
    if lines == 0:
        raise fail(f"access log {path} is empty")
    print(f"access log OK: {lines} valid JSONL line(s), ids monotonic")


def smoke_live_obs(out: Path) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        access_log = Path(tmp) / "access.jsonl"
        flags = (
            "--access-log", access_log,
            "--stats-window", 0, "--stats-window-events", WINDOW_EVENTS,
        )
        with daemon(*flags) as url:
            check_convergence(url)
            repro(
                "drift", "--url", url, *DRIFT_URL_FLAGS,
                why=": no alerts on a stable workload",
            )
            print("steady-phase drift check OK (exit 0)")
            inject_shift(url)
            repro(
                "drift", "--url", url, *DRIFT_URL_FLAGS, "--fail-on-drift",
                expect=2, why=": hit-ratio alert after the injected shift",
            )
            print("injected-shift drift check OK (exit 2)")
            check_access_log(access_log)

    windows = out / "live_windows.jsonl"
    with daemon("--stats-window", 0.5) as url:
        slam = subprocess.Popen(
            repro_command(
                "slam", "--url", url, "--scenario", SCENARIO,
                "--events", 5000, "--workers", WORKERS, "--batch", 8,
            ),
            env=ENV,
            cwd=REPO_ROOT,
        )
        try:
            repro("top", "--attach", url, "--plain", "--duration", 4, "--ts-out", windows)
        finally:
            slam_code = slam.wait()
        if slam_code != 0:
            raise fail(f"repro slam exited {slam_code} beside top --attach")
    # The export loads back through the repro.ts/1 loader, and the drift
    # scan must see at least one serve window.
    drift = repro("drift", windows, "--history", 4)
    (out / "live_drift.txt").write_text(drift, encoding="utf-8")
    if not re.search(r"scanned [1-9][0-9]* windows", drift):
        raise fail(f"repro drift scanned no windows of {windows}")


# -- spans: a correlated client/server timeline ------------------------------

SPAN_EVENTS = 4000


def check_pairing(merged, report) -> None:
    if merged["client_only"]:
        raise fail(
            f"{merged['client_only']} client span(s) found no server span "
            "with the same trace id — header propagation is broken"
        )
    for trace in merged["traces"]:
        client, server = trace["client"], trace["server"]
        if client is None:
            continue
        if server is None or not trace["paired"]:
            raise fail(
                f"trace {trace['trace']} has a client span but no paired "
                "server span (server parent must equal the client span id)"
            )
        if server["parent"] != client["span"]:
            raise fail(
                f"trace {trace['trace']}: server parent {server['parent']!r} "
                f"!= client span id {client['span']!r}"
            )
    if report.retries == 0 and merged["paired"] != report.requests:
        raise fail(
            f"{merged['paired']} paired trace(s) but the slam report counted "
            f"{report.requests} request(s) with no retries"
        )
    print(
        f"pairing OK: {merged['paired']} paired trace(s), "
        f"{merged['server_only']} server-only (untraced endpoints)"
    )


def check_cache_reconciliation(server_spans, stats) -> None:
    hits = misses = group_fetches = 0
    for span in server_spans:
        if span["name"] != "cache.fetch" and span["name"] != "cache.open":
            continue
        notes = span["annotations"]
        hits += int(notes.get("hits", 1 if notes.get("hit") else 0))
        if span["name"] == "cache.fetch":
            misses += int(notes.get("misses", 0))
        else:
            misses += 0 if notes.get("hit") else 1
        group_fetches += int(notes.get("group_fetches", 0))
    cache = stats["cache"]
    for name, from_spans in (
        ("hits", hits),
        ("misses", misses),
        ("group_fetches", group_fetches),
    ):
        served = int(cache[name])
        if from_spans != served:
            raise fail(
                f"cache.{name} from span annotations is {from_spans} but the "
                f"daemon's /stats lifetime counter says {served}"
            )
    print(
        f"reconciliation OK: span annotations sum to hits={hits} "
        f"misses={misses} group_fetches={group_fetches}, matching /stats"
    )


def check_chrome(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise fail(f"{path} has no traceEvents")
    names = {
        event["args"]["name"]
        for event in events
        if event.get("ph") == "M" and event.get("name") == "process_name"
    }
    if len(names) < 2:
        raise fail(
            f"Chrome trace names only {sorted(names)} — expected at least "
            "one slam worker and the daemon as separate process tracks"
        )
    spans = [event for event in events if event.get("ph") == "X"]
    for event in spans:
        for field in ("name", "pid", "tid", "ts", "dur"):
            if field not in event:
                raise fail(f"Chrome span event is missing {field!r}: {event}")
    print(
        f"Chrome trace OK: {len(spans)} span event(s) across process "
        f"tracks {sorted(names)}"
    )


def smoke_spans(out: Path) -> None:
    server_log = out / "server-spans.jsonl"
    # A span log left by an earlier run must not stand in for this one's.
    for stale in [server_log, *out.glob("spans-worker*.jsonl")]:
        stale.unlink(missing_ok=True)
    with daemon("--spans", server_log) as url:
        report = run_slam(
            url, workload(SPAN_EVENTS), workers=WORKERS, batch=BATCH,
            span_dir=out, span_sample=1,
        )
        if report.errors:
            raise fail(f"slam reported {report.errors} request error(s)")
        with ServeConnection(url) as conn:
            stats = conn.stats()
        span_stats = stats.get("spans")
        if not span_stats or span_stats.get("schema") != "repro.span/1":
            raise fail(f"/stats has no spans section: {span_stats!r}")
        if span_stats["dropped"]:
            raise fail(
                f"daemon dropped {span_stats['dropped']} span(s); raise "
                "--span-capacity for this smoke"
            )
    if not server_log.exists():
        raise fail(f"daemon exited without writing {server_log}")

    client_files = sorted(out.glob("spans-worker*.jsonl"))
    if len(client_files) != WORKERS:
        raise fail(
            f"expected {WORKERS} client span log(s), found {len(client_files)}"
        )
    client_spans = []
    for path in client_files:
        client_spans.extend(load_spans_jsonl(path)["spans"])
    loaded = load_spans_jsonl(server_log)
    server_spans = loaded["spans"]
    print(
        f"loaded {len(client_spans)} client span(s), "
        f"{len(server_spans)} server span(s) "
        f"(server buffer: {loaded['meta']['started']} started, "
        f"{loaded['meta']['dropped']} dropped)"
    )

    merged = merge_spans(client_spans, server_spans)
    check_pairing(merged, report)
    check_cache_reconciliation(server_spans, stats)

    chrome = out / "merged-trace.json"
    repro(
        "spans", "--client", *client_files, "--server", server_log,
        "--chrome", chrome, "--top", 3,
    )
    check_chrome(chrome)
    print(
        f"OK: {report.events} events traced end to end, "
        f"{merged['paired']} correlated trace(s), "
        f"p99 {report.p99_ms:.3f}ms"
    )


CHECKS = {
    "trace": smoke_trace,
    "ts": smoke_ts,
    "serve": smoke_serve,
    "live-obs": smoke_live_obs,
    "spans": smoke_spans,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=list(CHECKS))
    parser.add_argument(
        "--artifacts",
        type=Path,
        default=None,
        metavar="DIR",
        help="keep exports, reports and span logs here (default: a temporary directory)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        out = (args.artifacts or Path(tmp)).resolve()
        out.mkdir(parents=True, exist_ok=True)
        CHECKS[args.check](out)
    print(f"{args.check} smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
