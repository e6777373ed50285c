"""Unit tests for the command-line interface."""

import io
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main, throughput_line
from repro.obs import LiveWindow, WindowSample
from repro.obs.frontend import _Dashboard


class _Terminal(io.StringIO):
    """A captured stream that reports itself as a tty."""

    def isatty(self):
        return True


def _last_frame(text):
    """The lines of a dashboard's last in-place redraw."""
    frame = re.split(r"\x1b\[\d+F", text)[-1]
    return [line.replace("\x1b[2K", "", 1) for line in frame.splitlines()]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_commands_registered(self):
        parser = build_parser()
        for command in ("fig3", "fig4", "fig5", "fig7", "fig8", "headline"):
            args = parser.parse_args([command])
            assert callable(args.handler)

    def test_workload_choices_enforced(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig3", "--workload", "cray"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "--csv", "x.csv"],
            ["compare", "--csv", "x.csv"],
            ["headline", "--workers", "2"],
            ["placement", "--workers", "2"],
        ],
    )
    def test_flags_a_command_ignores_are_parse_errors(self, argv, capsys):
        # --csv/--width/--height only where a figure is rendered, and
        # --workers only on the sweep figures.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_figure_keeps_workers_and_csv(self):
        for command in ("fig3", "fig4", "fig5", "fig7", "fig8"):
            args = build_parser().parse_args(
                [command, "--workers", "2", "--csv", "x.csv"]
            )
            assert args.workers == 2 and str(args.csv) == "x.csv"


class TestMain:
    def test_fig5_runs(self, capsys):
        code = main(["fig5", "--workload", "server", "--events", "2500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "Oracle" in out
        assert "| Number of Successors |" in out

    def test_fig7_runs(self, capsys):
        code = main(["fig7", "--events", "2500"])
        assert code == 0
        assert "successor entropy" in capsys.readouterr().out.lower()

    def test_fig3_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "fig3.csv"
        code = main(
            [
                "fig3",
                "--workload",
                "server",
                "--events",
                "2500",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert csv_path.read_text().startswith("Cache Capacity")

    def test_headline_runs(self, capsys):
        code = main(["headline", "--events", "2500"])
        assert code == 0
        assert "claim" in capsys.readouterr().out

    def test_generate_and_inspect(self, capsys, tmp_path):
        trace_path = tmp_path / "server.trace"
        code = main(
            [
                "generate",
                "--workload",
                "server",
                "--events",
                "1000",
                "--out",
                str(trace_path),
            ]
        )
        assert code == 0
        assert trace_path.exists()
        code = main(["inspect", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "| events | 1000 |" in out

    def test_inspect_missing_file(self, capsys):
        with pytest.raises(FileNotFoundError):
            main(["inspect", "/nonexistent/trace.txt"])

    def test_placement_runs(self, capsys):
        code = main(["placement", "--workload", "server", "--events", "2500"])
        assert code == 0
        assert "Mean Seek Distance" in capsys.readouterr().out

    def test_hoard_runs(self, capsys):
        code = main(["hoard", "--workload", "server", "--events", "4000"])
        assert code == 0
        assert "group-closure" in capsys.readouterr().out

    def test_cooperation_runs(self, capsys):
        code = main(["cooperation", "--workload", "server", "--events", "2500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cooperative" in out
        assert "filtered" in out

    def test_profile_workload(self, capsys):
        code = main(["profile", "--workload", "server", "--events", "2500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "predictability profile" in out
        assert "bits" in out

    def test_profile_trace_file(self, capsys, tmp_path):
        trace_path = tmp_path / "t.trace"
        main(
            [
                "generate",
                "--workload",
                "workstation",
                "--events",
                "2000",
                "--out",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        code = main(["profile", "--trace", str(trace_path)])
        assert code == 0
        assert "predictability profile" in capsys.readouterr().out

    def test_error_reporting(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("frobnicate x\n", encoding="utf-8")
        code = main(["inspect", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestClosedPipe:
    """A reader that leaves early (``| head``) ends the CLI quietly."""

    # The fig3 chart is about 200 KB, so what follows its first line
    # cannot all fit in a 64 KiB pipe: the child is still writing when
    # the read end closes, whatever the timing.
    @pytest.mark.parametrize(
        "args, lines",
        [
            (["fig3", "--events", "3000", "--width", "2000", "--height", "100"], 1),
            (["top", "--plain", "--sweep", "--workers", "2", "--events", "800"], 3),
        ],
    )
    def test_no_traceback_when_stdout_closes(self, args, lines):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as process:
            for _ in range(lines):
                assert process.stdout.readline()
            process.stdout.close()
            errors = process.stderr.read().decode()
            code = process.wait(timeout=120)
        assert "Traceback" not in errors and "BrokenPipeError" not in errors, errors
        assert code == 1


class TestCompareAndAnonymize:
    def test_compare_runs(self, capsys):
        code = main(
            [
                "compare",
                "--workload",
                "server",
                "--events",
                "3000",
                "--capacity",
                "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregating g5" in out
        assert "| lru |" in out

    def test_anonymize_keyed(self, capsys, tmp_path):
        source = tmp_path / "raw.trace"
        target = tmp_path / "anon.trace"
        main(
            [
                "generate",
                "--workload",
                "server",
                "--events",
                "500",
                "--out",
                str(source),
            ]
        )
        capsys.readouterr()
        code = main(["anonymize", str(source), "--out", str(target), "--key", "k"])
        assert code == 0
        assert target.exists()
        assert "server/" not in target.read_text().splitlines()[5]

    def test_anonymize_enumerated(self, capsys, tmp_path):
        source = tmp_path / "raw.trace"
        target = tmp_path / "enum.trace"
        main(
            [
                "generate",
                "--workload",
                "users",
                "--events",
                "500",
                "--out",
                str(source),
            ]
        )
        capsys.readouterr()
        code = main(["anonymize", str(source), "--out", str(target)])
        assert code == 0
        assert "enumeration" in capsys.readouterr().out


class TestWorkloadsCommand:
    def test_catalog_table(self, capsys):
        code = main(["workloads"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mozart" in out
        assert "barber" in out

    def test_single_workload_detail(self, capsys):
        code = main(["workloads", "server"])
        assert code == 0
        out = capsys.readouterr().out
        assert "calibration targets" in out

    def test_unknown_workload_errors(self, capsys):
        code = main(["workloads", "vax"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGraphAndReportCommands:
    def test_graph_runs(self, capsys):
        code = main(["graph", "--workload", "server", "--events", "2500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "relationship graph" in out
        assert "hub files" in out
        assert "covering set" in out

    def test_report_command_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["report", "--events", "2500"])
        assert callable(args.handler)

    def test_report_drift_flag_registered(self):
        args = build_parser().parse_args(["report", "--drift"])
        assert args.drift is True


class TestTimeseriesCommands:
    def test_metrics_windowed_exports_ts_jsonl(self, capsys, tmp_path):
        from repro.obs import load_ts_jsonl

        path = tmp_path / "series.jsonl"
        code = main(
            [
                "metrics",
                "--workload",
                "server",
                "--events",
                "3000",
                "--window",
                "500",
                "--ts-out",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "windowed series: 6 windows of 500 events" in out
        assert "hit ratio" in out
        assert f"wrote 7 repro.ts/1 JSONL lines to {path}" in out
        loaded = load_ts_jsonl(path)
        assert loaded["meta"]["workload"] == "server"
        assert len(loaded["samples"]) == 6

    def test_metrics_baselines_note_when_obs_disabled(self, capsys, monkeypatch):
        # If the master switch never comes on, the baseline table would
        # be all zeros; the command must say so instead.
        from repro.obs import registry as obs_registry

        monkeypatch.setattr(obs_registry, "enable", lambda: None)
        code = main(
            [
                "metrics",
                "--workload",
                "server",
                "--events",
                "1000",
                "--baselines",
                "lru",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metric collection was disabled" in out
        assert "baseline lru" not in out

    def test_top_plain_replay(self, capsys, tmp_path):
        path = tmp_path / "top.jsonl"
        code = main(
            [
                "top",
                "--workload",
                "server",
                "--events",
                "3000",
                "--window",
                "1000",
                "--plain",
                "--ts-out",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "window 1/3" in out
        assert "window 3/3" in out
        assert "hit=" in out
        assert "ev/s=" in out
        assert path.exists()

    def test_top_sweep_plain_with_workers(self, capsys):
        code = main(
            [
                "top",
                "--sweep",
                "--workers",
                "2",
                "--workload",
                "server",
                "--events",
                "800",
                "--plain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "point 1/48" in out
        assert "point 48/48" in out
        assert "group_size=" in out

    def test_drift_steady_series(self, capsys, tmp_path):
        path = tmp_path / "series.jsonl"
        main(
            [
                "metrics",
                "--workload",
                "server",
                "--events",
                "3000",
                "--window",
                "500",
                "--ts-out",
                str(path),
            ]
        )
        capsys.readouterr()
        code = main(["drift", str(path), "--history", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scanned 6 windows" in out
        assert "no drift detected" in out

    def test_drift_fail_on_drift_exits_2(self, capsys, tmp_path):
        from repro.obs import WindowSample, WindowedCollector, write_ts_jsonl

        collector = WindowedCollector(window=100)
        for index in range(16):
            hits = 90 if index < 10 else 0
            collector.append(
                WindowSample(
                    index=index,
                    start=index * 100,
                    events=100,
                    hits=hits,
                    misses=100 - hits,
                )
            )
        path = tmp_path / "shift.jsonl"
        write_ts_jsonl(collector, path)
        code = main(
            ["drift", str(path), "--history", "4", "--fail-on-drift"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "hit_ratio collapsed at window 10 (event 1000)" in out
        assert "| hit_ratio |" in out

    def test_drift_counts_the_serve_windows_it_scans(self, capsys, tmp_path):
        from repro.obs import WindowSample, WindowedCollector, write_ts_jsonl

        collector = WindowedCollector(window=100)
        for index in range(20):
            hits = 90 if index < 14 else 0
            collector.append(
                WindowSample(
                    source="serve",
                    index=index,
                    start=index * 100,
                    events=100,
                    hits=hits,
                    misses=100 - hits,
                )
            )
        collector.record_point(0, {"g": 4}, {"events": 100}, 0.1)
        path = tmp_path / "serve.jsonl"
        write_ts_jsonl(collector, path)
        assert main(["drift", str(path), "--history", "4"]) == 0
        out = capsys.readouterr().out
        assert "scanned 20 windows" in out
        assert "hit_ratio collapsed at window 14" in out

    def test_drift_replay_mode(self, capsys):
        code = main(
            [
                "drift",
                "--workload",
                "server",
                "--events",
                "3000",
                "--window",
                "500",
                "--history",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scanned 6 windows of server" in out

    @pytest.mark.parametrize("command", ["top", "drift"])
    def test_zero_window_is_an_error(self, command, capsys):
        assert main([command, "--window", "0", "--events", "100"]) == 1
        assert "error: window must be >= 1, got 0" in capsys.readouterr().err

    def test_top_listen_announces_and_releases_its_port(self, capsys):
        code = main(
            ["top", "--events", "1000", "--window", "500", "--plain",
             "--listen", "127.0.0.1:0"]
        )
        assert code == 0
        announced = re.search(
            r"serving live metrics at http://127\.0\.0\.1:(\d+)/metrics",
            capsys.readouterr().err,
        )
        assert announced is not None
        port = int(announced.group(1))
        assert port > 0
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))  # the listener is closed

    def test_drift_rejects_bad_listen_free_of_charge(self):
        from repro.errors import ReproError
        from repro.obs.frontend import _parse_listen

        assert _parse_listen(":0") == ("127.0.0.1", 0)
        assert _parse_listen("0.0.0.0:9100") == ("0.0.0.0", 9100)
        with pytest.raises(ReproError):
            _parse_listen("9100")

    def test_top_listen_on_a_busy_port_is_an_error(self, capsys):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code = main(
                ["top", "--events", "500", "--plain", "--listen", f"127.0.0.1:{port}"]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")


class TestThroughputLine:
    """The ``throughput:`` line of the sweep figures and ``metrics``."""

    def test_events_per_second(self):
        line = throughput_line(1000, 2.0)
        assert line == "throughput: 1,000 events in 2.00s (500 events/s)"

    def test_zero_time_is_zero_rate(self):
        assert throughput_line(0, 0.0) == "throughput: 0 events in 0.00s (0 events/s)"

    def test_no_events_is_zero_rate(self):
        assert throughput_line(0, 1.5) == "throughput: 0 events in 1.50s (0 events/s)"

    def test_rate_rounds_to_whole_events(self):
        line = throughput_line(1_234_567, 0.75)
        assert line == "throughput: 1,234,567 events in 0.75s (1,646,089 events/s)"

    @pytest.mark.parametrize(
        "argv, events",
        [
            # fig3 replays the trace once per plotted point (48 of them),
            # fig7 once per workload series (4 of them).
            (["fig3", "--events", "500"], "24,000"),
            (["fig7", "--events", "500"], "2,000"),
            (["metrics", "--events", "500"], "500"),
        ],
    )
    def test_replayed_events_are_credited(self, argv, events, capsys):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        throughput = [line for line in lines if line.startswith("throughput: ")]
        assert len(throughput) == 1
        assert throughput[0].startswith(f"throughput: {events} events in ")


class TestDashboard:
    """``repro top``'s tty frames, redrawn in place, in every mode."""

    def test_replay_frames_redraw_in_place(self):
        terminal = _Terminal()
        dashboard = _Dashboard("server replay", False, total=2, stream=terminal)
        for index in range(2):
            dashboard.on_sample(
                WindowSample(
                    index=index, events=100, seconds=0.5, hits=75, misses=25,
                    entropy=1.5,
                )
            )
        dashboard.finish()
        text = terminal.getvalue()
        assert text.count("\x1b[5F") == 2  # two redraws over the first frame
        frame = _last_frame(text)
        assert frame[0] == "repro top — server replay"
        assert frame[1].startswith("  hit ratio  ") and frame[1].endswith(" 0.750")
        assert frame[2].startswith("  events/s   ") and frame[2].endswith(" 200")
        assert frame[3].startswith("  entropy    ") and frame[3].endswith(" 1.500 bits")
        assert frame[4].startswith(f"  progress   [{'#' * 48}] 2/2  ")

    def test_sweep_frames_give_each_worker_a_lane(self):
        terminal = _Terminal()
        dashboard = _Dashboard(
            "fig3 sweep", False, total=4, workers=2, stream=terminal
        )
        for point in range(3):
            dashboard.on_sample(
                WindowSample(
                    source="sweep", index=point, start=point, events=10,
                    seconds=0.1, label=f"n={point}",
                )
            )
        frame = _last_frame(terminal.getvalue())
        assert frame[:3] == [
            "repro top — fig3 sweep",
            f"  worker 0   {'#' * 24:<48} 2 pts",
            f"  worker 1   {'#' * 12:<48} 1 pts",
        ]
        assert frame[3].startswith(f"  progress   [{'#' * 36:<48}] 3/4  ")
        assert len(frame) == 4

    def test_attach_frames_show_the_live_stream(self):
        terminal = _Terminal()
        dashboard = _Dashboard("attached to http://daemon", False, stream=terminal)
        dashboard.finish()
        assert terminal.getvalue() == ""  # no window yet, so no frame
        window = LiveWindow(
            sample=WindowSample(
                source="serve", index=7, events=50, hits=40, misses=10
            ),
            raw={"requests_per_sec": 1500.0, "latency_ns": {"p95_ns": 2_500_000}},
        )
        stats = {"accesses": 1000, "errors": 1, "cache": {"hit_ratio": 0.5}}
        health = {"failures": 1, "restarts": 0, "gaps": 2}
        dashboard.on_window(window, health, stats)
        frame = _last_frame(terminal.getvalue())
        assert frame[0] == "repro top — attached to http://daemon"
        assert frame[1].startswith("  hit ratio  ") and frame[1].endswith(" 0.800")
        assert frame[2].startswith("  req/s      ") and frame[2].endswith(" 1,500")
        assert frame[3].startswith("  p95 ms     ") and frame[3].endswith(" 2.50")
        assert frame[4] == "  lifetime   accesses 1,000  hit 0.500  errors 1"
        assert frame[5].startswith("  stream     1 window(s)  ")
        assert frame[5].endswith("s  failures 1  restarts 0  gaps 2")


class TestTraceTooling:
    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_pack_and_info_round_trip(self, capsys, tmp_path):
        text = tmp_path / "w.trace"
        packed = tmp_path / "w.ctrace"
        assert main(
            ["generate", "--workload", "write", "--events", "1500",
             "--out", str(text)]
        ) == 0
        assert main(["trace", "pack", str(text), str(packed)]) == 0
        out = capsys.readouterr().out
        assert "packed 1500 events" in out
        assert "repro-ctrace v1" in out
        assert packed.exists()

        assert main(["trace", "info", str(packed)]) == 0
        out = capsys.readouterr().out
        assert "| events | 1500 |" in out
        assert "| format | repro-ctrace |" in out
        assert "| version | 1 |" in out
        assert "column bytes (file)" in out

        # The packed file decodes back to the text trace exactly.
        from repro.traces.columnar import read_columnar
        from repro.traces.reader import read_trace

        assert read_columnar(packed).to_trace().events == read_trace(text).events

    def test_info_bench_times_every_kernel_path(self, capsys, tmp_path):
        text = tmp_path / "b.trace"
        packed = tmp_path / "b.ctrace"
        main(
            ["generate", "--workload", "server", "--events", "1200",
             "--out", str(text)]
        )
        main(["trace", "pack", str(text), str(packed)])
        capsys.readouterr()
        assert main(["trace", "info", str(packed), "--bench"]) == 0
        out = capsys.readouterr().out
        assert "| events | 1200 |" in out
        assert "| path | seconds | events/s |" in out
        assert "| scan |" in out
        assert "| kernel_v2 (array LRU) |" in out

    def test_info_bench_accepts_text_traces(self, capsys, tmp_path):
        text = tmp_path / "bt.trace"
        main(
            ["generate", "--workload", "users", "--events", "700",
             "--out", str(text)]
        )
        capsys.readouterr()
        assert main(["trace", "info", str(text), "--bench"]) == 0
        out = capsys.readouterr().out
        assert "unpacked text" in out
        assert "| kernel_v2 (array LRU) |" in out

    def test_info_accepts_text_traces(self, capsys, tmp_path):
        text = tmp_path / "s.trace"
        main(
            ["generate", "--workload", "server", "--events", "800",
             "--out", str(text)]
        )
        capsys.readouterr()
        assert main(["trace", "info", str(text)]) == 0
        out = capsys.readouterr().out
        assert "| events | 800 |" in out
        assert "unpacked text" in out

    def test_damaged_columnar_input_is_an_error(self, capsys, tmp_path):
        import struct

        from repro.traces.columnar import ColumnarTrace, write_columnar
        from repro.workloads.synthetic import make_workload

        packed = ColumnarTrace.from_trace(make_workload("server", 300))
        damaged = tmp_path / "damaged.ctrace"
        write_columnar(packed, damaged)
        raw = bytearray(damaged.read_bytes())
        (columns_offset,) = struct.unpack_from("<Q", raw, 40)
        struct.pack_into("<I", raw, columns_offset, len(packed.file_symbols))
        damaged.write_bytes(bytes(raw))
        capsys.readouterr()
        for argv in (
            ["trace", "info", str(damaged)],
            ["trace", "pack", str(damaged), str(tmp_path / "out.ctrace")],
        ):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert "error:" in captured.err and "file column" in captured.err
            assert captured.out == ""

    def test_pack_repacks_columnar_input(self, capsys, tmp_path):
        text = tmp_path / "u.trace"
        first = tmp_path / "u1.ctrace"
        second = tmp_path / "u2.ctrace"
        main(
            ["generate", "--workload", "users", "--events", "600",
             "--out", str(text)]
        )
        main(["trace", "pack", str(text), str(first)])
        assert main(["trace", "pack", str(first), str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()
