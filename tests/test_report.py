"""Unit tests for the full-evaluation report generator."""

import argparse
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.experiments
from repro.analysis.report import build_report, write_report
from repro.analysis.series import FigureData
from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments import studies

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "export_csv.py"
_spec = importlib.util.spec_from_file_location("export_csv", _SCRIPT)
export_csv = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(export_csv)


def tiny_sections():
    """One fast synthetic section to keep report tests quick."""

    def build():
        figure = FigureData("t", "Tiny section", "x", "y")
        series = figure.add_series("s")
        series.add(1, 2)
        series.add(3, 4)
        return figure

    return [("tiny", build)]


class TestBuildReport:
    def test_structure_with_custom_sections(self):
        text = build_report(events=2500, sections=tiny_sections())
        assert text.startswith("# Full evaluation report")
        assert "## Headline claims" in text
        assert "## Tiny section" in text
        assert "| x | s |" in text

    def test_engine_paths_section_reports_dispatch(self):
        text = build_report(events=2500, sections=tiny_sections())
        assert "## Replay engine paths" in text
        # The columnar row must show the v2 dispatch; the event-trace
        # row stays on the string-keyed fused loop.
        assert "| columnar trace | kernel_v2 | 2500 |" in text
        assert "| event trace | fast | 2500 |" in text

    def test_charts_toggle(self):
        with_charts = build_report(events=2500, sections=tiny_sections())
        without = build_report(events=2500, sections=tiny_sections(), charts=False)
        assert "```" in with_charts
        assert "```" not in without

    def test_progress_callback(self):
        seen = []
        build_report(
            events=2500, sections=tiny_sections(), progress=seen.append
        )
        assert seen == ["headline", "engine-paths", "tiny"]

    def test_rejects_bad_events(self):
        with pytest.raises(ExperimentError):
            build_report(events=0)

    def test_drift_flag_appends_drift_section(self):
        seen = []
        text = build_report(
            events=2500,
            sections=tiny_sections(),
            drift=True,
            progress=seen.append,
        )
        assert "## Workload drift (windowed telemetry)" in text
        assert "drift" in seen


def _figure_subcommands():
    """{name: parser} of the subcommands that draw a figure (``--csv``)."""
    (choices,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: sub
        for name, sub in choices.items()
        if any("--csv" in action.option_strings for action in sub._actions)
    }


def _tiny_runner(workload="server", events=100, seed=None):
    figure = FigureData(f"tiny-{workload}", f"Tiny ({workload})", "x", "y")
    figure.add_series("s").add(1, events)
    return figure


class TestEvaluationTable:
    def test_report_csvs_and_subcommands_come_from_the_table(self, tmp_path):
        rows = studies.STUDIES
        runners = {
            getattr(repro.experiments, name)
            for name in repro.experiments.__all__
            if name.startswith("run_") and name != "run_headline"
        }
        assert len(rows) == 13 and {row.run for row in rows} == runners
        seen = []
        build_report(events=500, charts=False, progress=seen.append)
        # One section per row and workload panel, in table order.
        assert seen[2:] == [
            f"{row.id}-{workload}" if workload else row.id
            for row in rows
            for workload in row.panels or ("",)
        ]
        assert len(seen[2:]) == 18
        export_csv.export_figures(500, out=tmp_path)
        assert {path.stem for path in tmp_path.glob("*.csv")} == {
            build().figure_id for _, build in studies.Evaluation(500).sections()
        }
        assert len(list(tmp_path.glob("*.csv"))) == 18
        figures = _figure_subcommands()
        assert set(figures) == {row.command for row in rows if row.command}
        assert len(figures) == 11
        for row in rows:
            if not row.command:
                continue
            options = {
                action.dest: action.default for action in figures[row.command]._actions
            }
            parameters = inspect.signature(row.run).parameters
            if "workload" in parameters:
                assert options["workload"] == parameters["workload"].default
            else:
                assert "workload" not in options
            assert ("workers" in options) == ("workers" in parameters)
            assert bool(row.credit) == ("workers" in parameters)

    def test_appended_row_reaches_report_csvs_and_parser(
        self, monkeypatch, tmp_path, capsys
    ):
        row = studies.Study(
            "tiny", _tiny_runner, ("users", "write"), command="tiny", help="tiny"
        )
        monkeypatch.setattr(studies, "STUDIES", studies.STUDIES + (row,))
        seen = []
        text = build_report(events=500, charts=False, progress=seen.append)
        assert seen[-2:] == ["tiny-users", "tiny-write"]
        assert text.endswith("## Tiny (users)\n\n| x | s |\n|---|---|\n| 1 | 500 |\n\n"
                             "## Tiny (write)\n\n| x | s |\n|---|---|\n| 1 | 500 |\n\n")
        export_csv.export_figures(500, out=tmp_path)
        assert (tmp_path / "tiny-write.csv").read_text() == "x,s\n1,500\n"
        assert "tiny" in _figure_subcommands()
        assert main(["tiny", "--events", "7", "--workload", "users"]) == 0
        assert "| 1 | 7 |" in capsys.readouterr().out

    def test_report_builds_each_figure_once(self):
        names = [name for name in repro.experiments.__all__ if name.startswith("run_")]
        codes = {getattr(repro.experiments, name).__code__: name for name in names}
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls[codes[frame.f_code], frame.f_locals.get("workload", "")] += 1

        sys.setprofile(profile)
        try:
            build_report(events=500, charts=False)
        finally:
            sys.setprofile(None)
        assert calls[("run_fig3", "server")] == 1
        for workload in ("workstation", "users", "server"):
            assert calls[("run_fig4", workload)] == 1
        assert set(calls.values()) == {1} and len(calls) == 18


class TestProvenanceDisabledNote:
    def test_rows_dashed_when_obs_disabled(self, monkeypatch):
        from repro.analysis.report import provenance_rows
        from repro.obs import registry as obs_registry

        # If the master switch never comes on, the traced replay emits
        # nothing — the table must dash the row, not print zeros.
        monkeypatch.setattr(obs_registry, "enable", lambda: None)
        rows = provenance_rows(events=500, workloads=("server",))
        assert rows[1] == ["server", "-", "-", "-", "-", "-"]

    def test_section_explains_dashes(self, monkeypatch):
        from repro.analysis.report import _provenance_section
        from repro.obs import registry as obs_registry

        monkeypatch.setattr(obs_registry, "enable", lambda: None)
        section = _provenance_section(events=500)
        assert "metric collection was disabled" in section

    def test_rows_populated_when_obs_enabled(self):
        from repro.analysis.report import provenance_rows

        rows = provenance_rows(events=500, workloads=("server",))
        assert rows[1][0] == "server"
        assert rows[1][1] != "-"


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        path = write_report(
            tmp_path / "report.md", events=2500, sections=tiny_sections()
        )
        assert path.exists()
        assert "Tiny section" in path.read_text()

    def test_creates_missing_directory(self, tmp_path):
        path = write_report(
            tmp_path / "new" / "report.md", events=2500, sections=tiny_sections()
        )
        assert "Tiny section" in path.read_text()
