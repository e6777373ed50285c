"""Unit tests for the full-evaluation report generator."""

import pytest

from repro.analysis.report import build_report, default_sections, write_report
from repro.analysis.series import FigureData
from repro.errors import AnalysisError


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
        with pytest.raises(AnalysisError):
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

    def test_default_sections_cover_every_figure(self):
        ids = [section_id for section_id, _ in default_sections(1000)]
        for expected in ("fig3-server", "fig4-users", "fig5-workstation",
                         "fig7", "fig8-write", "placement", "hoarding",
                         "attribution", "peer-caching"):
            assert expected in ids


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
