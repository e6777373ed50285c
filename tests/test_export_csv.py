"""Tests for the repro.ts/1 → CSV converter (scripts/export_csv.py)."""

import csv
import importlib.util
from pathlib import Path

import pytest

from repro.obs import ObservabilityError, windowing, write_ts_jsonl
from repro.sim.engine import DistributedFileSystem
from repro.workloads.synthetic import make_workload

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "export_csv.py"
_spec = importlib.util.spec_from_file_location("export_csv", _SCRIPT)
export_csv = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(export_csv)


def _series(tmp_path):
    with windowing(window=500) as collector:
        DistributedFileSystem(client_capacity=150, group_size=4).replay(
            make_workload("server", 1500, seed=7)
        )
    collector.record_point(0, {"g": 4}, {"events": 1500}, 0.1)
    path = tmp_path / "series.jsonl"
    write_ts_jsonl(collector, path)
    return path, collector


class TestExportTimeseriesCsv:
    def test_one_row_per_sample_with_header(self, tmp_path):
        source, collector = _series(tmp_path)
        destination = tmp_path / "series.csv"
        rows = export_csv.export_timeseries_csv(source, destination)
        assert rows == len(collector.samples)
        with destination.open(newline="") as stream:
            parsed = list(csv.reader(stream))
        assert parsed[0] == list(export_csv.TS_COLUMNS)
        assert len(parsed) == rows + 1

    def test_values_survive_the_conversion(self, tmp_path):
        source, collector = _series(tmp_path)
        destination = tmp_path / "series.csv"
        export_csv.export_timeseries_csv(source, destination)
        with destination.open(newline="") as stream:
            parsed = list(csv.DictReader(stream))
        first = collector.samples[0]
        assert int(parsed[0]["events"]) == first.events
        assert float(parsed[0]["hit_ratio"]) == pytest.approx(first.hit_ratio)
        # The sweep sample keeps its label and renders None entropy as
        # an empty cell, not the string "None".
        assert parsed[-1]["label"] == "g=4"
        assert parsed[-1]["entropy"] == ""

    def test_rejects_non_ts_input(self, tmp_path):
        source = tmp_path / "bad.jsonl"
        source.write_text('{"kind": "meta", "schema": "other/1"}\n')
        with pytest.raises(ObservabilityError):
            export_csv.export_timeseries_csv(source, tmp_path / "out.csv")

    def test_cli_defaults_output_next_to_input(self, tmp_path, capsys):
        source, _ = _series(tmp_path)
        assert export_csv.main(["--timeseries", str(source)]) == 0
        assert source.with_suffix(".csv").exists()

    def test_cli_creates_the_destination_directory(self, tmp_path, capsys):
        source, collector = _series(tmp_path)
        destination = tmp_path / "new" / "series.csv"
        argv = ["--timeseries", str(source), "--out", str(destination)]
        assert export_csv.main(argv) == 0
        assert len(destination.read_text().splitlines()) == len(collector.samples) + 1

    def test_cli_non_ts_input_is_an_error_not_a_traceback(self, tmp_path, capsys):
        source = tmp_path / "bad.jsonl"
        source.write_text('{"kind": "meta", "schema": "other/1"}\n')
        assert export_csv.main(["--timeseries", str(source)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "repro.ts/1" in err
        assert not source.with_suffix(".csv").exists()


class TestExportFigures:
    @pytest.mark.parametrize("events", ["0", "-5"])
    def test_bad_scale_is_an_error_not_a_traceback(self, events, capsys):
        assert export_csv.main([events]) == 1
        assert capsys.readouterr().err == f"error: events must be positive, got {events}\n"
