"""Unit tests for series containers, ASCII charts, and exporters."""

import pytest

from repro.analysis.ascii_chart import render_figure, render_sparkline
from repro.analysis.export import figure_to_csv, figure_to_markdown, rows_to_markdown
from repro.analysis.series import FigureData, Series
from repro.errors import AnalysisError


@pytest.fixture
def small_figure():
    figure = FigureData(
        figure_id="figX",
        title="Test figure",
        xlabel="capacity",
        ylabel="hit rate",
        notes="unit test",
    )
    lru = figure.add_series("lru")
    lru.add(100, 0.5)
    lru.add(200, 0.6)
    g5 = figure.add_series("g5")
    g5.add(100, 0.7)
    g5.add(200, 0.8)
    return figure


class TestSeries:
    def test_add_and_project(self):
        series = Series("s")
        series.add(1, 2)
        series.add(3, 4)
        assert series.xs() == [1.0, 3.0]
        assert series.ys() == [2.0, 4.0]
        assert len(series) == 2

    def test_y_at(self):
        series = Series("s", points=[(1.0, 2.0)])
        assert series.y_at(1.0) == 2.0
        with pytest.raises(AnalysisError):
            series.y_at(9.0)


class TestFigureData:
    def test_duplicate_series_rejected(self, small_figure):
        with pytest.raises(AnalysisError):
            small_figure.add_series("lru")

    def test_get_series(self, small_figure):
        assert small_figure.get_series("g5").label == "g5"
        with pytest.raises(AnalysisError, match="lru"):
            small_figure.get_series("nope")

    def test_labels_in_order(self, small_figure):
        assert small_figure.labels() == ["lru", "g5"]

    def test_x_values_union(self, small_figure):
        small_figure.get_series("g5").add(300, 0.9)
        assert small_figure.x_values() == [100.0, 200.0, 300.0]

    def test_y_range(self, small_figure):
        assert small_figure.y_range() == (0.5, 0.8)

    def test_y_range_empty(self):
        figure = FigureData("f", "t", "x", "y")
        assert figure.y_range() == (0.0, 1.0)

    def test_to_rows_ragged(self, small_figure):
        small_figure.get_series("g5").add(300, 0.9)
        rows = small_figure.to_rows()
        assert rows[0] == ["capacity", "lru", "g5"]
        # The x=300 row has an empty cell for lru.
        last = rows[-1]
        assert last[0] == 300.0
        assert last[1] == ""
        assert last[2] == 0.9


class TestRenderFigure:
    def test_contains_title_legend_axes(self, small_figure):
        art = render_figure(small_figure)
        assert "Test figure" in art
        assert "lru" in art and "g5" in art
        assert "capacity" in art
        assert "hit rate" in art
        assert "unit test" in art

    def test_empty_figure(self):
        figure = FigureData("f", "Empty", "x", "y")
        assert "(no data)" in render_figure(figure)

    def test_rejects_tiny_canvas(self, small_figure):
        with pytest.raises(AnalysisError):
            render_figure(small_figure, width=4, height=2)

    def test_flat_series_renders(self):
        figure = FigureData("f", "Flat", "x", "y")
        series = figure.add_series("flat")
        for x in range(5):
            series.add(x, 1.0)
        art = render_figure(figure)
        assert "Flat" in art

    def test_single_point(self):
        figure = FigureData("f", "Dot", "x", "y")
        figure.add_series("s").add(1, 1)
        assert "Dot" in render_figure(figure)


class TestSparkline:
    def test_length_preserved(self):
        assert len(render_sparkline([1, 2, 3])) == 3

    def test_resampling(self):
        assert len(render_sparkline(list(range(100)), width=10)) == 10

    def test_flat_values(self):
        art = render_sparkline([5, 5, 5])
        assert len(set(art)) == 1

    def test_empty(self):
        assert render_sparkline([]) == ""


class TestExport:
    def test_csv_text(self, small_figure):
        text = figure_to_csv(small_figure)
        lines = text.strip().splitlines()
        assert lines[0] == "capacity,lru,g5"
        assert lines[1] == "100,0.5,0.7"

    def test_csv_to_file(self, small_figure, tmp_path):
        path = tmp_path / "fig.csv"
        figure_to_csv(small_figure, path)
        assert path.read_text().startswith("capacity")

    def test_csv_to_file_creates_missing_directory(self, small_figure, tmp_path):
        path = tmp_path / "new" / "fig.csv"
        figure_to_csv(small_figure, path)
        assert path.read_text().startswith("capacity")

    def test_markdown_table(self, small_figure):
        markdown = figure_to_markdown(small_figure)
        assert "**figX: Test figure**" in markdown
        assert "| capacity | lru | g5 |" in markdown
        assert "*unit test*" in markdown

    def test_markdown_no_caption(self, small_figure):
        markdown = figure_to_markdown(small_figure, caption=False)
        assert "figX" not in markdown

    def test_rows_to_markdown(self):
        rows = [["a", "b"], [1, 2.5]]
        markdown = rows_to_markdown(rows)
        assert markdown.splitlines()[0] == "| a | b |"
        assert "| 1 | 2.5 |" in markdown

    def test_rows_to_markdown_empty(self):
        assert rows_to_markdown([]) == ""
