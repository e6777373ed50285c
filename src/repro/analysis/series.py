"""Result containers: series and figures.

A :class:`Series` is one labelled line of (x, y) points; a
:class:`FigureData` is a titled set of series with axis labels — the
in-memory form of every figure the paper plots.  Experiments produce
these; the ASCII renderer, CSV/Markdown exporters, and EXPERIMENTS.md
generator all consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..errors import AnalysisError

Point = Tuple[float, float]


@dataclass
class Series:
    """One labelled line of points, kept in x order."""

    label: str
    points: List[Point] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point (x order is the caller's responsibility)."""
        self.points.append((float(x), float(y)))

    def xs(self) -> List[float]:
        """The x coordinates in order."""
        return [x for x, _ in self.points]

    def ys(self) -> List[float]:
        """The y coordinates in order."""
        return [y for _, y in self.points]

    def y_at(self, x: float) -> float:
        """The y value at an exact x; raises if the x is absent."""
        for px, py in self.points:
            if px == x:
                return py
        raise AnalysisError(f"series {self.label!r} has no point at x={x}")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class FigureData:
    """A complete figure: multiple series over shared axes."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list)
    notes: str = ""

    def add_series(self, label: str) -> Series:
        """Create, register, and return a new empty series."""
        if any(existing.label == label for existing in self.series):
            raise AnalysisError(f"figure already has a series {label!r}")
        new_series = Series(label=label)
        self.series.append(new_series)
        return new_series

    def get_series(self, label: str) -> Series:
        """Find a series by label; raises with the available labels."""
        for candidate in self.series:
            if candidate.label == label:
                return candidate
        labels = ", ".join(s.label for s in self.series)
        raise AnalysisError(
            f"no series {label!r} in figure {self.figure_id} (have: {labels})"
        )

    def labels(self) -> List[str]:
        """Series labels in registration order."""
        return [s.label for s in self.series]

    def x_values(self) -> List[float]:
        """Sorted union of all x coordinates across series."""
        xs = sorted({x for s in self.series for x, _ in s.points})
        return xs

    def y_range(self) -> Tuple[float, float]:
        """(min, max) over every y in the figure; (0, 1) when empty."""
        ys = [y for s in self.series for _, y in s.points]
        if not ys:
            return (0.0, 1.0)
        return (min(ys), max(ys))

    def to_rows(self) -> List[List[Any]]:
        """Tabular form: header row, then one row per x value.

        Missing points render as empty strings, which keeps ragged
        sweeps exportable.
        """
        header: List[Any] = [self.xlabel] + self.labels()
        rows: List[List[Any]] = [header]
        lookup: Dict[str, Dict[float, float]] = {
            s.label: dict(s.points) for s in self.series
        }
        for x in self.x_values():
            row: List[Any] = [x]
            for label in self.labels():
                value = lookup[label].get(x, "")
                row.append(value)
            rows.append(row)
        return rows
