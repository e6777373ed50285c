"""Exporters: CSV and Markdown renderings of figures.

CSV is the machine-readable archive of every reproduced figure;
Markdown tables feed EXPERIMENTS.md.  Both derive from
:meth:`~repro.analysis.series.FigureData.to_rows` so the tabular shape
is defined in one place.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, List, Sequence, TextIO, Union

from .series import FigureData


def _format_cell(value: Any) -> str:
    """Consistent cell formatting: floats to 6 significant digits."""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def figure_to_csv(figure: FigureData, destination: Union[str, Path, TextIO, None] = None) -> str:
    """Render a figure as CSV; optionally also write it out (a path's
    directory is created).

    Returns the CSV text in all cases so callers can both persist and
    inspect.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for row in figure.to_rows():
        writer.writerow([_format_cell(cell) for cell in row])
    text = buffer.getvalue()
    if destination is None:
        return text
    if isinstance(destination, (str, Path)):
        path = Path(destination)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    else:
        destination.write(text)
    return text


def figure_to_markdown(figure: FigureData, caption: bool = True) -> str:
    """Render a figure as a GitHub-flavored Markdown table."""
    rows = figure.to_rows()
    header, data = rows[0], rows[1:]
    lines: List[str] = []
    if caption:
        lines.append(f"**{figure.figure_id}: {figure.title}**")
        lines.append("")
    lines.append("| " + " | ".join(_format_cell(cell) for cell in header) + " |")
    lines.append("|" + "|".join(["---"] * len(header)) + "|")
    for row in data:
        lines.append("| " + " | ".join(_format_cell(cell) for cell in row) + " |")
    if figure.notes and caption:
        lines.append("")
        lines.append(f"*{figure.notes}*")
    return "\n".join(lines)


def rows_to_markdown(rows: Sequence[Sequence[Any]]) -> str:
    """Render arbitrary header+data rows as a Markdown table."""
    if not rows:
        return ""
    header, data = rows[0], rows[1:]
    lines = [
        "| " + " | ".join(_format_cell(cell) for cell in header) + " |",
        "|" + "|".join(["---"] * len(header)) + "|",
    ]
    for row in data:
        lines.append("| " + " | ".join(_format_cell(cell) for cell in row) + " |")
    return "\n".join(lines)
