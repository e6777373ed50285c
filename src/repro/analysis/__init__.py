"""Analysis layer: series containers, ASCII charts, exporters."""

from .ascii_chart import render_figure, render_sparkline
from .export import figure_to_csv, figure_to_markdown, rows_to_markdown
from .predictability import (
    FilePredictability,
    PredictabilityProfile,
    entropy_timeline,
    per_file_predictability,
    predictability_heatmap,
    profile_sequence,
)
from .report import build_report, write_report
from .robustness import (
    SeedBand,
    band_figure,
    ordering_holds_for_every_seed,
    seed_sweep,
)
from .series import FigureData, Point, Series
from .timescale import (
    TimescaleReport,
    entropy_at_timescales,
    evaluate_at_timescales,
    policy_ordering_holds,
    split_into_rounds,
)

__all__ = [
    "FigureData",
    "FilePredictability",
    "PredictabilityProfile",
    "entropy_timeline",
    "per_file_predictability",
    "predictability_heatmap",
    "profile_sequence",
    "Point",
    "Series",
    "figure_to_csv",
    "figure_to_markdown",
    "render_figure",
    "render_sparkline",
    "rows_to_markdown",
    "build_report",
    "SeedBand",
    "band_figure",
    "ordering_holds_for_every_seed",
    "seed_sweep",
    "write_report",
    "TimescaleReport",
    "entropy_at_timescales",
    "evaluate_at_timescales",
    "policy_ordering_holds",
    "split_into_rounds",
]
