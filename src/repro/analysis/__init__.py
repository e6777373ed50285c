"""Analysis layer: series containers, ASCII charts, exporters."""

from .._lazy import lazy_exports

#: The public names, listed under the submodule that defines each.
_EXPORTS = {
    "ascii_chart": ["render_figure", "render_sparkline"],
    "export": ["figure_to_csv", "figure_to_markdown", "rows_to_markdown"],
    "predictability": [
        "FilePredictability",
        "PredictabilityProfile",
        "entropy_timeline",
        "per_file_predictability",
        "predictability_heatmap",
        "profile_sequence",
    ],
    "report": ["build_report", "write_report"],
    "robustness": [
        "SeedBand",
        "band_figure",
        "ordering_holds_for_every_seed",
        "seed_sweep",
    ],
    "series": ["FigureData", "Point", "Series"],
    "timescale": [
        "TimescaleReport",
        "entropy_at_timescales",
        "evaluate_at_timescales",
        "policy_ordering_holds",
        "split_into_rounds",
    ],
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
