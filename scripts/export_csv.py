"""Regenerate results/csv/: every figure's data at full (60k) scale.

Usage::

    python scripts/export_csv.py [events]
    python scripts/export_csv.py --timeseries series.jsonl [--out series.csv]

The ``--timeseries`` mode converts a ``repro.ts/1`` JSONL export (from
``repro metrics --window N --ts-out`` or ``repro top --ts-out``) into a
flat CSV — one row per window sample, derived ratios included — for
plotting in external tools.
"""

import argparse
import csv
import sys
from pathlib import Path

from repro.analysis.export import figure_to_csv
from repro.errors import ReproError

#: Where the figure CSVs go.
RESULTS_CSV = Path(__file__).resolve().parent.parent / "results" / "csv"

#: CSV column order for time-series exports: identity first, then raw
#: counters, then the derived ratios plotting tools want directly.
TS_COLUMNS = (
    "source",
    "index",
    "start",
    "events",
    "seconds",
    "hits",
    "misses",
    "hit_ratio",
    "remote_requests",
    "store_fetches",
    "bytes_fetched",
    "group_installs",
    "companion_slots",
    "speculative_fetches",
    "prefetch_efficiency",
    "wasted_fetch_share",
    "evictions",
    "eviction_rate",
    "invalidations",
    "entropy",
    "events_per_sec",
    "label",
)


def export_timeseries_csv(source: Path, destination: Path) -> int:
    """Convert one ``repro.ts/1`` JSONL file to CSV; returns rows written."""
    from repro.obs import load_ts_jsonl

    loaded = load_ts_jsonl(source)
    destination.parent.mkdir(parents=True, exist_ok=True)
    with destination.open("w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(TS_COLUMNS)
        for sample in loaded["samples"]:
            record = sample.to_dict()
            writer.writerow(
                ["" if record[column] is None else record[column] for column in TS_COLUMNS]
            )
    return len(loaded["samples"])


def export_figures(events: int, out: Path = RESULTS_CSV) -> int:
    """Write every figure of the evaluation table to ``out`` as CSV."""
    from repro.experiments import Evaluation

    sections = Evaluation(events).sections()
    for _, build in sections:
        figure = build()
        figure_to_csv(figure, out / f"{figure.figure_id}.csv")
    print(f"wrote {len(sections)} CSVs to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "events",
        nargs="?",
        type=int,
        default=60_000,
        help="events per workload for figure CSVs (default: 60000)",
    )
    parser.add_argument(
        "--timeseries",
        type=Path,
        default=None,
        metavar="JSONL",
        help="convert one repro.ts/1 JSONL export to CSV instead",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="CSV destination for --timeseries (default: alongside the input)",
    )
    args = parser.parse_args(argv)
    try:
        if args.timeseries is None:
            return export_figures(args.events)
        destination = (
            args.out
            if args.out is not None
            else args.timeseries.with_suffix(".csv")
        )
        rows = export_timeseries_csv(args.timeseries, destination)
        print(f"wrote {rows} time-series rows to {destination}")
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
