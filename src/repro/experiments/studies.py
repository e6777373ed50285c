"""The evaluation table: one row per study this repository reproduces.

``repro report`` renders one section per row and workload panel,
``scripts/export_csv.py`` writes the same figures as CSVs, and each row
that names a ``command`` is the ``repro <command>`` subcommand that
draws it.  Adding a study is adding one row.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Tuple, Union

from ..errors import ExperimentError

if TYPE_CHECKING:
    from ..analysis.series import FigureData
    from .headline import HeadlineReport


class Study(NamedTuple):
    """One row of :data:`STUDIES`.

    ``runner`` is the runner's public name in :mod:`repro.experiments`,
    imported the first time :attr:`run` is read, or the runner itself;
    reading the table imports no runner.
    ``panels`` are the workloads the report and the CSV export evaluate,
    one figure each; ``()`` evaluates the runner's own default.  A row
    with a ``command`` is also that CLI subcommand, with ``help`` as its
    help text; the subcommand's ``--workload`` default is the runner's,
    and it takes ``--workers`` exactly when the runner does.  ``credit``
    says how such a parameter sweep credits replayed events for its
    ``throughput:`` line: ``"point"`` (one trace replay per plotted
    point) or ``"series"`` (one replay per series).
    """

    id: str
    runner: Union[str, Callable[..., FigureData]]
    panels: Tuple[str, ...] = ()
    command: str = ""
    help: str = ""
    credit: str = ""

    @property
    def run(self) -> Callable[..., FigureData]:
        """The runner callable."""
        if isinstance(self.runner, str):
            return getattr(sys.modules[__package__], self.runner)
        return self.runner


#: Every study, in report order: id, runner name, panels, and for a
#: subcommand its name, help text and sweep credit.
STUDIES: Tuple[Study, ...] = (
    Study("fig3", "run_fig3", ("server", "write"), "fig3",
          "client demand fetches vs cache capacity, per group size", "point"),
    Study("fig4", "run_fig4", ("workstation", "users", "server"), "fig4",
          "server hit rate vs intervening client cache capacity", "point"),
    Study("fig5", "run_fig5", ("workstation", "server"), "fig5",
          "successor-list miss probability: Oracle vs LRU vs LFU", "point"),
    Study("fig7", "run_fig7", (), "fig7",
          "successor entropy vs successor sequence length", "series"),
    Study("fig8", "run_fig8", ("write", "users"), "fig8",
          "successor entropy of LRU-filtered miss streams", "series"),
    Study("placement", "run_placement", (), "placement",
          "grouping for data placement: seek distance by layout"),
    Study("hoarding", "run_hoarding", (), "hoard",
          "mobile hoarding: offline miss rate by hoard policy"),
    Study("cooperation", "run_cooperation", (), "cooperation",
          "server grouping with vs without piggy-backed client statistics"),
    Study("attribution", "run_attribution", (), "attribution",
          "global vs per-client successor tracking"),
    Study("adaptation", "run_adaptation", (), "adaptation",
          "hit rate across an abrupt workload shift"),
    Study("server-capacity", "run_server_capacity", (), "servercap",
          "server-capacity sensitivity of the Figure 4 result"),
    Study("peer-caching", "run_peer_caching"),
    Study("metadata-budget", "run_metadata_budget"),
)


class Evaluation:
    """The table's figures at one scale, each built at most once.

    The headline claims read the Figure 3 ``server`` panel and the
    Figure 4 panels, which are report sections too; both reach them
    through :meth:`figure`, so each (study, workload) runs once.
    """

    def __init__(self, events: int) -> None:
        if events <= 0:
            raise ExperimentError(f"events must be positive, got {events}")
        self.events = events
        self._figures: Dict[Tuple[str, str], FigureData] = {}

    def figure(self, study_id: str, workload: str = "") -> FigureData:
        """One study's figure on ``workload`` ("" for the runner's default)."""
        key = (study_id, workload)
        if key not in self._figures:
            (row,) = [row for row in STUDIES if row.id == study_id]
            options = {"workload": workload} if workload else {}
            self._figures[key] = row.run(events=self.events, **options)
        return self._figures[key]

    def sections(self) -> List[Tuple[str, Callable[[], FigureData]]]:
        """Every (section id, figure builder) pair of the table, in order."""
        return [
            (f"{row.id}-{workload}" if workload else row.id,
             partial(self.figure, row.id, workload))
            for row in STUDIES
            for workload in row.panels or ("",)
        ]

    def headline(self) -> HeadlineReport:
        """The headline claims, read off this evaluation's figures."""
        from .headline import HEADLINE_WORKLOADS, headline_from_figures

        return headline_from_figures(
            self.figure("fig3", "server"),
            {workload: self.figure("fig4", workload) for workload in HEADLINE_WORKLOADS},
            self.events,
        )
