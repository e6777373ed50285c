"""Per-figure experiment definitions.

One module per paper figure; each ``run_*`` function returns
:class:`~repro.analysis.series.FigureData` (or a report object for the
headline claims).  The CLI, the examples, and the benchmark harness all
call these — there is exactly one definition of every experiment.
:data:`STUDIES` lists them once for the figure subcommands, the report
and the CSV export.
"""

from .common import (
    DEFAULT_EVENTS,
    DEFAULT_SUCCESSOR_CAPACITY,
    FAST_EVENTS,
    FIG3_CAPACITIES,
    FIG3_GROUP_SIZES,
    FIG4_FILTER_CAPACITIES,
    FIG4_SERVER_CAPACITY,
    FIG5_LIST_SIZES,
    FIG7_LENGTHS,
    FIG8_FILTERS,
    prewarm_workload,
    workload_codes,
    workload_columnar,
    workload_sequence,
    workload_trace,
)
from .extensions import (
    run_adaptation,
    run_attribution,
    run_cooperation,
    run_hoarding,
    run_metadata_budget,
    run_peer_caching,
    run_placement,
    run_server_capacity,
)
from .fig3 import demand_fetches, fetch_reduction, fig3_point, run_fig3
from .fig4 import (
    fig4_point,
    improvement_over_lru,
    make_server_cache,
    run_fig4,
    server_hit_rate,
)
from .fig5 import fig5_point, run_fig5
from .fig7 import fig7_point, run_fig7
from .fig8 import fig8_point, run_fig8
from .headline import HeadlineReport, headline_from_figures, run_headline
from .studies import STUDIES, Evaluation, Study

__all__ = [
    "DEFAULT_EVENTS",
    "DEFAULT_SUCCESSOR_CAPACITY",
    "FAST_EVENTS",
    "FIG3_CAPACITIES",
    "FIG3_GROUP_SIZES",
    "FIG4_FILTER_CAPACITIES",
    "FIG4_SERVER_CAPACITY",
    "FIG5_LIST_SIZES",
    "FIG7_LENGTHS",
    "FIG8_FILTERS",
    "STUDIES",
    "Evaluation",
    "HeadlineReport",
    "Study",
    "demand_fetches",
    "fetch_reduction",
    "fig3_point",
    "fig4_point",
    "fig5_point",
    "fig7_point",
    "fig8_point",
    "headline_from_figures",
    "improvement_over_lru",
    "make_server_cache",
    "run_adaptation",
    "run_attribution",
    "run_cooperation",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig7",
    "run_fig8",
    "run_hoarding",
    "run_metadata_budget",
    "run_headline",
    "run_peer_caching",
    "run_placement",
    "run_server_capacity",
    "server_hit_rate",
    "prewarm_workload",
    "workload_codes",
    "workload_columnar",
    "workload_sequence",
    "workload_trace",
]
