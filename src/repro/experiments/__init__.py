"""Per-figure experiment definitions.

One module per paper figure; each ``run_*`` function returns
:class:`~repro.analysis.series.FigureData` (or a report object for the
headline claims).  The CLI, the examples, and the benchmark harness all
call these — there is exactly one definition of every experiment.
:data:`STUDIES` lists them once for the figure subcommands, the report
and the CSV export.
"""

from .._lazy import lazy_exports

#: The public names, listed under the submodule that defines each.
_EXPORTS = {
    "common": [
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
        "prewarm_workload",
        "workload_codes",
        "workload_columnar",
        "workload_sequence",
        "workload_trace",
    ],
    "extensions": [
        "run_adaptation",
        "run_attribution",
        "run_cooperation",
        "run_hoarding",
        "run_metadata_budget",
        "run_peer_caching",
        "run_placement",
        "run_server_capacity",
    ],
    "fig3": ["demand_fetches", "fetch_reduction", "fig3_point", "run_fig3"],
    "fig4": [
        "fig4_point",
        "improvement_over_lru",
        "make_server_cache",
        "run_fig4",
        "server_hit_rate",
    ],
    "fig5": ["fig5_point", "run_fig5"],
    "fig7": ["fig7_point", "run_fig7"],
    "fig8": ["fig8_point", "run_fig8"],
    "headline": ["HeadlineReport", "headline_from_figures", "run_headline"],
    "studies": ["STUDIES", "Evaluation", "Study"],
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
