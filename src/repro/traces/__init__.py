"""Trace substrate: event model, on-disk format, filters, statistics.

This package replaces the CMU DFSTrace toolchain the paper used: it
models file access events, persists them in a simple text format, and
provides the stream reductions (opens-only projection, intervening-cache
filtering) that the paper's analyses depend on.
"""

from .._lazy import lazy_exports

#: The public names, listed under the submodule that defines each.
_EXPORTS = {
    "adapters": ["from_csv", "from_path_lines", "from_strace_log"],
    "anonymize": [
        "anonymize_trace",
        "enumerate_trace",
        "verify_structure_preserved",
    ],
    "artifacts": [
        "CACHE_ENV_VAR",
        "artifact_path",
        "cache_dir",
        "load_or_generate",
        "load_or_generate_columnar",
    ],
    "columnar": [
        "ColumnarFormatError",
        "ColumnarTrace",
        "describe_columnar",
        "read_columnar",
        "validate_columnar",
        "write_columnar",
    ],
    "symbols": ["SymbolTable", "intern_sequence"],
    "events": ["EventKind", "Trace", "TraceEvent"],
    "filters": [
        "by_client",
        "by_kind",
        "by_predicate",
        "by_prefix",
        "cache_filtered",
        "collapse_repeats",
        "opens_only",
        "split_rounds",
    ],
    "merge": ["concatenate", "interleave", "prefix_files", "relabel_clients"],
    "reader": ["iter_events", "parse_event_line", "read_file_ids", "read_trace"],
    "stats": [
        "TraceSummary",
        "access_counts",
        "entropy_of_counts",
        "interreference_distances",
        "last_successor_repeat_rate",
        "popularity_gini",
        "summarize",
        "working_set_sizes",
    ],
    "writer": ["format_event", "write_trace"],
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
