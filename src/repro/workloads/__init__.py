"""Synthetic workload substrate.

Generates file-access traces with the qualitative properties of the
paper's four CMU DFSTrace workloads (see ``synthetic.py`` for the
substitution rationale), plus generic activity/session/Markov building
blocks for constructing custom workloads.
"""

from .._lazy import lazy_exports

#: The public names, listed under the submodule that defines each.
_EXPORTS = {
    "catalog": ["CATALOG", "WorkloadProfile", "catalog_rows", "describe_workload"],
    "activities": [
        "Access",
        "Activity",
        "MarkovActivity",
        "ScriptedActivity",
        "make_file_names",
    ],
    "markov": [
        "MarkovTraceGenerator",
        "TransitionTable",
        "cycle_with_noise",
        "validate_transitions",
    ],
    "sessions": ["ClientSession", "Interleaver", "SessionConfig"],
    "synthetic": [
        "SERVER_SPEC",
        "SHARED_UTILITIES",
        "USERS_SPEC",
        "WORKLOADS",
        "WORKSTATION_SPEC",
        "WRITE_SPEC",
        "WorkloadSpec",
        "build_workload",
        "make_server",
        "make_users",
        "make_workload",
        "make_workstation",
        "make_write",
    ],
    "zipf": ["ZipfSampler", "geometric", "zipf_choice"],
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
