"""Mobile file hoarding: grouping applied to disconnected operation.

The paper's second Section 6 future-work direction: fill a bounded
hoard before disconnection so offline work doesn't miss.  Group-closure
hoarding expands recent seeds through their dynamic groups, capturing
whole task working sets.
"""

from .._lazy import lazy_exports

#: The public names, listed under the submodule that defines each.
_EXPORTS = {
    "hoard": [
        "HOARD_POLICIES",
        "DisconnectionReport",
        "FrequencyHoard",
        "GroupClosureHoard",
        "HoardPolicy",
        "RecencyHoard",
        "compare_hoards",
        "simulate_disconnection",
    ],
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
