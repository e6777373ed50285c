"""Placement optimization: grouping applied to data layout.

The paper's Section 6 future-work direction, built out: a linear-seek
disk model, classical baselines (name order, organ-pipe frequency
placement), and group-based collocation in both the disjoint form
traditional placement requires and the overlapping/replicated form the
paper argues for — with the space overhead of overlap measured.
"""

from .._lazy import lazy_exports

#: The public names, listed under the submodule that defines each.
_EXPORTS = {
    "disk": ["DiskLayout", "SeekStats", "layout_from_order", "organ_pipe_order"],
    "strategies": [
        "PLACEMENTS",
        "compare_placements",
        "frequency_layout",
        "group_layout",
        "name_order_layout",
        "random_layout",
        "replicated_group_layout",
    ],
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
