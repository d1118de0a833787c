"""Memory layout (address assignment), access-trace recording, and
conflict-aware placement optimization."""

from repro.mem.facility import MULTISWAP, SWAP, MoveSet, local_search, smoothed_search
from repro.mem.layout import MemoryLayout, ObjectKey, Region, layout_objects
from repro.mem.placement import (
    PlacementInstance,
    PlacementResult,
    RefineStats,
    available_placements,
    build_instance,
    conflict_graph,
    get_placement,
    greedy_color_order,
    normalize_targets,
    optimize_instance,
    optimize_placement,
    placement_cost,
    placement_costs,
    register_placement,
    remap_blocks,
    remap_trace,
)
from repro.mem.trace import TraceRecorder, TracingCache

__all__ = [
    "MemoryLayout",
    "ObjectKey",
    "Region",
    "layout_objects",
    "TraceRecorder",
    "TracingCache",
    "PlacementInstance",
    "PlacementResult",
    "RefineStats",
    "available_placements",
    "build_instance",
    "conflict_graph",
    "get_placement",
    "greedy_color_order",
    "normalize_targets",
    "optimize_instance",
    "optimize_placement",
    "placement_cost",
    "placement_costs",
    "register_placement",
    "remap_blocks",
    "remap_trace",
    "MoveSet",
    "SWAP",
    "MULTISWAP",
    "local_search",
    "smoothed_search",
]
