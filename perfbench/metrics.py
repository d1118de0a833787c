"""Names and units of every metric the benchmark reports.

Kept free of numpy and ``repro`` imports so the launcher (``run.py``) can
read it without paying the set-up it measures.
"""

#: End-to-end metrics of an untraced run (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
    "misses": "count",
}

#: Per-layer span totals: metric -> span name.  Each is the median over the
#: traced passes of that span's summed duration within a pass.
SPAN_SECONDS = {
    "graphs.build_s": "graphs.build",
    "core.partition_s": "core.partition",
    "core.schedule_s": "core.schedule",
    "compiled.compile_s": "compiled.compile",
    "replay.lru_s": "replay.lru",
    "replay.lru_sets_s": "replay.lru_sets",
    "replay.direct_s": "replay.direct",
    "replay.opt_s": "replay.opt",
    "replay.two_level_s": "replay.two_level",
    "placement.instance_s": "placement.instance",
    "placement.search_s.swap": "placement.search.swap",
    "placement.search_s.multiswap": "placement.search.multiswap",
    "placement.search_s.minimax": "placement.search.minimax",
    "streaming.compile_s": "streaming.compile",
    "streaming.replay.lru_s": "streaming.replay.lru",
    "streaming.replay.direct_s": "streaming.replay.direct",
    "streaming.replay.opt_s": "streaming.replay.opt",
    "streaming.replay.two_level_s": "streaming.replay.two_level",
    "trace_cache.recompile_s": "trace_cache.recompile",
}

#: Median single-eval latency per placement target: metric -> span name.
SPAN_MILLIS = {
    "placement.eval_ms.direct": "placement.eval.direct",
    "placement.eval_ms.lru_2way": "placement.eval.lru_2way",
    "placement.eval_ms.lru_4way": "placement.eval.lru_4way",
}

#: Per-pass counts the workloads record: metric -> unit.
COUNTS = {
    "graphs.modules": "count",
    "core.firings": "count",
    "compiled.accesses": "count",
    "replay.geometries": "count",
    "placement.gain": "ratio",
    "placement.worst_ratio": "ratio",
    "streaming.chunks": "count",
    "trace_cache.spill_mb": "MB",
}

LAYERS = (
    "graphs", "core", "compiled", "replay", "placement", "streaming",
    "trace_cache",
)

#: Every metric of a traced run (``--trace 1``), with its unit.
PER_LAYER = {
    **{name: "s" for name in SPAN_SECONDS},
    **{name: "ms" for name in SPAN_MILLIS},
    **COUNTS,
    "compiled.accesses_per_s": "1/s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}
