"""Out-of-core streaming: chunked trace compilation spilled to disk.

The monolithic engine (:mod:`repro.runtime.compiled`) materializes the whole
block trace in RAM before replaying it; schedules past ~10^7 accesses cannot
run at all.  This module converts compilation from memory-bounded to
disk-bounded without changing a single answer:
:func:`compile_trace_chunked` compiles a schedule in fixed-size chunks
(:meth:`~repro.runtime.compiled.TraceCompiler.compile_chunks`), spilling
each chunk to a content-addressed ``.npz`` segment in a
:class:`~repro.runtime.trace_cache.TraceCache`
(:func:`~repro.runtime.trace_cache.segment_digest` keys) and returning a
:class:`ChunkedTrace` — a disk-backed trace whose peak memory is
O(``chunk_words``), not O(trace length).  A corrupted or deleted segment
recompiles *alone*: the recompile pass re-runs the chunk generator but only
writes segments whose files are absent, so intact segments keep their
bytes and mtimes.

Replay needs nothing from here.  A :class:`ChunkedTrace` is a
:class:`~repro.runtime.replay.ChunkSource`, and every policy's one
carried-state kernel in :mod:`repro.runtime.replay` walks it chunk by chunk
(the monolithic replay is the same kernel over a one-chunk source).
:func:`~repro.runtime.compiled.simulate_trace` is the front door for both.
This module re-exports the chunk-source and streaming-replay names
(:class:`~repro.runtime.replay.ArrayChunkSource`,
:func:`~repro.runtime.replay.recency_carry`,
:func:`~repro.runtime.replay.stream_masks`,
:func:`~repro.runtime.replay.stream_stats`) for callers that think of them
as streaming.

Array dtype contract (statically enforced by lint rule R4, see
``docs/STATIC_ANALYSIS.md``): segment block ids are ``int64``, per-access
phase codes ``uint8``, and replayed miss masks ``bool``; any numpy
constructor in this module passes its dtype explicitly.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import CacheConfigError
from repro.graphs.sdf import StreamGraph
from repro.mem.layout import ObjectKey
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.runtime.compiled import CompiledTrace, TraceCompiler
from repro.runtime.replay import (
    ArrayChunkSource,
    ChunkSource,
    recency_carry,
    stream_masks,
    stream_stats,
)
from repro.runtime.schedule import Schedule
from repro.runtime.trace_cache import (
    TraceCache,
    default_cache,
    segment_digest,
    trace_digest,
)

__all__ = [
    "ChunkSource",
    "ArrayChunkSource",
    "ChunkedTrace",
    "recency_carry",
    "compile_trace_chunked",
    "stream_masks",
    "stream_stats",
]


class ChunkedTrace:
    """A compiled trace living on disk as content-addressed ``.npz`` segments.

    Duck-types the :class:`~repro.runtime.compiled.CompiledTrace` metadata
    surface (``label``/``block``/``accesses``/``firings``/``fire_counts``/
    ``source_fires``/``sink_fires``) so result assembly is shared, but never
    holds more than one chunk of block ids in memory.  :meth:`chunk` reads
    through the backing :class:`~repro.runtime.trace_cache.TraceCache`; a
    missing or corrupt segment (the cache's ``get`` discards and counts it)
    triggers a *segment-granular* recompile — the chunk generator re-runs
    but writes only absent segments, leaving intact ones untouched on disk.
    """

    def __init__(
        self,
        label: str,
        block: int,
        chunk_words: int,
        accesses: int,
        firings: int,
        fire_counts: Dict[str, int],
        source_fires: int,
        sink_fires: int,
        segment_keys: Sequence[str],
        cache: TraceCache,
        recompile: "Recompiler",
        owned: Optional[tempfile.TemporaryDirectory] = None,
    ) -> None:
        self.label = label
        self.block = int(block)
        self.chunk_words = int(chunk_words)
        self.accesses = int(accesses)
        self.firings = int(firings)
        self.fire_counts = dict(fire_counts)
        self.source_fires = int(source_fires)
        self.sink_fires = int(sink_fires)
        self.segment_keys = list(segment_keys)
        self.cache = cache
        self._recompile = recompile
        self._owned = owned  # keeps an owned spill directory alive

    @property
    def n_chunks(self) -> int:
        return len(self.segment_keys)

    def __len__(self) -> int:
        return self.accesses

    def chunk_bounds(self) -> List[Tuple[int, int]]:
        cw = self.chunk_words
        return [
            (i * cw, min((i + 1) * cw, self.accesses))
            for i in range(self.n_chunks)
        ]

    def segment_path(self, index: int) -> Path:
        """On-disk location of segment ``index`` (the cache's documented
        one-``.npz``-per-key layout); process workers read it directly."""
        return self.cache.path / f"{self.segment_keys[index]}.npz"

    def chunk(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        seg = self.cache.get(self.segment_keys[index])
        if seg is None:
            # missing or corrupt (get() already discarded and counted it):
            # recompile at segment granularity — only absent segments are
            # rewritten, intact ones keep their bytes and mtimes
            written = self._recompile()
            obs.add(obs_names.STREAM_RECOMPILED, max(1, written))
            seg = self.cache.get(self.segment_keys[index])
            if seg is None:
                raise CacheConfigError(
                    f"segment {index} of trace {self.label!r} could not be "
                    f"recompiled into {str(self.cache.path)!r}"
                )
        return seg.blocks, seg.phases

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedTrace({self.label!r}, accesses={self.accesses}, "
            f"chunk_words={self.chunk_words}, n_chunks={self.n_chunks})"
        )


class Recompiler(Protocol):
    """Re-runs a chunked compilation, writing only absent segments; returns
    the number of segments written."""

    def __call__(self) -> int: ...


# ----------------------------------------------------------------------
# chunked compilation
# ----------------------------------------------------------------------
def compile_trace_chunked(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    chunk_words: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
    count_external: bool = True,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    cache: Optional[TraceCache] = None,
) -> ChunkedTrace:
    """Compile ``schedule`` out-of-core: spill ``chunk_words``-access
    segments to a trace cache, return the :class:`ChunkedTrace` handle.

    Segments are keyed by
    :func:`~repro.runtime.trace_cache.segment_digest` over the parent
    :func:`~repro.runtime.trace_cache.trace_digest`, so a re-run of the same
    compilation skips every segment already on disk (the compile generator
    still executes — it is the only source of chunk boundaries and
    metadata — but no bytes are rewritten).  ``cache=None`` uses the
    configured default cache, else a trace-owned temporary directory with
    an effectively unbounded cap (eviction could otherwise drop a live
    segment mid-replay; a caller-supplied cache keeps its own cap, and an
    evicted segment simply recompiles on next access).
    """
    if chunk_words < 1:
        raise CacheConfigError(f"chunk_words must be >= 1, got {chunk_words}")
    if capacities is None:
        capacities = getattr(schedule, "capacities", None)
    if layout_order is not None:
        layout_order = list(layout_order)
    if placement is not None:
        placement = list(placement)
    owned: Optional[tempfile.TemporaryDirectory] = None
    if cache is None:
        cache = default_cache()
    if cache is None:
        owned = tempfile.TemporaryDirectory(prefix="repro-segments-")
        cache = TraceCache(owned.name, max_bytes=1 << 62)
    seg_cache: TraceCache = cache
    trace_key = trace_digest(
        graph, schedule, block, capacities=capacities, layout_order=layout_order,
        count_external=count_external, placement=placement, gaps=gaps,
    )

    def spill() -> Tuple[TraceCompiler, List[str], int]:
        compiler = TraceCompiler(
            graph, block, capacities=capacities, layout_order=layout_order,
            count_external=count_external, placement=placement, gaps=gaps,
        )
        keys: List[str] = []
        written = 0
        for index, (blocks, phases) in enumerate(
            compiler.compile_chunks(schedule, chunk_words=chunk_words)
        ):
            key = segment_digest(trace_key, index, chunk_words)
            keys.append(key)
            if not seg_cache.has(key):
                seg_cache.put(
                    key,
                    CompiledTrace(
                        label="segment", block=block, blocks=blocks, phases=phases
                    ),
                )
                written += 1
                obs.add(
                    obs_names.STREAM_SPILLED_BYTES,
                    int(blocks.nbytes) + int(phases.nbytes),
                )
        return compiler, keys, written

    with obs.span(obs_names.STREAM_COMPILE):
        compiler, keys, _written = spill()
    obs.add(obs_names.STREAM_CHUNKS, len(keys))
    obs.add(obs_names.COMPILE_CALLS)
    obs.add(obs_names.COMPILE_ACCESSES, compiler.last_accesses)

    def recompile() -> int:
        _compiler, _keys, written = spill()
        return written

    return ChunkedTrace(
        label=compiler.last_label,
        block=block,
        chunk_words=chunk_words,
        accesses=compiler.last_accesses,
        firings=compiler.last_firings,
        fire_counts=compiler.last_fire_counts,
        source_fires=compiler.last_source_fires,
        sink_fires=compiler.last_sink_fires,
        segment_keys=keys,
        cache=seg_cache,
        recompile=recompile,
        owned=owned,
    )
