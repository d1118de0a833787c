"""Trace compilation: schedules -> flat block traces -> every geometry at once.

The :class:`~repro.runtime.executor.Executor` simulates one (schedule,
cache geometry) pair at a time, paying an OrderedDict operation per block
touch.  But the *block trace* a schedule generates does not depend on the
cache size at all — only on the memory layout (hence the block size ``B``)
— and fully-associative LRU is a stack algorithm, so one trace answers
every cache size in a single Mattson stack-distance pass
(:mod:`repro.analysis.misscurve`).  This module exploits both facts:

* :class:`TraceCompiler` compiles a schedule (flat
  :class:`~repro.runtime.schedule.Schedule` or lazy
  :class:`~repro.runtime.looped.LoopedSchedule`) against the same
  :class:`~repro.mem.layout.MemoryLayout` the executor would build, into a
  flat numpy array of block ids.  Each module's per-firing touch list is
  precomputed: its state blocks are a fixed array, and every circular-buffer
  window's block expansion is memoized by its address ranges (a buffer of
  capacity ``c`` only ever exposes ``c`` distinct windows per rate), so the
  per-firing work is a few dict lookups and array appends instead of
  per-block simulation.
* :func:`simulate_trace` answers a whole family of cache geometries from
  one compiled trace, for any replacement policy registered in
  :mod:`repro.cache.policy`, by dispatching to the vectorized replay
  kernels of :mod:`repro.runtime.replay`: fully-associative LRU (one
  Mattson stack-distance pass), set-associative LRU (per-set stack
  distances on the set-grouped trace), direct-mapped (per-frame last-block
  scan), OPT/Belady (a truncated priority-stack pass answering every swept
  capacity at once), and two-level hierarchies (``policy="two_level"``
  with :class:`~repro.cache.hierarchy.TwoLevelGeometry` sweep points: an
  L1 pass emits the miss sub-trace a second L2 pass replays).  Results are
  :class:`~repro.runtime.executor.ExecutionResult` rows identical — misses,
  accesses, and per-phase attribution — to running the stepwise engine per
  geometry.  ``workers=`` fans the per-geometry evaluation out over a
  thread pool after the shared distance passes.
* :func:`measure_compiled` is the drop-in replacement for
  ``Executor.measure`` on any replay-capable policy.

Array dtype contract (statically enforced by lint rule R4, see
``docs/STATIC_ANALYSIS.md``): block-id arrays are ``int64`` (the replay
kernels' input type), per-access phase codes are ``uint8`` (three codes),
and any per-access flag masks are ``bool``.  Every array constructor in
this module passes its dtype explicitly so a refactor cannot silently
change what the kernels replay.

Which path is vectorized, which is reference: the compiled replay above is
the production path for every geometry sweep — every registered policy has
a replay kernel; the stepwise engines — the
:class:`~repro.runtime.executor.Executor` driving a
:class:`~repro.cache.lru.LRUCache` / :class:`~repro.cache.direct.DirectMappedCache`
/ :class:`~repro.cache.hierarchy.TwoLevelCache`, and the heap-based
:func:`~repro.cache.opt.simulate_opt` — remain the differential-test
oracles.  :func:`repro.testing.oracles.assert_trace_equivalent` checks
executor and compiler agree block-for-block, and ``tests/test_replay.py``
plus ``tests/test_hierarchy_replay.py`` diff every replay kernel against
its stepwise oracle on random traces.  The data flow — schedule to trace
to sweep — is drawn end to end in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np

from repro.cache.base import CacheGeometry
from repro.errors import CacheConfigError
from repro.graphs.sdf import Channel, StreamGraph
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.mem.layout import ObjectKey
from repro.runtime.buffers import ChannelBuffer
from repro.runtime.executor import (
    ExecutionResult,
    build_memory_plan,
    require_input_tokens,
    require_output_space,
    sink_stream_words,
    source_stream_words,
)
from repro.runtime.schedule import Schedule

if TYPE_CHECKING:  # runtime import would cycle: streaming builds on this module
    from repro.runtime.streaming import ChunkedTrace

__all__ = [
    "CompiledTrace",
    "TraceCompiler",
    "compile_trace",
    "compile_trace_uncached",
    "simulate_trace",
    "measure_compiled",
]

#: Phase codes stored per block touch; index into ``PHASE_NAMES`` (0 = none).
PHASE_NAMES = ("", "state", "data", "stream")
_STATE, _DATA, _STREAM = 1, 2, 3


@dataclass
class CompiledTrace:
    """A schedule lowered to its cache-size-independent block trace.

    ``blocks[i]`` is the i-th block id touched (exactly the sequence a
    :class:`~repro.mem.trace.TracingCache` would record from the executor);
    ``phases[i]`` attributes the touch to state/data/stream.  ``phases`` may
    be ``None`` for traces recorded without attribution.
    """

    label: str
    block: int
    blocks: np.ndarray
    phases: Optional[np.ndarray] = None
    firings: int = 0
    fire_counts: Dict[str, int] = field(default_factory=dict)
    source_fires: int = 0
    sink_fires: int = 0

    @property
    def accesses(self) -> int:
        return int(self.blocks.shape[0])

    def distinct_blocks(self) -> int:
        """Compulsory-miss floor of the trace."""
        return int(np.unique(self.blocks).shape[0])

    def __len__(self) -> int:
        return self.accesses


class _ChannelPlan:
    """A real :class:`~repro.runtime.buffers.ChannelBuffer` plus a memoized
    range→block-id expansion.

    The buffer owns all circular-FIFO semantics (the same object the
    executor uses), so the compiled trace cannot drift from the stepwise
    path; compilation only adds a cache from the buffer's returned address
    ranges to the block-id array they span.  A buffer of capacity ``c``
    exposes at most ``c`` distinct windows per direction, so the cache
    stays small and hits on every steady-state firing.
    """

    __slots__ = ("buf", "src", "dst", "in_rate", "out_rate", "_block", "_cache")

    def __init__(self, ch: Channel, buf: ChannelBuffer, block: int) -> None:
        self.buf = buf
        self.src = ch.src
        self.dst = ch.dst
        self.in_rate = ch.in_rate
        self.out_rate = ch.out_rate
        self._block = block
        self._cache: Dict[tuple, np.ndarray] = {}

    def _blocks(self, ranges: Iterable[Tuple[int, int]]) -> np.ndarray:
        key = tuple(ranges)
        arr = self._cache.get(key)
        if arr is None:
            B = self._block
            ids: List[int] = []
            for start, length in ranges:
                ids.extend(range(start // B, (start + length - 1) // B + 1))
            arr = self._cache[key] = np.asarray(ids, dtype=np.int64)
        return arr

    def pop_blocks(self) -> np.ndarray:
        return self._blocks(self.buf.pop_ranges(self.in_rate))

    def push_blocks(self) -> np.ndarray:
        return self._blocks(self.buf.push_ranges(self.out_rate))


class _ModulePlan:
    """Precomputed per-firing touch template for one module."""

    __slots__ = ("name", "state_blocks", "ins", "outs", "in_words", "out_words")

    def __init__(self, name: str) -> None:
        self.name = name
        self.state_blocks: Optional[np.ndarray] = None
        self.ins: List[_ChannelPlan] = []
        self.outs: List[_ChannelPlan] = []
        self.in_words = 0   # external input words per firing (sources)
        self.out_words = 0  # external output words per firing (sinks)


class TraceCompiler:
    """Compiles schedules for one (graph, block size, capacities, layout).

    Shares the executor's memory setup
    (:func:`~repro.runtime.executor.build_memory_plan`) and its actual
    :class:`~repro.runtime.buffers.ChannelBuffer` objects, so the compiled
    trace is bit-identical to what a tracing cache would record.  The cache
    *size* is deliberately absent: one compiled trace serves every size via
    :func:`simulate_trace`.
    """

    def __init__(
        self,
        graph: StreamGraph,
        block: int,
        capacities: Optional[Dict[int, int]] = None,
        layout_order: Optional[Iterable[str]] = None,
        count_external: bool = True,
        placement: Optional[Sequence[ObjectKey]] = None,
        gaps: Optional[Dict[ObjectKey, int]] = None,
    ) -> None:
        self.graph = graph
        self.block = block
        caps, self.layout, self._ext_in_base, self._ext_out_base = build_memory_plan(
            graph, block, capacities=capacities, layout_order=layout_order,
            placement=placement, gaps=gaps,
        )
        self.capacities = caps
        self.count_external = count_external

        buffers = {
            cid: ChannelBuffer(cid, self.layout.buffer_region(cid)) for cid in caps
        }
        for ch in graph.channels():
            if ch.delay:
                buffers[ch.cid].prefill(ch.delay)
        plans_by_cid = {
            cid: _ChannelPlan(graph.channel(cid), buf, block)
            for cid, buf in buffers.items()
        }
        source_set = set(graph.sources())
        sink_set = set(graph.sinks())
        self._plans: Dict[str, _ModulePlan] = {}
        for mod in graph.modules():
            plan = _ModulePlan(mod.name)
            region = self.layout.state_region(mod.name)
            if region.length:
                spanned = range(region.start // block, (region.end - 1) // block + 1)
                plan.state_blocks = np.asarray(spanned, dtype=np.int64)
            plan.ins = [plans_by_cid[ch.cid] for ch in graph.in_channels(mod.name)]
            plan.outs = [plans_by_cid[ch.cid] for ch in graph.out_channels(mod.name)]
            if mod.name in source_set:
                plan.in_words = source_stream_words(graph, mod.name)
            if mod.name in sink_set:
                plan.out_words = sink_stream_words(graph, mod.name)
            self._plans[mod.name] = plan
        self._buffers = buffers
        # metadata of the most recent :meth:`compile_chunks` run; complete
        # once that generator is exhausted (:meth:`compile` reads them)
        self.last_label: str = "schedule"
        self.last_firings: int = 0
        self.last_fire_counts: Dict[str, int] = {}
        self.last_source_fires: int = 0
        self.last_sink_fires: int = 0
        self.last_accesses: int = 0

    def compile_chunks(
        self, schedule: Schedule, chunk_words: Optional[int] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Compile ``schedule`` as a stream of ``(blocks, phases)`` chunks.

        With ``chunk_words=None`` the whole trace is yielded as one final
        chunk (the monolithic case); otherwise every yielded chunk holds
        exactly ``chunk_words`` accesses except the last, which carries the
        remainder (an empty schedule yields no chunks).  Concatenating the
        chunks in order reproduces :meth:`compile`'s arrays bit for bit —
        the contract chunked compilation (:mod:`repro.runtime.streaming`)
        is differentially pinned on.  Peak memory while chunking is bounded
        by ``chunk_words`` plus one firing's touches, never the trace
        length.

        Validates feasibility exactly like ``Executor.fire`` and raises
        :class:`~repro.errors.ScheduleError` on the first violation.  The
        compiler mutates its buffer states, so each call continues where
        the previous one stopped — build a fresh compiler per run.  Trace
        metadata (label, firings, per-module fire counts, source/sink
        fires, total accesses) is complete once the generator is exhausted
        and is then readable from ``last_label``/``last_firings``/
        ``last_fire_counts``/``last_source_fires``/``last_sink_fires``/
        ``last_accesses``.
        """
        if chunk_words is not None and chunk_words < 1:
            raise CacheConfigError(
                f"chunk_words must be >= 1, got {chunk_words}"
            )
        plans = self._plans
        block = self.block
        count_external = self.count_external
        carry_blocks = np.zeros(0, dtype=np.int64)
        carry_phases = np.zeros(0, dtype=np.uint8)
        chunks: List[np.ndarray] = []
        codes: List[int] = []
        lens: List[int] = []
        pending = 0
        fire_counts: Dict[str, int] = {}
        firings = 0
        source_fires = 0
        sink_fires = 0
        accesses = 0
        ext_in_pos = 0
        ext_out_pos = 0
        self.last_label = getattr(schedule, "label", "schedule")

        it = (
            schedule.firings_iter()
            if hasattr(schedule, "firings_iter")
            else schedule.firings
        )
        for name in it:
            try:
                plan = plans[name]
            except KeyError:
                self.graph.module(name)  # raises GraphError with the usual message
                raise
            for cs in plan.ins:
                require_input_tokens(name, cs.src, cs.dst, cs.buf.tokens, cs.in_rate)
            for cs in plan.outs:
                require_output_space(name, cs.src, cs.dst, cs.buf.free, cs.out_rate)

            if plan.state_blocks is not None:
                chunks.append(plan.state_blocks)
                codes.append(_STATE)
                lens.append(plan.state_blocks.shape[0])
                pending += plan.state_blocks.shape[0]
            for cs in plan.ins:
                arr = cs.pop_blocks()
                chunks.append(arr)
                codes.append(_DATA)
                lens.append(arr.shape[0])
                pending += arr.shape[0]
            for cs in plan.outs:
                arr = cs.push_blocks()
                chunks.append(arr)
                codes.append(_DATA)
                lens.append(arr.shape[0])
                pending += arr.shape[0]
            if count_external:
                if plan.in_words:
                    start = self._ext_in_base + ext_in_pos
                    lo, hi = start // block, (start + plan.in_words - 1) // block
                    chunks.append(np.arange(lo, hi + 1, dtype=np.int64))
                    codes.append(_STREAM)
                    lens.append(hi - lo + 1)
                    pending += hi - lo + 1
                    ext_in_pos += plan.in_words
                if plan.out_words:
                    start = self._ext_out_base + ext_out_pos
                    lo, hi = start // block, (start + plan.out_words - 1) // block
                    chunks.append(np.arange(lo, hi + 1, dtype=np.int64))
                    codes.append(_STREAM)
                    lens.append(hi - lo + 1)
                    pending += hi - lo + 1
                    ext_out_pos += plan.out_words

            fire_counts[name] = fire_counts.get(name, 0) + 1
            firings += 1
            if plan.in_words:
                source_fires += 1
            if plan.out_words:
                sink_fires += 1

            if chunk_words is not None and pending >= chunk_words:
                blocks = np.concatenate([carry_blocks] + chunks)
                phases = np.concatenate([
                    carry_phases,
                    np.repeat(
                        np.asarray(codes, dtype=np.uint8),
                        np.asarray(lens, dtype=np.int64),
                    ),
                ])
                emitted = 0
                while blocks.shape[0] - emitted >= chunk_words:
                    yield (
                        blocks[emitted:emitted + chunk_words],
                        phases[emitted:emitted + chunk_words],
                    )
                    accesses += chunk_words
                    emitted += chunk_words
                # copies release the concatenated buffer once consumers drop
                # their chunk views, keeping the high-water mark at
                # O(chunk_words), not O(flushes)
                carry_blocks = blocks[emitted:].copy()
                carry_phases = phases[emitted:].copy()
                chunks, codes, lens = [], [], []
                pending = carry_blocks.shape[0]

        blocks = (
            np.concatenate([carry_blocks] + chunks)
            if (carry_blocks.shape[0] or chunks)
            else np.zeros(0, dtype=np.int64)
        )
        phases = np.concatenate([
            carry_phases,
            np.repeat(
                np.asarray(codes, dtype=np.uint8),
                np.asarray(lens, dtype=np.int64),
            ),
        ])
        self.last_firings = firings
        self.last_fire_counts = fire_counts
        self.last_source_fires = source_fires
        self.last_sink_fires = sink_fires
        self.last_accesses = accesses + blocks.shape[0]
        if chunk_words is None:
            yield blocks, phases
            return
        emitted = 0
        while blocks.shape[0] - emitted >= chunk_words:
            yield (
                blocks[emitted:emitted + chunk_words],
                phases[emitted:emitted + chunk_words],
            )
            emitted += chunk_words
        if blocks.shape[0] > emitted:
            yield blocks[emitted:], phases[emitted:]

    def compile(self, schedule: Schedule) -> CompiledTrace:
        """Compile every firing of ``schedule`` (flat or looped) to a trace.

        One full :meth:`compile_chunks` pass with no chunking: the whole
        trace materializes as a single chunk.  Validation, buffer mutation,
        and fresh-compiler caveats are exactly as documented there.
        """
        blocks, phases = next(self.compile_chunks(schedule, chunk_words=None))
        return CompiledTrace(
            label=self.last_label,
            block=self.block,
            blocks=blocks,
            phases=phases,
            firings=self.last_firings,
            fire_counts=dict(self.last_fire_counts),
            source_fires=self.last_source_fires,
            sink_fires=self.last_sink_fires,
        )


def compile_trace_uncached(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
    count_external: bool = True,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> CompiledTrace:
    """Always-compile core of :func:`compile_trace` (never reads the cache;
    what :func:`repro.runtime.trace_cache.cached_compile_trace` calls on a
    miss — routing it through :func:`compile_trace` would recurse)."""
    if capacities is None:
        capacities = getattr(schedule, "capacities", None)
    with obs.span(obs_names.COMPILE):
        compiler = TraceCompiler(
            graph,
            block,
            capacities=capacities,
            layout_order=layout_order,
            count_external=count_external,
            placement=placement,
            gaps=gaps,
        )
        trace = compiler.compile(schedule)
    obs.add(obs_names.COMPILE_CALLS)
    obs.add(obs_names.COMPILE_ACCESSES, trace.accesses)
    return trace


@overload
def compile_trace(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    capacities: Optional[Dict[int, int]] = ...,
    layout_order: Optional[Iterable[str]] = ...,
    count_external: bool = ...,
    placement: Optional[Sequence[ObjectKey]] = ...,
    gaps: Optional[Dict[ObjectKey, int]] = ...,
    chunk_words: None = ...,
) -> CompiledTrace: ...


@overload
def compile_trace(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    capacities: Optional[Dict[int, int]] = ...,
    layout_order: Optional[Iterable[str]] = ...,
    count_external: bool = ...,
    placement: Optional[Sequence[ObjectKey]] = ...,
    gaps: Optional[Dict[ObjectKey, int]] = ...,
    *,
    chunk_words: int,
) -> "ChunkedTrace": ...


def compile_trace(
    graph: StreamGraph,
    schedule: Schedule,
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    layout_order: Optional[Iterable[str]] = None,
    count_external: bool = True,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    chunk_words: Optional[int] = None,
) -> Union[CompiledTrace, "ChunkedTrace"]:
    """One-shot convenience: compile ``schedule`` against a fresh layout.

    ``capacities`` defaults to the schedule's own (the ``Executor.measure``
    convention), overlaid on minBuf.  ``placement`` fixes the complete
    object order and ``gaps`` the deliberate per-object padding (see
    :meth:`repro.mem.layout.MemoryLayout.place_graph`) — the path optimized
    layouts from :mod:`repro.mem.placement` take.

    When a persistent trace cache is configured
    (:func:`repro.runtime.trace_cache.configure`, the CLI's ``--cache-dir``),
    the compilation is content-addressed through it: a previously compiled
    identical input loads off disk instead of recompiling — bit-identical
    by the digest contract.  With no cache configured (the default), this
    compiles unconditionally and touches no disk.

    ``chunk_words`` switches to out-of-core streaming compilation: the
    trace is produced in fixed-size chunks that spill to content-addressed
    ``.npz`` segments as they are compiled, and the return value is a
    :class:`~repro.runtime.streaming.ChunkedTrace` whose peak memory is
    O(``chunk_words``) regardless of schedule length.  It replays through
    the same :func:`simulate_trace` front door, bit-identically to the
    monolithic trace.
    """
    from repro.runtime.trace_cache import cached_compile_trace, default_cache

    if chunk_words is not None:
        from repro.runtime.streaming import compile_trace_chunked

        return compile_trace_chunked(
            graph, schedule, block, chunk_words, capacities=capacities,
            layout_order=layout_order, count_external=count_external,
            placement=placement, gaps=gaps, cache=default_cache(),
        )
    if default_cache() is not None:
        trace, _key, _hit = cached_compile_trace(
            graph, schedule, block, capacities=capacities,
            layout_order=layout_order, count_external=count_external,
            placement=placement, gaps=gaps,
        )
        return trace
    return compile_trace_uncached(
        graph, schedule, block, capacities=capacities,
        layout_order=layout_order, count_external=count_external,
        placement=placement, gaps=gaps,
    )


def _result_from_stats(
    trace: Union[CompiledTrace, "ChunkedTrace"],
    misses: int,
    phase_counts: Optional[List[int]],
) -> ExecutionResult:
    """Assemble one :class:`ExecutionResult` from reduced replay statistics
    (what the process backend ships back instead of per-access masks)."""
    phase_misses: Dict[str, int] = {}
    if phase_counts is not None and misses:
        phase_misses = {
            PHASE_NAMES[code]: int(c)
            for code, c in enumerate(phase_counts)
            if c and PHASE_NAMES[code]
        }
    return ExecutionResult(
        label=trace.label,
        firings=trace.firings,
        misses=misses,
        accesses=trace.accesses,
        phase_misses=phase_misses,
        fire_counts=dict(trace.fire_counts),
        source_fires=trace.source_fires,
        sink_fires=trace.sink_fires,
    )


def simulate_trace(
    trace: Union[CompiledTrace, "ChunkedTrace"],
    geometries: Sequence[CacheGeometry],
    policy: str = "lru",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    chunk_words: Optional[int] = None,
) -> List[ExecutionResult]:
    """Miss counts of ``policy`` at every geometry from one compiled trace.

    Dispatches to the vectorized replay kernel registered for ``policy``
    (:mod:`repro.runtime.replay`): ``"lru"`` (fully associative via one
    Mattson stack-distance pass, or set-associative per ``geometry.ways``),
    ``"direct"`` (per-frame last-block scan), ``"opt"`` (Belady via a
    truncated priority-stack pass answering every swept capacity at once),
    or ``"two_level"`` (hierarchies: geometries are
    :class:`~repro.cache.hierarchy.TwoLevelGeometry` (L1, L2) pairs, and
    misses are memory transfers out of L2).  All geometries must share the
    trace's block size — the trace's addresses were laid out for it.  Each
    result is identical to running the stepwise engine for that policy on
    the same trace: same misses, same accesses, same per-phase miss
    attribution.

    ``backend`` selects where the evaluation runs
    (:mod:`repro.runtime.backend`): ``"serial"``/``"thread"`` run the
    kernels in-process (threads fan the per-geometry mask evaluation out
    after the shared distance passes, clamped per
    :func:`~repro.runtime.backend.effective_workers`); ``"process"`` ships
    the trace to a process pool once via shared memory and chunks the
    geometry list over it — bit-identical results in input order either
    way, since the kernels are pure functions of ``(blocks, geometries)``.
    ``backend=None`` (default) follows the configured process-wide default,
    preserving the historical ``workers=``-threads behaviour.

    ``trace`` may also be a :class:`~repro.runtime.streaming.ChunkedTrace`
    (out-of-core compilation), or pass ``chunk_words=`` with an in-memory
    trace to replay it in bounded-size chunks.  Either way the policy's one
    carried-state kernel walks the chunks — a whole in-memory trace is its
    one-chunk case — so the results are bit-identical (the differential
    contract of ``tests/test_streaming.py``); ``chunk_words=None`` follows
    the configured process-wide default
    (:func:`repro.runtime.backend.configure`, the CLI's ``--chunk-words``).
    On the process backend a whole in-memory trace fans its geometries out
    (:func:`~repro.runtime.backend.process_sweep`) and a
    :class:`~repro.runtime.streaming.ChunkedTrace` under lru/direct fans
    its chunks out (:func:`~repro.runtime.backend.process_chunk_sweep`),
    both on the one :class:`~repro.runtime.backend.ProcessPool`: a pool
    that breaks (dead worker, OS error, unpicklable task) reruns its tasks
    in-process, counted under ``backend.fallbacks``.
    """
    from repro.cache.policy import get_policy
    from repro.runtime.backend import (
        default_chunk_words,
        process_chunk_sweep,
        process_sweep,
        resolve,
    )
    from repro.runtime.replay import ArrayChunkSource, ChunkSource, _replay_stats
    from repro.runtime.streaming import ChunkedTrace

    geometries = list(geometries)
    for geom in geometries:
        if geom.block != trace.block:
            raise CacheConfigError(
                f"geometry block {geom.block} does not match trace block "
                f"{trace.block}; recompile the trace for this block size"
            )
    get_policy(policy)  # fail on unknown names here, not in a worker
    if chunk_words is None:
        chunk_words = default_chunk_words()
    source: ChunkSource
    if isinstance(trace, ChunkedTrace):
        source = trace
    else:
        whole = max(1, trace.accesses)
        source = ArrayChunkSource(
            trace.blocks, trace.phases,
            chunk_words=whole if chunk_words is None else chunk_words,
        )
    streamed = isinstance(trace, ChunkedTrace) or chunk_words is not None
    fan_chunks = isinstance(trace, ChunkedTrace) and policy in ("lru", "direct")
    name, width = resolve(
        backend, workers, source.n_chunks if fan_chunks else len(geometries)
    )
    stats: List[Tuple[int, Optional[List[int]]]]
    if name == "process" and geometries and source.accesses and (fan_chunks or not streamed):
        if isinstance(trace, ChunkedTrace):
            stats = process_chunk_sweep(trace, geometries, policy, width)
        else:
            stats = process_sweep(trace.blocks, trace.phases, geometries, policy, width)
    else:
        stats = _replay_stats(
            source, geometries, policy,
            workers=width if name == "thread" else None, streamed=streamed,
        )
    # counted parent-side, so process runs tally exactly like serial ones
    # (workers ship their replay counters back, never their misses)
    obs.add(obs_names.REPLAY_MISSES, sum(m for m, _counts in stats))
    return [_result_from_stats(trace, m, counts) for m, counts in stats]


def measure_compiled(
    graph: StreamGraph,
    geometry: CacheGeometry,
    schedule: Schedule,
    layout_order: Optional[Iterable[str]] = None,
    count_external: bool = True,
    policy: str = "lru",
    workers: Optional[int] = None,
    placement: Optional[Sequence[ObjectKey]] = None,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    backend: Optional[str] = None,
    cache: Optional[object] = None,
    chunk_words: Optional[int] = None,
) -> ExecutionResult:
    """Drop-in for ``Executor.measure``, via compilation.

    Compiles the schedule once and evaluates the single geometry with the
    vectorized kernel of ``policy`` — exact same result, no stepwise cache
    simulation.  ``cache`` (a :class:`repro.runtime.trace_cache.TraceCache`)
    routes the compilation through the persistent content-addressed cache;
    ``backend`` picks the execution backend exactly as in
    :func:`simulate_trace`.  ``chunk_words`` switches both the compilation
    and the replay to the out-of-core streaming path
    (:mod:`repro.runtime.streaming`): identical result, O(``chunk_words``)
    peak memory.
    """
    trace: Union[CompiledTrace, "ChunkedTrace"]
    if chunk_words is not None:
        from repro.runtime.streaming import compile_trace_chunked
        from repro.runtime.trace_cache import TraceCache, default_cache

        seg_cache = cache if isinstance(cache, TraceCache) else default_cache()
        trace = compile_trace_chunked(
            graph,
            schedule,
            geometry.block,
            chunk_words,
            layout_order=layout_order,
            count_external=count_external,
            placement=placement,
            gaps=gaps,
            cache=seg_cache,
        )
    elif cache is not None:
        from repro.runtime.trace_cache import cached_compile_trace

        trace, _key, _hit = cached_compile_trace(
            graph,
            schedule,
            geometry.block,
            layout_order=layout_order,
            count_external=count_external,
            placement=placement,
            gaps=gaps,
            cache=cache,  # type: ignore[arg-type]
        )
    else:
        trace = compile_trace(
            graph,
            schedule,
            geometry.block,
            layout_order=layout_order,
            count_external=count_external,
            placement=placement,
            gaps=gaps,
        )
    return simulate_trace(
        trace, [geometry], policy=policy, workers=workers, backend=backend
    )[0]
