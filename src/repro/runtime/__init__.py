"""Execution substrate: FIFO channel buffers bound to memory addresses, the
firing engine that moves tokens through the cache simulator, the trace
compiler and the policy-aware replay kernels that answer whole geometry
families in one pass, the execution backends (serial/thread/process fan-out
with shared-memory trace shipping and the ``run_batch`` service front door),
the persistent content-addressed trace cache, out-of-core streaming
compilation (chunked traces spilled to cache segments, replayed by the same
carried-state kernels, bit-identical to the monolithic path),
schedule representation/validation, and deadlock analysis."""

from repro.runtime.backend import (
    BACKENDS,
    ServiceAnswer,
    ServiceQuery,
    effective_workers,
    fan_out,
    geometry_sweep,
    run_batch,
)
from repro.runtime.buffers import ChannelBuffer
from repro.runtime.compiled import (
    CompiledTrace,
    TraceCompiler,
    compile_trace,
    measure_compiled,
    simulate_trace,
)
from repro.runtime.streaming import (
    ArrayChunkSource,
    ChunkedTrace,
    compile_trace_chunked,
    recency_carry,
    stream_masks,
    stream_stats,
)
from repro.runtime.trace_cache import (
    TraceCache,
    cached_compile_trace,
    trace_digest,
)
from repro.runtime.replay import (
    opt_stack_distances,
    per_set_stack_distances,
    replay_miss_masks,
    replay_misses,
)
from repro.runtime.looped import Loop, LoopedSchedule, compress_schedule
from repro.runtime.schedule import Schedule, validate_schedule
from repro.runtime.executor import (
    ExecutionResult,
    Executor,
    sink_stream_words,
    source_stream_words,
)
from repro.runtime.deadlock import fireable_modules, demand_driven_schedule

__all__ = [
    "BACKENDS",
    "ServiceAnswer",
    "ServiceQuery",
    "TraceCache",
    "cached_compile_trace",
    "effective_workers",
    "fan_out",
    "geometry_sweep",
    "run_batch",
    "trace_digest",
    "ChannelBuffer",
    "CompiledTrace",
    "TraceCompiler",
    "compile_trace",
    "measure_compiled",
    "simulate_trace",
    "ArrayChunkSource",
    "ChunkedTrace",
    "compile_trace_chunked",
    "recency_carry",
    "stream_masks",
    "stream_stats",
    "replay_miss_masks",
    "replay_misses",
    "per_set_stack_distances",
    "opt_stack_distances",
    "Loop",
    "LoopedSchedule",
    "compress_schedule",
    "Schedule",
    "validate_schedule",
    "ExecutionResult",
    "Executor",
    "source_stream_words",
    "sink_stream_words",
    "fireable_modules",
    "demand_driven_schedule",
]
