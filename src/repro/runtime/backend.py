"""Execution backends: serial / thread / process fan-out behind ``workers=``.

Everything the replay engine parallelizes is an ordered map — per-geometry
mask evaluation in :func:`repro.runtime.replay.replay_miss_masks`,
per-candidate scoring in :func:`repro.mem.facility.local_search`, per-query
evaluation in :func:`run_batch` — so this module centralizes one contract:

* **Ordering.**  Every backend returns results in the exact order of its
  inputs: ``fan_out(fn, items)[i] == fn(items[i])`` for all ``i``,
  regardless of which worker finished first.  (Pools preserve submission
  order by construction — ``Executor.map`` yields in input order — and the
  serial path is a list comprehension.)  Callers never re-sort.
* **Clamping.**  Pool width is ``min(workers, len(items), os.cpu_count())``
  (:func:`effective_workers`): a pool wider than the item list or the
  machine only adds startup cost.  Zero/negative/None worker counts mean
  "serial".
* **Three names** (:data:`BACKENDS`): ``"serial"`` never builds a pool;
  ``"thread"`` uses a thread pool (numpy releases the GIL inside the heavy
  ufuncs, so threads help exactly when the work is vectorized);
  ``"process"`` uses a process pool for Python-heavy work the GIL would
  serialize.  An explicitly requested process backend keeps its pool even
  at one worker — a distinct process either way, so differential tests
  exercise the real cross-process path on any machine.

**Shipping traces to workers.**  A compiled trace is one or two large flat
arrays (``int64`` block ids, ``uint8`` phase codes — often 100k+ accesses).
Pickling them per task would dwarf the work, so :class:`SharedTrace`
publishes them once into a :mod:`multiprocessing.shared_memory` segment and
workers reconstruct zero-copy ``np.ndarray`` views over the mapped buffer
(:func:`process_sweep`); per-task payloads are just geometry lists.  The
placement scorer (:class:`CandidateScorer`) does the same with the
remap-instance arrays (``obj_of_access``/``block_offset``): candidates ship
as tiny per-object start vectors, never as traces.

**Batch front door.**  :func:`run_batch` answers N
(graph, schedule, geometries, policy) queries the way a many-user service
must: queries are grouped by their content digest
(:func:`repro.runtime.trace_cache.trace_digest`), each distinct trace is
compiled **once** (through the persistent cache when one is configured),
geometry sweeps sharing a (trace, policy) pair are evaluated together so
the replay kernels' shared passes amortize across users, and evaluation
fans out over the selected backend.  Answers come back in query order.

Geometry presets default to ``index_scheme="mod"``: BENCH_placement.json
measured ``xor_gain`` flat at 1.0 on the paper's workloads, so the service
path never pays the xor fold for zero gain (pass ``index_scheme="xor"``
explicitly to get skewed indexing — see docs/REPLAY.md).

Results are bit-identical across backends: the kernels are pure functions
of ``(blocks, geometries)``, so where the map runs cannot change what it
computes — ``tests/test_backend.py`` pins this differentially for every
registered policy under both index schemes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import CacheConfigError
from repro.obs import core as obs
from repro.obs import names as obs_names

if TYPE_CHECKING:
    from repro.cache.base import CacheGeometry
    from repro.graphs.sdf import StreamGraph
    from repro.mem.layout import ObjectKey
    from repro.mem.placement import PlacementInstance, PlacementTarget
    from repro.runtime.executor import ExecutionResult
    from repro.runtime.schedule import Schedule
    from repro.runtime.trace_cache import TraceCache

__all__ = [
    "BACKENDS",
    "DEFAULT_INDEX_SCHEME",
    "normalize_backend",
    "effective_workers",
    "resolve",
    "configure",
    "default_chunk_words",
    "fan_out",
    "SharedTrace",
    "process_sweep",
    "process_chunk_sweep",
    "CandidateScorer",
    "geometry_sweep",
    "ServiceQuery",
    "ServiceAnswer",
    "run_batch",
]

#: The three execution backends, in "least machinery" order.
BACKENDS = ("serial", "thread", "process")

#: Service presets index sets with low block bits: BENCH_placement.json's
#: ``xor_gain`` is flat at 1.0, so xor folding is opt-in, never default.
DEFAULT_INDEX_SCHEME = "mod"


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def normalize_backend(backend: str) -> str:
    """Validate a backend name against :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise CacheConfigError(
            f"unknown backend {backend!r}; choose one of {BACKENDS}"
        )
    return backend


def effective_workers(workers: Optional[int], n_items: int) -> int:
    """The pool width actually worth building:
    ``min(workers, n_items, os.cpu_count())``, floored at 1.

    ``None`` or a non-positive count means serial (width 1).  A pool wider
    than the item list idles from the first task; wider than the machine,
    it only adds scheduler pressure — neither can go faster.
    """
    if not workers or workers <= 1:
        return 1
    return max(1, min(int(workers), n_items, os.cpu_count() or 1))


_DEFAULTS: Dict[str, object] = {
    "backend": "thread",
    "workers": None,
    "chunk_words": None,
}


def configure(
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_words: Optional[int] = None,
) -> Tuple[str, Optional[int], Optional[int]]:
    """Set the process-wide default ``(backend, workers, chunk_words)``.

    This is what the CLI's ``--backend``/``--workers``/``--chunk-words``
    flags install so experiment drivers (which take no backend parameters)
    inherit the choice.  Returns the previous triple so callers can restore
    it (``configure(*previous)``).  The initial default —
    ``("thread", None, None)`` — reproduces the historical behaviour
    exactly: no pool unless a caller passes ``workers=``, monolithic replay
    unless a caller passes ``chunk_words=``.
    """
    previous = (
        str(_DEFAULTS["backend"]),
        _DEFAULTS["workers"],
        _DEFAULTS["chunk_words"],
    )
    if backend is not None:
        _DEFAULTS["backend"] = normalize_backend(backend)
    _DEFAULTS["workers"] = workers
    if chunk_words is not None and chunk_words < 1:
        raise CacheConfigError(f"chunk_words must be >= 1, got {chunk_words}")
    _DEFAULTS["chunk_words"] = chunk_words
    return previous  # type: ignore[return-value]


def default_chunk_words() -> Optional[int]:
    """The configured default replay chunk size, or ``None`` (monolithic).

    :func:`repro.runtime.compiled.simulate_trace` consults this whenever a
    caller passes no explicit ``chunk_words=``, so installing a default
    (the CLI's ``--chunk-words``) streams every replay in the process.
    """
    value = _DEFAULTS["chunk_words"]
    return None if value is None else int(value)  # type: ignore[arg-type]


def resolve(
    backend: Optional[str], workers: Optional[int], n_items: int
) -> Tuple[str, int]:
    """Resolve ``(backend, workers)`` call parameters to a concrete plan.

    ``backend=None`` reads the configured default (and, when ``workers`` is
    also ``None``, the configured default width).  An explicit ``"process"``
    request with no width gets every core; an unconfigured thread backend
    with no width stays serial (the pre-backend contract of ``workers=``).
    Returns ``(name, width)`` with width already clamped.
    """
    if backend is None:
        backend = str(_DEFAULTS["backend"])
        if workers is None:
            workers = _DEFAULTS["workers"]  # type: ignore[assignment]
        explicit = _DEFAULTS["workers"] is not None
    else:
        explicit = True
    backend = normalize_backend(backend)
    if backend == "serial":
        return "serial", 1
    if workers is None:
        if backend == "process" and explicit:
            workers = os.cpu_count() or 1
        else:
            return backend, 1
    width = effective_workers(workers, n_items)
    if width <= 1:
        # a process backend honoured at width 1 still crosses the process
        # boundary (differential tests rely on this); threads at width 1
        # are pure overhead and collapse to serial
        return ("process", 1) if backend == "process" else ("serial", 1)
    return backend, width


def _mp_context():
    import multiprocessing as mp

    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()  # pragma: no cover - non-fork platforms


def fan_out(
    fn: Callable,
    items: Sequence,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> List:
    """Ordered map: ``fan_out(fn, items)[i] == fn(items[i])``, always.

    The backend only chooses *where* each call runs; submission-order
    ``Executor.map`` (or the serial comprehension) guarantees the results
    come back in input order.  The process backend requires ``fn`` and each
    item to be picklable — module-level functions, not closures.
    """
    name, width = resolve(backend, workers, len(items))
    obs.add(obs_names.BACKEND_TASKS, len(items))
    obs.gauge(obs_names.BACKEND_WIDTH, width)
    with obs.span(obs_names.BACKEND_MAP, backend=name):
        if name == "serial" or width <= 1 and name != "process":
            return [fn(it) for it in items]
        if name == "thread":
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=width) as pool:
                return list(pool.map(fn, items))
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=width, mp_context=_mp_context()) as pool:
            return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# shared-memory trace shipping
# ----------------------------------------------------------------------
class SharedTrace:
    """A compiled trace published once into shared memory.

    Layout: ``n * 8`` bytes of ``int64`` block ids, then (optionally) ``n``
    bytes of ``uint8`` phase codes, in one segment.  Workers attach by name
    and build zero-copy ``np.ndarray`` views (:func:`_attach_trace`) — the
    arrays are never pickled, no matter how many tasks replay them.  Use as
    a context manager; the parent unlinks the segment on exit.
    """

    def __init__(self, blocks: np.ndarray, phases: Optional[np.ndarray]) -> None:
        from multiprocessing import shared_memory

        blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        self.n = int(blocks.shape[0])
        self.has_phases = phases is not None
        nbytes = self.n * 8 + (self.n if self.has_phases else 0)
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        view = np.ndarray((self.n,), dtype=np.int64, buffer=self._shm.buf)
        view[:] = blocks
        if phases is not None:
            pview = np.ndarray(
                (self.n,), dtype=np.uint8, buffer=self._shm.buf, offset=self.n * 8
            )
            pview[:] = np.ascontiguousarray(phases, dtype=np.uint8)
        self.name = self._shm.name

    def close(self) -> None:
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - double close
            pass

    def __enter__(self) -> "SharedTrace":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_WORKER_TRACE: Dict[str, object] = {}


def _attach_trace(shm_name: str, n: int, has_phases: bool) -> None:
    """Pool initializer: map the published trace into this worker, zero-copy.

    Workers never unlink (or unregister) the segment — its lifetime belongs
    to the parent's :class:`SharedTrace`, which unlinks once the pool is
    drained.  Attach-side registrations are set-idempotent in the resource
    tracker shared by the forked children, so the parent's single unlink
    leaves the books balanced.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    _WORKER_TRACE["shm"] = shm  # keep the mapping alive for the views below
    _WORKER_TRACE["blocks"] = np.ndarray((n,), dtype=np.int64, buffer=shm.buf)
    _WORKER_TRACE["phases"] = (
        np.ndarray((n,), dtype=np.uint8, buffer=shm.buf, offset=n * 8)
        if has_phases
        else None
    )


def _sweep_chunk(
    task: Tuple[int, List, str, bool]
) -> Tuple[int, List, Optional[Dict]]:
    """Worker body: replay one geometry chunk over the attached trace.

    Returns per-geometry ``(misses, phase_bincount-or-None)`` — the reduced
    statistics, never the per-access masks, so nothing big crosses back.
    When the parent had instrumentation enabled (``want_obs``), the chunk
    runs inside an isolated :class:`repro.obs.core.capture` scope and its
    metric/span delta rides back as the third element for the parent to
    merge — that is how spans aggregate across the process backend.
    """
    from repro.runtime.replay import _mask_stats, replay_miss_masks

    chunk_index, geometries, policy, want_obs = task
    blocks = _WORKER_TRACE["blocks"]
    phases = _WORKER_TRACE["phases"]

    def _stats() -> List[Tuple[int, Optional[List[int]]]]:
        masks = replay_miss_masks(blocks, geometries, policy=policy)  # type: ignore[arg-type]
        return _mask_stats(masks, phases)  # type: ignore[arg-type]

    if want_obs:
        with obs.capture(enabled=True) as cap:
            out = _stats()
        return chunk_index, out, cap.snapshot
    return chunk_index, _stats(), None


def _chunk_slices(n_items: int, width: int) -> List[Tuple[int, int]]:
    """Contiguous, order-preserving chunk bounds: one-ish chunk per worker."""
    n_chunks = min(max(1, width), n_items)
    bounds = np.linspace(0, n_items, n_chunks + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_chunks)
        if bounds[i] < bounds[i + 1]
    ]


def process_sweep(
    blocks: np.ndarray,
    phases: Optional[np.ndarray],
    geometries: Sequence,
    policy: str,
    workers: int,
) -> List[Tuple[int, Optional[List[int]]]]:
    """Per-geometry ``(misses, phase_bincount)`` via a process pool.

    The trace is published to shared memory once; geometry chunks (tiny,
    picklable) are the only per-task payload.  Results come back in
    geometry order.  Bit-identical to the in-process replay: the kernels
    are deterministic functions of ``(blocks, geometries)``.
    """
    from concurrent.futures import ProcessPoolExecutor

    slices = _chunk_slices(len(geometries), workers)
    want_obs = obs.is_enabled()
    tasks = [
        (i, list(geometries[lo:hi]), policy, want_obs)
        for i, (lo, hi) in enumerate(slices)
    ]
    obs.add(obs_names.BACKEND_TASKS, len(tasks))
    out: List[Optional[List]] = [None] * len(slices)
    snaps: List[Optional[Dict]] = [None] * len(slices)
    with obs.span(obs_names.BACKEND_MAP, backend="process"):
        with SharedTrace(blocks, phases) as shared:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(slices)),
                mp_context=_mp_context(),
                initializer=_attach_trace,
                initargs=(shared.name, shared.n, shared.has_phases),
            ) as pool:
                for chunk_index, stats, snap in pool.map(_sweep_chunk, tasks):
                    out[chunk_index] = stats
                    snaps[chunk_index] = snap
    # merge worker deltas in chunk order: the merged totals then equal
    # what one serial call over the full geometry list would have recorded;
    # the pool width is gauged after the merge so the workers' own inner
    # (serial) sizing decisions do not overwrite it
    for snap in snaps:
        if snap is not None:
            obs.merge(snap)
    obs.gauge(obs_names.BACKEND_WIDTH, min(workers, len(slices)))
    flat: List[Tuple[int, Optional[List[int]]]] = []
    for stats in out:
        assert stats is not None
        flat.extend(stats)
    return flat


def _stream_chunk_worker(
    task: Tuple[str, np.ndarray, List, bool, bool]
) -> Tuple[List[Tuple[int, Optional[List[int]]]], Optional[Dict]]:
    """Worker body: replay ONE trace chunk (all geometries) under its carry.

    The parent computed the chunk's recency carry (cheap, sequential) and
    ships it with the segment path; the worker loads the segment arrays
    straight off disk — the cache's documented one-``.npz``-per-key layout —
    runs the lru/direct kernel's step on them, and returns reduced
    ``(misses, phase_bincount)`` per geometry, exactly the per-chunk terms
    the sequential kernel would have summed.
    """
    from repro.runtime.replay import _mask_stats, _recency_step

    path, carry, geometries, direct, want_obs = task

    def _stats() -> List[Tuple[int, Optional[List[int]]]]:
        with np.load(path, allow_pickle=False) as data:
            blocks = np.asarray(data["blocks"], dtype=np.int64)
            phases = (
                np.asarray(data["phases"], dtype=np.uint8)
                if "phases" in data.files
                else None
            )
        return _mask_stats(_recency_step(blocks, carry, geometries, direct), phases)

    if want_obs:
        with obs.capture(enabled=True) as cap:
            stats = _stats()
        return stats, cap.snapshot
    return _stats(), None


def process_chunk_sweep(
    trace: "object",
    geometries: Sequence,
    policy: str,
    workers: int,
) -> List[Tuple[int, Optional[List[int]]]]:
    """Per-geometry ``(misses, phase_bincount)`` by fanning *trace chunks*
    (not geometries) over a process pool — the streaming counterpart of
    :func:`process_sweep` for a :class:`~repro.runtime.streaming.ChunkedTrace`.

    Chunk replays are independent once each chunk's recency carry is known,
    and the carries are cheap to compute (one vectorized fold per chunk), so
    the parent walks the chunks once to build carries while workers run
    the expensive distance passes (the lru/direct kernel's step).  Only
    lru/direct fan out this way — OPT and two-level carry kernel state
    *through* the chunks, which serializes them.  Per-chunk stats are
    summed in chunk order, and worker obs deltas merge in chunk order too,
    so totals are bit-identical to the sequential kernel.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.runtime.replay import _add_stats, _recency_carries, _recency_direct
    from repro.runtime.streaming import ChunkedTrace

    assert isinstance(trace, ChunkedTrace)
    geoms = list(geometries)
    direct = _recency_direct(geoms, policy)  # a bad geometry fails in the parent
    want_obs = obs.is_enabled()
    tasks = [
        (str(trace.segment_path(i)), carry, geoms, direct, want_obs)
        for i, (_blocks, _phases, carry) in enumerate(_recency_carries(trace))
    ]
    width = min(workers, max(1, len(tasks)))
    obs.add(obs_names.BACKEND_TASKS, len(tasks))
    stats: List[Tuple[int, Optional[List[int]]]] = [(0, None)] * len(geoms)
    with obs.span(obs_names.BACKEND_MAP, backend="process"):
        with ProcessPoolExecutor(
            max_workers=width, mp_context=_mp_context()
        ) as pool:
            # pool.map yields in chunk order: stats sum and worker deltas
            # merge exactly as the sequential kernel would record them
            for part, snap in pool.map(_stream_chunk_worker, tasks):
                stats = _add_stats(stats, part)
                if snap is not None:
                    obs.merge(snap)
    obs.gauge(obs_names.BACKEND_WIDTH, width)
    return stats


# ----------------------------------------------------------------------
# placement candidate scoring
# ----------------------------------------------------------------------
_SCORER_STATE: Dict[str, object] = {}


def _attach_scorer(
    shm_name: str,
    n: int,
    targets: List[Tuple["CacheGeometry", str, float]],
    want_obs: bool,
    chunk_words: Optional[int] = None,
) -> None:
    """Pool initializer: map the remap-instance arrays; keep targets local."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    _SCORER_STATE["shm"] = shm
    _SCORER_STATE["obj"] = np.ndarray((n,), dtype=np.int64, buffer=shm.buf)
    _SCORER_STATE["off"] = np.ndarray(
        (n,), dtype=np.int64, buffer=shm.buf, offset=n * 8
    )
    _SCORER_STATE["targets"] = targets
    _SCORER_STATE["obs"] = want_obs
    _SCORER_STATE["chunk_words"] = chunk_words


def _score_candidate_remote(
    task: Tuple[int, np.ndarray]
) -> Tuple[int, List[int], Optional[Dict]]:
    """Worker body: per-target miss counts of one candidate's start vector.

    Returns the raw per-target counts (the parent folds them into whatever
    objective the search runs — weighted sum, worst-case ratio) and ships
    the candidate's obs delta back when the parent had instrumentation
    enabled at pool construction.
    """
    from repro.mem.placement import _target_misses

    index, starts = task
    obj = _SCORER_STATE["obj"]
    off = _SCORER_STATE["off"]
    targets = _SCORER_STATE["targets"]

    def _per() -> List[int]:
        blocks = starts[obj] + off
        return _target_misses(
            blocks, targets, chunk_words=_SCORER_STATE.get("chunk_words")  # type: ignore[arg-type]
        )

    if _SCORER_STATE.get("obs"):
        with obs.capture(enabled=True) as cap:
            per = _per()
        return index, per, cap.snapshot
    return index, _per(), None


class CandidateScorer:
    """Scores placement candidates — (order, gaps) start vectors — on the
    exact remap cost model, optionally across a process pool.

    The instance's ``obj_of_access``/``block_offset`` arrays (one entry per
    trace access — the big data) are published to shared memory once at
    construction; each candidate ships as its ``starts`` vector (one entry
    per object — tiny).  Serial and process scoring are bit-identical, so a
    search driven by this scorer takes the same trajectory on every
    backend; only wall-time changes.  Use as a context manager or call
    :meth:`close` — the pool and segment live until then.

    ``evals`` counts every candidate ever scored through this scorer —
    :meth:`score_per` increments it by the number of candidates it
    evaluates, on every backend — so a search's
    ``RefineStats.evals`` can be read straight off the scorer instead of
    being re-derived by hand at each call site (the A12 "equal eval
    budget" comparisons are only honest if nothing is missed).
    """

    def __init__(
        self,
        instance: "PlacementInstance",
        targets: Sequence["PlacementTarget"],
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        chunk_words: Optional[int] = None,
    ) -> None:
        self.instance = instance
        self.targets = list(targets)
        self.chunk_words = chunk_words
        #: candidates scored so far (every backend, every score call)
        self.evals = 0
        name, width = resolve(backend, workers, os.cpu_count() or 1)
        self._pool = None
        if name == "process":
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import shared_memory

            obj = np.ascontiguousarray(instance.obj_of_access, dtype=np.int64)
            off = np.ascontiguousarray(instance.block_offset, dtype=np.int64)
            n = int(obj.shape[0])
            shm = shared_memory.SharedMemory(create=True, size=max(1, n * 16))
            np.ndarray((n,), dtype=np.int64, buffer=shm.buf)[:] = obj
            np.ndarray((n,), dtype=np.int64, buffer=shm.buf, offset=n * 8)[:] = off
            self._shm = shm
            self._pool = ProcessPoolExecutor(
                max_workers=width,
                mp_context=_mp_context(),
                initializer=_attach_scorer,
                # obs state is frozen at pool construction: enable
                # instrumentation before building the scorer
                initargs=(shm.name, n, self.targets, obs.is_enabled(), chunk_words),
            )
        else:
            self._shm = None

    def score_per(self, starts_list: Sequence[np.ndarray]) -> List[List[int]]:
        """Per-target miss counts, one list per candidate, in candidate
        order — the raw material for any objective (weighted sum, minimax
        worst-case ratio).  Counts toward :attr:`evals`."""
        self.evals += len(starts_list)
        if self._pool is None:
            from repro.mem.placement import _target_misses

            return [
                _target_misses(
                    starts[self.instance.obj_of_access] + self.instance.block_offset,
                    self.targets, chunk_words=self.chunk_words,
                )
                for starts in starts_list
            ]
        tasks = [(i, starts) for i, starts in enumerate(starts_list)]
        out_arr: List[List[int]] = [[] for _ in tasks]
        with obs.span(obs_names.BACKEND_MAP, backend="process"):
            # pool.map yields in submission order, so worker deltas merge
            # deterministically — same totals as the serial score path
            for i, per, snap in self._pool.map(_score_candidate_remote, tasks):
                out_arr[i] = per
                if snap is not None:
                    obs.merge(snap)
        return out_arr

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            self._shm = None

    def __enter__(self) -> "CandidateScorer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# batch front door
# ----------------------------------------------------------------------
def geometry_sweep(
    sizes: Iterable[int],
    block: int,
    ways: Optional[int] = None,
    index_scheme: str = DEFAULT_INDEX_SCHEME,
) -> List["CacheGeometry"]:
    """Service preset: one :class:`~repro.cache.base.CacheGeometry` per
    capacity, mod-indexed unless ``index_scheme="xor"`` is requested
    explicitly (the measured xor gain on the paper's workloads is 1.0 —
    see docs/REPLAY.md)."""
    from repro.cache.base import CacheGeometry

    return [
        CacheGeometry(
            size=int(s), block=int(block), ways=ways, index_scheme=index_scheme
        )
        for s in sizes
    ]


@dataclass
class ServiceQuery:
    """One user's question: misses of ``policy`` at every geometry for this
    (graph, schedule, layout) — the unit :func:`run_batch` deduplicates."""

    graph: "StreamGraph"
    schedule: "Schedule"
    block: int
    geometries: Sequence
    policy: str = "lru"
    capacities: Optional[Dict[int, int]] = None
    layout_order: Optional[Sequence[str]] = None
    count_external: bool = True
    placement: Optional[Sequence["ObjectKey"]] = None
    gaps: Optional[Dict["ObjectKey", int]] = None
    #: per-query replay chunk size; ``None`` inherits ``run_batch``'s
    chunk_words: Optional[int] = None
    #: placement strategy to run before answering (``None``/``"topo"`` =
    #: measure the seed layout as-is; any other registered name —
    #: ``swap``/``multiswap``/``smoothed``/``minimax`` — optimizes the
    #: layout first and the query is answered under the result)
    layout: Optional[str] = None
    #: multi-geometry objective for ``layout``; defaults to every query
    #: geometry at ``policy`` with weight 1
    layout_targets: Optional[Sequence[Tuple]] = None
    #: eval budget of the ``layout`` search
    layout_budget: int = 400
    #: padding blocks the ``layout`` search may spend
    gap_budget: int = 0
    #: smoothed-search knobs (``layout="smoothed"``); ``None`` = defaults
    restarts: Optional[int] = None
    noise: Optional[float] = None
    seed: Optional[int] = None


@dataclass
class ServiceAnswer:
    """One query's results plus its provenance within the batch.

    ``trace_key`` is the content digest the trace was filed under;
    ``cache_hit`` says the compiled trace came off the persistent cache,
    ``deduped`` that an earlier query in the same batch already owned the
    trace (so this one compiled nothing at all).
    """

    index: int
    trace_key: str
    cache_hit: bool
    deduped: bool
    results: List["ExecutionResult"] = field(default_factory=list)


def _resolve_layout(
    q: ServiceQuery,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> ServiceQuery:
    """Run a query's requested placement strategy and pin the result.

    Returns the query unchanged when no optimization was asked for
    (``layout`` absent or ``"topo"``); otherwise runs
    :func:`repro.mem.placement.optimize_placement` — against
    ``layout_targets`` when given, else every query geometry at the query's
    policy, weight 1 — and returns a copy carrying the optimized
    ``placement``/``gaps`` (so batch dedup keys on the *resolved* layout:
    two queries that optimize to the same placement share one trace).
    """
    if q.layout in (None, "topo"):
        return q
    from dataclasses import replace

    from repro.mem.placement import optimize_placement

    targets = q.layout_targets
    if targets is None:
        targets = [(g, q.policy, 1.0) for g in q.geometries]
    res = optimize_placement(
        q.graph, q.schedule, strategy=q.layout, capacities=q.capacities,
        order=q.layout_order, targets=targets, budget=q.layout_budget,
        gap_budget=q.gap_budget, backend=backend, workers=workers,
        restarts=q.restarts, noise=q.noise, seed=q.seed,
    )
    return replace(q, placement=res.order, gaps=res.gaps, layout=None)


def run_batch(
    queries: Sequence[ServiceQuery],
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    cache: Optional["TraceCache"] = None,
    chunk_words: Optional[int] = None,
) -> List[ServiceAnswer]:
    """Answer N queries with shared compilation, shared passes, one pool.

    0. Queries carrying a ``layout`` strategy (``swap``/``multiswap``/
       ``smoothed``/``minimax``) are resolved first
       (:func:`_resolve_layout`): the placement search runs under the
       query's targets and the query is answered — and deduplicated —
       under the optimized layout.
    1. Every query's compilation input is digested
       (:func:`repro.runtime.trace_cache.trace_digest`); queries with equal
       digests share one compiled trace — the batch compiles each distinct
       trace exactly once, through the persistent cache when ``cache`` (or
       a configured default) is present.
    2. Queries sharing a (trace, policy, chunk size) triple are evaluated
       in one replay call, concatenating their geometry lists so the
       kernels' shared passes (stack distances, set partitions) amortize
       across users.
    3. Evaluation fans out over ``backend``; answers return in query order,
       each tagged with its digest, cache-hit, and intra-batch dedup flags.

    ``chunk_words`` replays every trace in bounded-memory chunks
    (:func:`~repro.runtime.compiled.simulate_trace`) — bit-identical
    answers; a query's own ``chunk_words`` overrides the batch-wide value.
    """
    from repro.runtime.compiled import simulate_trace
    from repro.runtime.trace_cache import cached_compile_trace, trace_digest

    with obs.span(obs_names.BATCH):
        obs.add(obs_names.BATCH_QUERIES, len(queries))
        queries = [
            _resolve_layout(q, backend=backend, workers=workers)
            for q in queries
        ]
        keys = [
            trace_digest(
                q.graph, q.schedule, q.block, capacities=q.capacities,
                layout_order=q.layout_order, count_external=q.count_external,
                placement=q.placement, gaps=q.gaps,
            )
            for q in queries
        ]
        # compile each distinct trace once, in first-appearance order
        traces: Dict[str, Tuple[object, bool]] = {}
        deduped = [False] * len(queries)
        for i, (q, key) in enumerate(zip(queries, keys)):
            if key in traces:
                deduped[i] = True
                continue
            trace, _key, was_hit = cached_compile_trace(
                q.graph, q.schedule, q.block, capacities=q.capacities,
                layout_order=q.layout_order, count_external=q.count_external,
                placement=q.placement, gaps=q.gaps, cache=cache, key=key,
            )
            traces[key] = (trace, was_hit)
        obs.add(obs_names.BATCH_DEDUPED, sum(deduped))

        # group evaluation by (trace, policy, chunk size): one replay call
        # per group — mixing chunked and monolithic sweeps over one trace
        # stays correct because the answers are bit-identical either way
        groups: Dict[Tuple[str, str, Optional[int]], List[int]] = {}
        for i, (q, key) in enumerate(zip(queries, keys)):
            eff = q.chunk_words if q.chunk_words is not None else chunk_words
            groups.setdefault((key, q.policy, eff), []).append(i)
        obs.add(obs_names.BATCH_GROUPS, len(groups))

        answers: List[Optional[ServiceAnswer]] = [None] * len(queries)
        for (key, policy, eff), idxs in groups.items():
            trace, was_hit = traces[key]
            geoms: List = []
            bounds = [0]
            for i in idxs:
                geoms.extend(queries[i].geometries)
                bounds.append(len(geoms))
            results = simulate_trace(
                trace, geoms, policy=policy, workers=workers, backend=backend,  # type: ignore[arg-type]
                chunk_words=eff,
            )
            for slot, i in enumerate(idxs):
                answers[i] = ServiceAnswer(
                    index=i,
                    trace_key=key,
                    cache_hit=was_hit,
                    deduped=deduped[i],
                    results=results[bounds[slot]:bounds[slot + 1]],
                )
        return [a for a in answers if a is not None]
