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

**One process pool.**  Every process-backend path — :func:`fan_out`, the
geometry sweep (:func:`process_sweep`), the trace-chunk sweep
(:func:`process_chunk_sweep`) and placement scoring
(:class:`CandidateScorer`) — runs through :class:`ProcessPool`, which does
each cross-process job once: it publishes the caller's named numpy arrays
into one :mod:`multiprocessing.shared_memory` segment that workers map
zero-copy (a 100k-access trace or remap instance is never pickled per
task); it maps a module-level task body ``fn(item, shared)`` in input
order; it captures each task's obs delta in the worker and merges the
deltas in task order, so instrumented totals equal a serial run's; and
when the pool breaks (a dead worker, an OS error, an unpicklable task) it
reruns the tasks in-process — the same task body over the parent's own
arrays — and counts ``backend.fallbacks`` once.  Any other worker
exception propagates.

**Batch front door.**  :func:`run_batch` answers N
(graph, schedule, geometries, policy) queries the way a many-user service
must: queries are grouped by their content digest
(:func:`repro.runtime.trace_cache.trace_digest`), each distinct trace is
compiled **once** (through the persistent cache when one is configured),
geometry sweeps sharing a (trace, policy) pair are evaluated together so
the replay kernels' shared passes amortize across users, and evaluation
fans out over the selected backend.  Answers come back in query order.

Geometry presets default to ``index_scheme="mod"``: BENCH_placement.json's
``xor_gain`` of 1.0 was measured on DES only — other workloads gain
several-fold from xor folding (figures in docs/REPLAY.md) — so skewed
indexing stays an explicit ``index_scheme="xor"`` request.

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
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import CacheConfigError
from repro.obs import core as obs
from repro.obs import names as obs_names

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.shared_memory import SharedMemory

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
    "ProcessPool",
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

#: Service presets index sets with low block bits; xor folding is opt-in
#: (its measured gain of 1.0 holds on DES only — see the module docstring).
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


def _call(item: Tuple[Callable, object], _shared: Dict[str, object]) -> object:
    fn, arg = item
    return fn(arg)


def fan_out(
    fn: Callable,
    items: Sequence,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> List:
    """Ordered map: ``fan_out(fn, items)[i] == fn(items[i])``, always.

    The backend only chooses *where* each call runs; submission-order
    ``Executor.map`` (or the serial comprehension) guarantees the results
    come back in input order.  The process backend runs on a
    :class:`ProcessPool` (worker obs deltas merge back, a broken pool falls
    back in-process) and requires ``fn`` and each item to be picklable —
    module-level functions, not closures.
    """
    name, width = resolve(backend, workers, len(items))
    if name == "process":
        with ProcessPool(width) as pool:
            return pool.map(_call, [(fn, it) for it in items])
    obs.add(obs_names.BACKEND_TASKS, len(items))
    obs.gauge(obs_names.BACKEND_WIDTH, width)
    with obs.span(obs_names.BACKEND_MAP, backend=name):
        if name == "serial" or width <= 1:
            return [fn(it) for it in items]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=width) as pool:
            return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# the process pool: shared arrays, ordered map, obs merge, one fallback
# ----------------------------------------------------------------------
#: ``(key, dtype, shape, byte offset)`` of each array in a shared segment
ArraySpec = List[Tuple[str, str, Tuple[int, ...], int]]


def _views(buf: memoryview, spec: ArraySpec) -> Dict[str, np.ndarray]:
    """Zero-copy arrays over a mapped shared segment, laid out per ``spec``."""
    return {
        key: np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
        for key, dtype, shape, offset in spec
    }


#: worker-side state of the pool this process serves: the attached segment
#: (kept alive for the views) and the ``shared`` mapping tasks receive
_WORKER: Dict[str, object] = {}


def _attach(shm_name: str, spec: ArraySpec, values: Dict[str, object]) -> None:
    """Pool initializer: map the published arrays into this worker.

    Workers never unlink (or unregister) the segment — its lifetime belongs
    to the parent's pool, which unlinks it on close.  Attach-side
    registrations are set-idempotent in the resource tracker shared by the
    forked children, so the parent's single unlink leaves the books
    balanced.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    _WORKER["shm"] = shm
    _WORKER["shared"] = {**values, **_views(shm.buf, spec)}


def _run_task(
    task: Tuple[Callable, object, bool]
) -> Tuple[object, Optional[Dict]]:
    """Worker body of every pool task: ``fn(item, shared)``, inside an
    isolated obs capture when the parent is instrumented, so the task's
    metric/span delta rides back with its result for the parent to merge."""
    fn, item, want_obs = task
    shared = _WORKER["shared"]
    if not want_obs:
        return fn(item, shared), None
    with obs.capture(enabled=True) as cap:
        out = fn(item, shared)
    return out, cap.snapshot


class ProcessPool:
    """The one process pool: an ordered ``map`` of a module-level task body
    ``fn(item, shared) -> result`` over worker processes.

    ``shared`` maps names to the data every task reads.  Its numpy arrays
    are published once into one shared-memory segment (each at an 8-byte
    aligned offset, dtype and shape kept) that every worker maps zero-copy,
    so they are never pickled no matter how many tasks read them; any other
    value is pickled once into the worker initializer.  Workers and segment
    start on the first non-empty :meth:`map` and live until :meth:`close`
    (or the ``with`` block ends), so a caller mapping many small batches —
    the placement scorer — pays the startup once.

    Each :meth:`map` returns results in item order, counts
    ``backend.tasks``, spans ``backend.map``, merges the workers' obs
    deltas in item order and then gauges ``backend.width``.  If the pool
    breaks (``BrokenProcessPool``, ``OSError``, ``pickle.PicklingError``)
    the tasks rerun in-process as ``fn(item, shared)`` over the parent's
    own data — bit-identical, since task bodies are pure — and
    ``backend.fallbacks`` is counted once; every later map of a broken
    pool runs in-process too.  Any other exception a task raises
    propagates.
    """

    def __init__(
        self, width: int, shared: Optional[Mapping[str, object]] = None
    ) -> None:
        self.width = width
        self._shared: Dict[str, object] = dict(shared or {})
        self._shm: Optional["SharedMemory"] = None
        self._executor: Optional["ProcessPoolExecutor"] = None
        self._broken = False

    def _start(self) -> "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import shared_memory

        arrays = {
            k: np.ascontiguousarray(v)
            for k, v in self._shared.items()
            if isinstance(v, np.ndarray)
        }
        values = {k: v for k, v in self._shared.items() if k not in arrays}
        spec: ArraySpec = []
        size = 0
        for key, arr in arrays.items():
            spec.append((key, arr.dtype.str, tuple(arr.shape), size))
            size += -(-arr.nbytes // 8) * 8
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, size))
        for key, view in _views(self._shm.buf, spec).items():
            view[...] = arrays[key]
        self._executor = ProcessPoolExecutor(
            max_workers=self.width,
            mp_context=_mp_context(),
            initializer=_attach,
            initargs=(self._shm.name, spec, values),
        )
        return self._executor

    def _remote(
        self, fn: Callable, items: List
    ) -> Optional[List[Tuple[object, Optional[Dict]]]]:
        """Run the tasks on the workers; ``None`` once the pool is broken."""
        import pickle
        from concurrent.futures.process import BrokenProcessPool

        if self._broken:
            return None
        want_obs = obs.is_enabled()
        try:
            executor = self._executor or self._start()
            tasks = [(fn, item, want_obs) for item in items]
            return list(executor.map(_run_task, tasks))
        except (BrokenProcessPool, OSError, pickle.PicklingError):
            self._broken = True
            obs.add(obs_names.BACKEND_FALLBACKS)
            self.close()
            return None

    def map(self, fn: Callable, items: Sequence) -> List:
        items = list(items)
        obs.add(obs_names.BACKEND_TASKS, len(items))
        with obs.span(obs_names.BACKEND_MAP, backend="process"):
            done = self._remote(fn, items) if items else None
            if done is None:
                out = [fn(item, self._shared) for item in items]
            else:
                out = []
                for result, snap in done:
                    out.append(result)
                    if snap is not None:
                        obs.merge(snap)
        # gauged after the merge, so the workers' own inner (serial) sizing
        # decisions do not overwrite the pool's width
        obs.gauge(obs_names.BACKEND_WIDTH, self.width)
        return out

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if self._shm is not None:
            self._shm.close()
            self._shm.unlink()
            self._shm = None

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _chunk_slices(n_items: int, width: int) -> List[Tuple[int, int]]:
    """Contiguous, order-preserving chunk bounds: one-ish chunk per worker."""
    n_chunks = min(max(1, width), n_items)
    bounds = np.linspace(0, n_items, n_chunks + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_chunks)
        if bounds[i] < bounds[i + 1]
    ]


def _sweep_geometries(
    task: Tuple[List, str], shared: Dict[str, object]
) -> List[Tuple[int, Optional[List[int]]]]:
    """Task body: replay one geometry chunk over the shared trace.

    Returns per-geometry ``(misses, phase_bincount-or-None)`` — the reduced
    statistics, never the per-access masks, so nothing big crosses back.
    """
    from repro.runtime.replay import _mask_stats, replay_miss_masks

    geometries, policy = task
    masks = replay_miss_masks(shared["blocks"], geometries, policy=policy)  # type: ignore[arg-type]
    return _mask_stats(masks, shared["phases"])  # type: ignore[arg-type]


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
    slices = _chunk_slices(len(geometries), workers)
    tasks = [(list(geometries[lo:hi]), policy) for lo, hi in slices]
    shared = {"blocks": blocks, "phases": phases}
    with ProcessPool(len(slices), shared) as pool:
        parts = pool.map(_sweep_geometries, tasks)
    return [stat for part in parts for stat in part]


def _sweep_segment(
    task: Tuple[str, np.ndarray, List, bool], _shared: Dict[str, object]
) -> List[Tuple[int, Optional[List[int]]]]:
    """Task body: replay ONE trace chunk (all geometries) under its carry.

    The parent computed the chunk's recency carry (cheap, sequential) and
    ships it with the segment path; the task loads the segment arrays
    straight off disk — the cache's documented one-``.npz``-per-key layout —
    runs the lru/direct kernel's step on them, and returns reduced
    ``(misses, phase_bincount)`` per geometry, exactly the per-chunk terms
    the sequential kernel would have summed.
    """
    from repro.runtime.replay import _mask_stats, _recency_step

    path, carry, geometries, direct = task
    with np.load(path, allow_pickle=False) as data:
        blocks = np.asarray(data["blocks"], dtype=np.int64)
        phases = (
            np.asarray(data["phases"], dtype=np.uint8)
            if "phases" in data.files
            else None
        )
    return _mask_stats(_recency_step(blocks, carry, geometries, direct), phases)


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
    summed in chunk order, so totals are bit-identical to the sequential
    kernel.
    """
    from repro.runtime.replay import _add_stats, _recency_carries, _recency_direct
    from repro.runtime.streaming import ChunkedTrace

    assert isinstance(trace, ChunkedTrace)
    geoms = list(geometries)
    direct = _recency_direct(geoms, policy)  # a bad geometry fails in the parent
    tasks = [
        (str(trace.segment_path(i)), carry, geoms, direct)
        for i, (_blocks, _phases, carry) in enumerate(_recency_carries(trace))
    ]
    with ProcessPool(min(workers, max(1, len(tasks)))) as pool:
        parts = pool.map(_sweep_segment, tasks)
    stats: List[Tuple[int, Optional[List[int]]]] = [(0, None)] * len(geoms)
    for part in parts:
        stats = _add_stats(stats, part)
    return stats


# ----------------------------------------------------------------------
# placement candidate scoring
# ----------------------------------------------------------------------
def _score_candidate(starts: np.ndarray, shared: Dict[str, object]) -> List[int]:
    """Task body: per-target miss counts of one candidate's start vector.

    Returns the raw per-target counts (the caller folds them into whatever
    objective the search runs — weighted sum, worst-case ratio).  Serial
    scoring calls it directly; process scoring maps it over the pool.
    """
    from repro.mem.placement import _target_misses

    blocks = starts[shared["obj"]] + shared["off"]  # type: ignore[index]
    return _target_misses(
        blocks, shared["targets"], chunk_words=shared["chunk_words"]  # type: ignore[arg-type]
    )


class CandidateScorer:
    """Scores placement candidates — (order, gaps) start vectors — on the
    exact remap cost model, optionally across a process pool.

    The instance's ``obj_of_access``/``block_offset`` arrays (one entry per
    trace access — the big data) are published to shared memory once, on
    the first process-backend score; each candidate ships as its
    ``starts`` vector (one entry per object — tiny).  Serial and process
    scoring run the same task body and are bit-identical, so a search
    driven by this scorer takes the same trajectory on every backend —
    also when the pool breaks and scoring falls back in-process; only
    wall-time changes.  Use as a context manager or call :meth:`close` —
    the pool and segment live until then.

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
        self._shared: Dict[str, object] = {
            "obj": instance.obj_of_access,
            "off": instance.block_offset,
            "targets": self.targets,
            "chunk_words": chunk_words,
        }
        name, width = resolve(backend, workers, os.cpu_count() or 1)
        self._pool = ProcessPool(width, self._shared) if name == "process" else None

    def score_per(self, starts_list: Sequence[np.ndarray]) -> List[List[int]]:
        """Per-target miss counts, one list per candidate, in candidate
        order — the raw material for any objective (weighted sum, minimax
        worst-case ratio).  Counts toward :attr:`evals`."""
        self.evals += len(starts_list)
        if self._pool is None:
            return [_score_candidate(s, self._shared) for s in starts_list]
        return self._pool.map(_score_candidate, starts_list)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

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
    explicitly (the measured xor gain of 1.0 holds on DES only; other
    workloads gain several-fold — see docs/REPLAY.md)."""
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
