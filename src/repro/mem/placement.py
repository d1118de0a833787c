"""Conflict-aware placement: optimize the memory layout against set conflicts.

A6 established the motivating fact: under the paper's fully-associative
model, layout is provably irrelevant (only the *set* of blocks touched
matters), but under direct-mapped and low-associativity organizations,
conflict misses are large and swing with layout in non-obvious ways —
conflicts depend on addresses modulo the set count, not on contiguity.
This module closes that loop: it searches the placement space
:meth:`repro.mem.layout.MemoryLayout.place_graph` exposes (any interleaving
of state regions and channel buffers, always block-aligned and
non-overlapping by construction, plus deliberate block-granular *gaps*
before chosen objects) for a layout that minimizes conflict misses at one
or several target (geometry, policy) pairs.

Three ideas make the search cheap and exact:

* **Block-remap cost model** — a placement is an object permutation plus a
  per-object gap vector, and every object's intra-region block offsets
  survive any permutation or padding (all regions are block-aligned, gaps
  are whole blocks), so a candidate's block trace is
  ``new_start[obj_of_access] + block_offset``: one gather over the trace
  compiled *once* under the seed layout, never a re-execution.  The score
  is then the actual miss count of the replay kernel
  (:func:`repro.runtime.replay.replay_misses`) on the remapped trace —
  bit-identical to recompiling under the candidate layout and simulating
  stepwise (``tests/test_placement.py`` asserts this exactly, gaps
  included).  External stream arenas ride along as two pseudo-objects whose
  bases shift with the candidate footprint, reproducing
  :func:`~repro.runtime.executor.build_memory_plan` arithmetic to the word.
* **Temporal-affinity conflict graph** — objects co-scheduled within a
  short reuse window of the trace are the ones that must not collide in a
  set.  The graph is extracted from the run-length-compressed object
  sequence of the compiled trace; nearer co-occurrences weigh more.
* **Strategies behind a registry** (the shape is classic: assigning hot
  objects to capacity-limited sets is capacitated facility location, and
  FLIP-style swap local search is cheap and effective on sparse conflict
  graphs): ``"color"`` greedily appends, at each cursor position, the
  unplaced object whose set span conflicts least with what is already
  placed (greedy set-coloring of the conflict graph, scheme-aware under
  xor-indexed targets); ``"topo"`` is the seed topological layout, kept
  as the baseline.  The search strategies (``"swap"``, ``"multiswap"``,
  ``"minimax"``, ``"smoothed"``) refine the color order with the one
  local-search engine in :mod:`repro.mem.facility` — pairwise swaps
  interleaved with *gap moves* (±1 block of padding before an object,
  bounded by ``gap_budget``), heavy conflict pairs first, scored with the
  *true* remap cost model — and register there.

**Multi-geometry objective.**  A7 showed a layout tuned for the
direct-mapped index can *regress* at 2-way — unacceptable when one binary
must deploy across cache organizations.  ``targets=[(geometry, policy,
weight), ...]`` scores candidates by the weighted miss sum across all
targets, and :func:`optimize_instance` only accepts a candidate that is
no worse than the seed **at every individual target** (falling back to
the seed otherwise), so optimized layouts are deployable: experiment A9
(:func:`repro.analysis.sweeps.ablation_a9_cross_geometry`) measures the
cross-geometry behaviour, including whether xor-indexed (skewed) caches
beat layout tuning outright.

:func:`optimize_placement` never returns a placement worse than the seed
(at any target), so callers can enable it unconditionally.  Wire-up:
experiments A7/A9/A12, CLI ``schedule --layout STRATEGY
[--layout-targets SPEC] [--gap-budget N] [--index-scheme {mod,xor}]``,
``benchmarks/bench_placement.py``, and ``examples/layout_tuning.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.base import CacheGeometry
from repro.errors import LayoutError
from repro.graphs.sdf import StreamGraph
from repro.mem.layout import ObjectKey, layout_objects
from repro.runtime.executor import EXT_OUT_SPAN

if TYPE_CHECKING:  # import cycle: the runtime layer sits above repro.mem
    from repro.runtime.compiled import CompiledTrace
    from repro.runtime.schedule import Schedule

__all__ = [
    "PlacementInstance",
    "PlacementResult",
    "build_instance",
    "normalize_targets",
    "remap_blocks",
    "remap_trace",
    "placement_cost",
    "placement_costs",
    "conflict_graph",
    "greedy_color_order",
    "RefineStats",
    "register_placement",
    "get_placement",
    "available_placements",
    "optimize_instance",
    "optimize_placement",
]

#: One optimization target: (geometry, policy name, positive weight).
PlacementTarget = Tuple[CacheGeometry, str, float]


@dataclass
class PlacementInstance:
    """One schedule's compiled trace, factored for placement search.

    ``objects`` is the seed placement order (index = object id);
    ``obj_of_access[i]`` is the object id access ``i`` touches, with two
    pseudo-ids past the real objects for the external input / output stream
    arenas, and ``block_offset[i]`` the access's block offset inside that
    object.  Together with per-object block counts this is everything a
    candidate (order, gaps) needs to reproduce its exact block trace.
    """

    graph: StreamGraph
    block: int
    trace: "CompiledTrace"
    objects: Tuple[ObjectKey, ...]
    lengths: np.ndarray
    nblocks: np.ndarray
    obj_of_access: np.ndarray
    block_offset: np.ndarray

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def index_of(self, key: ObjectKey) -> int:
        try:
            return self.objects.index(key)
        except ValueError:
            raise LayoutError(f"unknown placement object {key!r}") from None


def build_instance(
    graph: StreamGraph,
    schedule: "Schedule",
    block: int,
    capacities: Optional[Dict[int, int]] = None,
    order: Optional[Iterable[str]] = None,
    count_external: bool = True,
) -> PlacementInstance:
    """Compile ``schedule`` once under the seed layout and factor the trace.

    ``order`` is the seed state order (the baseline the optimizer must
    beat); ``capacities`` defaults to the schedule's own, exactly like
    :func:`repro.runtime.compiled.compile_trace`.
    """
    from repro.runtime.compiled import TraceCompiler

    if capacities is None:
        capacities = getattr(schedule, "capacities", None)
    if order is not None:
        order = list(order)  # consumed twice below: compiler and layout_objects
    compiler = TraceCompiler(
        graph, block, capacities=capacities, layout_order=order,
        count_external=count_external,
    )
    trace = compiler.compile(schedule)
    layout = compiler.layout
    objects = tuple(layout_objects(graph, order=order))

    n_obj = len(objects)
    lengths = np.empty(n_obj, dtype=np.int64)
    starts = np.empty(n_obj, dtype=np.int64)
    for i, (kind, key) in enumerate(objects):
        region = layout.state_region(key) if kind == "state" else layout.buffer_region(key)
        lengths[i] = region.length
        starts[i] = region.start // block
    nblocks = -(-lengths // block)

    # arena bases in block units (same arithmetic as build_memory_plan)
    ext_in_blk = layout.footprint // block + 2
    ext_out_blk = ext_in_blk + EXT_OUT_SPAN // block
    # shared-plan invariants: both arena bases must match the compiler's
    assert ext_in_blk * block == compiler._ext_in_base
    assert ext_out_blk * block == compiler._ext_out_base

    blocks = trace.blocks
    n = blocks.shape[0]
    obj = np.empty(n, dtype=np.int64)
    off = np.empty(n, dtype=np.int64)
    is_out = blocks >= ext_out_blk
    is_in = ~is_out & (blocks >= ext_in_blk)
    internal = ~(is_out | is_in)
    obj[is_out] = n_obj + 1
    off[is_out] = blocks[is_out] - ext_out_blk
    obj[is_in] = n_obj
    off[is_in] = blocks[is_in] - ext_in_blk
    if internal.any():
        nz = np.flatnonzero(nblocks > 0)
        nz_starts = starts[nz]  # strictly increasing: seed allocation order
        idx = np.searchsorted(nz_starts, blocks[internal], side="right") - 1
        obj[internal] = nz[idx]
        off[internal] = blocks[internal] - nz_starts[idx]
    return PlacementInstance(
        graph=graph,
        block=block,
        trace=trace,
        objects=objects,
        lengths=lengths,
        nblocks=nblocks,
        obj_of_access=obj,
        block_offset=off,
    )


# ----------------------------------------------------------------------
# block-remap cost model
# ----------------------------------------------------------------------
def _order_ids(instance: PlacementInstance, order: Sequence[ObjectKey]) -> List[int]:
    """Validate ``order`` as a permutation of the instance's objects."""
    index = {key: i for i, key in enumerate(instance.objects)}
    ids: List[int] = []
    seen = set()
    for key in order:
        oid = index.get(key)
        if oid is None:
            raise LayoutError(f"unknown placement object {key!r}")
        if oid in seen:
            raise LayoutError(f"placement repeats object {key!r}")
        seen.add(oid)
        ids.append(oid)
    if len(ids) != instance.n_objects:
        raise LayoutError(
            f"placement covers {len(ids)} of {instance.n_objects} objects"
        )
    return ids


def _gap_vector(
    instance: PlacementInstance, gaps: Optional[Dict[ObjectKey, int]]
) -> Optional[np.ndarray]:
    """Validate a gaps map into a per-object-id block-count vector.

    ``None``/empty means no padding (the pure-permutation search space).
    Every key must name an instance object; every value must be a
    non-negative whole number of blocks.
    """
    if not gaps:
        return None
    vec = np.zeros(instance.n_objects, dtype=np.int64)
    for key, blocks in gaps.items():
        oid = instance.index_of(key)
        if not isinstance(blocks, (int, np.integer)) or isinstance(blocks, bool) \
                or blocks < 0:
            raise LayoutError(
                f"gap for {key!r} must be a non-negative block count, "
                f"got {blocks!r}"
            )
        vec[oid] = int(blocks)
    return vec


def _placed_starts(
    instance: PlacementInstance,
    order_ids: Sequence[int],
    gap_vec: Optional[np.ndarray] = None,
) -> np.ndarray:
    """New start block per object id (plus the two stream pseudo-objects),
    replaying the aligned-cursor allocator — gap insertion included — over
    the candidate order."""
    block = instance.block
    lengths = instance.lengths
    starts = np.empty(instance.n_objects + 2, dtype=np.int64)
    cursor = 0
    for oid in order_ids:
        rem = cursor % block
        if rem:
            cursor += block - rem
        if gap_vec is not None:
            cursor += int(gap_vec[oid]) * block
        starts[oid] = cursor // block
        cursor += int(lengths[oid])
    ext_in = cursor // block + 2
    starts[instance.n_objects] = ext_in
    starts[instance.n_objects + 1] = ext_in + EXT_OUT_SPAN // block
    return starts


def remap_blocks(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> np.ndarray:
    """The exact block trace ``(order, gaps)`` would compile to — one gather."""
    starts = _placed_starts(
        instance, _order_ids(instance, order), _gap_vector(instance, gaps)
    )
    return starts[instance.obj_of_access] + instance.block_offset


def remap_trace(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> "CompiledTrace":
    """A full :class:`~repro.runtime.compiled.CompiledTrace` under ``(order,
    gaps)`` (same phases/firings metadata; only addresses move), ready for
    :func:`~repro.runtime.compiled.simulate_trace`."""
    from dataclasses import replace

    return replace(instance.trace, blocks=remap_blocks(instance, order, gaps=gaps))


def placement_cost(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    geometry: CacheGeometry,
    policy: str = "direct",
    gaps: Optional[Dict[ObjectKey, int]] = None,
    chunk_words: Optional[int] = None,
) -> int:
    """Misses of ``policy`` at ``geometry`` under the candidate placement.

    Exact, not an estimate: the remapped trace is bit-identical to what the
    compiler would produce for this placement (gaps included), and the
    replay kernels agree miss-for-miss with the stepwise simulators.
    ``chunk_words`` replays the remapped trace in bounded-memory chunks —
    the same count, by the streaming differential contract.
    """
    return _target_misses(
        remap_blocks(instance, order, gaps=gaps),
        [(geometry, policy, 1.0)],
        chunk_words=chunk_words,
    )[0]


def normalize_targets(
    targets: Sequence[PlacementTarget], block: Optional[int] = None
) -> List[PlacementTarget]:
    """Validate a multi-geometry objective spec.

    Each entry is ``(geometry, policy, weight)`` with a positive finite
    weight; all geometries must share one block size (``block`` when given
    — the instance's — since one compiled trace scores every target).
    """
    out: List[PlacementTarget] = []
    if not targets:
        raise LayoutError("targets must name at least one (geometry, policy, weight)")
    for entry in targets:
        try:
            geometry, policy, weight = entry
        except (TypeError, ValueError):
            raise LayoutError(
                f"each target is a (geometry, policy, weight) triple, got {entry!r}"
            ) from None
        if not isinstance(geometry, CacheGeometry):
            raise LayoutError(f"target geometry must be a CacheGeometry, got {geometry!r}")
        weight = float(weight)
        if not np.isfinite(weight) or weight <= 0:
            raise LayoutError(f"target weight must be positive and finite, got {weight!r}")
        if block is not None and geometry.block != block:
            raise LayoutError(
                f"target geometry block {geometry.block} does not match the "
                f"instance block {block}"
            )
        out.append((geometry, str(policy), weight))
    return out


def _target_misses(
    blocks: np.ndarray,
    targets: Sequence[PlacementTarget],
    chunk_words: Optional[int] = None,
) -> List[int]:
    """Per-target miss counts of one remapped trace, sharing replay passes
    across targets of the same policy (the kernels memoize per organization).
    ``chunk_words`` walks the trace in chunks of that size — same counts,
    O(``chunk_words``) peak memory per pass."""
    from repro.runtime.replay import ArrayChunkSource, _replay_stats

    whole = max(1, len(blocks))
    source = ArrayChunkSource(blocks, chunk_words=whole if chunk_words is None else chunk_words)
    by_policy: Dict[str, List[int]] = {}
    for i, (_geom, policy, _w) in enumerate(targets):
        by_policy.setdefault(policy, []).append(i)
    out: List[int] = [0] * len(targets)
    for policy, idxs in by_policy.items():
        stats = _replay_stats(
            source, [targets[i][0] for i in idxs], policy,
            streamed=chunk_words is not None,
        )
        for i, (m, _counts) in zip(idxs, stats):
            out[i] = m
    return out


def placement_costs(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    targets: Sequence[PlacementTarget],
    gaps: Optional[Dict[ObjectKey, int]] = None,
) -> List[int]:
    """Per-target miss counts of the candidate placement (multi-geometry
    form of :func:`placement_cost`; one remap gather, shared replay passes)."""
    return _target_misses(
        remap_blocks(instance, order, gaps=gaps),
        normalize_targets(targets, block=instance.block),
    )


# ----------------------------------------------------------------------
# temporal-affinity conflict graph
# ----------------------------------------------------------------------
def conflict_graph(
    instance: PlacementInstance, window: int = 8
) -> Dict[Tuple[int, int], float]:
    """Edge weights between object ids co-scheduled within ``window`` runs.

    The trace's object sequence is run-length compressed (a firing touches
    each object in one contiguous burst); two distinct objects whose runs
    fall within ``window`` positions of each other get an edge, weighted
    ``window - gap + 1`` so immediate neighbours dominate.  Stream arenas
    are excluded — they are not placeable.  High weight = mapping the pair
    to the same set is expensive.
    """
    if window < 1:
        raise LayoutError(f"conflict window must be >= 1, got {window}")
    n_obj = instance.n_objects
    seq = instance.obj_of_access[instance.obj_of_access < n_obj]
    weights: Dict[Tuple[int, int], float] = {}
    if seq.shape[0] == 0:
        return weights
    keep = np.ones(seq.shape[0], dtype=bool)
    keep[1:] = seq[1:] != seq[:-1]
    runs = seq[keep]
    for gap in range(1, min(window, runs.shape[0] - 1) + 1):
        a, b = runs[gap:], runs[:-gap]
        mask = a != b
        if not mask.any():
            continue
        lo = np.minimum(a[mask], b[mask])
        hi = np.maximum(a[mask], b[mask])
        pair_key, counts = np.unique(lo * n_obj + hi, return_counts=True)
        w = float(window - gap + 1)
        for k, c in zip(pair_key.tolist(), counts.tolist()):
            edge = (k // n_obj, k % n_obj)
            weights[edge] = weights.get(edge, 0.0) + w * c
    return weights


def _conflict_sets(geometry: CacheGeometry, policy: str) -> int:
    """Number of conflict classes the organization induces: frames for a
    direct-mapped target, sets otherwise (1 = fully associative = none)."""
    if policy == "direct" or geometry.ways == 1:
        return geometry.n_blocks
    return geometry.sets


def _primary_target(targets: Sequence[PlacementTarget]) -> PlacementTarget:
    """The heaviest-weight target — what the constructive heuristics aim at
    (ties break toward the most conflict-prone organization)."""
    return max(targets, key=lambda t: (t[2], _conflict_sets(t[0], t[1])))


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def greedy_color_order(
    instance: PlacementInstance,
    geometry: CacheGeometry,
    policy: str = "direct",
    window: int = 8,
    weights: Optional[Dict[Tuple[int, int], float]] = None,
) -> List[ObjectKey]:
    """Greedy set-coloring: grow the placement left to right, appending at
    each cursor position the unplaced object whose set span (its blocks
    hashed through the geometry's index scheme) has the least conflict
    weight against the objects already covering those sets.  Hot objects
    (highest total conflict weight) break ties first, so they claim clean
    sets early.
    """
    sets = _conflict_sets(geometry, policy)
    if sets <= 1:
        return list(instance.objects)
    if weights is None:
        weights = conflict_graph(instance, window=window)
    n_obj = instance.n_objects
    adj: List[Dict[int, float]] = [{} for _ in range(n_obj)]
    degree = [0.0] * n_obj
    for (a, b), w in weights.items():
        adj[a][b] = adj[a].get(b, 0.0) + w
        adj[b][a] = adj[b].get(a, 0.0) + w
        degree[a] += w
        degree[b] += w

    block = instance.block
    nblocks = instance.nblocks
    lengths = instance.lengths
    set_ix = lambda blk: geometry.set_of(blk, sets)  # scheme-aware (mod/xor)
    covering: List[set] = [set() for _ in range(sets)]  # set idx -> object ids
    remaining = list(range(n_obj))
    # hottest first so ties (empty sets early on) favour hot objects
    remaining.sort(key=lambda o: (-degree[o], o))
    order_ids: List[int] = []
    cursor = 0
    while remaining:
        rem = cursor % block
        aligned = cursor + (block - rem if rem else 0)
        start_blk = aligned // block
        best_oid, best_cost, best_pos = None, None, 0
        for pos, oid in enumerate(remaining):
            nb = int(nblocks[oid])
            cost = 0.0
            neighbours = adj[oid]
            if neighbours and nb:
                for j in range(min(nb, sets)):
                    s = set_ix(start_blk + j)
                    for other in covering[s]:
                        cost += neighbours.get(other, 0.0)
            if best_cost is None or cost < best_cost:
                best_oid, best_cost, best_pos = oid, cost, pos
        order_ids.append(best_oid)
        remaining.pop(best_pos)
        for j in range(min(int(nblocks[best_oid]), sets)):
            covering[set_ix(start_blk + j)].add(best_oid)
        cursor = aligned + int(lengths[best_oid])
    return [instance.objects[oid] for oid in order_ids]


@dataclass(frozen=True)
class RefineStats:
    """Telemetry of one :func:`repro.mem.facility.local_search` run.

    ``trajectory[0]`` is the seed cost; each further point is the best
    cost after one improving round, so ``trajectory[-1]`` equals the
    returned cost and ``rounds == len(trajectory) - 1``.  The same values
    are recorded as obs metrics (``placement.evals`` / ``placement.rounds``
    counters, the ``placement.cost`` series) while instrumentation is
    enabled.  ``int(stats)`` still yields the evaluation count for callers
    that only budget.
    """

    evals: int
    rounds: int
    trajectory: Tuple[float, ...]

    def __int__(self) -> int:
        return self.evals


# ----------------------------------------------------------------------
# strategy registry
# ----------------------------------------------------------------------
_STRATEGIES: Dict[str, Callable] = {}


def register_placement(name: str, fn: Callable) -> None:
    """Register a placement strategy: ``fn(instance, targets, window=...,
    budget=..., gap_budget=..., batch=..., backend=..., workers=...,
    restarts=..., noise=..., seed=...) -> (order, gaps)`` (a full object
    placement plus a per-object gap map, possibly empty).  ``targets`` is
    the normalized objective, never fully associative everywhere
    (:func:`optimize_instance` resolves both before dispatch); every knob
    arrives by keyword and a strategy ignores the ones it does not use.
    ``backend``/``workers`` only choose where scoring runs and must not
    change the returned placement; ``restarts``/``noise``/``seed`` drive
    the smoothed multi-restart search (:mod:`repro.mem.facility`) and are
    ``None`` unless the caller set them — a given (strategy, knobs) pair
    must always return the same placement (seeded determinism, pinned in
    CI)."""
    _STRATEGIES[name] = fn


def get_placement(name: str) -> Callable:
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise LayoutError(
            f"unknown placement strategy {name!r}; "
            f"registered: {sorted(_STRATEGIES)}"
        ) from None


def available_placements() -> Tuple[str, ...]:
    return tuple(sorted(_STRATEGIES))


def _topo_strategy(
    instance: PlacementInstance,
    targets: Sequence[PlacementTarget],
    **_unused: object,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int]]:
    return list(instance.objects), {}


def _color_strategy(
    instance: PlacementInstance,
    targets: Sequence[PlacementTarget],
    *,
    window: int,
    **_unused: object,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int]]:
    geometry, policy, _w = _primary_target(targets)
    return greedy_color_order(instance, geometry, policy=policy, window=window), {}


register_placement("topo", _topo_strategy)
register_placement("color", _color_strategy)


# ----------------------------------------------------------------------
# top-level entry points
# ----------------------------------------------------------------------
@dataclass
class PlacementResult:
    """An optimized placement and its exact cost accounting.

    ``order`` and ``gaps`` feed straight into ``placement=`` / ``gaps=`` of
    :func:`~repro.runtime.compiled.compile_trace`,
    :meth:`~repro.runtime.executor.Executor.measure`, or
    :meth:`~repro.mem.layout.MemoryLayout.place_graph`.

    ``cost`` / ``seed_cost`` are miss counts for a single-target run, the
    weighted miss sums for a multi-target one; ``per_target`` /
    ``seed_per_target`` carry the individual miss counts in target order
    (the never-worse-at-every-target guarantee is stated on those).
    """

    strategy: str
    order: List[ObjectKey]
    cost: float
    seed_cost: float
    gaps: Dict[ObjectKey, int] = field(default_factory=dict)
    targets: List[PlacementTarget] = field(default_factory=list)
    per_target: List[int] = field(default_factory=list)
    seed_per_target: List[int] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Fraction of the seed layout's (weighted) misses removed."""
        return 1.0 - self.cost / self.seed_cost if self.seed_cost else 0.0

    @property
    def gap_blocks(self) -> int:
        """Total deliberate padding the placement spends, in blocks."""
        return sum(self.gaps.values())


def optimize_instance(
    instance: PlacementInstance,
    geometry: Optional[CacheGeometry] = None,
    strategy: str = "swap",
    policy: str = "direct",
    window: int = 8,
    budget: int = 400,
    targets: Optional[Sequence[PlacementTarget]] = None,
    gap_budget: int = 0,
    batch: int = 1,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    restarts: Optional[int] = None,
    noise: Optional[float] = None,
    seed: Optional[int] = None,
) -> PlacementResult:
    """Run one registered strategy against a prebuilt instance.

    Single-target form: ``geometry`` + ``policy``.  Multi-geometry form:
    ``targets=[(geometry, policy, weight), ...]`` — the objective is the
    weighted miss sum.  Either way the result is **never worse than the
    seed at any individual target**: a candidate that regresses anywhere
    (the A7 cross-geometry failure mode) is discarded for the seed layout.

    ``batch``/``backend``/``workers`` parallelize candidate scoring (see
    :func:`repro.mem.facility.local_search`): the returned placement
    depends only on ``batch``, never on where scoring ran.
    ``restarts``/``noise``/``seed`` drive the smoothed multi-restart search
    (:mod:`repro.mem.facility`); strategies that do not restart ignore
    them.
    """
    if targets is not None:
        targets_n = normalize_targets(targets, block=instance.block)
    else:
        if geometry is None:
            raise LayoutError("optimize_instance needs a geometry or targets")
        targets_n = [(geometry, policy, 1.0)]
    fn = get_placement(strategy)
    seed_order = list(instance.objects)
    seed_per = _target_misses(remap_blocks(instance, seed_order), targets_n)
    seed_cost = sum(w * m for (_, _, w), m in zip(targets_n, seed_per))
    if all(_conflict_sets(g, p) <= 1 for g, p, _w in targets_n):
        # fully associative everywhere: misses are provably placement-
        # invariant, so no strategy can improve on the seed and a search
        # would only burn its budget on full-trace replays
        order, gaps = seed_order, {}
    else:
        order, gaps = fn(
            instance, targets_n, window=window, budget=budget,
            gap_budget=gap_budget, batch=batch, backend=backend,
            workers=workers, restarts=restarts, noise=noise, seed=seed,
        )
    per = _target_misses(remap_blocks(instance, order, gaps=gaps), targets_n)
    cost = sum(w * m for (_, _, w), m in zip(targets_n, per))
    if cost > seed_cost or any(c > s for c, s in zip(per, seed_per)):
        order, gaps, cost, per = seed_order, {}, seed_cost, seed_per
    if targets is None:
        # single-target runs keep integer miss counts for cost/seed_cost
        cost, seed_cost = int(per[0]), int(seed_per[0])
    return PlacementResult(
        strategy=strategy, order=order, cost=cost, seed_cost=seed_cost,
        gaps=dict(gaps), targets=targets_n, per_target=list(per),
        seed_per_target=list(seed_per),
    )


def optimize_placement(
    graph: StreamGraph,
    schedule: "Schedule",
    geometry: Optional[CacheGeometry] = None,
    strategy: str = "swap",
    policy: str = "direct",
    capacities: Optional[Dict[int, int]] = None,
    order: Optional[Iterable[str]] = None,
    window: int = 8,
    budget: int = 400,
    targets: Optional[Sequence[PlacementTarget]] = None,
    gap_budget: int = 0,
    batch: int = 1,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    restarts: Optional[int] = None,
    noise: Optional[float] = None,
    seed: Optional[int] = None,
) -> PlacementResult:
    """One-shot convenience: compile the seed trace, search, return the
    best placement for ``(geometry, policy)`` — or, with ``targets``, the
    best layout under the multi-geometry weighted objective.
    ``batch``/``backend``/``workers`` fan candidate scoring over the
    selected execution backend (:mod:`repro.runtime.backend`) without
    changing the search trajectory; ``restarts``/``noise``/``seed`` drive
    the smoothed multi-restart search (:mod:`repro.mem.facility`)."""
    if geometry is not None:
        block = geometry.block
    elif targets:
        block = normalize_targets(targets)[0][0].block
    else:
        raise LayoutError("optimize_placement needs a geometry or targets")
    instance = build_instance(
        graph, schedule, block, capacities=capacities, order=order
    )
    return optimize_instance(
        instance, geometry, strategy=strategy, policy=policy,
        window=window, budget=budget, targets=targets, gap_budget=gap_budget,
        batch=batch, backend=backend, workers=workers,
        restarts=restarts, noise=noise, seed=seed,
    )
