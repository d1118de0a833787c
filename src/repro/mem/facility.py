"""Placement local search: one engine over (order, gaps), four strategies.

Assigning hot objects to capacity-limited cache sets *is* hard
capacitated facility location (each set is a facility with ``ways``
slots; each object "opens" in every set its block span covers), and
pairwise-swap search over it is FLIP local search — known to stall on
plateaus that richer move sets escape.  Both are one neighbourhood family
scored by one objective, so this module holds one search,
:func:`local_search`: a continuous first-improvement sweep over a move
list, every candidate scored on the exact block-remap cost model (never
an estimator).  What differs between the strategies is data:

* **the move set** (:class:`MoveSet`).  :data:`SWAP` holds ranked
  pairwise swaps and ±1 gap moves.  :data:`MULTISWAP` adds **k-object
  moves** (k <= 3) — 3-rotations along conflict-graph triangles and
  single-object relocations — and makes per-set **capacity a hard
  constraint**: a candidate whose worst per-set hot-object load exceeds
  both the primary target's ``ways`` and the current state's load is
  pruned *before* scoring (it never consumes an eval; the
  ``placement.pruned`` counter records how many moves the constraint
  rejected).
* **the objective**.  ``"sum"`` is the weighted miss total;
  ``"minimax"`` minimizes the **worst-case per-target ratio versus the
  seed layout** (lexicographically tie-broken by the weighted sum), which
  directly attacks A9's near-1x per-target stragglers.

The registered strategies are short compositions over the engine, all
starting from the greedy-color order of the primary target: ``swap`` and
``multiswap`` run it once with their move set; ``minimax`` spends half its
budget on the weighted sum and the rest on the minimax objective;
``smoothed`` (:func:`smoothed_search`) is a **smoothed-analysis style
multi-restart** over :data:`MULTISWAP` — each restart perturbs the
conflict-graph edge weights with seeded multiplicative noise (changing the
greedy start and the move ranking, *never* the objective), and the
**unperturbed exact objective picks the winner**.  Restart 0 always runs
unperturbed, and one ``seed`` fixes the whole noise stream
(``numpy.random.default_rng``), so the same ``(seed, restarts, noise,
budget, batch)`` always returns the same layout — CI pins exactly that.
Every strategy flows through
:func:`repro.mem.placement.optimize_instance`'s
never-worse-than-seed-at-every-target contract unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cache.base import CacheGeometry
from repro.errors import LayoutError
from repro.mem.layout import ObjectKey
from repro.mem.placement import (
    PlacementInstance,
    PlacementTarget,
    RefineStats,
    _conflict_sets,
    _gap_vector,
    _order_ids,
    _placed_starts,
    _primary_target,
    conflict_graph,
    greedy_color_order,
    normalize_targets,
    register_placement,
)
from repro.obs import core as obs
from repro.obs import names as obs_names

__all__ = [
    "MoveSet",
    "SWAP",
    "MULTISWAP",
    "local_search",
    "smoothed_search",
]

#: a move descriptor: ("swap", a, b) | ("rot", a, b, c, dir) |
#: ("move", oid, pos) | ("gap", oid, delta) — oids, not positions,
#: except the relocation target which is a position index
_Move = Tuple

#: caps keeping one round's move list bounded on dense conflict graphs
_MAX_TRIANGLES = 32
_RELOC_OBJECTS = 6
_RELOC_POSITIONS = 6

#: one search's result: (order, gaps, weighted cost, telemetry)
SearchResult = Tuple[List[ObjectKey], Dict[ObjectKey, int], float, RefineStats]


@dataclass(frozen=True)
class MoveSet:
    """The neighbourhood one :func:`local_search` sweep visits.

    Every move set holds pairwise swaps (heaviest conflict edge first, then
    every remaining pair) and, under a gap budget, ±1 gap moves (hottest
    object first).  ``k_object`` adds the k-object moves — 3-rotations
    along the heaviest conflict-graph triangles and relocations of the
    hottest objects to evenly spaced positions — and the capacity prune,
    which rejects, before scoring, a candidate whose worst per-set
    hot-object load exceeds both the primary target's ways and the current
    state's.
    """

    k_object: bool = False


#: FLIP local search: ranked pairwise swaps and ±1 gap moves
SWAP = MoveSet()
#: k-object local search: SWAP plus triangle rotations, hot-object
#: relocations and the per-set capacity prune
MULTISWAP = MoveSet(k_object=True)


def _ratio(misses: int, seed: int) -> float:
    """Per-target miss ratio vs the seed layout, inf-safe."""
    if seed:
        return misses / seed
    return 0.0 if misses == 0 else float("inf")


def _conflict_triangles(
    weights: Dict[Tuple[int, int], float],
) -> List[Tuple[int, int, int]]:
    """Top conflict-graph triangles by total edge weight — the 3-rotation
    move sites.  Bounded to the heaviest edges so dense graphs stay cheap."""
    nbr: Dict[int, Dict[int, float]] = {}
    for (a, b), w in weights.items():
        nbr.setdefault(a, {})[b] = w
        nbr.setdefault(b, {})[a] = w
    tris: Dict[Tuple[int, int, int], float] = {}
    heavy = sorted(weights, key=lambda e: (-weights[e], e))[: 2 * _MAX_TRIANGLES]
    for a, b in heavy:
        common = set(nbr[a]) & set(nbr[b])
        for c in common:
            x, y, z = sorted((a, b, c))
            if (x, y, z) not in tris:
                tris[(x, y, z)] = (
                    nbr[x].get(y, 0.0) + nbr[x].get(z, 0.0) + nbr[y].get(z, 0.0)
                )
    return sorted(tris, key=lambda t: (-tris[t], t))[:_MAX_TRIANGLES]


def _max_set_load(
    instance: PlacementInstance,
    starts: np.ndarray,
    hot_ids: Sequence[int],
    geometry: CacheGeometry,
    sets: int,
) -> int:
    """Worst per-set count of hot objects covering that set under
    ``starts`` — the capacitated-facility load the ``ways`` cap bounds."""
    load: Dict[int, int] = {}
    for oid in hot_ids:
        nb = int(instance.nblocks[oid])
        base = int(starts[oid])
        for j in range(min(nb, sets)):
            s = geometry.set_of(base + j, sets)
            load[s] = load.get(s, 0) + 1
    return max(load.values()) if load else 0


def _gen_moves(
    instance: PlacementInstance,
    moves: MoveSet,
    weights: Dict[Tuple[int, int], float],
    hot: Sequence[int],
    gap_budget: int,
) -> List[_Move]:
    """The move sites of one sweep, strongest first: ranked pairwise swaps
    (the FLIP workhorse — on sparse conflict graphs most of the gain lives
    in a few hot pairs), 3-rotations over conflict triangles, hot-object
    relocations, then gap moves.  Gap legality is state-dependent (the
    budget moves under the sweep's feet), so it is rechecked per
    materialization in :func:`_apply_move`, not here."""
    n_obj = instance.n_objects
    ranked = sorted(weights, key=lambda e: (-weights[e], e))
    seen = set(ranked)
    ranked += [
        (a, b) for a in range(n_obj) for b in range(a + 1, n_obj)
        if (a, b) not in seen
    ]
    out: List[_Move] = []
    for a, b in ranked:
        if instance.nblocks[a] == 0 and instance.nblocks[b] == 0:
            continue  # zero-length objects own no blocks: swap is a no-op
        out.append(("swap", a, b))
    if moves.k_object:
        for x, y, z in _conflict_triangles(weights):
            out.append(("rot", x, y, z, 1))
            out.append(("rot", x, y, z, -1))
        step = max(1, n_obj // _RELOC_POSITIONS)
        for oid in hot[:_RELOC_OBJECTS]:
            if instance.nblocks[oid] == 0:
                continue
            for pos in range(0, n_obj, step):
                out.append(("move", oid, pos))
    if gap_budget:
        for oid in hot:
            out.append(("gap", oid, 1))
            out.append(("gap", oid, -1))
    return out


def _apply_move(
    move: _Move,
    ids: List[int],
    gap_vec: np.ndarray,
    pos_of: Dict[int, int],
    gap_total: int,
    gap_budget: int,
) -> Optional[Tuple[List[int], np.ndarray]]:
    """Materialize one move as a fresh ``(ids, gap_vec)`` pair, or ``None``
    when it is a no-op or illegal in the current state."""
    kind = move[0]
    if kind == "swap":
        _, a, b = move
        new_ids = list(ids)
        i, j = pos_of[a], pos_of[b]
        new_ids[i], new_ids[j] = new_ids[j], new_ids[i]
        return new_ids, gap_vec
    if kind == "rot":
        _, a, b, c, direction = move
        new_ids = list(ids)
        pa, pb, pc = pos_of[a], pos_of[b], pos_of[c]
        if direction > 0:
            new_ids[pa], new_ids[pb], new_ids[pc] = c, a, b
        else:
            new_ids[pa], new_ids[pb], new_ids[pc] = b, c, a
        return new_ids, gap_vec
    if kind == "move":
        _, oid, pos = move
        cur = pos_of[oid]
        if cur == pos:
            return None
        new_ids = list(ids)
        new_ids.pop(cur)
        new_ids.insert(min(pos, len(new_ids)), oid)
        return new_ids, gap_vec
    _, oid, delta = move
    if delta > 0 and gap_total >= gap_budget:
        return None
    if delta < 0 and gap_vec[oid] == 0:
        return None
    new_gap = gap_vec.copy()
    new_gap[oid] += delta
    return list(ids), new_gap


def local_search(
    instance: PlacementInstance,
    order: Sequence[ObjectKey],
    targets: Sequence[PlacementTarget],
    *,
    moves: MoveSet,
    objective: str = "sum",
    budget: int,
    gap_budget: int = 0,
    gaps: Optional[Dict[ObjectKey, int]] = None,
    batch: int = 1,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_words: Optional[int] = None,
    weights: Optional[Dict[Tuple[int, int], float]] = None,
) -> SearchResult:
    """Local search over (order, gaps) on the exact block-remap cost model.

    Starting from ``order`` (and optionally ``gaps``), each sweep walks the
    move list of ``moves`` (ranked by the conflict graph ``weights``,
    default :func:`~repro.mem.placement.conflict_graph`) once: the next
    ``batch`` legal moves are materialized against the current state and
    scored together, and the best one that strictly improves the objective
    is applied in place before the sweep continues.  After a gap move is
    accepted, its inverse on the same object is skipped for the rest of the
    sweep — it is the state just left and can never strictly win.  Gap
    moves never push the total padding past ``gap_budget`` blocks.  The
    search stops after a sweep without improvement or after ``budget``
    cost evaluations.

    ``objective="sum"`` minimizes the weighted miss sum over ``targets``;
    ``"minimax"`` minimizes ``(worst per-target miss ratio vs the seed
    layout, weighted sum)`` lexicographically (scoring the seed layout
    costs one eval).  Returns ``(order, gaps, cost, stats)``: ``gaps`` maps
    object keys to their padding in blocks (zero entries omitted), ``cost``
    is the weighted miss sum, and ``stats`` is a :class:`RefineStats`
    whose ``evals`` is read back from the scorer — it always equals the
    number of cost-model invocations, the honest currency of "equal eval
    budget" comparisons — and whose trajectory tracks the objective
    optimized (weighted sum, or the worst-case ratio under ``"minimax"``).
    The same telemetry is recorded as obs metrics.

    **Parallel scoring.**  Candidates are scored through a
    :class:`repro.runtime.backend.CandidateScorer`, which ships the remap
    arrays to a process pool once via shared memory when
    ``backend="process"``.  The trajectory depends on ``batch`` only —
    never on ``backend`` or ``workers`` — so serial and process runs of
    the same ``batch`` return identical results at an identical eval
    count.  ``chunk_words`` scores through the chunked replay: the counts
    are bit-identical, so the trajectory is too.
    """
    if gap_budget < 0:
        raise LayoutError(f"gap_budget must be >= 0, got {gap_budget}")
    if batch < 1:
        raise LayoutError(f"batch must be >= 1, got {batch}")
    if objective not in ("sum", "minimax"):
        raise LayoutError(
            f"objective must be 'sum' or 'minimax', got {objective!r}"
        )
    targets = normalize_targets(targets, block=instance.block)
    if weights is None:
        weights = conflict_graph(instance)
    ids = _order_ids(instance, order)
    gap_arr = _gap_vector(instance, gaps)
    gap_vec = (
        gap_arr if gap_arr is not None
        else np.zeros(instance.n_objects, dtype=np.int64)
    )
    gap_total = int(gap_vec.sum())
    if gap_total > gap_budget:
        raise LayoutError(
            f"starting gaps use {gap_total} blocks, over gap_budget={gap_budget}"
        )
    n_obj = instance.n_objects
    degree = [0.0] * n_obj
    for (a, b), w in weights.items():
        degree[a] += w
        degree[b] += w
    hot = sorted(range(n_obj), key=lambda o: (-degree[o], o))
    move_list = _gen_moves(instance, moves, weights, hot, gap_budget)
    # the capacity prune counts hot objects per set of the primary target;
    # it is off (every load reads 0, below cap_ways >= 1) for SWAP and for
    # a primary target without set conflicts
    hot_ids = [o for o in hot if degree[o] > 0]
    cap_geom, cap_policy, _w = _primary_target(targets)
    cap_sets = _conflict_sets(cap_geom, cap_policy) if moves.k_object else 1
    cap_ways = 1 if cap_policy == "direct" else cap_geom.associativity

    def load_of(starts: np.ndarray) -> int:
        if cap_sets > 1:
            return _max_set_load(instance, starts, hot_ids, cap_geom, cap_sets)
        return 0

    from repro.runtime.backend import CandidateScorer

    pruned = 0
    with obs.span(obs_names.PLACEMENT_SEARCH, batch=batch), CandidateScorer(
        instance, targets, backend=backend, workers=workers,
        chunk_words=chunk_words,
    ) as scorer:
        seed_per: List[int] = []
        if objective == "minimax":
            seed_per = scorer.score_per(
                [_placed_starts(instance, list(range(n_obj)))]
            )[0]

        def key_of(per: Sequence[int]) -> Tuple[float, ...]:
            weighted = sum(w * m for (_g, _p, w), m in zip(targets, per))
            if objective == "minimax":
                worst = max(
                    (_ratio(m, s) for m, s in zip(per, seed_per)),
                    default=0.0,
                )
                return (worst, weighted)
            return (weighted,)

        cur_starts = _placed_starts(instance, ids, gap_vec)
        cur_per = scorer.score_per([cur_starts])[0]
        cur_key = key_of(cur_per)
        cur_load = load_of(cur_starts)
        trajectory: List[float] = [cur_key[0]]
        # continuous sweep: improvements apply in place and the sweep keeps
        # going — restarting from the head after every accepted move would
        # burn the eval budget re-scoring the unimproving head of the list
        improved = True
        while improved and scorer.evals < budget:
            improved = False
            pos_of = {oid: p for p, oid in enumerate(ids)}
            # inverses of the gap moves accepted this sweep: states just left
            skip: Set[_Move] = set()
            pos = 0
            while pos < len(move_list) and scorer.evals < budget:
                cands: List[Tuple[_Move, List[int], np.ndarray, np.ndarray, int]] = []
                room = min(batch, budget - scorer.evals)
                while pos < len(move_list) and len(cands) < room:
                    move = move_list[pos]
                    pos += 1
                    if move in skip:
                        continue
                    out = _apply_move(
                        move, ids, gap_vec, pos_of, gap_total, gap_budget
                    )
                    if out is None:
                        continue
                    new_ids, new_gap = out
                    starts = _placed_starts(instance, new_ids, new_gap)
                    load = load_of(starts)
                    if load > max(cap_ways, cur_load):
                        pruned += 1
                        continue
                    cands.append((move, new_ids, new_gap, starts, load))
                if not cands:
                    continue
                pers = scorer.score_per([c[3] for c in cands])
                best_k = -1
                best_key = cur_key
                best_per: List[int] = []
                for k, per in enumerate(pers):
                    key = key_of(per)
                    if key < best_key:  # strict: ties keep the earlier state
                        best_k, best_key, best_per = k, key, per
                if best_k >= 0:
                    move, ids, gap_vec, _starts, cur_load = cands[best_k]
                    if move[0] == "gap":
                        gap_total += move[2]
                        skip.add(("gap", move[1], -move[2]))
                    cur_key, cur_per = best_key, best_per
                    pos_of = {oid: p for p, oid in enumerate(ids)}
                    improved = True
            if improved:
                trajectory.append(cur_key[0])
        evals = scorer.evals
    stats = RefineStats(
        evals=evals, rounds=len(trajectory) - 1, trajectory=tuple(trajectory)
    )
    obs.add(obs_names.PLACEMENT_EVALS, stats.evals)
    obs.add(obs_names.PLACEMENT_ROUNDS, stats.rounds)
    obs.add(obs_names.PLACEMENT_PRUNED, pruned)
    for point in stats.trajectory:
        obs.series(obs_names.PLACEMENT_COST, point)
    out_gaps = {
        instance.objects[oid]: int(g)
        for oid, g in enumerate(gap_vec.tolist())
        if g
    }
    cost = float(sum(w * m for (_g, _p, w), m in zip(targets, cur_per)))
    return [instance.objects[oid] for oid in ids], out_gaps, cost, stats


def _greedy_start(
    instance: PlacementInstance,
    targets: Sequence[PlacementTarget],
    window: int,
    weights: Optional[Dict[Tuple[int, int], float]] = None,
) -> Tuple[Dict[Tuple[int, int], float], List[ObjectKey]]:
    """The conflict weights (built at ``window`` unless given) and the
    greedy-color start order for the primary target — the set-up every
    search strategy shares."""
    if weights is None:
        weights = conflict_graph(instance, window=window)
    geometry, policy, _w = _primary_target(targets)
    start = greedy_color_order(
        instance, geometry, policy=policy, window=window, weights=weights
    )
    return weights, start


def smoothed_search(
    instance: PlacementInstance,
    targets: Sequence[PlacementTarget],
    *,
    window: int = 8,
    budget: int = 400,
    gap_budget: int = 0,
    batch: int = 1,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    restarts: int = 4,
    noise: float = 0.25,
    seed: int = 0,
) -> SearchResult:
    """Multi-restart :data:`MULTISWAP` :func:`local_search` with seeded
    noise on the conflict-graph edge weights (smoothed-analysis style).

    Restart ``r`` scales every edge weight by an independent uniform draw
    from ``[1 - noise, 1 + noise]`` (restart 0 stays unperturbed), rebuilds
    the greedy start order and the move ranking from the perturbed graph,
    and runs the search with ``budget // restarts`` evals.  The
    perturbation never touches the objective: every candidate is still
    scored by the exact remap cost model, so the winner across restarts —
    picked by that unperturbed objective — is a real improvement or the
    unperturbed restart itself.  ``seed`` fixes the whole noise stream
    (``numpy.random.default_rng``), making the result bit-reproducible.
    Returns the winner's ``(order, gaps, cost, stats)`` where
    ``stats.evals`` is the *total* across restarts (the honest budget) and
    the trajectory is the winning restart's.
    """
    if restarts < 1:
        raise LayoutError(f"restarts must be >= 1, got {restarts}")
    if noise < 0:
        raise LayoutError(f"noise must be >= 0, got {noise}")
    targets = normalize_targets(targets, block=instance.block)
    base_weights = conflict_graph(instance, window=window)
    rng = np.random.default_rng(seed)
    per_budget = max(2, budget // restarts)
    best: Optional[SearchResult] = None
    total_evals = 0
    for r in range(restarts):
        if r == 0 or noise == 0:
            w_r = base_weights
        else:
            # multiplicative noise keeps weights positive and preserves the
            # graph's sparsity pattern; only the start order and the move
            # ranking see it — scoring stays exact
            w_r = {
                e: w * float(1.0 + noise * (2.0 * rng.random() - 1.0))
                for e, w in base_weights.items()
            }
        _w, start = _greedy_start(instance, targets, window, weights=w_r)
        result = local_search(
            instance, start, targets, moves=MULTISWAP, budget=per_budget,
            gap_budget=gap_budget, batch=batch, backend=backend,
            workers=workers, weights=w_r,
        )
        total_evals += result[3].evals
        if best is None or result[2] < best[2]:
            best = result
    assert best is not None  # restarts >= 1
    obs.add(obs_names.PLACEMENT_RESTARTS, restarts)
    win = best[3]
    stats = RefineStats(
        evals=total_evals, rounds=win.rounds, trajectory=win.trajectory
    )
    return best[0], best[1], best[2], stats


# ----------------------------------------------------------------------
# registered strategies
# ----------------------------------------------------------------------
def _search_strategy(
    instance: PlacementInstance,
    targets: Sequence[PlacementTarget],
    *,
    moves: MoveSet,
    window: int,
    budget: int,
    gap_budget: int,
    batch: int,
    backend: Optional[str],
    workers: Optional[int],
    **_unused: object,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int]]:
    """``swap`` / ``multiswap``: one engine run from the greedy start."""
    weights, start = _greedy_start(instance, targets, window)
    order, gaps, _cost, _stats = local_search(
        instance, start, targets, moves=moves, budget=budget,
        gap_budget=gap_budget, batch=batch, backend=backend, workers=workers,
        weights=weights,
    )
    return order, gaps


def _minimax_strategy(
    instance: PlacementInstance,
    targets: Sequence[PlacementTarget],
    *,
    window: int,
    budget: int,
    gap_budget: int,
    batch: int,
    backend: Optional[str],
    workers: Optional[int],
    **_unused: object,
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int]]:
    weights, start = _greedy_start(instance, targets, window)
    # two phases: a weighted-sum warmup drives every target down from the
    # greedy start (cheap, broad progress), then the minimax objective
    # spends the rest of the budget on the binding worst-case target —
    # pure minimax from a cold start burns its budget on moves the harsh
    # lexicographic acceptance rejects
    warm = budget // 2
    order, gaps, _cost, _stats = local_search(
        instance, start, targets, moves=MULTISWAP, budget=warm,
        gap_budget=gap_budget, batch=batch, backend=backend, workers=workers,
        weights=weights,
    )
    order, gaps, _cost, _stats = local_search(
        instance, order, targets, moves=MULTISWAP, objective="minimax",
        budget=budget - warm, gap_budget=gap_budget, gaps=gaps, batch=batch,
        backend=backend, workers=workers, weights=weights,
    )
    return order, gaps


def _smoothed_strategy(
    instance: PlacementInstance,
    targets: Sequence[PlacementTarget],
    *,
    window: int,
    budget: int,
    gap_budget: int,
    batch: int,
    backend: Optional[str],
    workers: Optional[int],
    restarts: Optional[int],
    noise: Optional[float],
    seed: Optional[int],
) -> Tuple[List[ObjectKey], Dict[ObjectKey, int]]:
    order, gaps, _cost, _stats = smoothed_search(
        instance, targets, window=window, budget=budget,
        gap_budget=gap_budget, batch=batch, backend=backend, workers=workers,
        restarts=4 if restarts is None else restarts,
        noise=0.25 if noise is None else noise,
        seed=0 if seed is None else seed,
    )
    return order, gaps


register_placement("swap", partial(_search_strategy, moves=SWAP))
register_placement("multiswap", partial(_search_strategy, moves=MULTISWAP))
register_placement("minimax", _minimax_strategy)
register_placement("smoothed", _smoothed_strategy)
