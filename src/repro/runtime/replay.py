"""Policy-aware vectorized replay: one carried-state kernel per policy.

:mod:`repro.runtime.compiled` lowers a schedule to its cache-size-independent
block trace; this module answers *whole geometry sweeps* over that trace for
each registered replacement policy (:mod:`repro.cache.policy`) without
simulating block by block.  Each policy has exactly one kernel in the
:func:`register_replay_kernel` registry.  A kernel walks a
:class:`ChunkSource` — one trace viewed as an ordered sequence of chunks —
and yields each chunk's per-geometry miss masks, carrying to the next chunk
exactly the state it needs.  A monolithic replay (:func:`replay_miss_masks`)
is the same kernel over a one-chunk source; a chunk-cut in-memory trace or
an out-of-core :class:`~repro.runtime.streaming.ChunkedTrace` runs it over
many chunks.  Carries are folded only when another chunk follows, so the
one-chunk case does no streaming work.

* **lru / direct** carry one recency list (:func:`recency_carry`): every
  distinct block seen so far, LRU first.  Prepended to a chunk, it makes
  the ordinary passes reproduce the full-trace answer — set-local recency
  is the restriction of global recency, and the last carried block of a
  frame is that frame's content.  The passes: Mattson stack distances
  (fully associative, one pass answers every size), the same pass over the
  set-grouped trace (set-associative: a ``w``-way access hits iff its
  within-set distance is at most ``w``), and a per-frame last-block scan
  (direct-mapped).  One memoized level helper (:func:`_level_mask`) runs
  each pass once per organization for lru, direct and both hierarchy
  levels.
* **opt** (Belady's MIN, a stack algorithm under "sooner next use wins") —
  a reverse pass computes absolute next-use positions (spilling chunks
  after the first to a temporary ``.npy``), then a forward priority-stack
  pass (:func:`_opt_stack_pass`), truncated at the largest swept capacity,
  resumes from a carried stack per set and answers every capacity at once.
* **two_level** — L2 is consulted only on L1 misses, so it evolves as an
  LRU fed the L1 *miss sub-trace*: one L1 pass per distinct L1 selects the
  sub-trace, an L2 pass over it answers every L2 sharing that L1, and the
  verdicts scatter back.  L1 carries the recency list, each L1 group's L2
  its own list over the group's sub-trace.

Per-access masks keep phase attribution identical to the stepwise
executor; the stepwise models are the oracles ``tests/test_replay.py``,
``tests/test_hierarchy_replay.py`` and ``tests/test_streaming.py`` diff
against per access, at every chunking.  Set indexing hashes block ids
through each geometry's ``index_scheme`` (:func:`set_index_array`) and
shared passes are memoized per (class count, scheme).  ``workers`` threads
the per-geometry masks (per L1 group for ``two_level``) through
:func:`repro.runtime.backend.fan_out` after the shared passes.

Array dtype contract (statically enforced by lint rule R4, see
``docs/STATIC_ANALYSIS.md``): block ids, stack distances and positions are
``int64``, miss masks are ``bool`` (phase codes pass through as the
compiler's ``uint8``), and grouping keys may narrow to ``int16`` for the
radix-sort fast path — always with an explicit ``dtype=``.  Algorithms and
the oracle contract: ``docs/REPLAY.md``.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.cache.indexing import xor_fold_index_array
from repro.cache.opt import next_occurrences
from repro.cache.policy import get_policy
from repro.errors import CacheConfigError
from repro.obs import core as obs
from repro.obs import names as obs_names
from repro.runtime.backend import fan_out
from repro.runtime.compiled import PHASE_NAMES

__all__ = [
    "ChunkSource",
    "ArrayChunkSource",
    "recency_carry",
    "set_index_array",
    "per_set_stack_distances",
    "opt_stack_distances",
    "hierarchy_level_masks",
    "replay_miss_masks",
    "replay_misses",
    "stream_masks",
    "stream_stats",
    "register_replay_kernel",
    "available_replay_policies",
]

#: Reduced replay statistics: per geometry, (misses, phase bincount or None).
StreamStats = List[Tuple[int, Optional[List[int]]]]
#: One chunk's replay: (the chunk's phase codes or None, per-geometry masks).
ChunkMasks = Tuple[Optional[np.ndarray], List[np.ndarray]]
#: ``kernel(source, geometries, workers)``: one :data:`ChunkMasks` per chunk.
Kernel = Callable[["ChunkSource", Sequence[Any], Optional[int]], Iterator[ChunkMasks]]
#: Pass memo of one chunk, keyed by organization (kind, classes, scheme).
_Memo = Dict[Tuple[str, int, str], np.ndarray]

_EMPTY = np.zeros(0, dtype=np.int64)


# ----------------------------------------------------------------------
# chunk sources
# ----------------------------------------------------------------------
class ChunkSource(Protocol):
    """Anything a replay kernel can walk: one block trace as an ordered,
    randomly addressable sequence of chunks (OPT walks them backwards)."""

    @property
    def accesses(self) -> int: ...

    @property
    def n_chunks(self) -> int: ...

    def chunk(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(blocks, phases-or-None)`` arrays of chunk ``index``."""
        ...


class ArrayChunkSource:
    """An in-memory trace viewed through a chunk partition: exactly one of
    ``chunk_words`` (fixed-size chunks, the last one smaller) and ``sizes``
    (an explicit partition, as the hypothesis ``chunking_strategy`` draws)
    must be given.  Chunks are views, so the source costs no memory."""

    def __init__(
        self,
        blocks: np.ndarray,
        phases: Optional[np.ndarray] = None,
        chunk_words: Optional[int] = None,
        sizes: Optional[Sequence[int]] = None,
    ) -> None:
        self.blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        self.phases = phases  # the compiled trace's uint8 codes, as given
        n = int(self.blocks.shape[0])
        if phases is not None and int(phases.shape[0]) != n:
            raise CacheConfigError(
                f"phases length {int(phases.shape[0])} does not match blocks length {n}"
            )
        if (chunk_words is None) == (sizes is None):
            raise CacheConfigError(
                "pass exactly one of chunk_words= and sizes= to ArrayChunkSource"
            )
        if chunk_words is not None:
            if chunk_words < 1:
                raise CacheConfigError(f"chunk_words must be >= 1, got {chunk_words}")
            sizes = [min(int(chunk_words), n - lo) for lo in range(0, n, int(chunk_words))]
        assert sizes is not None
        for s in sizes:
            if s < 1:
                raise CacheConfigError(f"chunk sizes must be >= 1, got {s}")
        self._starts = [0, *accumulate(int(s) for s in sizes)]
        if self._starts[-1] != n:
            raise CacheConfigError(
                f"chunk sizes sum to {self._starts[-1]}, but the trace has {n} accesses"
            )

    @property
    def accesses(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def n_chunks(self) -> int:
        return len(self._starts) - 1

    def chunk(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        lo, hi = self._starts[index], self._starts[index + 1]
        return self.blocks[lo:hi], None if self.phases is None else self.phases[lo:hi]


# ----------------------------------------------------------------------
# shared passes
# ----------------------------------------------------------------------
def set_index_array(blocks: np.ndarray, sets: int, scheme: str = "mod") -> np.ndarray:
    """Vectorized set index of every block id under ``scheme``.

    ``"mod"`` is ``blocks % sets``; ``"xor"`` XOR-folds every tag chunk
    into the low index bits (``sets`` is a power of two — geometry
    validation guarantees it).  The vectorized twin of
    :meth:`repro.cache.base.CacheGeometry.set_of`: both read their fold
    constants from :mod:`repro.cache.indexing`, so they cannot drift.
    """
    if sets <= 1:
        return np.zeros(blocks.shape[0], dtype=np.int64)
    if scheme == "mod":
        return blocks % sets
    if scheme != "xor":  # pragma: no cover - geometry validation upstream
        raise CacheConfigError(f"unknown index scheme {scheme!r}")
    return xor_fold_index_array(blocks, sets)


def _scheme_of(geom: CacheGeometry, classes: int) -> str:
    """The scheme a pass over ``classes`` conflict classes hashes with
    (``"mod"`` for a single class, so an irrelevant scheme shares a pass)."""
    return "mod" if classes <= 1 else geom.index_scheme


def _stable_group_order(key: np.ndarray, n_groups: int) -> np.ndarray:
    """Stable argsort of a small-range grouping key: set/frame indices fit
    16 bits in any realistic sweep, where numpy's stable sort is O(n) radix
    — several times faster than the int64 timsort path."""
    if n_groups <= np.iinfo(np.int16).max:
        key = key.astype(np.int16)
    return np.argsort(key, kind="stable")


def _set_segments(
    blocks: np.ndarray, sets: int, scheme: str = "mod"
) -> List[Tuple[int, Union[slice, np.ndarray]]]:
    """``(set id, trace positions)`` of every non-empty set, each group
    time-ordered; one group holding the whole trace when ``sets <= 1``."""
    if sets <= 1 or blocks.shape[0] == 0:
        return [(0, slice(None))]
    set_idx = set_index_array(blocks, sets, scheme)
    order = _stable_group_order(set_idx, sets)
    ss = set_idx[order]
    bounds = np.flatnonzero(ss[1:] != ss[:-1]) + 1
    return list(zip(np.append(ss[:1], ss[bounds]).tolist(), np.split(order, bounds)))


def per_set_stack_distances(
    blocks: np.ndarray, sets: int = 1, scheme: str = "mod"
) -> np.ndarray:
    """Within-set LRU stack distances; 0 marks cold accesses.

    ``sets=1`` is the fully-associative Mattson pass.  An access hits a
    ``sets``-set, ``w``-way LRU cache iff its distance here is in ``[1, w]``.
    No per-set loop is needed: a block id determines its set, so on the
    *set-grouped* reordering of the trace (each set's subsequence
    contiguous and time-ordered) every reuse window stays inside one set's
    span, and one global pass computes every set's distances at once.
    """
    from repro.analysis.misscurve import stack_distances_array

    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    if sets <= 1 or blocks.shape[0] == 0:
        return stack_distances_array(blocks)
    order = _stable_group_order(set_index_array(blocks, sets, scheme), sets)
    d = np.empty(blocks.shape[0], dtype=np.int64)
    d[order] = stack_distances_array(blocks[order])
    return d


def _direct_hit_mask(blocks: np.ndarray, frames: int, scheme: str = "mod") -> np.ndarray:
    """Per-access hit mask of a direct-mapped cache with ``frames`` frames:
    group accesses by frame (stable, so time-ordered) and hit iff the
    previous access to the same frame touched the same block."""
    n = blocks.shape[0]
    hit_mask = np.zeros(n, dtype=bool)
    if n == 0:
        return hit_mask
    key = set_index_array(blocks, frames, scheme)
    order = _stable_group_order(key, frames)
    sk, sb = key[order], blocks[order]
    same = (sk[1:] == sk[:-1]) & (sb[1:] == sb[:-1])
    hit_mask[order[1:][same]] = True
    return hit_mask


def _distance_mask(d: np.ndarray, capacity: int) -> np.ndarray:
    """Miss mask from stack distances: cold (0) or deeper than ``capacity``."""
    return (d == 0) | (d > capacity)


# ----------------------------------------------------------------------
# lru / direct: the recency carry and the one level helper
# ----------------------------------------------------------------------
def recency_carry(carry: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Fold a chunk into the recency carry: every distinct block seen so
    far, ordered by last access, LRU first.  Prepended to the next chunk it
    makes the within-chunk stack distances (and per-frame last blocks) come
    out as if the whole prefix had been replayed.  Folding is associative
    with concatenation — ``recency_carry(recency_carry(c, a), b) ==
    recency_carry(c, concat(a, b))``, a property ``tests/test_streaming.py``
    pins."""
    carry = np.ascontiguousarray(carry, dtype=np.int64)
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    if blocks.shape[0] == 0:
        return carry
    n = int(blocks.shape[0])
    uniq, idx = np.unique(blocks[::-1], return_index=True)
    last = n - 1 - idx  # position of each distinct block's final access
    tail = uniq[np.argsort(last, kind="stable")]
    if carry.shape[0]:
        carry = carry[~np.isin(carry, uniq)]
    return np.concatenate([carry, tail])


def _level_pass(
    blocks: np.ndarray, carry: np.ndarray, geom: CacheGeometry, direct: bool, memo: _Memo
) -> np.ndarray:
    """One organization's pass over a chunk under its recency ``carry`` —
    the per-frame hit mask (``direct``) or the per-set stack distances —
    memoized so every geometry sharing the organization reuses it."""
    classes = geom.n_blocks if direct else geom.sets
    key = ("direct" if direct else "lru", classes, _scheme_of(geom, classes))
    found = memo.get(key)
    if found is None:
        k = int(carry.shape[0])
        synth = np.concatenate([carry, blocks]) if k else blocks
        run = _direct_hit_mask if direct else per_set_stack_distances
        found = memo[key] = run(synth, classes, key[2])[k:]
    return found


def _level_mask(
    blocks: np.ndarray, carry: np.ndarray, geom: CacheGeometry, direct: bool, memo: _Memo
) -> np.ndarray:
    """Miss mask of one single-level organization over a chunk: the level
    helper lru, direct and both hierarchy levels share."""
    found = _level_pass(blocks, carry, geom, direct, memo)
    return ~found if direct else _distance_mask(found, geom.associativity)


def _recency_direct(geometries: Sequence[CacheGeometry], policy: str) -> bool:
    """Whether ``policy``'s geometries take the per-frame scan (direct)
    rather than stack distances (lru, where a 1-way geometry shares its set
    count's pass).  Validates before the first chunk."""
    if policy != "direct":
        return False
    for geom in geometries:
        if geom.ways not in (None, 1):
            raise CacheConfigError(
                f"direct-mapped replay needs ways=1 (or an unspecified "
                f"associativity), got ways={geom.ways}"
            )
    return True


def _recency_carries(
    source: ChunkSource,
) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]]:
    """``(blocks, phases, carry of every earlier chunk)`` per chunk; a
    chunk is folded only when another one follows."""
    carry = _EMPTY
    for index in range(source.n_chunks):
        blocks, phases = source.chunk(index)
        yield blocks, phases, carry
        if index + 1 < source.n_chunks:
            carry = recency_carry(carry, blocks)


def _recency_step(
    blocks: np.ndarray,
    carry: np.ndarray,
    geometries: Sequence[CacheGeometry],
    direct: bool,
    workers: Optional[int] = None,
) -> List[np.ndarray]:
    """Per-geometry miss masks of one lru/direct chunk under ``carry`` —
    also what the process backend's chunk workers run."""
    memo: _Memo = {}
    for geom in geometries:  # shared passes, once per organization
        _level_pass(blocks, carry, geom, direct, memo)
    return fan_out(
        lambda geom: _level_mask(blocks, carry, geom, direct, memo),
        list(geometries), backend="thread", workers=workers,
    )


def _recency_kernel(
    source: ChunkSource, geometries: Sequence[CacheGeometry], workers: Optional[int],
    policy: str,
) -> Iterator[ChunkMasks]:
    """The lru and direct kernel: the recency carry plus the level passes."""
    direct = _recency_direct(geometries, policy)
    for blocks, phases, carry in _recency_carries(source):
        yield phases, _recency_step(blocks, carry, geometries, direct, workers)


# ----------------------------------------------------------------------
# opt: reverse next-use pass, forward carried priority stack
# ----------------------------------------------------------------------
#: (stack block ids, stack priorities, resident set, accesses seen so far)
_OptState = Tuple[List[int], List[int], Set[int], int]


def _opt_stack_pass(
    blocks: List[int],
    next_use: List[int],
    max_depth: int,
    total: int,
    state: Optional[_OptState] = None,
) -> Tuple[List[int], _OptState]:
    """Priority-stack OPT stack distances for one access sequence.

    MIN's priority list at time ``t`` orders blocks by next use after ``t``;
    every stored priority is that block's next use after its *last* access,
    which is always in the future of ``t``, so one forward pass with
    Mattson's percolation is exact.  The stack is truncated at
    ``max_depth``: percolation only moves entries *down*, so the cut cannot
    disturb any reported distance.  ``next_use >= total`` means "never
    again"; such a block gets the sentinel ``total + seen`` (``seen``
    counting this sequence's accesses across every call resumed through
    ``state``) — sentinels only need to exceed every real next use and
    grow with time, so their order cannot change any miss count.
    """
    n = len(blocks)
    out = [0] * n
    if state is None:
        stack_b: List[int] = []  # block ids, top (most valuable) first
        stack_p: List[int] = []  # priorities: next-use position, smaller = sooner
        resident: Set[int] = set()
        seen = 0
    else:
        stack_b, stack_p, resident, seen = state
    base = total + seen
    for i in range(n):
        b = blocks[i]
        p = next_use[i]
        if p >= total:
            p = base + i  # unique sentinel: never used again
        if b in resident:
            idx = stack_b.index(b)
            if idx == 0:
                out[i] = 1
                stack_p[0] = p
                continue
            out[i] = idx + 1
            carry_b, carry_p = stack_b[0], stack_p[0]
            stack_b[0], stack_p[0] = b, p
            j = 1
            while j < idx:
                if stack_p[j] >= carry_p:
                    stack_b[j], carry_b = carry_b, stack_b[j]
                    stack_p[j], carry_p = carry_p, stack_p[j]
                j += 1
            stack_b[idx], stack_p[idx] = carry_b, carry_p
        else:
            # cold (or evicted beyond every tracked capacity): miss everywhere
            if stack_b:
                carry_b, carry_p = stack_b[0], stack_p[0]
                stack_b[0], stack_p[0] = b, p
                L = len(stack_b)
                j = 1
                while j < L:
                    if stack_p[j] >= carry_p:
                        stack_b[j], carry_b = carry_b, stack_b[j]
                        stack_p[j], carry_p = carry_p, stack_p[j]
                    j += 1
                if L < max_depth:
                    stack_b.append(carry_b)
                    stack_p.append(carry_p)
                else:
                    resident.discard(carry_b)
            else:
                stack_b.append(b)
                stack_p.append(p)
            resident.add(b)
    return out, (stack_b, stack_p, resident, seen + n)


def _opt_chunk_distances(
    blocks: np.ndarray,
    next_use: np.ndarray,
    max_depth: int,
    organization: Tuple[int, str],
    total: int,
    states: Dict[int, _OptState],
    keep: bool,
) -> np.ndarray:
    """OPT stack distances of one chunk, one priority stack per set of the
    ``(sets, scheme)`` organization, resumed from ``states`` (and stored
    back when ``keep``)."""
    out = np.zeros(blocks.shape[0], dtype=np.int64)
    for sid, seg in _set_segments(blocks, *organization):
        dists, state = _opt_stack_pass(
            blocks[seg].tolist(), next_use[seg].tolist(), max_depth, total, states.get(sid)
        )
        if keep:
            states[sid] = state
        out[seg] = dists
    return out


def opt_stack_distances(
    blocks: np.ndarray, max_depth: int, sets: int = 1, scheme: str = "mod"
) -> np.ndarray:
    """Per-access OPT stack distances, truncated at ``max_depth``: 0 marks
    accesses that miss at every capacity up to ``max_depth``; ``d >= 1``
    means the access hits any OPT cache holding at least ``d`` blocks (per
    set when ``sets > 1``, sets hashed by ``scheme``)."""
    if max_depth < 1:
        raise CacheConfigError(f"max_depth must be >= 1, got {max_depth}")
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    return _opt_chunk_distances(
        blocks, next_occurrences(blocks), max_depth, (sets, scheme),
        int(blocks.shape[0]), {}, keep=False,
    )


def _opt_next_uses(
    source: ChunkSource,
) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]]:
    """``(blocks, phases, next_use)`` of every chunk, in forward order, with
    ``next_use`` in absolute trace positions (``source.accesses`` = never
    again).  The reverse pass folds a chunk's first occurrences into
    ``carry_next`` and spills its next-use array (to a pass-owned temporary
    directory, never the trace cache) only when an earlier chunk follows;
    it ends on chunk 0, whose arrays stay in memory — so a one-chunk source
    spills nothing."""
    n = source.n_chunks
    if n == 0:
        return
    total = hi = source.accesses
    spill: ContextManager[str] = (
        tempfile.TemporaryDirectory(prefix="repro-optstream-") if n > 1 else nullcontext("")
    )
    with spill as tmp:
        paths = [Path(tmp) / f"next{i}.npy" for i in range(n)]
        carry_next: Dict[int, int] = {}
        for index in range(n - 1, -1, -1):
            blocks, phases = source.chunk(index)
            lo = hi - int(blocks.shape[0])
            next_use = next_occurrences(blocks) + lo
            if index < n - 1:  # an in-chunk "never again" may recur later
                tail = np.flatnonzero(next_use >= hi)
                next_use[tail] = np.fromiter(
                    (carry_next.get(b, total) for b in blocks[tail].tolist()),
                    dtype=np.int64, count=int(tail.shape[0]),
                )
            if index:
                uniq, first = np.unique(blocks, return_index=True)
                carry_next.update(zip(uniq.tolist(), (first + lo).tolist()))
                np.save(paths[index], next_use)
            hi = lo
        yield blocks, phases, next_use
        for index in range(1, n):
            blocks, phases = source.chunk(index)
            yield blocks, phases, np.load(paths[index])


def _opt_kernel(
    source: ChunkSource, geometries: Sequence[CacheGeometry], workers: Optional[int]
) -> Iterator[ChunkMasks]:
    """The opt kernel: one truncated priority-stack pass per distinct
    (set count, scheme), deep enough for the largest capacity sharing it."""
    orgs = [((g.sets, _scheme_of(g, g.sets)), g.associativity) for g in geometries]
    depth_for: Dict[Tuple[int, str], int] = {}
    for key, cap in orgs:
        depth_for[key] = max(depth_for.get(key, 1), cap)
    states: Dict[Tuple[int, str], Dict[int, _OptState]] = {k: {} for k in depth_for}
    for index, (blocks, phases, next_use) in enumerate(_opt_next_uses(source)):
        dist = {
            key: _opt_chunk_distances(
                blocks, next_use, depth, key, source.accesses, states[key],
                keep=index + 1 < source.n_chunks,
            )
            for key, depth in depth_for.items()
        }
        yield phases, fan_out(
            lambda org: _distance_mask(dist[org[0]], org[1]),
            orgs, backend="thread", workers=workers,
        )


# ----------------------------------------------------------------------
# two_level: L1 pass, miss sub-trace, L2 pass
# ----------------------------------------------------------------------
def _two_level_group(
    blocks: np.ndarray,
    carry: np.ndarray,
    l1: CacheGeometry,
    l2s: Sequence[CacheGeometry],
    sub_carry: np.ndarray,
    l1_memo: _Memo,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """One L1 group of a chunk: ``(L1 miss mask, L1 miss sub-trace,
    memory-miss mask per L2)``, L2 replaying the sub-trace under
    ``sub_carry``."""
    l1_mask = _level_mask(blocks, carry, l1, l1.ways == 1, l1_memo)
    pos = np.flatnonzero(l1_mask)
    sub = blocks[pos]
    l2_memo: _Memo = {}
    memory: List[np.ndarray] = []
    for l2 in l2s:
        full = np.zeros(blocks.shape[0], dtype=bool)
        # memory miss = L1 miss AND L2 miss
        full[pos[_level_mask(sub, sub_carry, l2, l2.ways == 1, l2_memo)]] = True
        memory.append(full)
    return l1_mask, sub, memory


def _two_level_kernel(
    source: ChunkSource, geometries: Sequence[TwoLevelGeometry], workers: Optional[int]
) -> Iterator[ChunkMasks]:
    """The two_level kernel: sweep points grouped by L1, one L1 pass per
    group (``workers`` threads the groups); L1 carries the recency list,
    each group's L2 one over the group's miss sub-stream."""
    for tg in geometries:
        if not isinstance(tg, TwoLevelGeometry):
            raise CacheConfigError(
                f"policy 'two_level' sweeps TwoLevelGeometry points, got {tg!r}"
            )
    groups: Dict[CacheGeometry, List[int]] = {}
    for i, tg in enumerate(geometries):
        groups.setdefault(tg.l1, []).append(i)
    items = list(groups.items())
    sub_carries: Dict[CacheGeometry, np.ndarray] = {}
    for index, (blocks, phases, carry) in enumerate(_recency_carries(source)):
        l1_memo: _Memo = {}

        def run_group(item: Tuple[CacheGeometry, List[int]]) -> List[np.ndarray]:
            l1, idxs = item
            sub_carry = sub_carries.get(l1, _EMPTY)
            _l1_mask, sub, memory = _two_level_group(
                blocks, carry, l1, [geometries[i].l2 for i in idxs], sub_carry, l1_memo
            )
            if index + 1 < source.n_chunks:
                sub_carries[l1] = recency_carry(sub_carry, sub)
            return memory

        out: List[np.ndarray] = [_EMPTY] * len(geometries)
        masks = fan_out(run_group, items, backend="thread", workers=workers)
        for (_l1, idxs), memory in zip(items, masks):
            for i, mask in zip(idxs, memory):
                out[i] = mask
        yield phases, out


def hierarchy_level_masks(
    blocks: np.ndarray, geometry: TwoLevelGeometry
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-access ``(l1_miss_mask, memory_miss_mask)`` of one hierarchy:
    L1 misses (= L2 consults) and the subset that also missed L2 (= memory
    transfers, what ``policy="two_level"`` counts).  Experiment A8 reads
    the inclusion filter rate straight off these two masks."""
    arr = np.ascontiguousarray(blocks, dtype=np.int64)
    l1_mask, _sub, (memory,) = _two_level_group(
        arr, _EMPTY, geometry.l1, [geometry.l2], _EMPTY, {}
    )
    return l1_mask, memory


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_KERNELS: Dict[str, Kernel] = {}


def register_replay_kernel(policy: str, kernel: Kernel) -> None:
    """Register the carried-state kernel answering sweeps for ``policy``.
    The name must already exist in the stepwise registry
    (:func:`repro.cache.policy.get_policy`) — a replay without an oracle is
    untestable by construction."""
    get_policy(policy)
    _KERNELS[policy] = kernel


def available_replay_policies() -> Tuple[str, ...]:
    return tuple(sorted(_KERNELS))


register_replay_kernel("lru", partial(_recency_kernel, policy="lru"))
register_replay_kernel("direct", partial(_recency_kernel, policy="direct"))
register_replay_kernel("opt", _opt_kernel)
register_replay_kernel("two_level", _two_level_kernel)


def _kernel_for(policy: str) -> Kernel:
    get_policy(policy)  # raises CacheConfigError for unknown names
    kernel = _KERNELS.get(policy)
    if kernel is None:
        raise CacheConfigError(
            f"policy {policy!r} has no vectorized replay kernel; "
            f"available: {sorted(_KERNELS)}"
        )
    return kernel


# ----------------------------------------------------------------------
# reductions and entry points
# ----------------------------------------------------------------------
def _mask_stats(masks: Sequence[np.ndarray], phases: Optional[np.ndarray]) -> StreamStats:
    """Per-geometry ``(misses, phase bincount-or-None)`` of one chunk's
    masks — the one reduction every replay front door uses."""
    return [
        (
            int(np.count_nonzero(mask)),
            None if phases is None
            else np.bincount(phases[mask], minlength=len(PHASE_NAMES)).tolist(),
        )
        for mask in masks
    ]


def _add_stats(a: StreamStats, b: StreamStats) -> StreamStats:
    """Sum two chunks' reduced statistics — exact, since bincounts add."""
    return [
        (ma + mb, cb if ca is None else ca if cb is None else [x + y for x, y in zip(ca, cb)])
        for (ma, ca), (mb, cb) in zip(a, b)
    ]


def _replay_stats(
    source: ChunkSource,
    geometries: Sequence[Any],
    policy: str,
    workers: Optional[int] = None,
    streamed: bool = True,
) -> StreamStats:
    """Reduced per-geometry statistics of ``policy`` over ``source``; each
    chunk's masks are reduced and dropped, so peak memory is O(chunk +
    carried state).  ``streamed`` picks the span: a chunked replay is a
    ``stream.replay`` counting ``stream.chunks``, a whole in-memory trace a
    plain ``replay``."""
    geoms = list(geometries)
    kernel = _kernel_for(policy)
    obs.add(obs_names.REPLAY_GEOMETRIES, len(geoms))
    stats: StreamStats = [(0, None)] * len(geoms)
    span = (
        obs.span(obs_names.STREAM_REPLAY, policy=policy) if streamed
        else obs.span(obs_names.REPLAY, policy=policy)
    )
    with span:
        for phases, masks in kernel(source, geoms, workers):
            if streamed:
                obs.add(obs_names.STREAM_CHUNKS)
            stats = _add_stats(stats, _mask_stats(masks, phases))
    return stats


def _replay_masks(
    kernel: Kernel, source: ChunkSource, geoms: List[Any], workers: Optional[int]
) -> List[np.ndarray]:
    """Full-length per-geometry masks; a one-chunk source's come back as
    the kernel made them, with no copy."""
    chunks = [masks for _phases, masks in kernel(source, geoms, workers)]
    if len(chunks) == 1:
        return chunks[0]
    if not chunks:
        return [np.zeros(0, dtype=bool) for _ in geoms]
    return [np.concatenate(parts) for parts in zip(*chunks)]


def replay_miss_masks(
    blocks: np.ndarray,
    geometries: Iterable[Any],
    policy: str = "lru",
    workers: Optional[int] = None,
) -> List[np.ndarray]:
    """Per-access boolean miss masks of ``policy`` for every geometry: the
    policy's kernel over a one-chunk source.  Shared work (stack distances,
    set partitions, next-use passes) runs once per distinct organization;
    ``workers`` threads the final per-geometry mask evaluation."""
    geoms = list(geometries)
    kernel = _kernel_for(policy)
    source = ArrayChunkSource(blocks, chunk_words=max(1, len(blocks)))
    # the geometry tally is chunk-sum invariant: a process backend's
    # workers each count their chunk and the merged total equals one
    # serial call's — tests/test_obs.py pins that equality
    obs.add(obs_names.REPLAY_GEOMETRIES, len(geoms))
    with obs.span(obs_names.REPLAY, policy=policy):
        return _replay_masks(kernel, source, geoms, workers)


def replay_misses(
    blocks: np.ndarray,
    geometries: Iterable[Any],
    policy: str = "lru",
    workers: Optional[int] = None,
) -> List[int]:
    """Total miss counts of ``policy`` for every geometry (sweep form)."""
    return [
        int(np.count_nonzero(m))
        for m in replay_miss_masks(blocks, geometries, policy=policy, workers=workers)
    ]


def stream_masks(
    source: ChunkSource, geometries: Sequence[Any], policy: str = "lru"
) -> List[np.ndarray]:
    """Full-length per-geometry miss masks, assembled chunk by chunk —
    O(trace) booleans per geometry, for the differential suite; the
    production path (:func:`stream_stats`) never builds them."""
    return _replay_masks(_kernel_for(policy), source, list(geometries), None)


def stream_stats(
    source: ChunkSource, geometries: Sequence[Any], policy: str = "lru"
) -> StreamStats:
    """Reduced per-geometry ``(misses, phase_bincount)`` over a chunk
    source in O(chunk + carried state) memory; chunk bincounts add, so the
    totals are bit-identical to the monolithic replay's."""
    return _replay_stats(source, geometries, policy)
