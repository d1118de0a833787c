"""The benchmark's four seeded workloads.

Every workload has the same three entry points:

* ``build(seed, reduced=False)`` — seeded input generation (set-up, not
  timed).  ``reduced=True`` builds a small instance of the same shape: the
  warm-up pass runs on it, and the stepwise-oracle verification
  (``record.py``) and the tests use it.
* ``run_pass(inputs, tr, out)`` — one timed pass of the workload's job.
  Each public call into a layer is wrapped in a span of ``tr``; each
  operation runs through ``out.attempt`` so one that raises is counted and
  the pass goes on.
* ``check(inputs, out)`` — invariants over one pass's outputs, run outside
  the timed region; returns ``{operation: reason}`` for every violation.

A workload may also define ``account(inputs, outs)``: work counts a pass
cannot take without timing them, filled in after the timed passes.

Operation outputs are miss vectors (lists of ints).  The digests of the
pinned ones, those the input fixes, are what ``references.json`` records
per workload and seed; an unpinned output (a placement search's result) is
checked by its workload's invariants alone.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs import names as obs_names
from repro.analysis.sweeps import des_partitioned_workload
from repro.cache.base import CacheGeometry
from repro.cache.hierarchy import TwoLevelGeometry
from repro.core.baselines import interleaved_schedule
from repro.core.dagpart import interval_dp_partition, refine_partition
from repro.core.partition_sched import (
    component_layout_order,
    inhomogeneous_partition_schedule,
    pipeline_dynamic_schedule,
)
from repro.core.pipeline import optimal_pipeline_partition
from repro.core.tuning import choose_batch, required_geometry
from repro.graphs.apps import ALL_APPS
from repro.graphs.io import graph_to_dict
from repro.graphs.repetition import repetition_vector
from repro.graphs.topologies import pipeline, random_pipeline, rate_matched_random_dag
from repro.graphs.validate import validate_graph
from repro.mem.layout import layout_objects
from repro.mem.placement import build_instance, optimize_instance, placement_cost
from repro.runtime import trace_cache
from repro.runtime.compiled import compile_trace, compile_trace_uncached, simulate_trace
from repro.runtime.looped import Loop, LoopedSchedule

from spans import NULL

B = 8  # block size in words, every workload
#: Scratch space of the stream workload's cache directories, inside the checkout.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench" / "tmp"


class InjectedFailure(RuntimeError):
    """Raised in place of an operation named in ``PassOutput.inject``."""


@dataclass
class PassOutput:
    """What one pass produced: per-operation miss vectors and failures,
    per-layer counts, and the two totals the end-to-end metrics use."""

    inject: frozenset = frozenset()
    misses: Dict[str, List[int]] = field(default_factory=dict)
    unpinned: set = field(default_factory=set)  # outputs no reference records
    failed: Dict[str, str] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)
    total_misses: int = 0
    replayed: int = 0  # simulated block accesses answered (accesses x geometries)

    def attempt(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run operation ``name``; on an exception record it and return None."""
        try:
            if name in self.inject:
                raise InjectedFailure(f"injected failure of {name}")
            return fn()
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failed[name] = f"{type(exc).__name__}: {exc}"
            return None

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def record(self, name: str, misses: Sequence[int], pinned: bool = True) -> None:
        self.misses[name] = [int(m) for m in misses]
        if not pinned:
            self.unpinned.add(name)

    @property
    def operations(self) -> List[str]:
        return sorted(set(self.misses) | set(self.failed))


def digest(obj: object) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _rng(workload: str, seed: int) -> np.random.Generator:
    salt = int(hashlib.sha256(workload.encode()).hexdigest()[:8], 16)
    return np.random.default_rng([salt, seed])


# ----------------------------------------------------------------------
# the CLI `schedule` front half, shared by schedule and sweep
# ----------------------------------------------------------------------
@dataclass
class GraphSpec:
    """A corpus entry: which generator, with which arguments, at which
    target input count (``inputs`` = the CLI's ``--inputs``)."""

    kind: str
    args: Dict[str, Any]
    inputs: int

    def build(self):
        if self.kind in ALL_APPS:
            return ALL_APPS[self.kind]()
        if self.kind == "random_pipeline":
            args = dict(self.args)
            args["rate_choices"] = [tuple(r) for r in args["rate_choices"]]
            return random_pipeline(**args)
        if self.kind == "rate_matched_random_dag":
            return rate_matched_random_dag(**self.args)
        raise ValueError(f"unknown graph kind {self.kind!r}")

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "args": self.args, "inputs": self.inputs}


def build_graph(spec: GraphSpec, tr, out: PassOutput):
    """Generator + ``validate_graph`` + ``repetition_vector``: the graphs layer."""
    with tr.span("graphs.build"):
        g = spec.build()
        validate_graph(g)
        repetition_vector(g)
    out.count("graphs.modules", g.n_modules)
    return g


def partition_and_schedule(g, inputs: int, M: int, c: float, tr, out: PassOutput):
    """The CLI ``schedule`` command's partition + schedule for an ``M``-word
    cache; returns ``(schedule, run geometry, layout order)``."""
    geom = CacheGeometry(size=M, block=B)
    with tr.span("core.partition"):
        if g.is_pipeline():
            part = optimal_pipeline_partition(g, M, c=c)
        else:
            part = refine_partition(interval_dp_partition(g, M, c=c), M, c=c)
    with tr.span("core.schedule"):
        if g.is_pipeline():
            sched = pipeline_dynamic_schedule(g, part, geom, target_outputs=inputs)
        else:
            plan = choose_batch(g, M, cross_cids=[ch.cid for ch in part.cross_channels()])
            n_batches = max(1, -(-inputs // max(plan.source_fires, 1)))
            sched = inhomogeneous_partition_schedule(
                g, part, geom, n_batches=n_batches, plan=plan
            )
    out.count("core.firings", len(sched))
    return sched, required_geometry(part, geom), component_layout_order(part)


def compile_counted(g, sched, order, tr, out: PassOutput):
    with tr.span("compiled.compile"):
        trace = compile_trace(g, sched, B, layout_order=order)
    out.count("compiled.accesses", trace.accesses)
    return trace


def replay(trace, geoms, policy: str, family: str, tr, out: PassOutput) -> List[int]:
    """Monolithic replay of ``geoms`` through ``simulate_trace``."""
    with tr.span(f"replay.{family}"):
        results = simulate_trace(trace, geoms, policy=policy)
    out.count("replay.geometries", len(geoms))
    out.replayed += trace.accesses * len(geoms)
    return [r.misses for r in results]


def calibrated(spec: GraphSpec, target_accesses: int, M: int, c: float):
    """``spec`` at the input count whose compiled trace comes closest to
    ``target_accesses`` accesses (starting from ``spec.inputs`` as a pilot),
    with that trace's length and its ``(graph, schedule, layout order)``.
    Schedules round outputs up to whole batches, so the scaling is iterated
    rather than solved in one step."""
    scratch = PassOutput()
    g = build_graph(spec, NULL, scratch)
    inputs, best = spec.inputs, None
    for _ in range(4):
        sched, _geom, order = partition_and_schedule(g, inputs, M, c, NULL, scratch)
        accesses = compile_trace_uncached(g, sched, B, layout_order=order).accesses
        miss = abs(accesses - target_accesses)
        if best is None or miss < best[0]:
            best = (miss, inputs, accesses, (g, sched, order))
        if miss <= 0.1 * target_accesses:
            break
        inputs = max(1, round(inputs * target_accesses / max(accesses, 1)))
    _miss, inputs, accesses, job = best
    return GraphSpec(spec.kind, spec.args, inputs), accesses, job


def random_corpus(rng, kind: str, count: int, args: Dict[str, Any], target: int,
                  M: int, c: float, pilot: int = 32, tolerance: float = 0.15):
    """``count`` seeded ``kind`` graphs whose traces each hold ``target``
    accesses within ``tolerance``, as ``[(spec, (graph, schedule, layout
    order))]``.  A graph the input count cannot bring that close (its
    batches are too coarse) is redrawn, so a corpus costs about the same
    whatever its seed."""
    corpus = []
    draws = 0
    while len(corpus) < count:
        draws += 1
        spec = GraphSpec(kind, {**args, "seed": int(rng.integers(2**31)),
                                "name": f"{kind}-{len(corpus)}"}, pilot)
        spec, accesses, job = calibrated(spec, target, M, c)
        if abs(accesses - target) <= tolerance * target or draws > 20 * count:
            corpus.append((spec, job))
    return corpus


PIPELINE_ARGS = {"n": 10, "max_state": 64, "min_state": 4,
                 "rate_choices": [[1, 1], [2, 1], [1, 2], [3, 2]]}
DAG_ARGS = {"layers": 3, "width": 3, "max_state": 48}


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------
class ScheduleWorkload:
    """The CLI ``schedule`` path per graph: build, partition, schedule,
    ``compile_trace`` and one LRU replay at the run geometry."""

    name = "schedule"
    M, C = 256, 2.0  # the CLI defaults --cache 256 --c 2.0
    APP_INPUTS = 128
    RANDOM_ACCESSES = 25_000

    def build(self, seed: int, reduced: bool = False):
        rng = _rng(self.name, seed)
        if reduced:
            apps, per_kind, target, tol = ["mp3_subband"], 1, 3_000, 1.0
        else:
            apps, per_kind, target, tol = sorted(ALL_APPS), 6, self.RANDOM_ACCESSES, 0.15
        specs = [GraphSpec(app, {}, 32 if reduced else self.APP_INPUTS) for app in apps]
        for kind, args in (("random_pipeline", PIPELINE_ARGS),
                           ("rate_matched_random_dag", DAG_ARGS)):
            corpus = random_corpus(rng, kind, per_kind, args, target, self.M, self.C,
                                   tolerance=tol)
            specs += [spec for spec, _job in corpus]
        return specs

    def input_digest(self, specs) -> str:
        return digest([s.as_dict() for s in specs])

    def run_pass(self, specs, tr, out: PassOutput) -> None:
        for i, spec in enumerate(specs):
            name = f"{i:02d}.{spec.kind}"
            misses = out.attempt(name, lambda spec=spec: self._one(spec, tr, out))
            if misses is not None:
                out.record(name, misses)
                out.total_misses += misses[0]

    def _one(self, spec: GraphSpec, tr, out: PassOutput) -> List[int]:
        g = build_graph(spec, tr, out)
        sched, run_geom, order = partition_and_schedule(g, spec.inputs, self.M, self.C, tr, out)
        trace = compile_counted(g, sched, order, tr, out)
        misses = replay(trace, [run_geom], "lru", "lru", tr, out)
        return [misses[0], trace.accesses]

    def check(self, specs, out: PassOutput) -> Dict[str, str]:
        bad = {}
        for name, (misses, accesses) in out.misses.items():
            if not 0 < misses <= accesses:
                bad[name] = f"misses {misses} outside (0, accesses={accesses}]"
        return bad


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
SWEEP_SIZES = (64, 96, 128, 192, 256, 384, 512, 768, 1024)
SET_WAYS = (1, 2, 4, 8, 16, 32)
SET_COUNT = 16
DIRECT_FRAMES = (8, 16, 32, 64, 128)
L1_SIZES = (96, 128, 192)
L2_SIZES = (256, 512, 768, 1024)


def sweep_families(reduced: bool = False) -> Dict[str, Tuple[str, list]]:
    """family -> (policy, geometries): the E12/E15/A8 geometry families."""
    sizes = SWEEP_SIZES[::3] if reduced else SWEEP_SIZES
    ways = SET_WAYS[:3] if reduced else SET_WAYS
    return {
        "lru": ("lru", [CacheGeometry(size=s, block=B) for s in sizes]),
        "lru_sets": ("lru", [
            CacheGeometry(size=SET_COUNT * w * B, block=B, ways=w) for w in ways
        ]),
        "direct": ("direct", [
            CacheGeometry(size=f * B, block=B, ways=1) for f in DIRECT_FRAMES
        ]),
        "opt": ("opt", [CacheGeometry(size=s, block=B) for s in sizes]),
        "two_level": ("two_level", [
            TwoLevelGeometry(CacheGeometry(size=l1, block=B), CacheGeometry(size=l2, block=B))
            for l1 in (L1_SIZES[:1] if reduced else L1_SIZES)
            for l2 in (L2_SIZES[:2] if reduced else L2_SIZES)
        ]),
    }


@dataclass
class SweepInputs:
    specs: List[GraphSpec]
    jobs: List[Tuple[Any, Any, list]]  # (graph, schedule, layout order) per trace
    families: Dict[str, Tuple[str, list]]


class SweepWorkload:
    """A few seeded traces, each compiled once, then replayed over whole
    geometry families for every registered replay policy."""

    name = "sweep"
    M, C = 128, 1.0
    TRACES = 6
    ACCESSES = 50_000

    def build(self, seed: int, reduced: bool = False) -> SweepInputs:
        rng = _rng(self.name, seed)
        target = 12_000 if reduced else self.ACCESSES
        corpus = random_corpus(
            rng, "random_pipeline", 1 if reduced else self.TRACES,
            {"n": 12, "max_state": 48, "min_state": 4, "rate_choices": [[1, 1]]},
            target, self.M, self.C, pilot=target // 80,
            tolerance=1.0 if reduced else 0.15,
        )
        specs = [spec for spec, _job in corpus]
        jobs = [job for _spec, job in corpus]
        return SweepInputs(specs, jobs, sweep_families(reduced))

    def input_digest(self, inputs: SweepInputs) -> str:
        return digest([s.as_dict() for s in inputs.specs])

    def run_pass(self, inputs: SweepInputs, tr, out: PassOutput) -> None:
        for i, (g, sched, order) in enumerate(inputs.jobs):
            trace = out.attempt(f"t{i}.compile", lambda: compile_counted(g, sched, order, tr, out))
            if trace is None:
                continue
            out.record(f"t{i}.compile", [trace.accesses])
            for family, (policy, geoms) in inputs.families.items():
                name = f"t{i}.{family}"
                misses = out.attempt(
                    name, lambda: replay(trace, geoms, policy, family, tr, out)
                )
                if misses is not None:
                    out.record(name, misses)
                    out.total_misses += sum(misses)

    def check(self, inputs: SweepInputs, out: PassOutput) -> Dict[str, str]:
        bad = {}
        for i in range(len(inputs.jobs)):
            lru = out.misses.get(f"t{i}.lru")
            opt = out.misses.get(f"t{i}.opt")
            sets = out.misses.get(f"t{i}.lru_sets")
            if lru and any(a < b for a, b in zip(lru, lru[1:])):
                bad[f"t{i}.lru"] = "LRU misses grow with capacity"
            if sets and any(a < b for a, b in zip(sets, sets[1:])):
                bad[f"t{i}.lru_sets"] = "LRU misses grow with ways at a fixed set count"
            if lru and opt and any(o > m for o, m in zip(opt, lru)):
                bad[f"t{i}.opt"] = "OPT misses more than LRU at the same capacity"
        return bad


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
@dataclass
class PlacementInputs:
    graph: Any
    schedule: Any
    run_geom: CacheGeometry
    targets: List[Tuple[CacheGeometry, str, float]]
    probes: List[List[int]]  # seeded object permutations timed as single evals
    budget: int


TARGET_NAMES = ("direct", "lru_2way", "lru_4way")


class PlacementWorkload:
    """Multi-target placement search on the A9 DES instance: ``swap``,
    ``multiswap`` and ``minimax`` at one equal eval budget, plus timed
    single evals of seeded random layouts.

    The instance, the probes' costs and each search's seed costs are fixed
    by the input and pinned by the reference.  What a search returns is
    not: a search that finds a better layout within the budget is correct,
    so its result is checked by ``check`` alone and its misses are left to
    the ``misses`` metric."""

    name = "placement"
    STRATEGIES = ("swap", "multiswap", "minimax")
    BUDGET = 6
    PROBES = 2

    def build(self, seed: int, reduced: bool = False) -> PlacementInputs:
        rng = _rng(self.name, seed)
        if reduced:
            g, sched, _part, run_geom = _reduced_des()
        else:
            g, sched, _part, run_geom = des_partitioned_workload(M=256, B=B, inputs=256)
        targets = [
            (run_geom.with_ways(1), "direct", 1.0),
            (run_geom.with_ways(2), "lru", 1.0),
            (run_geom.with_ways(4), "lru", 1.0),
        ]
        n_obj = len(layout_objects(g))
        probes = [rng.permutation(n_obj).tolist() for _ in range(self.PROBES)]
        return PlacementInputs(g, sched, run_geom, targets, probes,
                               2 if reduced else self.BUDGET)

    def input_digest(self, inputs: PlacementInputs) -> str:
        return digest({
            "graph": graph_to_dict(inputs.graph), "firings": len(inputs.schedule),
            "geometry": repr(inputs.run_geom), "probes": inputs.probes,
            "budget": inputs.budget,
        })

    def search(self, inst, inputs: PlacementInputs, strategy: str):
        return optimize_instance(inst, strategy=strategy, targets=inputs.targets,
                                 budget=inputs.budget)

    def run_pass(self, inputs: PlacementInputs, tr, out: PassOutput) -> None:
        def instance():
            with tr.span("placement.instance"):
                return build_instance(inputs.graph, inputs.schedule, B)

        inst = out.attempt("instance", instance)
        if inst is None:
            return
        out.record("instance", [inst.trace.accesses])
        n = inst.trace.accesses
        results = {}
        for strategy in self.STRATEGIES:
            def search(strategy=strategy):
                with tr.span(f"placement.search.{strategy}"):
                    return self.search(inst, inputs, strategy)

            res = out.attempt(f"search.{strategy}", search)
            if res is None:
                continue
            results[strategy] = res
            out.record(f"search.{strategy}.seed", res.seed_per_target)
            out.record(f"search.{strategy}", res.per_target, pinned=False)
            out.total_misses += int(sum(res.per_target))
        for k, perm in enumerate(inputs.probes):
            order = [inst.objects[j] for j in perm]
            row = []
            for tname, (geom, policy, _w) in zip(TARGET_NAMES, inputs.targets):
                def probe(geom=geom, policy=policy, tname=tname):
                    with tr.span(f"placement.eval.{tname}"):
                        return placement_cost(inst, order, geom, policy=policy)

                row.append(out.attempt(f"probe{k}", probe))
                out.replayed += n
            if None not in row:
                out.record(f"probe{k}", row)
        out.extras["results"] = results
        out.extras["probe_orders"] = [
            [inst.objects[j] for j in perm] for perm in inputs.probes
        ]
        out.extras["seed_trace"] = inst.trace
        out.extras["instance"] = inst
        if results:
            seed_total = sum(sum(r.seed_per_target) for r in results.values())
            got_total = sum(sum(r.per_target) for r in results.values())
            out.counts["placement.gain"] = seed_total / max(got_total, 1)
            out.counts["placement.worst_ratio"] = max(
                m / s if s else (0.0 if m == 0 else float("inf"))
                for r in results.values()
                for m, s in zip(r.per_target, r.seed_per_target)
            )

    def account(self, inputs: PlacementInputs, outs: List[PassOutput]) -> None:
        """Credit each pass's searches with the accesses they replayed.

        A search's eval count depends on where it stops (no move left,
        candidates pruned for capacity, minimax's phase split), so it is
        read off the program: one untimed rerun of each strategy under
        ``repro.obs`` capture counts the geometries it replayed
        (``replay.geometries``), its own evals and ``optimize_instance``'s
        seed and final evals alike, each over the whole remapped trace.
        Searches are deterministic, so the count holds for every pass."""
        inst = next((o.extras["instance"] for o in outs if "instance" in o.extras), None)
        if inst is None:
            return
        for strategy in self.STRATEGIES:
            with obs.capture(enabled=True) as cap:
                self.search(inst, inputs, strategy)
            replayed = cap.snapshot["counters"].get(obs_names.REPLAY_GEOMETRIES, 0)
            for out in outs:
                if f"search.{strategy}" in out.misses:
                    out.replayed += replayed * inst.trace.accesses

    def check(self, inputs: PlacementInputs, out: PassOutput) -> Dict[str, str]:
        """Never worse than the seed at any target; recompiling the returned
        layout reproduces the reported misses; fully-associative misses do
        not move with layout; the remap cost model matches a recompile."""
        bad = {}
        g, sched = inputs.graph, inputs.schedule
        seed_trace = out.extras.get("seed_trace")
        fa_seed = None
        if seed_trace is not None:
            fa_seed = simulate_trace(seed_trace, [inputs.run_geom], policy="lru")[0].misses
        for strategy, res in out.extras.get("results", {}).items():
            name = f"search.{strategy}"
            if any(m > s for m, s in zip(res.per_target, res.seed_per_target)):
                bad[name] = f"worse than the seed: {res.per_target} vs {res.seed_per_target}"
                continue
            trace = compile_trace(g, sched, B, placement=res.order, gaps=res.gaps)
            again = [
                simulate_trace(trace, [geom], policy=policy)[0].misses
                for geom, policy, _w in inputs.targets
            ]
            if again != list(res.per_target):
                bad[name] = f"recompiled layout misses {again} != reported {res.per_target}"
            fa = simulate_trace(trace, [inputs.run_geom], policy="lru")[0].misses
            if fa != fa_seed:
                bad[name] = f"fully-associative misses moved with layout: {fa} vs {fa_seed}"
        orders = out.extras.get("probe_orders", [])
        if orders and "probe0" in out.misses:
            trace = compile_trace(g, sched, B, placement=orders[0])
            again = [
                simulate_trace(trace, [geom], policy=policy)[0].misses
                for geom, policy, _w in inputs.targets
            ]
            if again != out.misses["probe0"]:
                bad["probe0"] = f"cost model {out.misses['probe0']} != recompiled {again}"
        return bad


def _reduced_des():
    """A small DES instance partitioned exactly like ``des_partitioned_workload``."""
    from repro.graphs.apps import des_rounds

    M = 128
    g = des_rounds(rounds=4, sbox_state=24)
    geom = CacheGeometry(size=M, block=B)
    part = interval_dp_partition(g, M, c=2.0)
    plan = choose_batch(g, M, cross_cids=[c.cid for c in part.cross_channels()])
    sched = inhomogeneous_partition_schedule(g, part, geom, n_batches=2, plan=plan)
    return g, sched, part, required_geometry(part, geom)


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
STREAM_FAMILIES = {
    "lru": ("lru", [CacheGeometry(size=s, block=B) for s in (64, 128, 256, 512)]),
    "direct": ("direct", [CacheGeometry(size=f * B, block=B, ways=1) for f in (16, 64)]),
    "opt": ("opt", [CacheGeometry(size=s, block=B) for s in (128, 256)]),
    "two_level": ("two_level", [
        TwoLevelGeometry(CacheGeometry(size=l1, block=B), CacheGeometry(size=l2, block=B))
        for l1, l2 in ((128, 512), (256, 1024))
    ]),
}


@dataclass
class StreamInputs:
    graph: Any
    schedule: LoopedSchedule
    states: List[int]
    reps: int
    chunk_words: int


class StreamWorkload:
    """A seeded looped schedule compiled out-of-core into a fresh
    ``TraceCache`` directory, replayed chunked for every policy, then
    recompiled against the warm directory."""

    name = "stream"
    ACCESSES = 300_000
    CHUNK_WORDS = 1 << 14
    STATES = (8, 12, 16, 24, 32, 40, 44, 48)  # words per module, 224 in all

    def build(self, seed: int, reduced: bool = False) -> StreamInputs:
        rng = _rng(self.name, seed)
        # every seed streams the same module states, so its working set and
        # its cost are the same; the seed only orders the modules
        states = rng.permutation(self.STATES).tolist()
        g = pipeline(states, name="stream")
        one = interleaved_schedule(g, n_iterations=1)
        per_iter = compile_trace_uncached(g, one, B, capacities=one.capacities).accesses
        target = 12_000 if reduced else self.ACCESSES
        reps = -(-target // per_iter)
        sched = LoopedSchedule(
            loops=(Loop(count=reps, body=tuple(one.firings)),),
            capacities=one.capacities, label=f"stream-x{reps}",
        )
        chunk = 1 << 12 if reduced else self.CHUNK_WORDS
        return StreamInputs(g, sched, states, reps, chunk)

    def input_digest(self, inputs: StreamInputs) -> str:
        return digest({"states": inputs.states, "reps": inputs.reps,
                       "chunk_words": inputs.chunk_words})

    def run_pass(self, inputs: StreamInputs, tr, out: PassOutput) -> None:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="segments-", dir=WORK_DIR))
        previous = trace_cache.configure(trace_cache.TraceCache(cache_dir, max_bytes=1 << 40))
        try:
            self._pass(inputs, cache_dir, tr, out)
        finally:
            trace_cache.configure(previous)
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _pass(self, inputs: StreamInputs, cache_dir: Path, tr, out: PassOutput) -> None:
        g, sched, cw = inputs.graph, inputs.schedule, inputs.chunk_words

        def compile_chunked():
            with tr.span("streaming.compile"):
                return compile_trace(g, sched, B, chunk_words=cw)

        trace = out.attempt("compile", compile_chunked)
        if trace is None:
            return
        out.record("compile", [trace.accesses, trace.n_chunks])
        out.count("streaming.chunks", trace.n_chunks)
        out.count("trace_cache.spill_mb", sum(
            p.stat().st_size for p in cache_dir.iterdir() if p.is_file()
        ) / 2**20)
        for family, (policy, geoms) in STREAM_FAMILIES.items():
            def run(policy=policy, geoms=geoms):
                with tr.span(f"streaming.replay.{policy}"):
                    return [r.misses for r in simulate_trace(trace, geoms, policy=policy)]

            misses = out.attempt(family, run)
            if misses is not None:
                out.record(family, misses)
                out.total_misses += sum(misses)
                out.replayed += trace.accesses * len(geoms)

        def recompile():
            with tr.span("trace_cache.recompile"):
                return compile_trace(g, sched, B, chunk_words=cw)

        again = out.attempt("recompile", recompile)
        if again is not None:
            same = again.segment_keys == trace.segment_keys
            out.record("recompile", [again.accesses, again.n_chunks, int(same)])

    def check(self, inputs: StreamInputs, out: PassOutput) -> Dict[str, str]:
        """Chunked LRU/direct misses equal the monolithic replay; OPT never
        misses more than LRU; the warm recompile finds the same segments."""
        bad = {}
        mono = compile_trace_uncached(inputs.graph, inputs.schedule, B)
        for family in ("lru", "direct"):
            policy, geoms = STREAM_FAMILIES[family]
            want = [r.misses for r in simulate_trace(mono, geoms, policy=policy)]
            if family in out.misses and out.misses[family] != want:
                bad[family] = f"chunked {out.misses[family]} != monolithic {want}"
        lru = dict(zip((g.size for g in STREAM_FAMILIES["lru"][1]), out.misses.get("lru", [])))
        for geom, m in zip(STREAM_FAMILIES["opt"][1], out.misses.get("opt", [])):
            if geom.size in lru and m > lru[geom.size]:
                bad["opt"] = f"OPT {m} > LRU {lru[geom.size]} at {geom.size} words"
        rec = out.misses.get("recompile")
        if rec is not None and rec[2] != 1:
            bad["recompile"] = "warm recompile produced different segments"
        return bad


WORKLOADS = {
    w.name: w
    for w in (ScheduleWorkload(), SweepWorkload(), PlacementWorkload(), StreamWorkload())
}
