"""Golden trajectories of the placement local searches.

Every search strategy (``swap``, ``multiswap``, ``minimax``, ``smoothed``)
is pinned at ``batch=1``, and swap and multiswap also at ``batch=4``, by
what it returns and how it got there: a digest of the returned ``(order,
gaps)``, the returned cost, and the search telemetry every run records as
obs metrics — ``placement.evals`` and
``placement.rounds`` (summed over a strategy's engine runs) and the
``placement.cost`` series (each run's per-round best-cost trajectory, in run
order).  These are the :class:`~repro.mem.placement.RefineStats` fields of
every run the strategy made.

The pins go through :func:`~repro.mem.placement.optimize_instance`, the
entry point every caller of a strategy uses, so a refactor of the search
code underneath has to reproduce them exactly.  Cases: the des and fm_radio
partitioned workloads at a small budget, and one small pipeline that runs
several rounds and reaches gap moves on an 8-frame and a 32-frame cache;
each on the direct-mapped execution target or the A9 set {direct, 2-way
LRU, 4-way LRU}, with and without a gap budget.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro import obs
from repro.analysis.sweeps import des_partitioned_workload, fm_partitioned_workload
from repro.cache.base import CacheGeometry
from repro.core.baselines import single_appearance_schedule
from repro.graphs.topologies import pipeline
from repro.mem.placement import build_instance, optimize_instance
from repro.obs import names as obs_names

B = 8
STRATEGIES = ("swap", "multiswap", "minimax", "smoothed")


@lru_cache(maxsize=None)
def _workload(name: str):
    """``(instance, execution geometry, budget)`` of one named workload;
    ``pipeline<N>`` is the small pipeline on an N-frame cache."""
    if name.startswith("pipeline"):
        g = pipeline([12, 20, 6, 28, 10])
        sched = single_appearance_schedule(g, n_iterations=12)
        frames = int(name[len("pipeline"):])
        return build_instance(g, sched, B), CacheGeometry(size=frames * B, block=B), 600
    build = des_partitioned_workload if name == "des" else fm_partitioned_workload
    g, sched, _part, run_geom = build(M=256, B=B, inputs=64)
    return build_instance(g, sched, B), run_geom, 40


def _targets(geom: CacheGeometry, kind: str):
    if kind == "direct":
        return [(geom.with_ways(1), "direct", 1.0)]
    return [
        (geom.with_ways(1), "direct", 1.0),
        (geom.with_ways(2), "lru", 1.0),
        (geom.with_ways(4), "lru", 1.0),
    ]


def run_case(workload: str, kind: str, strategy: str, gap_budget: int, batch: int):
    """One pinned run: ``(layout digest, cost, evals, rounds, trajectory)``."""
    instance, geom, budget = _workload(workload)
    with obs.capture(enabled=True) as cap:
        res = optimize_instance(
            instance, strategy=strategy, targets=_targets(geom, kind),
            budget=budget, gap_budget=gap_budget, batch=batch,
            restarts=2, noise=0.5, seed=0,
        )
    snap = cap.snapshot
    layout = repr((res.order, sorted(res.gaps.items())))
    return (
        hashlib.sha1(layout.encode()).hexdigest()[:12],
        res.cost,
        snap["counters"].get(obs_names.PLACEMENT_EVALS, 0),
        snap["counters"].get(obs_names.PLACEMENT_ROUNDS, 0),
        tuple(snap["series"].get(obs_names.PLACEMENT_COST, ())),
    )


#: (workload, targets, strategy, gap_budget, batch) -> run_case(...)
GOLDEN = {
    ('pipeline8', 'direct', 'swap', 0, 1): ('914338ea032d', 216.0, 73, 1, (221.0, 216.0)),
    ('pipeline8', 'direct', 'swap', 3, 1): ('458cffc476da', 194.0, 93, 1, (221.0, 194.0)),
    ('pipeline8', 'direct', 'multiswap', 0, 1): ('914338ea032d', 216.0, 297, 1, (221.0, 216.0)),
    ('pipeline8', 'direct', 'multiswap', 3, 1): ('914338ea032d', 216.0, 301, 1, (221.0, 216.0)),
    ('pipeline8', 'direct', 'minimax', 0, 1): ('914338ea032d', 216.0, 447, 1, (221.0, 216.0, 0.9863013698630136)),
    ('pipeline8', 'direct', 'minimax', 3, 1): ('914338ea032d', 216.0, 452, 1, (221.0, 216.0, 0.9863013698630136)),
    ('pipeline8', 'direct', 'smoothed', 0, 1): ('914338ea032d', 216.0, 594, 2, (221.0, 216.0, 220.0, 216.0)),
    ('pipeline8', 'direct', 'smoothed', 3, 1): ('914338ea032d', 216.0, 600, 2, (221.0, 216.0, 220.0, 216.0)),
    ('pipeline8', 'a9', 'swap', 0, 1): ('914338ea032d', 648.0, 73, 1, (657.0, 648.0)),
    ('pipeline8', 'a9', 'swap', 3, 1): ('fa3821553f3a', 601.0, 124, 2, (657.0, 615.0, 601.0)),
    ('pipeline8', 'a9', 'multiswap', 0, 1): ('914338ea032d', 648.0, 297, 1, (657.0, 648.0)),
    ('pipeline8', 'a9', 'multiswap', 3, 1): ('914338ea032d', 648.0, 301, 1, (657.0, 648.0)),
    ('pipeline8', 'a9', 'minimax', 0, 1): ('914338ea032d', 648.0, 447, 1, (657.0, 648.0, 1.0)),
    ('pipeline8', 'a9', 'minimax', 3, 1): ('914338ea032d', 648.0, 452, 1, (657.0, 648.0, 1.0)),
    ('pipeline8', 'a9', 'smoothed', 0, 1): ('914338ea032d', 648.0, 594, 2, (657.0, 648.0, 656.0, 648.0)),
    ('pipeline8', 'a9', 'smoothed', 3, 1): ('914338ea032d', 648.0, 600, 2, (657.0, 648.0, 656.0, 648.0)),
    ('pipeline32', 'a9', 'swap', 0, 1): ('054ff1b4b7d7', 103.0, 73, 1, (107.0, 103.0)),
    ('pipeline32', 'a9', 'swap', 3, 1): ('7f1f7d10949d', 89.0, 92, 1, (107.0, 89.0)),
    ('pipeline32', 'a9', 'multiswap', 0, 1): ('054ff1b4b7d7', 103.0, 297, 1, (107.0, 103.0)),
    ('pipeline32', 'a9', 'multiswap', 3, 1): ('7f1f7d10949d', 89.0, 316, 1, (107.0, 89.0)),
    ('pipeline32', 'a9', 'minimax', 0, 1): ('054ff1b4b7d7', 103.0, 447, 1, (107.0, 103.0, 1.0)),
    ('pipeline32', 'a9', 'minimax', 3, 1): ('7f1f7d10949d', 89.0, 460, 1, (107.0, 89.0, 1.0)),
    ('pipeline32', 'a9', 'smoothed', 0, 1): ('054ff1b4b7d7', 103.0, 594, 2, (107.0, 103.0, 107.0, 103.0)),
    ('pipeline32', 'a9', 'smoothed', 3, 1): ('7f1f7d10949d', 89.0, 600, 2, (107.0, 89.0, 107.0, 89.0)),
    ('des', 'direct', 'swap', 0, 1): ('a130d0c8b974', 11624.0, 40, 1, (15708.0, 11624.0)),
    ('des', 'direct', 'swap', 3, 1): ('a130d0c8b974', 11624.0, 40, 1, (15708.0, 11624.0)),
    ('des', 'direct', 'multiswap', 0, 1): ('a130d0c8b974', 11624.0, 40, 1, (15708.0, 11624.0)),
    ('des', 'direct', 'multiswap', 3, 1): ('a130d0c8b974', 11624.0, 40, 1, (15708.0, 11624.0)),
    ('des', 'direct', 'minimax', 0, 1): ('267f3d4f7f18', 15707.0, 40, 1, (15708.0, 15707.0, 0.9387401386564667)),
    ('des', 'direct', 'minimax', 3, 1): ('267f3d4f7f18', 15707.0, 40, 1, (15708.0, 15707.0, 0.9387401386564667)),
    ('des', 'direct', 'smoothed', 0, 1): ('ef186bf0b5ff', 11629.0, 40, 2, (15708.0, 15707.0, 11642.0, 11629.0)),
    ('des', 'direct', 'smoothed', 3, 1): ('ef186bf0b5ff', 11629.0, 40, 2, (15708.0, 15707.0, 11642.0, 11629.0)),
    ('fm_radio', 'direct', 'swap', 0, 1): ('08773d057104', 14990.0, 40, 1, (15038.0, 14990.0)),
    ('fm_radio', 'direct', 'swap', 3, 1): ('08773d057104', 14990.0, 40, 1, (15038.0, 14990.0)),
    ('fm_radio', 'direct', 'multiswap', 0, 1): ('08773d057104', 14990.0, 40, 1, (15038.0, 14990.0)),
    ('fm_radio', 'direct', 'multiswap', 3, 1): ('08773d057104', 14990.0, 40, 1, (15038.0, 14990.0)),
    ('fm_radio', 'direct', 'minimax', 0, 1): ('6616e0f0c65b', 15030.0, 40, 1, (15038.0, 15030.0, 0.6937776957163959)),
    ('fm_radio', 'direct', 'minimax', 3, 1): ('6616e0f0c65b', 15030.0, 40, 1, (15038.0, 15030.0, 0.6937776957163959)),
    ('fm_radio', 'direct', 'smoothed', 0, 1): ('6616e0f0c65b', 15030.0, 40, 2, (15038.0, 15030.0, 30446.0, 20462.0)),
    ('fm_radio', 'direct', 'smoothed', 3, 1): ('6616e0f0c65b', 15030.0, 40, 2, (15038.0, 15030.0, 30446.0, 20462.0)),
    ('pipeline8', 'a9', 'swap', 3, 4): ('306cea5c9034', 613.0, 126, 2, (657.0, 639.0, 613.0)),
    ('pipeline8', 'a9', 'multiswap', 3, 4): ('bb564f9a6278', 648.0, 301, 1, (657.0, 648.0)),
    ('des', 'direct', 'swap', 3, 4): ('862e34104274', 12644.0, 40, 1, (15708.0, 12644.0)),
    ('des', 'direct', 'multiswap', 3, 4): ('862e34104274', 12644.0, 40, 1, (15708.0, 12644.0)),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_trajectory(case):
    assert run_case(*case) == GOLDEN[case]
