#!/usr/bin/env python
"""Service-path benchmark: execution backends + persistent trace cache.

Measures the four wins PR 7's runtime backend exists for, on the A9 DES
workload, and appends one summary per run to ``BENCH_service.json`` (with a
rolling ``history`` so ``benchmarks/check_bench_trends.py`` can gate both
relative regressions and absolute floors):

* **warm_speedup** — one :func:`repro.runtime.backend.run_batch` query,
  cold (compile + evaluate) vs warm (persistent-cache hit + evaluate).
  Core-count independent; the trend checker enforces the >= 5x floor on
  every machine.
* **dedup_factor** — a batch of N identical queries through ``run_batch``
  vs N separate single-query batches (no persistent cache): intra-batch
  dedup plus shared replay passes.
* **pool_scaling** — a wide LRU geometry sweep through
  ``simulate_trace(backend="process")`` vs ``backend="serial"``.  Only
  meaningful with real cores; the floor (>= 1.5x) applies when the
  recorded ``cores`` is >= 4, so a laptop or a 1-core CI runner records
  the honest ratio without failing.
* **search_speedup** — batched placement search
  (:func:`repro.mem.facility.local_search`, ``batch > 1``) on the process
  backend vs the serial backend at the *same* eval budget, after asserting
  the two trajectories are identical (same order, gaps, cost, evals — the
  backend-invariance contract).  Floor (>= 2x) gated on ``cores >= 4``.

Every timed pair also asserts bit-identical results first — a fast wrong
answer must fail here, not in a downstream experiment.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py           # full, writes JSON
    PYTHONPATH=src python benchmarks/bench_service.py --smoke   # quick CI pass, no JSON
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:  # runnable without PYTHONPATH too
    sys.path.insert(0, str(_ROOT / "src"))

from repro.analysis.sweeps import des_partitioned_workload
from repro.mem.facility import SWAP, local_search
from repro.mem.placement import build_instance, normalize_targets
from repro.runtime.backend import ServiceQuery, geometry_sweep, run_batch
from repro.runtime.compiled import compile_trace_uncached, simulate_trace
from repro.runtime.trace_cache import TraceCache

B = 8
JSON_PATH = _ROOT / "BENCH_service.json"
HISTORY_CAP = 50


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_warm_cache(g, sched, repeats: int) -> tuple:
    """Cold compile (+ digest + store) vs warm hit (digest + load), same input.

    This times exactly what the persistent cache saves — trace compilation —
    not the downstream geometry evaluation, which runs identically either
    way and is measured by the other benchmarks here.
    """
    import numpy as np

    from repro.runtime.trace_cache import cached_compile_trace

    with tempfile.TemporaryDirectory() as tmp:
        cache = TraceCache(Path(tmp) / "traces")
        t0 = time.perf_counter()
        cold_trace, key, hit = cached_compile_trace(g, sched, B, cache=cache)
        t_cold = time.perf_counter() - t0
        assert not hit and len(cache) == 1

        def warm_run():
            warm_trace, wkey, whit = cached_compile_trace(g, sched, B, cache=cache)
            assert whit and wkey == key
            assert np.array_equal(warm_trace.blocks, cold_trace.blocks)

        t_warm = _best_of(warm_run, repeats)

        # the batch front door rides the same cache: one warm query must
        # report the hit it got (integration, not timing)
        geoms = geometry_sweep([64 * B], B)
        answer = run_batch([ServiceQuery(g, sched, B, geoms)], cache=cache)[0]
        assert answer.cache_hit and answer.trace_key == key
    return t_cold, t_warm


def bench_dedup(g, sched, n_queries: int, repeats: int) -> tuple:
    """One deduplicating batch vs the same queries answered one at a time."""
    geoms = geometry_sweep([32 * B, 64 * B, 128 * B], B)
    queries = [ServiceQuery(g, sched, B, geoms, policy="lru") for _ in range(n_queries)]

    batched = run_batch(queries)
    assert [a.deduped for a in batched] == [False] + [True] * (n_queries - 1)
    singles = [run_batch([q])[0] for q in queries]
    for a, b in zip(batched, singles):
        assert [r.misses for r in a.results] == [r.misses for r in b.results]

    t_batch = _best_of(lambda: run_batch(queries), repeats)
    t_single = _best_of(lambda: [run_batch([q]) for q in queries], repeats)
    return t_single, t_batch


def bench_pool_scaling(trace, sizes, cores: int, repeats: int) -> tuple:
    """Process-pool geometry sweep vs the serial replay, bit-checked."""
    geoms = geometry_sweep([s * B for s in sizes], B)
    serial = simulate_trace(trace, geoms, policy="lru", backend="serial")
    pooled = simulate_trace(
        trace, geoms, policy="lru", backend="process", workers=cores
    )
    assert [r.misses for r in serial] == [r.misses for r in pooled]
    assert [r.phase_misses for r in serial] == [r.phase_misses for r in pooled]

    t_serial = _best_of(
        lambda: simulate_trace(trace, geoms, policy="lru", backend="serial"), repeats
    )
    t_pool = _best_of(
        lambda: simulate_trace(
            trace, geoms, policy="lru", backend="process", workers=cores
        ),
        repeats,
    )
    return t_serial, t_pool


def bench_search(instance, run_geom, cores: int, budget: int, batch: int) -> tuple:
    """Batched placement search, serial vs process, equal eval budget."""
    targets = normalize_targets(
        [
            (run_geom.with_ways(1), "direct", 1.0),
            (run_geom.with_ways(2), "lru", 1.0),
            (run_geom.with_ways(4), "lru", 1.0),
        ],
        block=B,
    )
    order = list(instance.objects)
    kw = dict(moves=SWAP, budget=budget, batch=batch, gap_budget=4)

    t0 = time.perf_counter()
    s_order, s_gaps, s_cost, s_stats = local_search(
        instance, order, targets, backend="serial", **kw
    )
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    p_order, p_gaps, p_cost, p_stats = local_search(
        instance, order, targets, backend="process", workers=cores, **kw
    )
    t_process = time.perf_counter() - t0
    assert (p_order, p_gaps, p_cost, p_stats) == (s_order, s_gaps, s_cost, s_stats), (
        "search trajectory changed with the backend"
    )
    return t_serial, t_process, s_stats.evals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="small workload, correctness asserts only, no JSON written",
    )
    ap.add_argument(
        "--workers", type=int, default=None,
        help="pool width for the scaling measurements (default: cpu count)",
    )
    args = ap.parse_args(argv)

    cores = os.cpu_count() or 1
    workers = args.workers or cores
    if args.smoke:
        m, inputs, sizes, budget, batch, n_queries, repeats = (
            64, 96, (16, 32, 64, 128), 24, 3, 4, 1
        )
    else:
        m, inputs, sizes, budget, batch, n_queries, repeats = (
            256, 256, (16, 32, 64, 128, 256, 512, 1024, 2048), 120, 6, 8, 3
        )

    g, sched, _part, run_geom = des_partitioned_workload(M=m, B=B, inputs=inputs)
    trace = compile_trace_uncached(g, sched, B)
    instance = build_instance(g, sched, B)

    t_cold, t_warm = bench_warm_cache(g, sched, repeats)
    warm_speedup = t_cold / t_warm if t_warm else float("inf")
    t_single, t_batch = bench_dedup(g, sched, n_queries, repeats)
    dedup_factor = t_single / t_batch if t_batch else float("inf")
    t_serial, t_pool = bench_pool_scaling(trace, sizes, workers, repeats)
    pool_scaling = t_serial / t_pool if t_pool else float("inf")
    t_sser, t_sproc, evals = bench_search(instance, run_geom, workers, budget, batch)
    search_speedup = t_sser / t_sproc if t_sproc else float("inf")

    rows = [
        ("warm cache vs cold compile", t_cold, t_warm, warm_speedup),
        (f"batch of {n_queries} vs singles", t_single, t_batch, dedup_factor),
        (f"lru sweep x{len(sizes)}, {workers} workers", t_serial, t_pool, pool_scaling),
        (f"search ({evals} evals, batch={batch})", t_sser, t_sproc, search_speedup),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"service benchmark on {cores} core(s), workers={workers}"
          f"{' [smoke]' if args.smoke else ''}")
    for name, base, opt, ratio in rows:
        print(f"  {name:{width}s}  {base:8.3f}s -> {opt:8.3f}s  ({ratio:6.2f}x)")

    if args.smoke:
        # correctness already asserted inside each bench_* helper; timing
        # floors are meaningless on shared CI runners at smoke scale
        print("smoke: correctness asserts passed, no record written")
        return 0

    assert warm_speedup >= 5.0, (
        f"warm-cache speedup {warm_speedup:.2f}x < 5x floor"
    )
    assert dedup_factor >= 1.0, (
        f"batch dedup slower than single queries ({dedup_factor:.2f}x)"
    )
    if cores >= 4:
        assert pool_scaling >= 1.5, (
            f"pool scaling {pool_scaling:.2f}x < 1.5x floor on {cores} cores"
        )
        assert search_speedup >= 2.0, (
            f"search speedup {search_speedup:.2f}x < 2x floor on {cores} cores"
        )

    summary = {
        "ts": round(time.time(), 1),
        "cores": cores,
        "warm_speedup": round(warm_speedup, 2),
        "dedup_factor": round(dedup_factor, 2),
        "pool_scaling": round(pool_scaling, 2),
        "search_speedup": round(search_speedup, 2),
    }
    history = []
    if JSON_PATH.exists():
        try:
            history = json.loads(JSON_PATH.read_text()).get("history", [])
        except (json.JSONDecodeError, OSError):
            history = []
    history = (history + [summary])[-HISTORY_CAP:]
    record = {
        "workload": {
            "graph": f"des_rounds(M={m})",
            "schedule": sched.label,
            "trace_accesses": trace.accesses,
            "block": B,
            "sweep_sizes": len(sizes),
            "batch_queries": n_queries,
            "search_budget": budget,
            "search_batch": batch,
        },
        "warm_cache": {
            "cold_s": round(t_cold, 4),
            "warm_s": round(t_warm, 4),
            "warm_speedup": round(warm_speedup, 2),
        },
        "dedup": {
            "singles_s": round(t_single, 4),
            "batch_s": round(t_batch, 4),
            "dedup_factor": round(dedup_factor, 2),
        },
        "pool": {
            "serial_s": round(t_serial, 4),
            "process_s": round(t_pool, 4),
            "workers": workers,
            "pool_scaling": round(pool_scaling, 2),
        },
        "search": {
            "serial_s": round(t_sser, 4),
            "process_s": round(t_sproc, 4),
            "evals": evals,
            "search_speedup": round(search_speedup, 2),
        },
        "history": history,
    }
    JSON_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {JSON_PATH.name} ({len(history)} history entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
