"""One measured process of the benchmark: set-up, warm-up, timed passes, checks.

    PYTHONPATH=src python3 perfbench/measure.py --workload sweep --seed 1 \\
        --seconds 20 --trace 0 [--setup-only]

Set-up is the imports, seeded input generation and a warm-up pass over the
workload's reduced instance; the process stamps the wall clock when it is
done (``ready_at``), so the launcher can time set-up from process start.
With ``--setup-only`` it stops there.  Otherwise it runs passes of the
workload's job for about ``--seconds``, checks the outputs outside the
timed region, and prints one JSON object on its last line.

Untraced runs (``--trace 0``) time every pass with the no-op tracer and
report the end-to-end metrics.  Traced runs alternate untraced and traced
passes: per-layer metrics come from the traced ones, and ``trace.overhead``
is the ratio of their median wall times.

Host speed: a shared host runs this process faster or slower in phases
that outlast a run, so before each pass the process also times a fixed
kernel that calls no program code (:func:`calibrate`).  The end-to-end
times are reported in seconds of a reference host: the run's median pass
times scaled by ``CALIBRATION_S`` over the run's median kernel time.  The
unscaled medians and the factor stay in the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.runtime import trace_cache

import metrics as M
from spans import NULL, Tracer, summarize
from workloads import WORKLOADS, PassOutput, digest

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
OUT_DIR = HERE.parent / ".perfbench"

MIN_UNTRACED = 3  # passes of an untraced run, however long they take

#: Median time of :func:`calibrate` on the reference host (a 2-core x86
#: container, Python 3.11, numpy 2.x); host-time metrics are scaled to it.
CALIBRATION_S = 0.015
CALIBRATIONS = 4  # kernel timings before each pass
_CAL_KEYS = np.random.default_rng(12345).integers(0, 1 << 16, 1 << 17)


def calibrate() -> float:
    """Wall time of a fixed kernel touching no program code: an interpreted
    dict loop, then a stable argsort, gather and prefix sum over 128k keys,
    the two kinds of work the workloads do."""
    t0 = time.perf_counter()
    acc: Dict[int, int] = {}
    for i in range(10_000):
        acc[i & 1023] = acc.get(i & 1023, 0) + i
    _CAL_KEYS[np.argsort(_CAL_KEYS, kind="stable")].cumsum()
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def reference_for(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Recorded per-operation miss digests of ``workload`` at ``seed``."""
    if not REFERENCES.exists():
        return None
    seeds = json.loads(REFERENCES.read_text()).get(workload, {}).get("seeds", {})
    return seeds.get(str(seed))


def isolation_errors() -> List[str]:
    """Ambient state that would let a warm cache or live spans pose as speed."""
    errors = []
    if trace_cache.default_cache() is not None:
        errors.append("a persistent trace cache is configured")
    if obs.is_enabled():
        errors.append("repro.obs instrumentation is enabled")
    return errors


def run_passes(wl, inputs, seconds: float, traced: bool, inject=frozenset()):
    """Timed passes for about ``seconds``: ``[(wall, cpu, out, tracer,
    calibrations)]``, the last the ``CALIBRATIONS`` :func:`calibrate` times
    taken just before the pass.

    Another pass starts only while it is expected to end within
    ``seconds``, once the minimum count is reached (three untraced passes;
    one untraced and one traced when ``traced``)."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced and len(passes) % 2 == 1 else None
        tr = tracer or NULL
        out = PassOutput(inject=frozenset(inject))
        cal = [calibrate() for _ in range(CALIBRATIONS)]
        c0, w0 = cpu_seconds(), time.perf_counter()
        with tr.span("pass"):
            wl.run_pass(inputs, tr, out)
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        if passes:
            out.extras.clear()  # only the first pass's outputs are checked in depth
        passes.append((wall, cpu, out, tracer, cal))
        enough = len(passes) >= (2 if traced else MIN_UNTRACED)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p[0] for p in passes)
        if enough and elapsed + typical > seconds:
            return passes


def score(wl, inputs, passes, reference: Optional[Dict[str, str]]):
    """``(attempted, failed, failures)`` over every pass.

    An operation fails in a pass when it raised, when its output differs
    from the first pass's, or when the first pass's output breaks a
    workload invariant or, if pinned, the recorded reference for this seed
    (an operation the reference lists but the pass never reached fails
    too)."""
    first = passes[0][2]
    bad = dict(wl.check(inputs, first))
    expected = set(reference or ())
    for op in (expected | set(first.misses)) - first.unpinned:
        if reference is not None and reference.get(op) != digest(first.misses.get(op)):
            bad.setdefault(op, f"differs from the reference for this seed ({reference.get(op)})")
    attempted = failed = 0
    failures: Dict[str, str] = {}
    for i, (_w, _c, out, _t, _cal) in enumerate(passes):
        for op in sorted(expected | set(out.operations)):
            attempted += 1
            reason = out.failed.get(op) or bad.get(op)
            if reason is None and out.misses.get(op) != first.misses.get(op):
                reason = f"pass {i} output differs from pass 0"
            if reason is not None:
                failed += 1
                failures.setdefault(op, reason)
    return attempted, failed, failures


def host_factor(passes) -> float:
    """Reference-host seconds per second of this run: ``CALIBRATION_S``
    over the median :func:`calibrate` time of the run."""
    return CALIBRATION_S / statistics.median(t for p in passes for t in p[4])


def pass_times(passes) -> Dict[str, float]:
    """Median wall and CPU time and throughput of the untraced passes, in
    this host's seconds."""
    untraced = [p for p in passes if p[3] is None]
    return {
        "wall_s": statistics.median(p[0] for p in untraced),
        "cpu_s": statistics.median(p[1] for p in untraced),
        "accesses_per_s": statistics.median(p[2].replayed / p[0] for p in untraced),
    }


def end_to_end(passes, peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics but ``setup_s``, host times in seconds of the
    reference host."""
    raw, factor = pass_times(passes), host_factor(passes)
    return {
        "wall_s": raw["wall_s"] * factor,
        "cpu_s": raw["cpu_s"] * factor,
        "accesses_per_s": raw["accesses_per_s"] / factor,
        "peak_rss_mb": peak_rss_mb,
        "misses": float(passes[0][2].total_misses),
    }


def per_layer(passes) -> Dict[str, float]:
    """Median over the traced passes of each per-layer figure."""
    rows: List[Dict[str, float]] = []
    for wall, _cpu, out, tracer, _cal in passes:
        if tracer is None:
            continue
        by_name, by_layer = summarize(tracer)
        row = {m: by_name.get(span, 0.0) for m, span in M.SPAN_SECONDS.items()}
        for m, span in M.SPAN_MILLIS.items():
            d = tracer.durations(span)
            row[m] = 1000 * statistics.median(d) if d else 0.0
        for m in M.COUNTS:
            row[m] = float(out.counts.get(m, 0.0))
        compile_s = row["compiled.compile_s"]
        row["compiled.accesses_per_s"] = (
            row["compiled.accesses"] / compile_s if compile_s else 0.0
        )
        for layer in M.LAYERS:
            row[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
        row["trace.unattributed_s"] = by_layer.get("pass", 0.0)
        row["trace.wall_s"] = wall
        rows.append(row)
    result = {m: statistics.median(r[m] for r in rows) for m in rows[0]}
    untraced = statistics.median(p[0] for p in passes if p[3] is None)
    result["trace.overhead"] = result["trace.wall_s"] / untraced
    return result


def setup(workload: str, seed: int):
    """Seeded inputs, then a warm-up pass over the reduced instance."""
    wl = WORKLOADS[workload]
    inputs = wl.build(seed)
    wl.run_pass(wl.build(seed, reduced=True), NULL, PassOutput())
    return wl, inputs


def measure(workload: str, seed: int, seconds: float, traced: bool,
            inject=frozenset(), spans_path: Optional[Path] = None) -> Dict:
    """Set-up, passes, checks and metrics of one run (one result dict)."""
    wl, inputs = setup(workload, seed)
    ready_at = time.time()
    passes = run_passes(wl, inputs, seconds, traced, inject)
    if hasattr(wl, "account"):
        wl.account(inputs, [p[2] for p in passes])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = reference_for(workload, seed)
    attempted, failed, failures = score(wl, inputs, passes, reference)
    result = {
        "ready_at": ready_at,
        "input_digest": wl.input_digest(inputs),
        "misses_digest": digest(passes[0][2].misses),
        "referenced": reference is not None,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": sum(1 for p in passes if p[3] is None),
        "traced_samples": sum(1 for p in passes if p[3] is not None),
        "pass_walls": [p[0] for p in passes if p[3] is None],
        "calibrations": [t for p in passes for t in p[4]],
        "host_factor": host_factor(passes),
        "unscaled": pass_times(passes),
        "numpy": np.__version__,
    }
    if traced:
        result["metrics"] = per_layer(passes)
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(
                [p[3].rows() for p in passes if p[3] is not None]
            ) + "\n")
    else:
        result["metrics"] = end_to_end(passes, peak_rss_mb)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    errors = isolation_errors()
    if errors:
        print(f"measure: refusing to run: {'; '.join(errors)}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed)
        print(json.dumps({"ready_at": time.time()}))
        return 0
    spans_path = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.json"
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_path=spans_path if args.trace else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
