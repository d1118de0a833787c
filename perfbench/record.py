"""Record the reference outputs every benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/record.py [--seeds 0-31] [--workloads placement]

First the reduced instance of each workload is checked against the stepwise
oracles: every miss count its pass reports must equal
``repro.cache.policy.stepwise_trace_misses`` on the same block trace, and
the ``schedule`` traces must match the stepwise executor block for block
(``repro.testing.oracles.assert_trace_equivalent``).  Nothing is recorded
if any disagree.  Then one full-size pass per workload and seed is run and
the miss digests of its pinned operations (those the input fixes) are
written to ``perfbench/references.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.cache.policy import stepwise_trace_misses
from repro.mem.placement import build_instance, remap_blocks
from repro.runtime.compiled import compile_trace, compile_trace_uncached
from repro.testing.oracles import assert_trace_equivalent

from spans import NULL
from workloads import (
    B, STREAM_FAMILIES, WORKLOADS, PassOutput, build_graph, digest,
    partition_and_schedule,
)

REFERENCES = Path(__file__).resolve().parent / "references.json"


def stepwise(blocks, geoms, policy: str) -> List[int]:
    blocks = blocks.tolist()
    return [int(sum(stepwise_trace_misses(blocks, g, policy))) for g in geoms]


def verify(workload: str, seed: int) -> List[str]:
    """Disagreements between the reduced instance's pass and the stepwise
    oracles (empty when every count matches)."""
    wl = WORKLOADS[workload]
    inputs = wl.build(seed, reduced=True)
    out = PassOutput()
    wl.run_pass(inputs, NULL, out)
    problems = [f"{op}: {reason}" for op, reason in out.failed.items()]
    problems += [f"{op}: {reason}" for op, reason in wl.check(inputs, out).items()]

    def expect(op: str, want: List[int], got: List[int]) -> None:
        if want != got:
            problems.append(f"{op}: pass {got} != stepwise {want}")

    if workload == "schedule":
        for i, spec in enumerate(inputs):
            g = build_graph(spec, NULL, PassOutput())
            sched, run_geom, order = partition_and_schedule(
                g, spec.inputs, wl.M, wl.C, NULL, PassOutput())
            try:
                trace = assert_trace_equivalent(g, sched, B, [run_geom.size], layout_order=order)
            except AssertionError as exc:
                problems.append(f"{i:02d}.{spec.kind}: {exc}")
                continue
            got = out.misses.get(f"{i:02d}.{spec.kind}", [None])[:1]
            expect(f"{i:02d}.{spec.kind}", stepwise(trace.blocks, [run_geom], "lru"), got)
    elif workload == "sweep":
        for i, (g, sched, order) in enumerate(inputs.jobs):
            blocks = compile_trace_uncached(g, sched, B, layout_order=order).blocks
            for family, (policy, geoms) in inputs.families.items():
                expect(f"t{i}.{family}", stepwise(blocks, geoms, policy),
                       out.misses.get(f"t{i}.{family}"))
    elif workload == "placement":
        inst = build_instance(inputs.graph, inputs.schedule, B)
        for strategy, res in out.extras["results"].items():
            blocks = remap_blocks(inst, res.order, gaps=res.gaps)
            want = [stepwise(blocks, [g], p)[0] for g, p, _w in inputs.targets]
            expect(f"search.{strategy}", want, list(res.per_target))
        for k, order in enumerate(out.extras["probe_orders"]):
            blocks = remap_blocks(inst, order)
            want = [stepwise(blocks, [g], p)[0] for g, p, _w in inputs.targets]
            expect(f"probe{k}", want, out.misses.get(f"probe{k}"))
    elif workload == "stream":
        blocks = compile_trace(inputs.graph, inputs.schedule, B).blocks
        for family, (policy, geoms) in STREAM_FAMILIES.items():
            expect(family, stepwise(blocks, geoms, policy), out.misses.get(family))
    return problems


def record(workload: str, seed: int) -> Dict[str, str]:
    """Miss digests of one full-size pass at ``seed``, per pinned operation."""
    wl = WORKLOADS[workload]
    inputs = wl.build(seed)
    out = PassOutput()
    wl.run_pass(inputs, NULL, out)
    problems = {**out.failed, **wl.check(inputs, out)}
    if problems:
        raise SystemExit(f"{workload} seed {seed}: not recorded: {problems}")
    return {op: digest(misses) for op, misses in sorted(out.misses.items())
            if op not in out.unpinned}


def seed_range(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated; the others keep their recorded references")
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    seeds = seed_range(args.seeds)
    failed = False
    for name in names:
        problems = verify(name, seeds[0])
        for p in problems:
            print(f"{name}: {p}", file=sys.stderr)
        failed |= bool(problems)
        print(f"{name}: reduced instance {'DISAGREES with' if problems else 'matches'} "
              "the stepwise oracle", flush=True)
    if failed:
        return 1
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names:
        refs[name] = {"seeds": {str(s): record(name, s) for s in seeds}}
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"{name}: recorded seeds {seeds[0]}-{seeds[-1]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
