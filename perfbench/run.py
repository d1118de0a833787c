"""The benchmark's one command: run a workload in fresh processes and report.

    python3 perfbench/run.py --workload schedule --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it needs ``src/`` there and writes only
under ``.perfbench/``.  Workloads: ``schedule``, ``sweep``, ``placement``,
``stream`` (see ``perfbench/README.md``).

With ``--trace 0`` it first starts ``SETUP_PROBES`` processes that only set
up (imports, seeded inputs, warm-up) and then the measured process; each
one's set-up time runs from its spawn to the wall-clock stamp it prints
when set up, and ``setup_s`` is their median.  The measured process runs
the workload's passes for ``--seconds`` and checks every output; this
launcher prints each end-to-end metric by name and unit, the host factor
the host times were scaled by (see ``measure.py``), the error rate,
and, as its last line, the JSON result.  ``--trace 1`` runs one process
that alternates traced and untraced passes and reports the per-layer
metrics instead.

Exit status: 0 when every operation agreed with its checks and reference,
1 when any failed (the result is still printed), 2 when the run could not
start or its measured process died (no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402  (after the path set-up above)

WORKLOADS = ("schedule", "sweep", "placement", "stream")
SETUP_PROBES = 2  # set-up-only processes before the measured one
DEADLINE_S = 170  # the whole run, probes included


class RunError(Exception):
    """The run cannot produce a result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: List[str], timeout: float) -> Dict:
    """Run ``measure.py`` with ``args`` in a fresh interpreter; return its
    JSON result with ``setup_s`` (spawn to its ready stamp) added."""
    cmd = [sys.executable, str(HERE / "measure.py"), *args]
    spawned_at = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              cwd=ROOT, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise RunError(f"measured process exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"measured process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def git_describe() -> str:
    """``git describe`` of the checkout, or ``unknown`` outside a git tree
    (the search stops at the checkout, never reaching an enclosing repo)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, result: Dict) -> Dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result.get("numpy"),
        "git": git_describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "samples": result["samples"],
        "traced_samples": result["traced_samples"],
    }


def run(args) -> Dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise RunError(f"no src/repro under {ROOT}: run from the root of a checkout")
    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    setups: List[float] = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(common + ["--setup-only"], remaining())["setup_s"])
    result = spawn(common, remaining())
    setups.append(result["setup_s"])
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    wanted = M.PER_LAYER if args.trace else M.END_TO_END
    return {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args, result),
        "input_digest": result["input_digest"],
        "misses_digest": result["misses_digest"],
        "referenced": result["referenced"],
        "setup_samples": setups,
        "pass_walls": result["pass_walls"],
        "host_factor": result["host_factor"],
        "unscaled": result["unscaled"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report = run(args)
    except RunError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    correct = report["failed"] == 0
    path = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in report["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        unscaled = "  ".join(f"{k} {v:.6g}" for k, v in report["unscaled"].items())
        print(f"{'host_factor':32s} {report['host_factor']:>16.6g} "
              f"(reference-host s per s here; unscaled: {unscaled})")
    rate = report["failed"] / max(report["attempted"], 1)
    print(f"{'error_rate':32s} {rate:>16.6g} ratio "
          f"({report['failed']} of {report['attempted']} operations)")
    for op, reason in sorted(report["failures"].items()):
        print(f"FAILED {op}: {reason}")
    print(f"result: {path.relative_to(ROOT)}  reference: "
          f"{'checked' if report['referenced'] else 'none recorded for this seed'}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
