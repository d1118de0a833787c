"""Compare two benchmark results metric by metric.

    python3 perfbench/compare.py .perfbench/results/A.json .perfbench/results/B.json

Prints each metric of both results with B/A and, for end-to-end metrics,
whether B is worse than A by more than the bound in ``BENCHMARK.json``.
Refuses (exit 2) to compare results of different workloads or trace modes,
or results taken with different core counts: timings from a machine with
another number of usable cores are not comparable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def bounds() -> Dict[str, Dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def refusal(a: Dict, b: Dict) -> Optional[str]:
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            return f"different {key}: {a[key]!r} vs {b[key]!r}"
    for key in ("cpu_count", "affinity_cores"):
        ea, eb = a["environment"][key], b["environment"][key]
        if ea != eb:
            return f"taken with different core counts ({key} {ea} vs {eb})"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    why = refusal(a, b)
    if why:
        print(f"compare: refusing: {why}", file=sys.stderr)
        return 2
    limits = bounds()
    worse = 0
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"][name]["value"]
        ratio = vb / va if va else float("nan")
        verdict = ""
        if name in limits:
            m = limits[name]
            change = (vb - va) / va if va else 0.0
            if m["better"] == "higher":
                change = -change
            if change > m["bound"]:
                verdict = f"WORSE by more than {m['bound']:.0%}"
                worse += 1
        print(f"{name:32s} {va:>14.6g} {vb:>14.6g} {ratio:>8.3f}x {ma['unit']:6s} {verdict}")
    for label, r in (("A", a), ("B", b)):
        print(f"{label}: {r['failed']} of {r['attempted']} operations failed, "
              f"git {r['environment']['git']}, seed {r['environment']['seed']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
