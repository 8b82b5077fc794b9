#!/usr/bin/env python3
"""Compare two benchmark result files metric by metric, within the bounds.

    python benchmarks/suite/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change; both are written
by ``run.py --out``.  Each side of a (workload, metric) pair is its median
rep, and its spread is the quartile distance over the median.  Every pair
gets its own row and a verdict:

* ``worse`` - B is worse than A by more than the metric's bound, or B
  lacks a metric or a workload that A has (no value, or NaN);
* ``better`` - B is better than A by more than the bound, or, when the
  spread is too wide to judge, every rep of B beats every rep of A;
* ``unresolved`` - either side's spread exceeds the bound, so a change of
  that size could be noise; also when A itself has no value;
* ``unchanged`` - otherwise.

Bounds come from the repository's ``BENCHMARK.json``.  Metrics it does not
bound (the failed fraction and the simulated results) have a bound of 0:
any change is judged by its direction alone.  Exits 1 when any row is
``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def missing(side: Optional[dict]) -> bool:
    return side is None or side.get("median") is None or math.isnan(side["median"])


def spread(side: dict) -> float:
    median = abs(side["median"])
    return (side["q3"] - side["q1"]) / median if median else 0.0


def verdict(a: dict, b: Optional[dict], bound: float) -> str:
    if missing(a):
        return "unresolved"
    if missing(b):
        return "worse"
    lower = a["better"] == "lower"
    # Positive when B is worse than A.
    diff = b["median"] - a["median"] if lower else a["median"] - b["median"]
    if bound == 0:
        return "worse" if diff > 0 else "better" if diff < 0 else "unchanged"
    if max(spread(a), spread(b)) > bound:
        if lower and max(b["values"]) < min(a["values"]):
            return "better"
        if not lower and min(b["values"]) > max(a["values"]):
            return "better"
        return "unresolved"
    worse_by = diff / abs(a["median"])
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "unchanged"


def compare(base: dict, change: dict, bounds: dict) -> List[dict]:
    rows = []
    for workload, entry in base["workloads"].items():
        other = change["workloads"].get(workload, {}).get("metrics", {})
        for name, a in entry.get("metrics", {}).items():
            b = other.get(name)
            bound = bounds.get(name, 0.0)
            rows.append({
                "workload": workload, "metric": name, "unit": a["unit"], "bound": bound,
                "a": a, "b": b, "verdict": verdict(a, b, bound),
            })
    return rows


def cell(side: Optional[dict]) -> str:
    if missing(side):
        return "-"
    return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    change = json.loads(args.change.read_text())
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}

    for key in ("cpu", "nproc"):
        left, right = base["machine"].get(key), change["machine"].get(key)
        if left != right:
            print(f"note: {key} differs ({left!r} vs {right!r}); timings do not compare")

    rows = compare(base, change, bounds)
    print(f"{'workload':12} {'metric':32} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for row in rows:
        a, b = row["a"], row["b"]
        change_pct = float("nan")
        if not (missing(a) or missing(b)) and a["median"]:
            change_pct = (b["median"] - a["median"]) / abs(a["median"]) * 100
        label = f"{row['metric']} ({row['unit']})"
        print(f"{row['workload']:12} {label:32} {cell(a):>34} {cell(b):>34} "
              f"{change_pct:+7.2f}% {row['bound']:6.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] in ("worse", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
