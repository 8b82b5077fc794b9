"""The benchmark's workloads, the rep body each runs, and its output checks.

``run.py`` launches every rep as ``python workloads.py <request.json>`` in a
fresh subprocess.  The rep times its own set-up (importing the runner and
building the native kernels into an empty cache), runs the workload body
once, optionally under the span tracer of ``tracing.py``, and writes one
JSON result: timings, peak RSS, the simulated references, and the
statistics of every (app, dataset, scheme) result.

The checks at the bottom are pure functions over those results and run in
the parent.  An *op* is one (app, dataset, scheme) result of one rep; it
fails on an exception, a golden mismatch, a disagreement with the
reference route, or an oracle violation (OPT misses more than a policy;
schemes of one pair seeing different LLC access counts).

Importing this module must not import ``repro``: the rep's import of the
program is part of the ``setup_s`` it measures.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROI_SCHEMES = ("RRIP", "SHiP-MEM", "Hawkeye", "Leeway", "GRASP", "PIN-100", "OPT")
STREAM_SCHEMES = ("RRIP", "GRASP", "SHiP-MEM", "OPT")
BASELINE = "RRIP"
PRIOR_SCHEMES = ("SHiP-MEM", "Hawkeye", "Leeway")

#: Fields of one op's statistics that goldens and cross-checks compare.
STAT_FIELDS = (
    "llc_hits", "llc_misses", "llc_evictions", "llc_bypasses", "l1_hits", "l2_hits",
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs, and the route it takes."""

    name: str
    route: str  # "compare" | "sweep" | "sweep-warm" | "stream"
    apps: Tuple[str, ...]
    datasets: Tuple[str, ...]
    schemes: Tuple[str, ...]
    scale: float
    threads: int
    why: str
    chunk_accesses: Optional[int] = None
    sweeps: int = 1

    def op_ids(self) -> List[str]:
        return [
            f"{app}/{dataset}/{scheme}"
            for dataset in self.datasets
            for app in self.apps
            for scheme in self.schemes
        ]

    def params(self) -> dict:
        """Everything that decides the simulated results (goldens key on it)."""
        data = asdict(self)
        for key in ("name", "why", "threads", "sweeps", "route"):
            data.pop(key)
        return json.loads(json.dumps(data))


# Scales are chosen so a rep's body takes about 2-3 s on a 2-core host:
# long enough that a rep is mostly simulation, short enough that a 15 s run
# holds five reps to take a median over.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig-roi",
            route="compare",
            apps=("PR", "SSSP"),
            datasets=("lj", "kr", "uni"),
            schemes=ROI_SCHEMES,
            scale=1.0,
            threads=1,
            why="ROI path behind the figures (compare_policies, fused-multi replay) on "
                "high-skew and no-skew graphs",
        ),
        Workload(
            name="sweep-cold",
            route="sweep",
            apps=("PR", "SSSP"),
            datasets=("lj", "kr", "uni"),
            schemes=ROI_SCHEMES,
            scale=1.0,
            threads=1,
            why="same inputs through the sweep service into an empty memo: staged "
                "filter, per-scheme replay, memo writes",
        ),
        Workload(
            name="sweep-warm",
            route="sweep-warm",
            apps=("PR", "SSSP"),
            datasets=("lj", "kr", "uni"),
            schemes=ROI_SCHEMES,
            scale=1.0,
            threads=1,
            sweeps=20,
            why="every task a memo hit: memo reads and glue only, so engine "
                "changes must not move it",
        ),
        Workload(
            name="exec-stream",
            route="stream",
            apps=("PR", "SSSP"),
            datasets=("lj", "uni"),
            schemes=STREAM_SCHEMES,
            scale=0.5,
            threads=2,
            chunk_accesses=65536,
            why="full-execution streaming: trace generation, fused kernels on 2 "
                "threads, two-pass OPT with disk spill",
        ),
    )
}


def workload(name: str, scale: Optional[float] = None) -> Workload:
    """The named workload, optionally at another scale."""
    chosen = WORKLOADS[name]
    return chosen if scale is None else replace(chosen, scale=scale)


# ---------------------------------------------------------------------------
# rep bodies (run inside the rep subprocess)
# ---------------------------------------------------------------------------


def _body_compare(runner, wl: Workload, config, request) -> dict:
    runner.set_disk_memo(None)
    points = runner.compare_policies(wl.apps, wl.datasets, wl.schemes, config=config)
    return {"points": [points], "service": []}


def _sweep(wl: Workload, config, memo_dir: str):
    from repro.experiments.service import SweepSpec, run_sweep

    spec = SweepSpec(apps=wl.apps, datasets=wl.datasets, schemes=wl.schemes)
    return run_sweep(spec, config, cache_dir=memo_dir, workers=1, worker_backend="inline")


def _body_sweep(runner, wl: Workload, config, request) -> dict:
    result = _sweep(wl, config, request["memo_dir"])
    return {
        "points": [result.points],
        "service": [(result.report.executed, result.report.cached)],
    }


def _body_sweep_warm(runner, wl: Workload, config, request) -> dict:
    points, service = [], []
    for _ in range(wl.sweeps):
        runner.clear_caches()
        result = _sweep(wl, config, request["memo_dir"])
        points.append(result.points)
        service.append((result.report.executed, result.report.cached))
    return {"points": points, "service": service}


def _body_stream(runner, wl: Workload, config, request) -> dict:
    runner.set_disk_memo(None)
    points, errors = [], {}
    for dataset in wl.datasets:
        for app in wl.apps:
            workload_ = runner.build_workload(app, dataset, config=config)
            for scheme in wl.schemes:
                try:
                    stats = runner.simulate_scheme_streaming(workload_, scheme, config)
                    cycles = runner.execution_cycles(workload_, stats, config)
                except Exception:
                    errors[f"{app}/{dataset}/{scheme}"] = traceback.format_exc(limit=3)
                    continue
                points.append(runner.DataPoint(app, dataset, scheme, stats, cycles))
    return {"points": [points], "errors": errors, "service": []}


BODIES = {
    "compare": _body_compare,
    "sweep": _body_sweep,
    "sweep-warm": _body_sweep_warm,
    "stream": _body_stream,
}


def _collect(runner, wl: Workload, config, outcome) -> Tuple[List[dict], int]:
    """Per-run op statistics and the raw references the rep simulated.

    Runs after the timed region: the in-process memo tables already hold
    every workload and stream summary, so nothing here re-simulates.
    """
    summarize = (
        runner.execution_stream_summary if wl.route == "stream" else runner.roi_stream_summary
    )
    summaries = {
        (app, dataset): summarize(runner.build_workload(app, dataset, config=config), config)
        for dataset in wl.datasets
        for app in wl.apps
    }
    runs, refs = [], 0
    for points in outcome["points"]:
        ops = {}
        for point in points:
            summary = summaries[(point.app_name, point.dataset_name)]
            ops[f"{point.app_name}/{point.dataset_name}/{point.scheme}"] = {
                "llc_hits": int(point.stats.hits),
                "llc_misses": int(point.stats.misses),
                "llc_evictions": int(point.stats.evictions),
                "llc_bypasses": int(point.stats.bypasses),
                "l1_hits": int(summary["l1_hits"]),
                "l2_hits": int(summary["l2_hits"]),
                "cycles": float(point.cycles),
            }
            refs += int(summary["total_references"])
        runs.append(ops)
    return runs, refs


def rep_main(request_path: str) -> int:
    """Run one rep as described by ``request_path`` and write its result."""
    request = json.loads(Path(request_path).read_text())
    wl = workload(request["workload"], request.get("scale"))
    started = time.perf_counter()
    import repro.experiments.runner as runner
    from repro.fastsim import kernels

    kernels.has_capability("fused")
    setup_s = time.perf_counter() - started

    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig(
        scale=wl.scale, seed=int(request["seed"]), chunk_accesses=wl.chunk_accesses
    )
    body = BODIES["sweep" if request.get("prepare") else wl.route]
    result = {"workload": wl.name, "rep": request["rep"], "setup_s": setup_s}
    tracer = None
    if request.get("traced"):
        import tracing

        tracer = tracing.Tracer(rep=request["rep"])
        tracer.install()
    try:
        started = time.perf_counter()
        try:
            outcome = body(runner, wl, config, request)
        finally:
            wall_s = time.perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
        runs, refs = _collect(runner, wl, config, outcome)
    except Exception:
        result["error"] = traceback.format_exc()
    else:
        result.update(
            wall_s=wall_s,
            refs=refs,
            runs=runs,
            op_errors=outcome.get("errors", {}),
            service=outcome["service"],
        )
        if tracer is not None:
            executed = sum(count for count, _ in outcome["service"])
            cached = sum(count for _, count in outcome["service"])
            layers = tracer.layer_metrics(started, started + wall_s, tracing.per_span_cost())
            layers["service.tasks_executed"] = executed
            layers["service.tasks_cached"] = cached
            result["layers"] = layers
            if request.get("trace_file"):
                tracer.write_spans(request["trace_file"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(request["result"]).write_text(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# checks and simulated metrics (run in the parent)
# ---------------------------------------------------------------------------


def _pairs(ops: dict) -> Dict[Tuple[str, str], Dict[str, dict]]:
    pairs: Dict[Tuple[str, str], Dict[str, dict]] = {}
    for op, stats in ops.items():
        app, dataset, scheme = op.split("/", 2)
        pairs.setdefault((app, dataset), {})[scheme] = stats
    return pairs


def oracle_violations(ops: dict) -> Dict[str, str]:
    """Ops breaking an invariant that holds whatever the simulator's code.

    Belady's OPT misses no more than any policy, and every scheme of one
    (app, dataset) pair sees the same LLC accesses (hits + misses).
    """
    bad: Dict[str, str] = {}
    for (app, dataset), schemes in _pairs(ops).items():
        base = schemes.get(BASELINE)
        opt = schemes.get("OPT")
        for scheme, stats in schemes.items():
            op = f"{app}/{dataset}/{scheme}"
            if opt is not None and stats["llc_misses"] < opt["llc_misses"]:
                bad[op] = f"{op}: {stats['llc_misses']} misses < OPT's {opt['llc_misses']}"
            accesses = stats["llc_hits"] + stats["llc_misses"]
            if base is not None and accesses != base["llc_hits"] + base["llc_misses"]:
                bad[op] = f"{op}: {accesses} LLC accesses differ from {BASELINE}'s"
    return bad


def _differs(stats: dict, expected: Optional[dict]) -> bool:
    return expected is None or any(stats.get(key) != value for key, value in expected.items())


def check_reps(
    wl: Workload,
    reps: List[dict],
    golden: Optional[dict] = None,
    reference: Optional[dict] = None,
) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons) over every rep of one workload.

    ``golden`` maps op -> expected counters; ``reference`` maps op -> the
    statistics another route produced for the same inputs.  Without a
    reference, every rep must reproduce the first successful rep exactly.
    """
    expected = wl.op_ids()
    attempted = failed = 0
    reasons: List[str] = []
    for rep in reps:
        attempted += len(expected)
        if "error" in rep:
            failed += len(expected)
            reasons.append(f"rep {rep['rep']}: {rep['error'].strip().splitlines()[-1]}")
            continue
        if reference is None:
            reference = rep["runs"][0]
        bad: Dict[str, str] = {
            op: f"{op}: {message.strip().splitlines()[-1]}"
            for op, message in rep.get("op_errors", {}).items()
        }
        for index, (executed, _) in enumerate(rep.get("service", ())):
            if wl.route == "sweep-warm" and executed:
                bad.update({op: f"warm sweep {index} executed {executed} tasks" for op in expected})
        for ops in rep["runs"]:
            bad.update(oracle_violations(ops))
            for op in expected:
                stats = ops.get(op)
                if op in bad:
                    continue
                if stats is None:
                    bad[op] = f"{op}: missing from the results"
                elif golden is not None and _differs(stats, golden.get(op)):
                    bad[op] = f"{op}: differs from the golden"
                elif _differs(stats, reference.get(op)):
                    bad[op] = f"{op}: differs from the reference run"
        failed += len(bad)
        reasons.extend(f"rep {rep['rep']}: {reason}" for reason in sorted(bad.values()))
    return attempted, failed, reasons


def _geomean_pct(values: List[float]) -> float:
    return (math.exp(sum(math.log1p(v / 100.0) for v in values) / len(values)) - 1.0) * 100.0


def simulated_metrics(ops: dict) -> Dict[str, float]:
    """The paper's headline numbers for one workload (simulated time).

    GRASP's geomean speed-up and mean LLC miss reduction over the RRIP
    baseline, and its geomean speed-up over the best prior scheme
    (SHiP-MEM, Hawkeye, Leeway: whichever the workload runs) per pair.
    """
    speedups, reductions, over_best = [], [], []
    for schemes in _pairs(ops).values():
        grasp, base = schemes["GRASP"], schemes[BASELINE]
        speedups.append((base["cycles"] / grasp["cycles"] - 1.0) * 100.0)
        reductions.append((1.0 - grasp["llc_misses"] / base["llc_misses"]) * 100.0)
        best = min(schemes[s]["cycles"] for s in PRIOR_SCHEMES if s in schemes)
        over_best.append((best / grasp["cycles"] - 1.0) * 100.0)
    return {
        "grasp_speedup_pct": _geomean_pct(speedups),
        "grasp_miss_reduction_pct": sum(reductions) / len(reductions),
        "grasp_over_best_prior_pct": _geomean_pct(over_best),
    }


if __name__ == "__main__":
    sys.exit(rep_main(sys.argv[1]))
