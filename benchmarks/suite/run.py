#!/usr/bin/env python3
"""Repository benchmark: host time and memory of the simulator, layer by layer.

Run from the repository root.  Every workload, five reps each, interleaved
round-robin, then one traced rep per workload::

    python benchmarks/suite/run.py --seed 42 --out results.json

One workload for a fixed time, printing one JSON result as the last line
(the form ``BENCHMARK.json`` names)::

    python benchmarks/suite/run.py --workload fig-roi --seed 7 --seconds 15 --trace 0

``--trace 0`` runs timed reps only and reports the end-to-end metrics;
``--trace 1`` runs traced reps only and reports the per-layer metrics.
Each rep is a fresh subprocess with an empty kernel cache, an empty memo
directory and a scrubbed environment (see ``workloads.py``).  Everything
the benchmark writes stays under ``.bench_work/`` in the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import tracing
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
WORK = REPO / ".bench_work"

#: Knobs that would change what a rep measures; no rep inherits them.
CLEARED_ENV = ("REPRO_CACHE_DIR", "REPRO_SIM_BACKEND", "REPRO_SCALE", "REPRO_NATIVE", "REPRO_CC")

#: Host metrics of the timed reps: name -> (unit, which direction is better).
#: Every metric, host or simulated, is reported as the median rep's value.
HOST_METRICS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "sim_refs_per_s": ("refs/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Printed and recorded beside them; compared exactly rather than by a bound.
EXACT_METRICS = {
    "failed_frac": ("ratio", "lower"),
    "grasp_speedup_pct": ("%", "higher"),
    "grasp_miss_reduction_pct": ("%", "higher"),
    "grasp_over_best_prior_pct": ("%", "higher"),
}

#: A timed run stops starting reps after ``--seconds`` but runs at least this many.
MIN_REPS = 3
#: A single-workload run gives up on reps this long after it started.
RUN_DEADLINE_S = 165.0


class RepRunner:
    """Launches rep subprocesses under a private work directory."""

    def __init__(self, work: Path, seed: int, scale: Optional[float], verify: bool,
                 deadline: Optional[float]) -> None:
        self.work = work
        self.seed = seed
        self.scale = scale
        self.verify = verify
        self.deadline = deadline
        self.count = 0

    def env(self, wl: workloads.Workload, rep_dir: Path) -> Dict[str, str]:
        env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["XDG_CACHE_HOME"] = str(rep_dir / "xdg")
        env["TMPDIR"] = str(rep_dir / "tmp")
        # Set for every workload: the inline sweep's task bodies write
        # REPRO_THREADS=1 into the process environment themselves.
        env["REPRO_THREADS"] = str(wl.threads)
        if self.verify:
            env["REPRO_SIM_BACKEND"] = "verify"
        return env

    def timeout(self) -> float:
        if self.deadline is None:
            return 900.0
        return self.deadline - time.monotonic()

    def warm_bytecode(self) -> None:
        """Import the program once so every rep's set-up reads compiled bytecode."""
        rep_dir = self.work / "bytecode"
        (rep_dir / "tmp").mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.service"],
            env=self.env(workloads.WORKLOADS["fig-roi"], rep_dir),
            check=True, timeout=max(1.0, self.timeout()),
        )
        shutil.rmtree(rep_dir, ignore_errors=True)

    def run(self, wl: workloads.Workload, rep: int, traced: bool = False,
            template: Optional[Path] = None, memo_dir: Optional[Path] = None,
            trace_file: Optional[Path] = None, prepare: bool = False) -> dict:
        """One rep of ``wl`` in a fresh subprocess; returns its result dict."""
        self.count += 1
        rep_dir = self.work / f"rep-{self.count}"
        (rep_dir / "tmp").mkdir(parents=True)
        if memo_dir is None:
            memo_dir = rep_dir / "memo"
            if template is not None:
                shutil.copytree(template, memo_dir)
        request = {
            "workload": wl.name, "seed": self.seed, "scale": self.scale, "rep": rep,
            "traced": traced, "prepare": prepare, "memo_dir": str(memo_dir),
            "trace_file": str(trace_file) if trace_file else None,
            "result": str(rep_dir / "result.json"),
        }
        (rep_dir / "request.json").write_text(json.dumps(request))
        try:
            remaining = self.timeout()
            if remaining <= 0:
                raise subprocess.TimeoutExpired("rep", 0)
            # Own session, so a timeout also stops the compiler a rep may run.
            with subprocess.Popen(
                [sys.executable, str(HERE / "workloads.py"), str(rep_dir / "request.json")],
                env=self.env(wl, rep_dir), cwd=REPO, start_new_session=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            ) as proc:
                try:
                    _, stderr = proc.communicate(timeout=remaining)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()
                    raise
            if proc.returncode != 0:
                result = {"rep": rep, "error": f"exit {proc.returncode}\n{stderr}"}
            else:
                result = json.loads((rep_dir / "result.json").read_text())
        except subprocess.TimeoutExpired:
            result = {"rep": rep, "error": "timed out"}
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        return result


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return {"median": value, "q1": value, "q3": value, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def metric(name: str, table: dict, values: List[float]) -> dict:
    """One metric's samples and quartiles; a run reports the median."""
    unit, better = table[name]
    return {"unit": unit, "better": better, "values": values, **quartiles(values)}


def load_golden(seed: int) -> dict:
    path = HERE / "golden" / f"seed{seed}.json"
    return json.loads(path.read_text())["workloads"] if path.exists() else {}


def golden_for(golden: dict, wl: workloads.Workload) -> Optional[dict]:
    entry = golden.get(wl.name)
    if entry is None or entry["params"] != wl.params():
        return None
    return entry["ops"]


def first_ops(reps: List[dict]) -> Optional[dict]:
    for rep in reps:
        if "error" not in rep:
            return rep["runs"][0]
    return None


def summarize(wl: workloads.Workload, reps: List[dict], golden: Optional[dict],
              reference: Optional[dict]) -> dict:
    """Checks plus end-to-end metrics over one workload's timed reps."""
    attempted, failed, reasons = workloads.check_reps(wl, reps, golden, reference)
    good = [rep for rep in reps if "error" not in rep]
    samples = {
        "setup_s": [rep["setup_s"] for rep in good],
        "wall_s": [rep["wall_s"] for rep in good],
        "sim_refs_per_s": [rep["refs"] / rep["wall_s"] for rep in good],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in good],
    }
    metrics = {name: metric(name, HOST_METRICS, samples[name]) for name in HOST_METRICS}
    metrics["failed_frac"] = metric(
        "failed_frac", EXACT_METRICS, [failed / attempted] if attempted else [])
    ops = first_ops(reps)
    if ops is not None and not failed:
        for name, value in workloads.simulated_metrics(ops).items():
            metrics[name] = metric(name, EXACT_METRICS, [value])
    return {"attempted": attempted, "failed": failed, "failures": reasons[:20],
            "metrics": metrics}


def summarize_traced(wl: workloads.Workload, reps: List[dict], golden: Optional[dict],
                     reference: Optional[dict]) -> dict:
    attempted, failed, reasons = workloads.check_reps(wl, reps, golden, reference)
    good = [rep for rep in reps if "error" not in rep]
    layers = {
        name: metric(name, tracing.LAYER_METRICS, [rep["layers"][name] for rep in good])
        for name in tracing.LAYER_METRICS
    }
    return {"attempted": attempted, "failed": failed, "failures": reasons[:20],
            "wall_s": quartiles([rep["wall_s"] for rep in good]), "layers": layers}


def machine_metadata() -> dict:
    def first_line(cmd: List[str]) -> str:
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=REPO)
        except (OSError, subprocess.SubprocessError):
            return "unavailable"
        if out.returncode != 0 or not out.stdout.strip():
            return "unavailable"
        return out.stdout.strip().splitlines()[0]

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy_version = first_line([sys.executable, "-c", "import numpy; print(numpy.__version__)"])
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        # Reps never inherit REPRO_CC, so they build with plain `cc`.
        "cc": first_line(["cc", "--version"]),
        "git_sha": (
            first_line(["git", "rev-parse", "HEAD"]) if (REPO / ".git").exists() else "unknown"
        ),
        "platform": platform.platform(),
    }


def finite(value: float) -> Optional[float]:
    """``value``, or ``None`` when no rep produced it (JSON has no NaN)."""
    return None if value != value else value


def fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def print_workload(name: str, summary: dict) -> None:
    for key, entry in summary["metrics"].items():
        line = f"{name} {key} {fmt(entry['median'])} {entry['unit']}"
        if key in HOST_METRICS:
            line += f"  (q1 {fmt(entry['q1'])} q3 {fmt(entry['q3'])} n {entry['n']})"
        if key == "failed_frac":
            line += f"  ({summary['failed']} of {summary['attempted']} ops failed)"
        print(line)
    for reason in summary["failures"]:
        print(f"{name} FAILED {reason}")


def print_traced(name: str, traced: dict, untraced_wall: Optional[float]) -> None:
    for key, entry in traced["layers"].items():
        print(f"{name} {key} {fmt(entry['median'])} {entry['unit']}")
    if untraced_wall:
        diff = traced["wall_s"]["median"] - untraced_wall
        print(f"{name} traced-untraced wall {fmt(diff)} s "
              f"({fmt(100 * diff / untraced_wall)} %, one sample, inside host noise)")
    for reason in traced["failures"]:
        print(f"{name} FAILED (traced) {reason}")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42, help="seed of the generated graphs")
    parser.add_argument("--seconds", type=float,
                        help="keep starting reps until this much time has passed")
    parser.add_argument("--reps", type=int, default=5, help="reps per workload without --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed reps only; 1: traced reps only (default: both)")
    parser.add_argument("--scale", type=float, help="override every workload's graph scale")
    parser.add_argument("--verify", action="store_true",
                        help="run the reps under REPRO_SIM_BACKEND=verify (scalar cross-check)")
    parser.add_argument("--out", type=Path, help="write every sample and metric here (JSON)")
    parser.add_argument("--trace-dir", type=Path, default=WORK / "traces",
                        help="where traced reps write <workload>.spans.jsonl")
    parser.add_argument("--write-golden", type=Path,
                        help="write the reps' statistics as the golden file for this seed")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources under {SRC}", file=sys.stderr)
        return 2
    for key in CLEARED_ENV:
        if os.environ.get(key):
            print(f"benchmark: ignoring {key}={os.environ[key]} (cleared in every rep)",
                  file=sys.stderr)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    selected = [workloads.workload(name, args.scale) for name in names]
    timed = args.trace != 1
    traced = args.trace != 0
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S if args.workload and args.seconds else None
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = RepRunner(work, args.seed, args.scale, args.verify, deadline)
    try:
        runner.warm_bytecode()
        golden = {} if args.write_golden else load_golden(args.seed)

        templates: Dict[str, Path] = {}
        prepared: Dict[str, dict] = {}
        for wl in selected:
            if wl.route == "sweep-warm":
                templates[wl.name] = work / f"{wl.name}-memo"
                prepared[wl.name] = runner.run(wl, 0, memo_dir=templates[wl.name], prepare=True)

        def repeat(count: int,
                   options: Callable[[workloads.Workload], dict]) -> Dict[str, List[dict]]:
            """Round-robin reps over the workloads: ``count`` of them, or
            as many as ``--seconds`` holds (at least ``MIN_REPS``)."""
            reps: Dict[str, List[dict]] = {wl.name: [] for wl in selected}
            reps_started = time.monotonic()
            rep = 0
            while True:
                rep += 1
                for wl in selected:
                    reps[wl.name].append(runner.run(
                        wl, rep, template=templates.get(wl.name), **options(wl)))
                if args.seconds is None:
                    if rep >= count:
                        return reps
                elif rep >= MIN_REPS and time.monotonic() - reps_started >= args.seconds:
                    return reps
                if deadline is not None and time.monotonic() >= deadline:
                    return reps

        timed_reps = repeat(args.reps, lambda wl: {}) if timed else {}
        traced_reps = {}
        if traced:
            args.trace_dir.mkdir(parents=True, exist_ok=True)
            files = {wl.name: args.trace_dir / f"{wl.name}.spans.jsonl" for wl in selected}
            for path in files.values():
                path.write_text("")
            # Without --seconds, one traced rep per workload is the breakdown.
            traced_reps = repeat(1, lambda wl: {"traced": True, "trace_file": files[wl.name]})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Reference statistics each workload must reproduce: the warm sweep must
    # serve what its cold preparation computed, and when the ROI workloads
    # run together, both sweep routes must match the compare_policies route.
    roi_reference = first_ops(timed_reps.get("fig-roi", []) or traced_reps.get("fig-roi", []))
    references: Dict[str, Optional[dict]] = {}
    for wl in selected:
        reference = None
        if wl.name in prepared:
            reference = first_ops([prepared[wl.name]])
        if wl.route in ("sweep", "sweep-warm") and roi_reference is not None:
            reference = roi_reference
        references[wl.name] = reference or first_ops(timed_reps.get(wl.name, []))

    report: Dict[str, dict] = {}
    for wl in selected:
        gold = golden_for(golden, wl)
        entry = {"params": wl.params(), "threads": wl.threads, "sweeps": wl.sweeps,
                 "why": wl.why}
        if wl.name in prepared:
            entry["prepare_s"] = prepared[wl.name].get("wall_s")
            if "error" in prepared[wl.name]:
                entry["prepare_error"] = prepared[wl.name]["error"]
        if timed:
            entry.update(summarize(wl, timed_reps[wl.name], gold, references[wl.name]))
            print_workload(wl.name, entry)
        if traced:
            entry["traced"] = summarize_traced(wl, traced_reps[wl.name], gold, references[wl.name])
            untraced = entry["metrics"]["wall_s"]["median"] if timed else None
            print_traced(wl.name, entry["traced"], untraced)
        report[wl.name] = entry

    attempted = sum(e.get("attempted", 0) + e.get("traced", {}).get("attempted", 0)
                    for e in report.values())
    failed = sum(e.get("failed", 0) + e.get("traced", {}).get("failed", 0)
                 for e in report.values())

    if args.write_golden:
        if failed:
            print("benchmark: not writing a golden from a run with failures", file=sys.stderr)
            return 1
        ops = {wl.name: first_ops(timed_reps.get(wl.name) or traced_reps[wl.name])
               for wl in selected}
        backend = "verify" if args.verify else "vector"
        golden_out = {"seed": args.seed, "backend": backend, "workloads": {
            wl.name: {"params": wl.params(), "ops": {
                op: {key: stats[key] for key in workloads.STAT_FIELDS}
                for op, stats in ops[wl.name].items()
            }} for wl in selected}}
        args.write_golden.parent.mkdir(parents=True, exist_ok=True)
        args.write_golden.write_text(json.dumps(golden_out, indent=1, sort_keys=True) + "\n")
        print(f"golden written to {args.write_golden}")

    if args.out:
        results = {
            "seed": args.seed, "argv": argv, "scale": args.scale, "verify": args.verify,
            "machine": machine_metadata(),
            "cleared_env": {key: os.environ[key] for key in CLEARED_ENV if os.environ.get(key)},
            "elapsed_s": time.monotonic() - started,
            "workloads": report,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"results written to {args.out}")

    if args.workload:
        entry = report[args.workload]
        if timed:
            chosen = {name: entry["metrics"][name] for name in HOST_METRICS}
        else:
            chosen = {name: entry["traced"]["layers"][name] for name in tracing.LAYER_METRICS}
        print(json.dumps({
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": finite(m["median"]), "unit": m["unit"]}
                        for name, m in chosen.items()},
        }))
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
