"""Harness test for the repository benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q

Runs every workload at scale 0.25 with one timed and one traced rep, and
checks that every metric ``BENCHMARK.json`` names is produced, that the
traced layer times add up to the wall time, that the tracer leaves the
program as it found it, and that ``compare.py`` flags a broken change.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "suite" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("suite")
    proc = run("--scale", "0.25", "--reps", "1", "--out", str(out / "results.json"),
               "--trace-dir", str(out / "traces"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads((out / "results.json").read_text())
    data["trace_dir"] = out / "traces"
    return data


def test_every_benchmark_metric_is_produced(results):
    assert set(results["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, entry in results["workloads"].items():
        assert entry["failed"] == 0 and entry["traced"]["failed"] == 0, entry["failures"]
        for spec in BENCHMARK["end_to_end"]:
            produced = entry["metrics"][spec["name"]]
            assert produced["unit"] == spec["unit"] and produced["n"] == 1
            assert produced["median"] > 0, (name, spec["name"])
        for spec in BENCHMARK["per_layer"]:
            assert entry["traced"]["layers"][spec["name"]]["unit"] == spec["unit"]


#: Layers each workload must exercise (the README's "on workload" column).
ACTIVE_LAYERS = {
    "fig-roi": ("graph.load_s", "reorder.apply_s", "analytics.run_s", "filter.s",
                "fused.feed_s", "replay.rrip_s", "replay.hawkeye_s", "opt.replay_s",
                "hints.classify_s"),
    "sweep-cold": ("graph.load_s", "reorder.apply_s", "analytics.run_s", "filter.s",
                   "replay.rrip_s", "replay.leeway_s", "opt.replay_s", "hints.classify_s",
                   "memo.put_s"),
    "sweep-warm": ("memo.get_s", "memo.contains_s"),
    "exec-stream": ("graph.load_s", "trace.gen_s", "fused.feed_s", "opt.next_use_s",
                    "opt.replay_s", "spill.s"),
}


def test_layer_times_cover_the_wall_time(results):
    for name, entry in results["workloads"].items():
        layers = entry["traced"]["layers"]
        assert abs(layers["tracing.coverage"]["median"] - 1.0) <= 0.01, name
        # Most of the wall time sits inside the wrapped layers, and each
        # layer the workload runs is seen.
        assert layers["runner.glue_s"]["median"] < 0.5 * entry["traced"]["wall_s"]["median"], name
        assert all(layers[metric]["median"] > 0 for metric in ACTIVE_LAYERS[name]), name
        spans = (results["trace_dir"] / f"{name}.spans.jsonl").read_text().splitlines()
        assert len(spans) == layers["tracing.spans"]["median"]


@pytest.mark.parametrize("spans, coverage", [
    ([["graph.load", 0.0, 4.0, -1], ["reorder.apply", 1.0, 2.0, 0]], 1.0),
    # a child running past its parent's end
    ([["graph.load", 0.0, 4.0, -1], ["reorder.apply", 3.0, 5.0, 0]], 1.1),
    # overlapping siblings, as spans from two threads would be
    ([["fused.feed", 0.0, 4.0, -1], ["filter", 1.0, 3.0, 0], ["filter", 2.0, 3.5, 0]], 1.1),
    # a root span outside the timed body
    ([["graph.load", -1.0, 2.0, -1]], 1.1),
])
def test_coverage_counts_time_covered_twice(spans, coverage):
    tracer = tracing.Tracer()
    tracer.spans = spans
    assert tracer.layer_metrics(0.0, 10.0, 0.0)["tracing.coverage"] == pytest.approx(coverage)


def test_warm_sweep_runs_no_simulation(results):
    layers = results["workloads"]["sweep-warm"]["traced"]["layers"]
    simulation = [m for m in layers if m.split(".")[0] in ("replay", "fused", "filter", "trace")]
    assert simulation and all(layers[m]["median"] == 0 for m in simulation)
    assert layers["service.tasks_executed"]["median"] == 0


def test_tracer_restores_every_wrapped_attribute():
    from repro.experiments import runner
    from repro.experiments.memo import DiskMemo

    before = dict(vars(runner)), dict(vars(DiskMemo))
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer._patches and vars(runner)["run_filter"] is not before[0]["run_filter"]
    tracer.uninstall()
    assert dict(vars(runner)) == before[0]
    assert dict(vars(DiskMemo)) == before[1]


def test_single_workload_prints_the_result_line():
    proc = run("--workload", "exec-stream", "--scale", "0.25", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    ops = len(workloads.WORKLOADS["exec-stream"].op_ids())
    assert result["attempted"] > 0 and result["attempted"] % ops == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "fig-roi", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def compare(tmp_path: Path, base: dict, change: dict):
    """Exit code and per-(workload, metric) verdicts of ``compare.py``."""
    paths = []
    for name, data in (("base.json", base), ("change.json", change)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(data))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    rows = [row.split() for row in proc.stdout.splitlines()[1:]]
    return proc.returncode, {(row[0], row[1]): row[-1] for row in rows}


def set_median(entry: dict, value: float) -> None:
    entry.update(values=[value], median=value, q1=value, q3=value)


def test_compare_reports_a_run_unchanged_against_itself(results, tmp_path):
    base = {k: v for k, v in results.items() if k != "trace_dir"}
    code, verdicts = compare(tmp_path, base, base)
    assert code == 0
    assert verdicts and set(verdicts.values()) == {"unchanged"}


def _wall_by(factor):
    def change(metrics):
        set_median(metrics["wall_s"], metrics["wall_s"]["median"] * factor)
    return change


def _spread_wall(metrics):
    wall = metrics["wall_s"]
    wall.update(values=[wall["median"] * 0.7, wall["median"] * 1.3],
                q1=wall["median"] * 0.7, q3=wall["median"] * 1.3)


@pytest.mark.parametrize("metric, change, expected", [
    ("failed_frac", lambda m: set_median(m["failed_frac"], 0.25), "worse"),
    ("grasp_speedup_pct", lambda m: m.pop("grasp_speedup_pct"), "worse"),
    ("wall_s", lambda m: set_median(m["wall_s"], float("nan")), "worse"),
    ("wall_s", _wall_by(1.5), "worse"),
    ("wall_s", _wall_by(0.5), "better"),
    ("wall_s", _spread_wall, "unresolved"),
    ("grasp_speedup_pct", lambda m: set_median(
        m["grasp_speedup_pct"], m["grasp_speedup_pct"]["median"] + 1e-9), "better"),
])
def test_compare_judges_a_changed_run(results, tmp_path, metric, change, expected):
    base = {k: v for k, v in results.items() if k != "trace_dir"}
    other = copy.deepcopy(base)
    change(other["workloads"]["fig-roi"]["metrics"])
    code, verdicts = compare(tmp_path, base, other)
    assert verdicts[("fig-roi", metric)] == expected
    assert code == (0 if expected == "better" else 1)
    others = {key: v for key, v in verdicts.items() if key != ("fig-roi", metric)}
    assert set(others.values()) == {"unchanged"}


def test_compare_reports_a_missing_workload_worse(results, tmp_path):
    base = {k: v for k, v in results.items() if k != "trace_dir"}
    other = copy.deepcopy(base)
    del other["workloads"]["exec-stream"]
    code, verdicts = compare(tmp_path, base, other)
    assert code == 1
    assert {v for (w, _), v in verdicts.items() if w == "exec-stream"} == {"worse"}
