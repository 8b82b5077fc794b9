"""Fault-injection tests for the sweep service.

The contract under test: **scheduling is invisible in the numbers**.  Worker
kills (before and after a task's side effects land), transient errors and
hard client kills may change how often tasks run and how long a sweep
takes — never the DataPoints, which must stay bit-identical to the serial
runner's.  The scheduler's retry/death/error counters must also account
exactly for the faults the plan injected.
"""

import math

import pytest
from fault_harness import (
    CrashingBackend,
    FaultPlan,
    FaultyWorkerBackend,
    assert_points_equal,
)

from repro.experiments import (
    ExperimentConfig,
    RetryPolicy,
    SweepError,
    clear_caches,
    compare_policies,
    set_disk_memo,
)
from repro.experiments.queue import InlineBackend, TASK_DIED, TaskOutcome
from repro.experiments.service import load_manifest, resume_sweep, run_sweep, SweepSpec

pytestmark = pytest.mark.usefixtures("memo_isolation")

APPS = ("PR",)
DATASETS = ("lj", "pl")
SCHEMES = ("RRIP", "GRASP")

#: Tight retry timings so fault-heavy runs finish fast on the real clock.
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01)

#: One sweep task per (app, dataset) pair.
TASKS = len(APPS) * len(DATASETS)


def _spec(**overrides) -> SweepSpec:
    fields = dict(apps=APPS, datasets=DATASETS, schemes=SCHEMES)
    fields.update(overrides)
    return SweepSpec(**fields)


def _serial_points(config, streaming=False):
    points = compare_policies(APPS, DATASETS, SCHEMES, config=config, streaming=streaming)
    clear_caches()
    set_disk_memo(None)
    return points


class TestFaultyWorkers:
    def test_kills_transients_and_drops_leave_results_bit_identical(self, tmp_path):
        config = ExperimentConfig.smoke()
        serial = _serial_points(config)
        # Kill rate 0.4 over the two pair tasks: past the >=20% acceptance bar.
        plan = FaultPlan(seed=7, kill_rate=0.4, transient_rate=0.2)
        backend = FaultyWorkerBackend(plan)
        result = run_sweep(
            _spec(),
            config=config,
            cache_dir=tmp_path,
            workers=3,
            worker_backend=backend,
            retry=FAST_RETRY,
            run_id="faulty",
        )
        assert_points_equal(serial, result.points)
        total_tasks = len(result.report.failed) + result.report.executed + result.report.cached
        assert plan.kills >= math.ceil(0.2 * total_tasks), "fault plan too gentle"
        # Every injected fault shows up in exactly one scheduler counter.
        assert result.report.worker_deaths == plan.kills
        assert result.report.task_errors == plan.transients
        assert result.report.retries == plan.total
        assert not result.report.failed
        assert len(result.report.events) == plan.total

    def test_manifest_records_faults_and_statuses(self, tmp_path):
        config = ExperimentConfig.smoke()
        serial = _serial_points(config)
        plan = FaultPlan(seed=11, kill_rate=0.3, transient_rate=0.3)
        result = run_sweep(
            _spec(),
            config=config,
            cache_dir=tmp_path,
            workers=4,
            worker_backend=FaultyWorkerBackend(plan),
            retry=FAST_RETRY,
            run_id="recorded",
        )
        assert_points_equal(serial, result.points)
        manifest = load_manifest(tmp_path, "recorded")
        assert manifest["status"] == "completed"
        assert manifest["counters"]["retries"] == plan.total
        assert manifest["counters"]["worker_deaths"] == plan.kills
        assert len(manifest["events"]) == plan.total
        statuses = {task["status"] for task in manifest["tasks"]}
        assert statuses == {"done"}
        faulted = [task for task in manifest["tasks"] if task["attempts"] > 1]
        assert len(faulted) == plan.total

    def test_streaming_sweep_survives_faults(self, tmp_path):
        config = ExperimentConfig.smoke().with_overrides(chunk_accesses=1 << 12)
        serial = _serial_points(config, streaming=True)
        plan = FaultPlan(seed=3, kill_rate=0.35, transient_rate=0.2)
        result = run_sweep(
            _spec(streaming=True),
            config=config,
            cache_dir=tmp_path,
            workers=3,
            worker_backend=FaultyWorkerBackend(plan),
            retry=FAST_RETRY,
        )
        assert_points_equal(serial, result.points)
        assert result.report.retries == plan.total
        assert plan.total > 0, "seed injected no faults; pick another"


class _KillAfterBackend(InlineBackend):
    """Runs every task, then reports its first execution's worker dead:
    each task's entries land, but the scheduler sees a death."""

    def submit(self, task, attempt):
        handle = super().submit(task, attempt)
        if attempt == 1:
            self._outcomes[handle] = TaskOutcome(
                handle, task.task_id, TASK_DIED, error="injected kill after the entries landed"
            )
        return handle


class TestKillAfterEntriesLanded:
    def test_retry_reads_the_landed_entries(self, tmp_path, planned):
        config = ExperimentConfig.smoke()
        serial = _serial_points(config)
        planned.clear()
        result = run_sweep(
            _spec(), config=config, cache_dir=tmp_path, workers=2,
            worker_backend=_KillAfterBackend(), retry=FAST_RETRY,
        )
        assert_points_equal(serial, result.points)
        assert result.report.worker_deaths == result.report.retries == TASKS
        assert result.report.executed == TASKS
        # The manifest's plan per pair, then each first execution's one
        # pass; the retries and the final assembly simulate nothing.
        schemes = ("RRIP", "GRASP")
        assert planned == [schemes] * (2 * TASKS)


class _AlwaysDieBackend(InlineBackend):
    """Kills the worker on every execution of one labelled task."""

    def __init__(self, label: str) -> None:
        super().__init__()
        self.label = label

    def submit(self, task, attempt):
        if task.label == self.label:
            handle = self._next_handle
            self._next_handle += 1
            self._outcomes[handle] = TaskOutcome(
                handle, task.task_id, TASK_DIED, error="persistent injected kill"
            )
            return handle
        return super().submit(task, attempt)


class TestPermanentFailure:
    def test_exhausted_retries_fail_that_pair_alone(self, tmp_path):
        config = ExperimentConfig.smoke()
        backend = _AlwaysDieBackend("PR/lj")
        with pytest.raises(SweepError) as excinfo:
            run_sweep(
                _spec(),
                config=config,
                cache_dir=tmp_path,
                workers=2,
                worker_backend=backend,
                retry=FAST_RETRY,
                run_id="doomed",
            )
        manifest = load_manifest(tmp_path, "doomed")
        assert manifest["status"] == "failed"
        by_label = {task["label"]: task for task in manifest["tasks"]}
        assert by_label["PR/lj"]["status"] == "failed"
        assert by_label["PR/lj"]["attempts"] == FAST_RETRY.max_attempts
        assert by_label["PR/lj"]["error"] == "persistent injected kill"
        # The sibling pair completes.
        assert by_label["PR/pl"]["status"] == "done"
        assert excinfo.value.failed == [by_label["PR/lj"]["id"]]


class TestResume:
    def test_resume_after_hard_kill_skips_persisted_tasks(self, tmp_path):
        config = ExperimentConfig.smoke()
        serial = _serial_points(config)
        crash = CrashingBackend(crash_after=1)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                _spec(),
                config=config,
                cache_dir=tmp_path,
                workers=2,
                worker_backend=crash,
                retry=FAST_RETRY,
                run_id="crashy",
            )
        executed_before = set(crash.executed)
        assert len(executed_before) == 1
        assert load_manifest(tmp_path, "crashy")["status"] == "interrupted"

        # A fresh client resumes the run: persisted tasks are cache hits,
        # only the incomplete remainder executes.
        clear_caches()
        set_disk_memo(None)
        resumed_backend = InlineBackend()
        result = resume_sweep("crashy", cache_dir=tmp_path, worker_backend=resumed_backend)
        assert set(resumed_backend.executed).isdisjoint(executed_before)
        assert result.report.cached == len(executed_before)
        assert result.report.executed + result.report.cached == TASKS
        assert_points_equal(serial, result.points)
        manifest = load_manifest(tmp_path, "crashy")
        assert manifest["status"] == "completed"
        assert manifest["resumes"] == 1

    def test_completed_run_resumes_to_all_cached(self, tmp_path):
        config = ExperimentConfig.smoke()
        serial = _serial_points(config)
        run_sweep(
            _spec(),
            config=config,
            cache_dir=tmp_path,
            workers=2,
            worker_backend=InlineBackend(),
            run_id="finished",
        )
        clear_caches()
        set_disk_memo(None)
        backend = InlineBackend()
        result = resume_sweep("finished", cache_dir=tmp_path, worker_backend=backend)
        assert backend.executed == []
        assert result.report.executed == 0
        assert result.report.cached == TASKS
        assert_points_equal(serial, result.points)


class TestCrossClientDedup:
    def test_second_client_reuses_first_clients_store(self, tmp_path, planned):
        config = ExperimentConfig.smoke()
        serial = _serial_points(config)
        first = run_sweep(
            _spec(), config=config, cache_dir=tmp_path, workers=2,
            worker_backend=InlineBackend(),
        )
        assert first.report.executed == TASKS
        # Client two: fresh process state, overlapping sweep plus one extra scheme.
        clear_caches()
        set_disk_memo(None)
        planned.clear()
        second = run_sweep(
            _spec(schemes=("RRIP", "GRASP", "LRU")),
            config=config,
            cache_dir=tmp_path,
            workers=2,
            worker_backend=InlineBackend(),
        )
        # Each pair task runs again, but simulates only the new LRU scheme
        # (after the manifest's plan per pair); everything else dedups.
        assert second.report.executed == TASKS
        assert second.report.cached == 0
        assert planned[TASKS:] == [("LRU",)] * TASKS
        assert_points_equal(serial, [p for p in second.points if p.scheme != "LRU"])
