"""Property-based tests for the sweep scheduler and its ready queue.

Randomized (but seeded — no hypothesis dependency) DAGs and worker counts,
driven on a virtual clock through :class:`conftest.SimBackend`, check the
scheduler's core invariants:

* no task is dispatched before every dependency finished;
* no task executes twice when its first execution succeeds;
* at no instant do more than ``workers`` tasks run, and the first pass
  fills every slot it can: ``min(workers, tasks without dependencies)``
  tasks start at t=0;
* resume dispatches only tasks the completion store does not already hold;
* a permanently failing task takes down exactly its transitive dependents.
"""

import pytest
from fault_harness import SimBackend, VirtualClock

from repro.experiments.queue import RetryPolicy, Task
from repro.experiments.service import (
    DONE,
    FAILED,
    InMemoryTaskStore,
    Scheduler,
    SchedulerError,
)

import random


def make_dag(rng: random.Random, size: int, max_deps: int = 3):
    """Random DAG: each task depends on up to ``max_deps`` earlier tasks."""
    tasks = []
    for index in range(size):
        n_deps = rng.randint(0, min(max_deps, index))
        deps = tuple(sorted(rng.sample([t.task_id for t in tasks], n_deps)))
        tasks.append(Task(task_id=f"t{index:03d}", deps=deps, label=f"task {index}"))
    return tasks


def run_scheduler(tasks, workers, *, backend=None, clock=None, store=None,
                  retry=None, seed=0):
    clock = clock or VirtualClock()
    backend = backend or SimBackend(clock, seed=seed)
    scheduler = Scheduler(
        tasks,
        backend,
        workers,
        store=store,
        retry=retry or RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.1),
        clock=clock,
        sleep=clock.sleep,
    )
    report = scheduler.run()
    return scheduler, backend, report


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_random_dags_respect_dependencies_and_run_once(seed, workers):
    rng = random.Random(1000 + seed)
    tasks = make_dag(rng, size=rng.randint(5, 30))
    scheduler, backend, report = run_scheduler(tasks, workers, seed=seed)

    assert report.executed == len(tasks)
    assert not report.failed
    assert all(record.status == DONE for record in scheduler.records.values())

    # Every task started exactly once (no duplicate dispatch on success).
    assert set(backend.start_counts) == {task.task_id for task in tasks}
    assert all(count == 1 for count in backend.start_counts.values())

    # No task started before all of its dependencies finished.
    start_time = dict(backend.starts)
    for task in tasks:
        for dep in task.deps:
            assert start_time[task.task_id] >= backend.finish_times[dep], (
                f"{task.task_id} started at {start_time[task.task_id]} before "
                f"dependency {dep} finished at {backend.finish_times[dep]}"
            )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_random_dags_run_at_most_workers_tasks_and_fill_the_first_slots(seed, workers):
    rng = random.Random(1000 + seed)
    tasks = make_dag(rng, size=rng.randint(5, 30))
    scheduler, backend, report = run_scheduler(tasks, workers, seed=seed)
    assert report.executed == len(tasks)

    # Each task ran once over [start, finish); a slot frees when the
    # scheduler sees the finish, so the intervals never overlap more than
    # `workers` deep.  The peak is reached at some task's start.
    spans = [(at, backend.finish_times[task_id]) for task_id, at in backend.starts]
    for instant, _ in spans:
        running = sum(1 for start, finish in spans if start <= instant < finish)
        assert running <= workers, f"{running} tasks running at t={instant}"

    roots = sum(1 for task in tasks if not task.deps)
    started_at_zero = [task_id for task_id, at in backend.starts if at == 0.0]
    assert len(started_at_zero) == min(workers, roots)


@pytest.mark.parametrize("seed", range(4))
def test_resume_dispatches_only_incomplete_tasks(seed):
    rng = random.Random(2000 + seed)
    tasks = make_dag(rng, size=20)
    done_before = {task.task_id for task in tasks if rng.random() < 0.4}
    store = InMemoryTaskStore(done=done_before)

    scheduler, backend, report = run_scheduler(tasks, workers=3, store=store, seed=seed)
    assert report.cached == len(done_before)
    assert report.executed == len(tasks) - len(done_before)
    assert set(backend.start_counts) == {t.task_id for t in tasks} - done_before
    assert store.done == {task.task_id for task in tasks}


def test_permanent_failure_takes_down_exactly_the_dependent_subtree():
    #      a        d
    #     / \       |
    #    b   c      e      (b fails permanently; d/e are unrelated)
    #     \ /
    #      f
    tasks = [
        Task(task_id="a"),
        Task(task_id="b", deps=("a",)),
        Task(task_id="c", deps=("a",)),
        Task(task_id="f", deps=("b", "c")),
        Task(task_id="d"),
        Task(task_id="e", deps=("d",)),
    ]
    clock = VirtualClock()
    backend = SimBackend(clock)
    backend.fail_ids.add("b")
    scheduler, backend, report = run_scheduler(tasks, workers=2, backend=backend, clock=clock)

    status = {tid: record.status for tid, record in scheduler.records.items()}
    assert status == {"a": DONE, "b": FAILED, "c": DONE, "f": FAILED, "d": DONE, "e": DONE}
    assert set(report.failed) == {"b", "f"}
    assert "dependency failed" in scheduler.records["f"].error
    # b was retried to exhaustion; f was never dispatched at all.
    assert backend.start_counts["b"] == 3
    assert "f" not in backend.start_counts
    assert report.task_errors == 3


def test_worker_death_retries_with_backoff_and_converges():
    clock = VirtualClock()
    backend = SimBackend(clock)
    backend.die_once.add("t001")
    tasks = [Task(task_id="t000"), Task(task_id="t001", deps=("t000",))]
    retry = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0)
    scheduler, backend, report = run_scheduler(
        tasks, workers=1, backend=backend, clock=clock, retry=retry
    )
    assert not report.failed
    assert report.worker_deaths == 1
    assert report.retries == 1
    assert backend.start_counts["t001"] == 2
    # The retry respected the backoff delay: the second start of t001 is at
    # least base_delay after the death was observed.
    t001_starts = [at for task_id, at in backend.starts if task_id == "t001"]
    assert t001_starts[1] - t001_starts[0] >= retry.base_delay


class TestGraphValidation:
    def test_cycle_is_rejected(self):
        tasks = [Task(task_id="a", deps=("b",)), Task(task_id="b", deps=("a",))]
        with pytest.raises(SchedulerError, match="cycle"):
            run_scheduler(tasks, workers=1)

    def test_unknown_dependency_is_rejected(self):
        with pytest.raises(SchedulerError, match="unknown task"):
            run_scheduler([Task(task_id="a", deps=("ghost",))], workers=1)

    def test_duplicate_task_id_is_rejected(self):
        with pytest.raises(SchedulerError, match="duplicate"):
            run_scheduler([Task(task_id="a"), Task(task_id="a")], workers=1)
