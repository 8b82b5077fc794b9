"""Property-based tests for the sweep scheduler and its ready queue.

Randomized (but seeded — no hypothesis dependency) task sets and worker
counts, driven on a virtual clock through :class:`conftest.SimBackend`,
check the scheduler's core invariants:

* no task executes twice when its first execution succeeds;
* at no instant do more than ``workers`` tasks run, and the first pass
  fills every slot it can: ``min(workers, tasks)`` tasks start at t=0;
* resume dispatches only tasks the completion store does not already hold;
* a permanently failing task fails alone: every other task completes.
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


def make_tasks(size: int):
    return [Task(task_id=f"t{index:03d}", label=f"task {index}") for index in range(size)]


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
def test_random_task_sets_run_each_task_once_in_queue_order(seed, workers):
    rng = random.Random(1000 + seed)
    tasks = make_tasks(rng.randint(1, 30))
    scheduler, backend, report = run_scheduler(tasks, workers, seed=seed)

    assert report.executed == len(tasks)
    assert not report.failed
    assert all(record.status == DONE for record in scheduler.records.values())

    # Every task started exactly once (no duplicate dispatch on success),
    # in the order the ready queue received them.
    assert [task_id for task_id, _ in backend.starts] == [task.task_id for task in tasks]
    assert all(count == 1 for count in backend.start_counts.values())


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_random_task_sets_run_at_most_workers_tasks_and_fill_the_first_slots(seed, workers):
    rng = random.Random(1000 + seed)
    tasks = make_tasks(rng.randint(1, 30))
    scheduler, backend, report = run_scheduler(tasks, workers, seed=seed)
    assert report.executed == len(tasks)

    # Each task ran once over [start, finish); a slot frees when the
    # scheduler sees the finish, so the intervals never overlap more than
    # `workers` deep.  The peak is reached at some task's start.
    spans = [(at, backend.finish_times[task_id]) for task_id, at in backend.starts]
    for instant, _ in spans:
        running = sum(1 for start, finish in spans if start <= instant < finish)
        assert running <= workers, f"{running} tasks running at t={instant}"

    started_at_zero = [task_id for task_id, at in backend.starts if at == 0.0]
    assert len(started_at_zero) == min(workers, len(tasks))


@pytest.mark.parametrize("seed", range(4))
def test_resume_dispatches_only_incomplete_tasks(seed):
    rng = random.Random(2000 + seed)
    tasks = make_tasks(20)
    done_before = {task.task_id for task in tasks if rng.random() < 0.4}
    store = InMemoryTaskStore(done=done_before)

    scheduler, backend, report = run_scheduler(tasks, workers=3, store=store, seed=seed)
    assert report.cached == len(done_before)
    assert report.executed == len(tasks) - len(done_before)
    assert set(backend.start_counts) == {t.task_id for t in tasks} - done_before
    assert store.done == {task.task_id for task in tasks}


def test_permanent_failure_fails_that_task_alone():
    tasks = [Task(task_id=name) for name in "abcde"]
    clock = VirtualClock()
    backend = SimBackend(clock)
    backend.fail_ids.add("b")
    scheduler, backend, report = run_scheduler(tasks, workers=2, backend=backend, clock=clock)

    status = {tid: record.status for tid, record in scheduler.records.items()}
    assert status == {"a": DONE, "b": FAILED, "c": DONE, "d": DONE, "e": DONE}
    assert report.failed == ["b"]
    assert scheduler.records["b"].error == "sim failure"
    # b was retried to exhaustion; every other task ran once.
    assert backend.start_counts == {"a": 1, "b": 3, "c": 1, "d": 1, "e": 1}
    assert report.task_errors == 3


def test_worker_death_retries_with_backoff_and_converges():
    clock = VirtualClock()
    backend = SimBackend(clock)
    backend.die_once.add("t001")
    tasks = make_tasks(2)
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


class TestTaskSetValidation:
    def test_duplicate_task_id_is_rejected(self):
        with pytest.raises(SchedulerError, match="duplicate"):
            run_scheduler([Task(task_id="a"), Task(task_id="a")], workers=1)
