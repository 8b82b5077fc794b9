"""The sweep-service fault-injection harness, imported by the test modules.

The classes here plug into the scheduler of
:mod:`repro.experiments.service` through the regular
:class:`~repro.experiments.queue.WorkerBackend` interface — no test hooks
exist inside the service itself:

:class:`VirtualClock`
    Deterministic time source; ``sleep`` advances it, so scheduler runs that
    involve backoffs complete instantly.
:class:`FaultPlan`
    A seeded schedule deciding, per task, whether its *first* execution is
    killed (before or after its side effects land) or fails transiently.
    At most one fault per task, so every sweep converges under the default
    retry budget and the scheduler's retry/death/error counters must match
    the plan's injection log exactly.  The plan draws one roll per task in
    dispatch order, so how many faults of each kind it injects depends on
    the seed and the task count, not on which task the scheduler runs first.
:class:`FaultyWorkerBackend`
    An :class:`~repro.experiments.queue.InlineBackend` that *really executes*
    tasks (side effects — memo writes — happen exactly as on a real worker)
    while injecting the plan's faults at the transport layer.
:class:`CrashingBackend`
    Raises ``KeyboardInterrupt`` after N executions — a hard kill of the
    whole client, used to test ``--resume``.
:class:`SimBackend`
    Virtual-time backend for scheduler property tests: tasks have seeded
    durations and nothing executes, but starts/finishes are logged so
    ordering invariants can be asserted.

:func:`assert_points_equal` compares two sweeps' data points bit for bit.
The module's name is unique across ``tests/`` and ``benchmarks/``, so both
directories collect in one pytest run.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

import pytest

from repro.experiments.queue import (
    TASK_DIED,
    TASK_ERROR,
    TASK_OK,
    InlineBackend,
    Task,
    TaskOutcome,
    WorkerBackend,
)


class VirtualClock:
    """Monotonic clock advanced only by ``sleep`` — deterministic tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(0.0, seconds)


KILL_BEFORE = "kill-before"
KILL_AFTER = "kill-after"
TRANSIENT = "transient"


class FaultPlan:
    """Seeded per-task fault schedule (at most one fault per task).

    Rates are cumulative probabilities over the first execution of each
    task; retries are always clean, so a sweep converges whenever the retry
    budget allows at least one retry.  ``injected`` counts the faults that
    were actually applied — the ground truth the scheduler's counters are
    checked against.
    """

    def __init__(
        self,
        seed: int,
        kill_rate: float = 0.0,
        transient_rate: float = 0.0,
    ) -> None:
        self.rng = random.Random(seed)
        self.kill_rate = kill_rate
        self.transient_rate = transient_rate
        self.decisions: Dict[str, Optional[str]] = {}
        self.injected: Counter = Counter()

    def fault_for(self, task_id: str, attempt: int) -> Optional[str]:
        """The fault to inject for this execution, or ``None``."""
        if attempt > 1:
            return None
        if task_id not in self.decisions:
            roll = self.rng.random()
            if roll < self.kill_rate:
                kind = self.rng.choice((KILL_BEFORE, KILL_AFTER))
            elif roll < self.kill_rate + self.transient_rate:
                kind = TRANSIENT
            else:
                kind = None
            self.decisions[task_id] = kind
            if kind is not None:
                self.injected[kind] += 1
        return self.decisions[task_id]

    @property
    def kills(self) -> int:
        return self.injected[KILL_BEFORE] + self.injected[KILL_AFTER]

    @property
    def transients(self) -> int:
        return self.injected[TRANSIENT]

    @property
    def total(self) -> int:
        return sum(self.injected.values())


class FaultyWorkerBackend(InlineBackend):
    """Inline execution with transport-level fault injection.

    * ``kill-before`` — the worker dies before running the task (no side
      effects; the retry recomputes).
    * ``kill-after`` — the worker dies *after* the task's side effects
      landed in the store (the retry finds the memo entry warm).
    * ``transient`` — the task raises without running.
    """

    name = "faulty-inline"

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__()
        self.plan = plan

    def submit(self, task: Task, attempt: int) -> int:
        fault = self.plan.fault_for(task.task_id, attempt)
        if fault is None:
            return super().submit(task, attempt)
        handle = self._next_handle
        self._next_handle += 1
        if fault == KILL_BEFORE:
            self._outcomes[handle] = TaskOutcome(
                handle, task.task_id, TASK_DIED, error="injected worker kill (pre-task)"
            )
        elif fault == TRANSIENT:
            self._outcomes[handle] = TaskOutcome(
                handle, task.task_id, TASK_ERROR, error="injected transient error"
            )
        elif fault == KILL_AFTER:
            self._execute(task)  # side effects land, result is lost
            self._outcomes[handle] = TaskOutcome(
                handle, task.task_id, TASK_DIED, error="injected worker kill (post-task)"
            )
        return handle


class CrashingBackend(InlineBackend):
    """Hard-kills the whole client after ``crash_after`` executed tasks."""

    name = "crashing-inline"

    def __init__(self, crash_after: int) -> None:
        super().__init__()
        self.crash_after = crash_after

    def submit(self, task: Task, attempt: int) -> int:
        if len(self.executed) >= self.crash_after:
            raise KeyboardInterrupt("simulated hard kill of the sweep client")
        return super().submit(task, attempt)


class SimBackend(WorkerBackend):
    """Virtual-time backend for scheduler property tests.

    Tasks do not execute; each dispatch is assigned a seeded duration and
    completes once the (virtual) clock passes it.  ``starts`` /
    ``finish_times`` record the simulated execution history the property
    tests assert over.  Task ids in ``fail_ids`` produce a transient error
    on every execution; ids in ``die_once`` report a worker death on their
    first execution only.
    """

    name = "sim"

    def __init__(
        self,
        clock: VirtualClock,
        seed: int = 0,
        min_duration: float = 0.01,
        max_duration: float = 0.25,
    ) -> None:
        self.clock = clock
        self.rng = random.Random(seed)
        self.min_duration = min_duration
        self.max_duration = max_duration
        self._pending: Dict[int, Tuple[str, float]] = {}
        self._next_handle = 0
        self.starts: List[Tuple[str, float]] = []  #: (task_id, sim start time)
        self.start_counts: Counter = Counter()
        self.finish_times: Dict[str, float] = {}
        self.fail_ids: set = set()
        self.die_once: set = set()
        self._died: set = set()

    def start(self, num_workers: int) -> None:
        pass

    def submit(self, task: Task, attempt: int) -> int:
        handle = self._next_handle
        self._next_handle += 1
        duration = self.rng.uniform(self.min_duration, self.max_duration)
        self.starts.append((task.task_id, self.clock()))
        self.start_counts[task.task_id] += 1
        self._pending[handle] = (task.task_id, self.clock() + duration)
        return handle

    def poll(self) -> List[TaskOutcome]:
        now = self.clock()
        done: List[TaskOutcome] = []
        for handle, (task_id, finish) in list(self._pending.items()):
            if finish > now:
                continue
            del self._pending[handle]
            if task_id in self.fail_ids:
                done.append(TaskOutcome(handle, task_id, TASK_ERROR, error="sim failure"))
            elif task_id in self.die_once and task_id not in self._died:
                self._died.add(task_id)
                done.append(TaskOutcome(handle, task_id, TASK_DIED, error="sim worker death"))
            else:
                self.finish_times[task_id] = finish
                done.append(TaskOutcome(handle, task_id, TASK_OK))
        return done


def assert_points_equal(left, right) -> None:
    """Bit-identity check for two DataPoint sequences (stats are integers)."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.app_name, a.dataset_name, a.scheme) == (b.app_name, b.dataset_name, b.scheme)
        assert a.stats.hits == b.stats.hits
        assert a.stats.misses == b.stats.misses
        assert a.stats.evictions == b.stats.evictions
        assert a.cycles == pytest.approx(b.cycles)
        assert a.miss_reduction_pct == pytest.approx(b.miss_reduction_pct)
        assert a.speedup_pct == pytest.approx(b.speedup_pct)
