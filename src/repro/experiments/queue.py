"""Task, retry and worker-backend primitives of the sweep service.

This module is the transport layer underneath
:mod:`repro.experiments.service`: it knows nothing about cache simulation.
It defines

* :class:`Task` — one schedulable unit: a picklable module-level callable
  plus arguments, a content-addressed id, and dependency edges;
* :class:`RetryPolicy` — bounded retries with exponential backoff;
* :class:`FailureEvent` — the structured failure record the scheduler
  keeps in its report and the run manifest;
* :class:`WorkerBackend` implementations — :class:`InlineBackend` (execute
  in-process; the choice for hosts without process pools, and the base
  class of the test harness's fault-injecting backend) and
  :class:`ProcessPoolBackend` (one host's
  :class:`~concurrent.futures.ProcessPoolExecutor`; a pool that dies is
  replaced and its lost tasks retried, while a pool that cannot start
  raises).  The backend interface (start / submit / poll / close) is what
  the tests' fault-injecting fakes plug into.
"""

from __future__ import annotations

import traceback
from abc import ABC, abstractmethod
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

# Task outcome statuses reported by backends.
TASK_OK = "ok"
TASK_ERROR = "error"
TASK_DIED = "died"

# Failure-event kinds.
WORKER_DIED = "worker-died"
TASK_FAILED = "task-error"


class WorkerCrash(RuntimeError):
    """Raised (or reported) when a worker process dies mid-task."""


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``fn`` must be a module-level callable (process backends pickle it) and
    ``args`` picklable.  ``task_id`` is content-addressed by the caller — the
    sweep service uses the memo-entry digest, so the id doubles as the
    completion check.  ``store_key`` carries the (kind-scoped) memo key for
    completion stores that need it; generic tasks may leave it ``None``.
    """

    task_id: str
    fn: Optional[Callable[..., Any]] = None
    args: Tuple[Any, ...] = ()
    deps: Tuple[str, ...] = ()
    kind: str = "task"
    label: str = ""
    store_key: Any = None


@dataclass(frozen=True)
class FailureEvent:
    """Structured record of one scheduling-visible failure."""

    kind: str  #: WORKER_DIED / TASK_FAILED
    task_id: str = ""
    label: str = ""
    attempt: int = 0
    detail: str = ""

    def to_json(self) -> Dict[str, Any]:
        """JSON-serializable form used by run manifests."""
        return {
            "kind": self.kind,
            "task_id": self.task_id,
            "label": self.label,
            "attempt": self.attempt,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        label = self.label or self.task_id or "<pool>"
        return f"{self.kind}: {label} (attempt {self.attempt}): {self.detail}"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``max_attempts`` counts executions, not retries: 4 attempts means one
    initial execution plus up to three retries.  The delay before attempt
    ``n+1`` is ``base_delay * 2**(n-1)`` capped at ``max_delay`` — attempt
    numbers are 1-based, so the first retry waits ``base_delay``.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("delays must satisfy 0 <= base_delay <= max_delay")

    def delay(self, attempt: int) -> float:
        """Backoff before re-dispatching after the ``attempt``-th execution."""
        return min(self.max_delay, self.base_delay * (2.0 ** max(0, attempt - 1)))


@dataclass
class TaskOutcome:
    """One finished (or dead) dispatch, as reported by a backend."""

    handle: int
    task_id: str
    status: str  #: TASK_OK / TASK_ERROR / TASK_DIED
    value: Any = None
    error: str = ""


class WorkerBackend(ABC):
    """Executes dispatched tasks; the scheduler owns all policy decisions.

    The contract is poll-based and non-blocking: :meth:`submit` returns a
    handle immediately, and :meth:`poll` drains outcomes that completed
    since the last call.  Every handle yields exactly one outcome.
    """

    name = "backend"

    @abstractmethod
    def start(self, num_workers: int) -> None:
        """Provision ``num_workers`` workers."""

    @abstractmethod
    def submit(self, task: Task, attempt: int) -> int:
        """Dispatch ``task``; returns a handle."""

    @abstractmethod
    def poll(self) -> List[TaskOutcome]:
        """Outcomes that completed since the previous poll."""

    def close(self) -> None:
        """Release workers."""


class InlineBackend(WorkerBackend):
    """Executes tasks synchronously in-process.

    The service's serial backend (``worker_backend="inline"``), and the
    base class the test harness's fault-injecting backend builds on:
    execution happens inside :meth:`submit` (via :meth:`_execute`) and
    outcomes are buffered until :meth:`poll`, so a subclass can run a task
    and report a different outcome — which is exactly how a
    crash-after-side-effect looks to the scheduler.
    """

    name = "inline"

    def __init__(self) -> None:
        self._outcomes: Dict[int, TaskOutcome] = {}
        self._next_handle = 0
        self.executed: List[str] = []  #: task ids actually run, in order

    def start(self, num_workers: int) -> None:  # noqa: ARG002 - no pool to size
        pass

    def _execute(self, task: Task) -> TaskOutcome:
        handle = self._next_handle
        try:
            value = task.fn(*task.args) if task.fn is not None else None
            self.executed.append(task.task_id)
            return TaskOutcome(handle, task.task_id, TASK_OK, value=value)
        except WorkerCrash as crash:
            return TaskOutcome(handle, task.task_id, TASK_DIED, error=str(crash))
        except Exception as exc:  # noqa: BLE001 - report, don't unwind the scheduler
            return TaskOutcome(handle, task.task_id, TASK_ERROR, error=repr(exc))

    def submit(self, task: Task, attempt: int) -> int:
        outcome = self._execute(task)
        handle = self._next_handle
        self._next_handle += 1
        outcome.handle = handle
        self._outcomes[handle] = outcome
        return handle

    def poll(self) -> List[TaskOutcome]:
        drained = list(self._outcomes.values())
        self._outcomes.clear()
        return drained


class ProcessPoolBackend(WorkerBackend):
    """Worker pool on :class:`~concurrent.futures.ProcessPoolExecutor`.

    A :class:`BrokenProcessPool` marks every in-flight handle as
    :data:`TASK_DIED` and provisions a fresh pool, so one crashed worker
    never takes the run down — the scheduler retries the lost tasks.  A
    task that hangs keeps its process: ``Future.cancel`` cannot stop a
    running task, so there is no timeout.
    """

    name = "process"

    def __init__(
        self,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> None:
        self._initializer = initializer
        self._initargs = initargs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 1
        self._pending: Dict[int, Tuple[str, Future]] = {}  # handle -> (task id, future)
        self._next_handle = 0

    def start(self, num_workers: int) -> None:
        self._workers = max(1, num_workers)
        self._new_pool()

    def _new_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = ProcessPoolExecutor(
            max_workers=self._workers,
            initializer=self._initializer,
            initargs=self._initargs,
        )

    def submit(self, task: Task, attempt: int) -> int:
        if self._pool is None:
            self.start(self._workers)
        handle = self._next_handle
        self._next_handle += 1
        try:
            future = self._pool.submit(task.fn, *task.args)
        except BrokenProcessPool:
            # The pool died between polls; surface this dispatch as a death
            # and let the next submission find a fresh pool.
            self._new_pool()
            future = Future()
            future.set_exception(WorkerCrash("process pool broke at submit"))
        self._pending[handle] = (task.task_id, future)
        return handle

    def poll(self) -> List[TaskOutcome]:
        done: List[TaskOutcome] = []
        broken = False
        for handle, (task_id, future) in list(self._pending.items()):
            if not future.done():
                continue
            del self._pending[handle]
            try:
                value = future.result()
            except BrokenProcessPool as exc:
                broken = True
                done.append(TaskOutcome(handle, task_id, TASK_DIED, error=repr(exc)))
            except WorkerCrash as exc:
                done.append(TaskOutcome(handle, task_id, TASK_DIED, error=str(exc)))
            except BaseException as exc:  # noqa: BLE001 - worker-side failure
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                done.append(TaskOutcome(handle, task_id, TASK_ERROR, error=detail))
            else:
                done.append(TaskOutcome(handle, task_id, TASK_OK, value=value))
        if broken:
            # Everything still in flight went down with the pool.
            for handle, (task_id, _) in self._pending.items():
                done.append(
                    TaskOutcome(handle, task_id, TASK_DIED, error="process pool broke")
                )
            self._pending.clear()
            self._new_pool()
        return done

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


__all__ = [
    "FailureEvent",
    "InlineBackend",
    "ProcessPoolBackend",
    "RetryPolicy",
    "TASK_DIED",
    "TASK_ERROR",
    "TASK_FAILED",
    "TASK_OK",
    "Task",
    "TaskOutcome",
    "WORKER_DIED",
    "WorkerBackend",
    "WorkerCrash",
]
