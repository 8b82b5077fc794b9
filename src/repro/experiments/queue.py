"""Task/queue/worker primitives of the distributed sweep service.

This module is the transport layer underneath
:mod:`repro.experiments.service`: it knows nothing about cache simulation.
It defines

* :class:`Task` — one schedulable unit: a picklable module-level callable
  plus arguments, a content-addressed id, and dependency edges;
* :class:`WorkQueue` — per-worker deques with work stealing: an idle worker
  first drains its own queue front-to-back, then steals from the *back* of
  the longest other queue, so no worker ever idles while any queue holds
  work;
* :class:`RetryPolicy` — bounded retries with exponential backoff;
* :class:`FailureEvent` — the structured failure record the scheduler
  keeps in its report and the run manifest;
* :class:`WorkerBackend` implementations — :class:`InlineBackend` (execute
  in-process; the choice for hosts without process pools, and the base
  class of the test harness's fault-injecting backend) and
  :class:`ProcessPoolBackend` (:class:`~concurrent.futures.ProcessPoolExecutor`
  with file-based worker heartbeats; a pool that dies is replaced and its
  lost tasks retried, while a pool that cannot start raises).  The backend
  interface is deliberately small (submit / poll / heartbeat_age / cancel)
  so a remote transport (e.g. a celery- or socket-based pool, the wiscsee
  deployment shape) can slot in without touching the scheduler.
"""

from __future__ import annotations

import threading
import time
import traceback
import zlib
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# Task outcome statuses reported by backends.
TASK_OK = "ok"
TASK_ERROR = "error"
TASK_DIED = "died"

# Failure-event kinds.
WORKER_DIED = "worker-died"
TASK_FAILED = "task-error"
HEARTBEAT_TIMEOUT = "heartbeat-timeout"


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

    def home_worker(self, num_workers: int) -> int:
        """Deterministic initial queue placement (stable across runs)."""
        return zlib.crc32(self.task_id.encode("utf-8")) % max(1, num_workers)


@dataclass(frozen=True)
class FailureEvent:
    """Structured record of one scheduling-visible failure."""

    kind: str  #: WORKER_DIED / TASK_FAILED / HEARTBEAT_TIMEOUT
    task_id: str = ""
    label: str = ""
    worker: Optional[int] = None
    attempt: int = 0
    detail: str = ""

    def to_json(self) -> Dict[str, Any]:
        """JSON-serializable form used by run manifests."""
        return {
            "kind": self.kind,
            "task_id": self.task_id,
            "label": self.label,
            "worker": self.worker,
            "attempt": self.attempt,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        where = f" on worker {self.worker}" if self.worker is not None else ""
        label = self.label or self.task_id or "<pool>"
        return f"{self.kind}: {label}{where} (attempt {self.attempt}): {self.detail}"


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


class WorkQueue:
    """Per-worker task deques with work stealing.

    Tasks are pushed to their home worker's queue (or an explicit one).
    :meth:`pop` serves a worker from its own queue first; when that is empty
    it steals from the back of the longest other queue.  The scheduler calls
    :meth:`pop` for every idle worker each tick, which yields the
    no-starvation invariant: a worker stays idle only while *every* queue is
    empty.
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self._queues: List[deque] = [deque() for _ in range(num_workers)]
        self.steals = 0  #: tasks obtained from another worker's queue

    def push(self, task: Task, worker: Optional[int] = None) -> None:
        """Queue a task on ``worker`` (default: the task's home worker)."""
        home = task.home_worker(len(self._queues)) if worker is None else worker
        self._queues[home % len(self._queues)].append(task)

    def pop(self, worker: int) -> Optional[Task]:
        """Next task for ``worker``: local queue first, else steal."""
        own = self._queues[worker]
        if own:
            return own.popleft()
        victim = max(
            (queue for queue in self._queues if queue),
            key=len,
            default=None,
        )
        if victim is None:
            return None
        self.steals += 1
        return victim.pop()

    def pending(self) -> int:
        """Number of queued (not yet dispatched) tasks."""
        return sum(len(queue) for queue in self._queues)

    def depths(self) -> List[int]:
        """Per-worker queue depths (diagnostics)."""
        return [len(queue) for queue in self._queues]


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
    handle immediately, :meth:`poll` drains outcomes that completed since the
    last call, and :meth:`heartbeat_age` reports how long ago the worker
    executing a handle last proved liveness (``None`` when the transport has
    no heartbeat signal — the scheduler then falls back to dispatch-time
    ageing).  :meth:`cancel` abandons a handle: any outcome it would still
    produce must be dropped.
    """

    name = "backend"

    @abstractmethod
    def start(self, num_workers: int) -> None:
        """Provision ``num_workers`` workers."""

    @abstractmethod
    def submit(self, worker: int, task: Task, attempt: int) -> int:
        """Dispatch ``task`` to (logical) ``worker``; returns a handle."""

    @abstractmethod
    def poll(self) -> List[TaskOutcome]:
        """Outcomes that completed since the previous poll."""

    def heartbeat_age(self, handle: int) -> Optional[float]:
        """Seconds since the worker running ``handle`` last heartbeat."""
        return None

    def cancel(self, handle: int) -> None:
        """Abandon a handle (best effort)."""

    def close(self) -> None:
        """Release workers."""


class InlineBackend(WorkerBackend):
    """Executes tasks synchronously in-process.

    The service's serial backend (``worker_backend="inline"``), and the
    base class the test harness's fault-injecting backend builds on:
    execution happens inside :meth:`submit` (via the overridable
    :meth:`_execute`), outcomes are buffered until :meth:`poll`, and
    :meth:`cancel` drops a buffered outcome — which is exactly how a
    crash-after-side-effect looks to the scheduler.
    """

    name = "inline"

    def __init__(self) -> None:
        self._outcomes: Dict[int, TaskOutcome] = {}
        self._next_handle = 0
        self.executed: List[str] = []  #: task ids actually run, in order

    def start(self, num_workers: int) -> None:  # noqa: ARG002 - no pool to size
        pass

    def _execute(self, worker: int, task: Task, attempt: int) -> TaskOutcome:
        handle = self._next_handle
        try:
            value = task.fn(*task.args) if task.fn is not None else None
            self.executed.append(task.task_id)
            return TaskOutcome(handle, task.task_id, TASK_OK, value=value)
        except WorkerCrash as crash:
            return TaskOutcome(handle, task.task_id, TASK_DIED, error=str(crash))
        except Exception as exc:  # noqa: BLE001 - report, don't unwind the scheduler
            return TaskOutcome(handle, task.task_id, TASK_ERROR, error=repr(exc))

    def submit(self, worker: int, task: Task, attempt: int) -> int:
        outcome = self._execute(worker, task, attempt)
        handle = self._next_handle
        self._next_handle += 1
        outcome.handle = handle
        self._outcomes[handle] = outcome
        return handle

    def poll(self) -> List[TaskOutcome]:
        drained = list(self._outcomes.values())
        self._outcomes.clear()
        return drained

    def cancel(self, handle: int) -> None:
        self._outcomes.pop(handle, None)


def _heartbeat_call(
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    heartbeat_path: Optional[str],
    interval: float,
) -> Any:
    """Run ``fn`` in a worker process while touching a heartbeat file.

    A daemon thread refreshes the file's mtime every ``interval`` seconds for
    as long as the task runs; the scheduler reads the age via
    :meth:`ProcessPoolBackend.heartbeat_age`.  A worker that is killed stops
    beating immediately, a hung worker keeps its last mtime — both age past
    the scheduler's timeout.
    """
    if heartbeat_path is None:
        return fn(*args)
    path = Path(heartbeat_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            try:
                path.touch()
            except OSError:
                pass
            stop.wait(interval)

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        return fn(*args)
    finally:
        stop.set()
        thread.join(timeout=interval)


@dataclass
class _PendingFuture:
    task_id: str
    future: Future
    heartbeat_path: Optional[Path]
    submitted_at: float = field(default_factory=time.time)


class ProcessPoolBackend(WorkerBackend):
    """Worker pool on :class:`~concurrent.futures.ProcessPoolExecutor`.

    Logical worker ids only drive the scheduler's queueing/stealing; the pool
    maps submissions to OS processes itself.  A :class:`BrokenProcessPool`
    marks every in-flight handle as :data:`TASK_DIED` and provisions a fresh
    pool, so one crashed worker never takes the run down — the scheduler
    retries the lost tasks.  Heartbeats are per-task files touched by a
    thread inside the worker (:func:`_heartbeat_call`).
    """

    name = "process"

    def __init__(
        self,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        heartbeat_dir: Optional[Path | str] = None,
        heartbeat_interval: float = 1.0,
    ) -> None:
        self._initializer = initializer
        self._initargs = initargs
        self._heartbeat_dir = Path(heartbeat_dir) if heartbeat_dir is not None else None
        self._heartbeat_interval = heartbeat_interval
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 1
        self._pending: Dict[int, _PendingFuture] = {}
        self._next_handle = 0
        self.pool_restarts = 0

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

    def submit(self, worker: int, task: Task, attempt: int) -> int:
        if self._pool is None:
            self.start(self._workers)
        handle = self._next_handle
        self._next_handle += 1
        hb_path = (
            self._heartbeat_dir / f"{task.task_id}.{attempt}"
            if self._heartbeat_dir is not None
            else None
        )
        try:
            future = self._pool.submit(
                _heartbeat_call,
                task.fn,
                task.args,
                str(hb_path) if hb_path is not None else None,
                self._heartbeat_interval,
            )
        except BrokenProcessPool:
            # The pool died between polls; surface this dispatch as a death
            # and let the next submission find a fresh pool.
            self.pool_restarts += 1
            self._new_pool()
            outcome = Future()
            outcome.set_exception(WorkerCrash("process pool broke at submit"))
            future = outcome
        self._pending[handle] = _PendingFuture(task.task_id, future, hb_path)
        return handle

    def poll(self) -> List[TaskOutcome]:
        done: List[TaskOutcome] = []
        broken = False
        for handle, pending in list(self._pending.items()):
            if not pending.future.done():
                continue
            del self._pending[handle]
            try:
                value = pending.future.result()
            except BrokenProcessPool as exc:
                broken = True
                done.append(TaskOutcome(handle, pending.task_id, TASK_DIED, error=repr(exc)))
            except WorkerCrash as exc:
                done.append(TaskOutcome(handle, pending.task_id, TASK_DIED, error=str(exc)))
            except BaseException as exc:  # noqa: BLE001 - worker-side failure
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                done.append(TaskOutcome(handle, pending.task_id, TASK_ERROR, error=detail))
            else:
                done.append(TaskOutcome(handle, pending.task_id, TASK_OK, value=value))
        if broken:
            # Everything still in flight went down with the pool.
            for handle, pending in list(self._pending.items()):
                del self._pending[handle]
                done.append(
                    TaskOutcome(
                        handle, pending.task_id, TASK_DIED, error="process pool broke"
                    )
                )
            self.pool_restarts += 1
            self._new_pool()
        return done

    def heartbeat_age(self, handle: int) -> Optional[float]:
        pending = self._pending.get(handle)
        if pending is None or pending.heartbeat_path is None:
            return None
        try:
            mtime = pending.heartbeat_path.stat().st_mtime
        except OSError:
            # No beat yet: age from submission (covers pool spin-up).
            return time.time() - pending.submitted_at
        return max(0.0, time.time() - mtime)

    def cancel(self, handle: int) -> None:
        pending = self._pending.pop(handle, None)
        if pending is not None:
            pending.future.cancel()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


__all__ = [
    "FailureEvent",
    "HEARTBEAT_TIMEOUT",
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
    "WorkQueue",
    "WorkerBackend",
    "WorkerCrash",
]
