"""Fault-tolerant sweep service on one host.

:func:`run_sweep` splits a :func:`~repro.experiments.runner.compare_policies`
sweep into one independent task per (app, dataset) pair.  A pair task is
that comparison for its one pair: it recalls the schemes whose results are
stored and runs the missing ones as one plan, so the pair's trace is
generated and filtered once for all of them.  A :class:`Scheduler` drives
the tasks over a :class:`~repro.experiments.queue.WorkerBackend` (in-process
``inline``, or ``process`` on one host's
:class:`~concurrent.futures.ProcessPoolExecutor`).  It keeps one FIFO ready
queue and runs at most ``workers`` tasks at once; a worker death (a broken
pool) or a transient error is retried with exponential backoff.  A task
that hangs hangs the sweep: interrupt it and ``--resume``, which re-runs
only the tasks whose entries are missing.

**Tasks are content-addressed by their memo entries.**  A pair task
completes into each scheme's ``policystream`` entry and the scope's
budget-less ``llcstream`` summary; its id is the digest of those keys, and
it *is complete* exactly when every one of those entries exists and loads
in the shared :class:`~repro.experiments.memo.DiskMemo` store.  Three
properties fall out:

* **resume** — ``repro sweep --resume RUN_ID`` rebuilds the tasks and only
  executes those with an entry missing (or unreadable);
* **cross-client dedup** — overlapping sweeps from concurrent clients
  converge on the same entries, so work done by one client is a cache hit
  for every other;
* **invisibility** — results are *assembled* by the ordinary serial runner
  reading the store, so any task order, any worker count, and any failure
  pattern produce bit-identical :class:`~repro.experiments.runner.DataPoint`
  sequences.  Scheduling can only change how fast the numbers arrive, never
  the numbers.

Every run writes a JSON manifest (``<cache_dir>/runs/<run_id>/manifest.json``)
recording the spec, the plan each pair task runs, per-task status/attempt
history and every :class:`~repro.experiments.queue.FailureEvent`, and the
manifest is written *before* execution starts so a hard-killed run remains
resumable.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.config import CacheConfig, HierarchyConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.memo import DiskMemo, default_cache_dir, key_digest
from repro.experiments.queue import (
    TASK_DIED,
    TASK_FAILED,
    TASK_OK,
    WORKER_DIED,
    FailureEvent,
    InlineBackend,
    ProcessPoolBackend,
    RetryPolicy,
    Task,
    WorkerBackend,
)
from repro.experiments.runner import (
    DataPoint,
    compare_policies,
    llcstream_summary_memo_key,
    plan_pair_tasks,
    policystream_memo_key,
    set_disk_memo,
)
from repro.fastsim.dispatch import set_default_backend
from repro.fastsim.plan import ExecutionPlan
from repro.perf.timing import TimingModel


# ---------------------------------------------------------------------------
# sweep specification and pair tasks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: the cartesian product the serial runner would iterate."""

    apps: Tuple[str, ...]
    datasets: Tuple[str, ...]
    schemes: Tuple[str, ...]
    reorder: Optional[str] = None
    baseline: str = "RRIP"
    streaming: bool = False

    def resolved_reorder(self, config: ExperimentConfig) -> str:
        """The reordering in effect (spec override, else config default)."""
        return self.reorder or config.reorder

    def all_schemes(self) -> Tuple[str, ...]:
        """Schemes to simulate, baseline first, order-preserving dedup."""
        return tuple(dict.fromkeys((self.baseline,) + tuple(self.schemes)))

    def to_json(self) -> Dict[str, Any]:
        return {
            "apps": list(self.apps),
            "datasets": list(self.datasets),
            "schemes": list(self.schemes),
            "reorder": self.reorder,
            "baseline": self.baseline,
            "streaming": self.streaming,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SweepSpec":
        return cls(
            apps=tuple(data["apps"]),
            datasets=tuple(data["datasets"]),
            schemes=tuple(data["schemes"]),
            reorder=data.get("reorder"),
            baseline=data.get("baseline", "RRIP"),
            streaming=bool(data.get("streaming", False)),
        )


# The worker-side task body.  Module-level (picklable for the process
# backend); it installs the shared DiskMemo so results land in the
# content-addressed store, which is both the task's output channel and its
# completion marker.  It touches no other process state: the inline backend
# runs it in the caller's process.  Real results travel through the store,
# not the transport.

def _worker_setup(cache_dir: str, config: ExperimentConfig) -> None:
    """Initializer of every :class:`ProcessPoolBackend` worker process."""
    set_disk_memo(DiskMemo(Path(cache_dir)))
    if config.backend:
        set_default_backend(config.backend)


def exec_pair_task(
    cache_dir: str, app: str, dataset: str, spec: SweepSpec, config: ExperimentConfig
) -> None:
    """Compare the spec's schemes on one (app, dataset) pair into the store."""
    set_disk_memo(DiskMemo(Path(cache_dir)))
    compare_policies(
        (app,), (dataset,), spec.schemes, config=config, reorder=spec.reorder,
        baseline=spec.baseline, streaming=spec.streaming,
    )


def sweep_tasks(spec: SweepSpec, config: ExperimentConfig, cache_dir: Path | str) -> List[Task]:
    """One independent task per (app, dataset) pair of the sweep.

    A pair task completes into every scheme's ``policystream`` entry and
    the scope's budget-less ``llcstream`` summary, the entries a comparison
    reads; its id is the digest of those keys.  Every key carries the scope.
    """
    reorder = spec.resolved_reorder(config)
    streaming = spec.streaming
    tasks: Dict[str, Task] = {}
    for dataset in spec.datasets:
        for app in spec.apps:
            entries = tuple(
                ("policystream", policystream_memo_key(
                    app, dataset, reorder, scheme, config, streaming=streaming
                ))
                for scheme in spec.all_schemes()
            ) + (("llcstream", llcstream_summary_memo_key(
                app, dataset, reorder, config, streaming=streaming
            )),)
            task_id = key_digest(entries)
            tasks.setdefault(task_id, Task(
                task_id=task_id,
                fn=exec_pair_task,
                args=(str(cache_dir), app, dataset, spec, config),
                label=f"{app}/{dataset}",
                entries=entries,
            ))
    return list(tasks.values())


# ---------------------------------------------------------------------------
# completion stores
# ---------------------------------------------------------------------------

class InMemoryTaskStore:
    """Completion store for generic (non-memo) task sets — used by tests."""

    def __init__(self, done: Optional[Sequence[str]] = None) -> None:
        self.done = set(done or ())

    def is_done(self, task: Task) -> bool:
        return task.task_id in self.done

    def note_done(self, task: Task, value: Any) -> None:
        self.done.add(task.task_id)


class MemoTaskStore:
    """Completion store backed by the content-addressed DiskMemo.

    A task is done iff every one of its memo entries exists *and loads* —
    corrupt or truncated entries look incomplete, so schedulers recompute
    them just as the memoised serial runner would.  The check is
    :meth:`~repro.experiments.memo.DiskMemo.contains`, which unpickles a v4
    entry over a read-only mapping of its out-of-band buffers, so marking a
    warm sweep's tasks done never reads their arrays.  ``note_done`` is a
    no-op: the worker that executed the task already persisted the entries.
    """

    def __init__(self, memo: DiskMemo) -> None:
        self.memo = memo

    def is_done(self, task: Task) -> bool:
        return bool(task.entries) and all(
            self.memo.contains(kind, key) for kind, key in task.entries
        )

    def note_done(self, task: Task, value: Any) -> None:
        pass


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
BACKOFF = "backoff"
DONE = "done"
FAILED = "failed"


@dataclass
class TaskRecord:
    """Mutable scheduling state of one task."""

    task: Task
    status: str = QUEUED
    attempts: int = 0
    cached: bool = False
    not_before: float = 0.0
    error: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.task.task_id,
            "label": self.task.label,
            "status": self.status,
            "attempts": self.attempts,
            "cached": self.cached,
            "error": self.error,
        }


@dataclass
class SchedulerReport:
    """Counters and outcomes of one scheduler run."""

    executed: int = 0
    cached: int = 0
    retries: int = 0
    worker_deaths: int = 0
    task_errors: int = 0
    failed: List[str] = field(default_factory=list)
    events: List[FailureEvent] = field(default_factory=list)
    elapsed: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["events"] = [event.to_json() for event in self.events]
        return data


class SchedulerError(RuntimeError):
    """Raised on a malformed task set (a duplicate task id)."""


#: Seconds the scheduler sleeps after a pass that changed nothing.
TICK = 0.02


class Scheduler:
    """Scheduler of independent tasks over a :class:`WorkerBackend`.

    Single-threaded and poll-driven: each pass it releases due backoffs
    onto the FIFO ready queue, dispatches from its front while fewer than
    ``workers`` tasks are in flight, and drains backend outcomes.  The
    clock and sleep functions are injectable so tests drive it on a
    virtual clock; with the defaults it runs on wall time.

    Guarantees (the property-test surface):

    * a task that completed successfully is never dispatched again;
    * at most ``workers`` tasks are in flight, and a slot never stays free
      while the ready queue holds a task;
    * a task whose completion store already marks it done is never
      dispatched at all (resume / cross-client dedup);
    * worker deaths and transient errors retry with exponential backoff up
      to ``retry.max_attempts`` executions, after which the task fails
      alone, without taking the rest of the run down.

    There is no timeout: a task that never returns keeps its slot.
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        backend: WorkerBackend,
        workers: int,
        store: Optional[Any] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        on_event: Optional[Callable[[str, TaskRecord], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.records: Dict[str, TaskRecord] = {}
        for task in tasks:
            if task.task_id in self.records:
                raise SchedulerError(f"duplicate task id {task.task_id!r}")
            self.records[task.task_id] = TaskRecord(task=task)
        self.backend = backend
        self.workers = workers
        self.store = store if store is not None else InMemoryTaskStore()
        self.retry = retry or RetryPolicy()
        self.clock = clock
        self.sleep = sleep
        self.on_event = on_event
        self.ready: deque = deque()  #: tasks waiting for a slot, FIFO
        self.report = SchedulerReport()
        self._running: Dict[int, str] = {}  # handle -> task id

    # -- state transitions --------------------------------------------------

    def _emit(self, phase: str, record: TaskRecord) -> None:
        if self.on_event is not None:
            self.on_event(phase, record)

    def _complete(self, record: TaskRecord, cached: bool) -> None:
        record.status = DONE
        record.cached = cached
        if cached:
            self.report.cached += 1
        else:
            self.report.executed += 1
        self._emit("cached" if cached else "done", record)

    def _fail_attempt(self, record: TaskRecord, event: FailureEvent) -> None:
        self.report.events.append(event)
        if event.kind == WORKER_DIED:
            self.report.worker_deaths += 1
        else:
            self.report.task_errors += 1
        record.error = event.detail
        if record.attempts >= self.retry.max_attempts:
            record.status = FAILED
            self.report.failed.append(record.task.task_id)
            self._emit("failed", record)
            return
        record.status = BACKOFF
        record.not_before = self.clock() + self.retry.delay(record.attempts)
        self.report.retries += 1
        self._emit("retry", record)

    # -- the loop -----------------------------------------------------------

    def _unfinished(self) -> bool:
        return any(
            record.status not in (DONE, FAILED) for record in self.records.values()
        )

    def run(self) -> SchedulerReport:
        """Drive every task to completion; returns the run's counters."""
        started = self.clock()
        for record in self.records.values():
            if self.store.is_done(record.task):
                self._complete(record, cached=True)
            else:
                self.ready.append(record.task)
        self.backend.start(self.workers)
        try:
            while self._unfinished():
                progressed = False
                now = self.clock()
                # Release retries whose backoff elapsed.
                for record in self.records.values():
                    if record.status == BACKOFF and now >= record.not_before:
                        record.status = QUEUED
                        self.ready.append(record.task)
                        progressed = True
                # Fill free slots from the front of the ready queue.
                while self.ready and len(self._running) < self.workers:
                    task = self.ready.popleft()
                    record = self.records[task.task_id]
                    record.attempts += 1
                    record.status = RUNNING
                    handle = self.backend.submit(task, record.attempts)
                    self._running[handle] = task.task_id
                    self._emit("dispatch", record)
                    progressed = True
                # Drain completions.
                for outcome in self.backend.poll():
                    task_id = self._running.pop(outcome.handle)
                    record = self.records[task_id]
                    if outcome.status == TASK_OK:
                        self.store.note_done(record.task, outcome.value)
                        self._complete(record, cached=False)
                    else:
                        kind = WORKER_DIED if outcome.status == TASK_DIED else TASK_FAILED
                        self._fail_attempt(record, FailureEvent(
                            kind=kind,
                            task_id=task_id,
                            label=record.task.label,
                            attempt=record.attempts,
                            detail=outcome.error,
                        ))
                    progressed = True
                if not progressed:
                    self.sleep(TICK)
        finally:
            self.backend.close()
        self.report.elapsed = self.clock() - started
        return self.report


# ---------------------------------------------------------------------------
# config (de)serialization for the run manifest
# ---------------------------------------------------------------------------

def config_to_json(config: ExperimentConfig) -> Dict[str, Any]:
    """JSON form of an :class:`ExperimentConfig`, sufficient to resume a run."""
    return {
        "scale": config.scale,
        "seed": config.seed,
        "reorder": config.reorder,
        "merged_properties": config.merged_properties,
        "backend": config.backend,
        "chunk_accesses": config.chunk_accesses,
        "apps": list(config.apps),
        "high_skew_datasets": list(config.high_skew_datasets),
        "adversarial_datasets": list(config.adversarial_datasets),
        "hierarchy": {
            level: dataclasses.asdict(getattr(config.hierarchy, level))
            for level in ("l1", "l2", "llc")
        },
        "timing": dataclasses.asdict(config.timing),
    }


def config_from_json(data: Dict[str, Any]) -> ExperimentConfig:
    """Rebuild the exact config a manifest was written with."""
    hierarchy = HierarchyConfig(
        **{level: CacheConfig(**fields) for level, fields in data["hierarchy"].items()}
    )
    return ExperimentConfig(
        scale=data["scale"],
        hierarchy=hierarchy,
        seed=data["seed"],
        reorder=data["reorder"],
        apps=tuple(data["apps"]),
        high_skew_datasets=tuple(data["high_skew_datasets"]),
        adversarial_datasets=tuple(data["adversarial_datasets"]),
        timing=TimingModel(**data["timing"]),
        merged_properties=data["merged_properties"],
        backend=data["backend"],
        chunk_accesses=data["chunk_accesses"],
    )


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

def runs_root(cache_dir: Path | str) -> Path:
    """Directory holding run manifests under a cache root."""
    return Path(cache_dir) / "runs"


def manifest_path(cache_dir: Path | str, run_id: str) -> Path:
    return runs_root(cache_dir) / run_id / "manifest.json"


def sweep_plans(spec: SweepSpec, config: ExperimentConfig) -> Dict[str, ExecutionPlan]:
    """The plan each pair task of a sweep runs, keyed ``app/dataset``.

    One plan per (app, dataset) pair: the pair's schemes as the one unit a
    cold task runs them (:func:`~repro.experiments.runner.plan_pair_tasks`).
    Plans are computed from the experiment parameters and the current memo
    state alone (no workload is built), so a sweep writes them to its
    manifest before execution starts and ``repro plan explain`` prints them.
    """
    reorder = spec.resolved_reorder(config)
    return {
        f"{app}/{dataset}": plan_pair_tasks(
            app, dataset, reorder, spec.all_schemes(), config, streaming=spec.streaming
        )
        for dataset in spec.datasets
        for app in spec.apps
    }


def _write_manifest(
    path: Path,
    run_id: str,
    spec: SweepSpec,
    config: ExperimentConfig,
    plans: Dict[str, Any],
    workers: int,
    backend_name: str,
    status: str,
    scheduler: Scheduler,
    resumes: int,
) -> None:
    payload: Dict[str, Any] = {
        "run_id": run_id,
        "updated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "status": status,
        "resumes": resumes,
        "workers": workers,
        "worker_backend": backend_name,
        "spec": spec.to_json(),
        "config": config_to_json(config),
        "plans": plans,
        "counters": scheduler.report.to_json(),
        "events": [event.to_json() for event in scheduler.report.events],
        "tasks": [record.to_json() for record in scheduler.records.values()],
    }
    payload["counters"].pop("events")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, path)


def load_manifest(cache_dir: Path | str, run_id: str) -> Dict[str, Any]:
    """Load a run manifest (raises ``FileNotFoundError`` for unknown runs)."""
    return json.loads(manifest_path(cache_dir, run_id).read_text())


# ---------------------------------------------------------------------------
# the service entry points
# ---------------------------------------------------------------------------

class SweepError(RuntimeError):
    """A sweep finished with permanently failed tasks."""

    def __init__(self, run_id: str, manifest: Path, failed: Sequence[str]) -> None:
        super().__init__(
            f"sweep {run_id} failed: {len(failed)} task(s) exhausted retries "
            f"(manifest: {manifest})"
        )
        self.run_id = run_id
        self.manifest = manifest
        self.failed = list(failed)


@dataclass
class SweepResult:
    """Everything a sweep run produced."""

    run_id: str
    points: List[DataPoint]
    report: SchedulerReport
    manifest: Path
    spec: SweepSpec
    config: ExperimentConfig


def _default_workers(num_tasks: int, workers: Optional[int]) -> int:
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
        else:
            workers = os.cpu_count() or 1
    return max(1, min(workers, max(1, num_tasks)))


def _make_backend(
    worker_backend: WorkerBackend | str,
    cache_root: Path,
    config: ExperimentConfig,
) -> WorkerBackend:
    if isinstance(worker_backend, WorkerBackend):
        return worker_backend
    if worker_backend == "inline":
        return InlineBackend()
    if worker_backend == "process":
        return ProcessPoolBackend(
            initializer=_worker_setup,
            initargs=(str(cache_root), config),
        )
    raise ValueError(
        f"unknown worker backend {worker_backend!r}; expected 'inline', 'process' "
        "or a WorkerBackend instance"
    )


def run_sweep(
    spec: SweepSpec,
    config: Optional[ExperimentConfig] = None,
    cache_dir: Optional[Path | str] = None,
    workers: Optional[int] = None,
    worker_backend: WorkerBackend | str = "process",
    run_id: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    on_event: Optional[Callable[[str, TaskRecord], None]] = None,
    _resumes: int = 0,
) -> SweepResult:
    """Run one sweep through the fault-tolerant scheduler.

    Requires a cache directory (argument or ``REPRO_CACHE_DIR``): the
    content-addressed store is the service's result channel, completion
    marker and dedup point.  Raises :class:`SweepError` when tasks exhaust
    their retries; any other scheduling turbulence (worker deaths, transient
    errors, corrupt store entries) is absorbed and reported in the manifest
    without affecting the returned :class:`DataPoint` values.  A task that
    hangs hangs the sweep; after an interrupt, :func:`resume_sweep` re-runs
    only the tasks whose entries are missing.  Each (app, dataset) pair is
    one task (:func:`sweep_tasks`), and the pairs are planned once, for the
    manifest.
    """
    config = config or ExperimentConfig.default()
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if root is None:
        raise ValueError(
            "run_sweep needs a cache directory (cache_dir= or REPRO_CACHE_DIR): "
            "the on-disk memo store is where task results live"
        )
    memo = DiskMemo(root)
    set_disk_memo(memo)
    run_id = run_id or f"{time.strftime('%Y%m%d-%H%M%S')}-{uuid.uuid4().hex[:8]}"
    tasks = sweep_tasks(spec, config, root)
    worker_count = _default_workers(len(tasks), workers)
    backend = _make_backend(worker_backend, root, config)
    scheduler = Scheduler(
        tasks,
        backend,
        worker_count,
        store=MemoTaskStore(memo),
        retry=retry,
        on_event=on_event,
    )
    path = manifest_path(root, run_id)
    plans = {key: plan.to_json() for key, plan in sweep_plans(spec, config).items()}
    # Written before execution so a hard-killed run is still resumable.
    _write_manifest(
        path, run_id, spec, config, plans, worker_count, backend.name, "running",
        scheduler, _resumes,
    )
    status = "interrupted"
    try:
        scheduler.run()
        status = "failed" if scheduler.report.failed else "completed"
    finally:
        _write_manifest(
            path, run_id, spec, config, plans, worker_count, backend.name, status,
            scheduler, _resumes,
        )
    if scheduler.report.failed:
        raise SweepError(run_id, path, scheduler.report.failed)
    points = compare_policies(
        spec.apps,
        spec.datasets,
        spec.schemes,
        config=config,
        reorder=spec.reorder,
        baseline=spec.baseline,
        streaming=spec.streaming,
    )
    return SweepResult(
        run_id=run_id,
        points=points,
        report=scheduler.report,
        manifest=path,
        spec=spec,
        config=config,
    )


def resume_sweep(
    run_id: str,
    cache_dir: Optional[Path | str] = None,
    **overrides: Any,
) -> SweepResult:
    """Resume a sweep from its manifest.

    Rebuilds the pair tasks from the recorded spec/config; every task whose
    memo entries all exist is served as a cache hit, so only incomplete (or
    corrupt) tasks execute.  Runtime knobs (``workers``,
    ``worker_backend``, ``retry``, ...) may be overridden — they cannot
    change results, only scheduling.
    """
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if root is None:
        raise ValueError("resume_sweep needs a cache directory (cache_dir= or REPRO_CACHE_DIR)")
    manifest = load_manifest(root, run_id)
    spec = SweepSpec.from_json(manifest["spec"])
    config = config_from_json(manifest["config"])
    overrides.setdefault("workers", manifest.get("workers"))
    return run_sweep(
        spec,
        config=config,
        cache_dir=root,
        run_id=run_id,
        _resumes=int(manifest.get("resumes", 0)) + 1,
        **overrides,
    )


__all__ = [
    "InMemoryTaskStore",
    "MemoTaskStore",
    "Scheduler",
    "SchedulerError",
    "SchedulerReport",
    "SweepError",
    "SweepResult",
    "SweepSpec",
    "TaskRecord",
    "config_from_json",
    "config_to_json",
    "load_manifest",
    "manifest_path",
    "resume_sweep",
    "run_sweep",
    "runs_root",
    "sweep_plans",
    "sweep_tasks",
]
