"""Fault-tolerant sweep service on one host.

:func:`run_sweep` decomposes a :func:`~repro.experiments.runner.compare_policies`
sweep into a task DAG —

    workload-build  →  L1/L2 filter  →  per-scheme LLC replay
    (per app/dataset pair)  (per pair)     (per pair × scheme)

— and drives it through a dependency-aware :class:`Scheduler` over a
:class:`~repro.experiments.queue.WorkerBackend` (in-process ``inline``, or
``process`` on one host's :class:`~concurrent.futures.ProcessPoolExecutor`).
The scheduler keeps one FIFO ready queue and runs at most ``workers`` tasks
at once; a worker death (a broken pool) or a transient error is retried
with exponential backoff.  A task that hangs hangs the sweep: interrupt it
and ``--resume``, which re-runs only the tasks whose entries are missing.

**Tasks are content-addressed by their memo entry.**  A task's id is the
digest of its :mod:`repro.experiments.memo` key (the entry's filename stem),
and a task *is complete* exactly when a readable entry exists in the shared
:class:`~repro.experiments.memo.DiskMemo` store.  Three properties fall out:

* **resume** — ``repro sweep --resume RUN_ID`` rebuilds the DAG and only
  executes tasks whose entries are missing (or unreadable);
* **cross-client dedup** — overlapping sweeps from concurrent clients
  converge on the same entries, so work done by one client is a cache hit
  for every other;
* **invisibility** — results are *assembled* by the ordinary serial runner
  reading the store, so any task order, any worker count, and any failure
  pattern produce bit-identical :class:`~repro.experiments.runner.DataPoint`
  sequences.  Scheduling can only change how fast the numbers arrive, never
  the numbers.

Every run writes a JSON manifest (``<cache_dir>/runs/<run_id>/manifest.json``)
recording the spec, per-task status/attempt history and every
:class:`~repro.experiments.queue.FailureEvent`, and the manifest is written
*before* execution starts so a hard-killed run remains resumable.
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
    build_workload,
    compare_policies,
    llc_chunks,
    llcstream_memo_key,
    plan_pair_tasks,
    policystream_memo_key,
    set_disk_memo,
    simulate_scheme,
    workload_memo_key,
)
from repro.fastsim.dispatch import set_default_backend
from repro.perf.timing import TimingModel


# ---------------------------------------------------------------------------
# sweep specification and task-DAG construction
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


# Worker-side task bodies.  Module-level (picklable for the process backend);
# each installs the shared DiskMemo so results land in the content-addressed
# store, which is both the task's output channel and its completion marker.
# They touch no other process state: the inline backend runs them in the
# caller's process.  Values returned to the scheduler are deliberately tiny —
# real results travel through the store, not the transport.

def _worker_setup(cache_dir: str, config: ExperimentConfig) -> None:
    """Initializer of every :class:`ProcessPoolBackend` worker process."""
    set_disk_memo(DiskMemo(Path(cache_dir)))
    if config.backend:
        set_default_backend(config.backend)


def exec_workload_task(
    cache_dir: str, app: str, dataset: str, reorder: str, config: ExperimentConfig
) -> str:
    """Build (and persist) one workload."""
    set_disk_memo(DiskMemo(Path(cache_dir)))
    build_workload(app, dataset, reorder=reorder, config=config)
    return "workload"


def exec_filter_task(
    cache_dir: str, app: str, dataset: str, reorder: str,
    config: ExperimentConfig, streaming: bool = False,
) -> str:
    """Filter one workload's scope through L1/L2 and store the result.

    Draining :func:`~repro.experiments.runner.llc_chunks` persists every
    ``llcchunk`` entry of the scope's stream, then its ``llcstream``
    manifest (the task's entry) and summary; per-chunk entries already in
    the store are served, not recomputed, so a retried or resumed filter
    task only pays for the missing tail.
    """
    set_disk_memo(DiskMemo(Path(cache_dir)))
    workload = build_workload(app, dataset, reorder=reorder, config=config)
    for _ in llc_chunks(workload, config, streaming):
        pass
    return "llcstream"


def exec_scheme_task(
    cache_dir: str, app: str, dataset: str, reorder: str,
    config: ExperimentConfig, scheme: str, streaming: bool = False,
) -> str:
    """Replay one scheme over one pair's stored filtered stream."""
    set_disk_memo(DiskMemo(Path(cache_dir)))
    workload = build_workload(app, dataset, reorder=reorder, config=config)
    simulate_scheme(workload, scheme, config, streaming=streaming)
    return "policystream"


def sweep_tasks(spec: SweepSpec, config: ExperimentConfig, cache_dir: Path | str) -> List[Task]:
    """Decompose a sweep into its content-addressed task DAG.

    The filter task completes into its scope's stream manifest, the entry
    it stores and the one the planner probes; each scheme task into its
    ``policystream`` entry.  Both keys carry the scope.
    """
    reorder = spec.resolved_reorder(config)
    cache = str(cache_dir)
    streaming = spec.streaming
    tasks: Dict[str, Task] = {}
    for dataset in spec.datasets:
        for app in spec.apps:
            pair_args = (cache, app, dataset, reorder, config)
            workload_key = workload_memo_key(app, dataset, reorder, config)
            workload_id = key_digest(workload_key)
            tasks.setdefault(workload_id, Task(
                task_id=workload_id,
                fn=exec_workload_task,
                args=pair_args,
                kind="workload",
                label=f"workload {app}/{dataset}",
                store_key=workload_key,
            ))
            filter_key = llcstream_memo_key(app, dataset, reorder, config, streaming=streaming)
            filter_id = key_digest(filter_key)
            tasks.setdefault(filter_id, Task(
                task_id=filter_id,
                fn=exec_filter_task,
                args=pair_args + (streaming,),
                deps=(workload_id,),
                kind="llcstream",
                label=f"filter {app}/{dataset}",
                store_key=filter_key,
            ))
            for scheme in spec.all_schemes():
                scheme_key = policystream_memo_key(
                    app, dataset, reorder, scheme, config, streaming=streaming
                )
                scheme_id = key_digest(scheme_key)
                tasks.setdefault(scheme_id, Task(
                    task_id=scheme_id,
                    fn=exec_scheme_task,
                    args=pair_args + (scheme, streaming),
                    deps=(filter_id,),
                    kind="policystream",
                    label=f"{scheme} {app}/{dataset}",
                    store_key=scheme_key,
                ))
    return list(tasks.values())


# ---------------------------------------------------------------------------
# completion stores
# ---------------------------------------------------------------------------

class InMemoryTaskStore:
    """Completion store for generic (non-memo) task graphs — used by tests."""

    def __init__(self, done: Optional[Sequence[str]] = None) -> None:
        self.done = set(done or ())

    def is_done(self, task: Task) -> bool:
        return task.task_id in self.done

    def note_done(self, task: Task, value: Any) -> None:
        self.done.add(task.task_id)


class MemoTaskStore:
    """Completion store backed by the content-addressed DiskMemo.

    A task is done iff its memo entry exists *and loads* — corrupt or
    truncated entries look incomplete, so schedulers recompute them just as
    the memoised serial runner would.  The check is
    :meth:`~repro.experiments.memo.DiskMemo.contains`, which unpickles a v4
    entry over a read-only mapping of its out-of-band buffers, so marking a
    warm sweep's tasks done never reads their arrays.  ``note_done`` is a
    no-op: the worker that executed the task already persisted the entry.
    """

    def __init__(self, memo: DiskMemo) -> None:
        self.memo = memo

    def is_done(self, task: Task) -> bool:
        if task.store_key is None:
            return False
        return self.memo.contains(task.kind, task.store_key)

    def note_done(self, task: Task, value: Any) -> None:
        pass


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------

WAITING = "waiting"
QUEUED = "queued"
RUNNING = "running"
BACKOFF = "backoff"
DONE = "done"
FAILED = "failed"


@dataclass
class TaskRecord:
    """Mutable scheduling state of one task."""

    task: Task
    status: str = WAITING
    attempts: int = 0
    cached: bool = False
    not_before: float = 0.0
    error: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.task.task_id,
            "kind": self.task.kind,
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
    """Raised on malformed task graphs (cycles, unknown dependencies)."""


#: Seconds the scheduler sleeps after a pass that changed nothing.
TICK = 0.02


class Scheduler:
    """Dependency-aware task scheduler over a :class:`WorkerBackend`.

    Single-threaded and poll-driven: each pass it releases due backoffs
    onto the FIFO ready queue, dispatches from its front while fewer than
    ``workers`` tasks are in flight, and drains backend outcomes.  The
    clock and sleep functions are injectable so tests drive it on a
    virtual clock; with the defaults it runs on wall time.

    Guarantees (the property-test surface):

    * a task is dispatched only after all its dependencies completed;
    * a task that completed successfully is never dispatched again;
    * at most ``workers`` tasks are in flight, and a slot never stays free
      while the ready queue holds a task;
    * a task whose completion store already marks it done is never
      dispatched at all (resume / cross-client dedup);
    * worker deaths and transient errors retry with exponential backoff up
      to ``retry.max_attempts`` executions, after which the task — and
      transitively its dependents — fail without taking the rest of the
      run down.

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
        self._check_graph()
        self.backend = backend
        self.workers = workers
        self.store = store if store is not None else InMemoryTaskStore()
        self.retry = retry or RetryPolicy()
        self.clock = clock
        self.sleep = sleep
        self.on_event = on_event
        self.ready: deque = deque()  #: tasks whose dependencies are done, FIFO
        self.report = SchedulerReport()
        self._running: Dict[int, str] = {}  # handle -> task id

    def _check_graph(self) -> None:
        """Build ``_dependents``, rejecting unknown dependencies and cycles.

        Kahn's algorithm over the dependents lists: O(V + E).
        """
        self._dependents: Dict[str, List[str]] = {tid: [] for tid in self.records}
        indegree = {}
        for tid, record in self.records.items():
            deps = dict.fromkeys(record.task.deps)
            for dep in deps:
                if dep not in self.records:
                    raise SchedulerError(f"task {tid!r} depends on unknown task {dep!r}")
                self._dependents[dep].append(tid)
            indegree[tid] = len(deps)
        frontier = [tid for tid, degree in indegree.items() if degree == 0]
        seen = 0
        while frontier:
            tid = frontier.pop()
            seen += 1
            for dependent in self._dependents[tid]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    frontier.append(dependent)
        if seen != len(self.records):
            raise SchedulerError("task graph contains a cycle")

    # -- state transitions --------------------------------------------------

    def _emit(self, phase: str, record: TaskRecord) -> None:
        if self.on_event is not None:
            self.on_event(phase, record)

    def _deps_done(self, record: TaskRecord) -> bool:
        return all(self.records[dep].status == DONE for dep in record.task.deps)

    def _enqueue_if_ready(self, record: TaskRecord) -> None:
        if record.status == WAITING and self._deps_done(record):
            record.status = QUEUED
            self.ready.append(record.task)

    def _complete(self, record: TaskRecord, cached: bool) -> None:
        record.status = DONE
        record.cached = cached
        if cached:
            self.report.cached += 1
        else:
            self.report.executed += 1
        self._emit("cached" if cached else "done", record)
        for dependent in self._dependents[record.task.task_id]:
            self._enqueue_if_ready(self.records[dependent])

    def _fail_dependents(self, record: TaskRecord) -> None:
        for dependent_id in self._dependents[record.task.task_id]:
            dependent = self.records[dependent_id]
            if dependent.status in (DONE, FAILED):
                continue
            dependent.status = FAILED
            dependent.error = f"dependency failed: {record.task.label or record.task.task_id}"
            self.report.failed.append(dependent_id)
            self._emit("failed", dependent)
            self._fail_dependents(dependent)

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
            self._fail_dependents(record)
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
        """Drive the graph to completion; returns the run's counters."""
        started = self.clock()
        for record in self.records.values():
            if self.store.is_done(record.task):
                record.status = DONE
                record.cached = True
                self.report.cached += 1
                self._emit("cached", record)
        for record in self.records.values():
            self._enqueue_if_ready(record)
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
                    if not self._running and not self.ready and not any(
                        record.status == BACKOFF for record in self.records.values()
                    ):
                        stuck = [
                            record.task.task_id
                            for record in self.records.values()
                            if record.status not in (DONE, FAILED)
                        ]
                        raise SchedulerError(f"scheduler stalled with tasks {stuck!r}")
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


def sweep_plans(spec: SweepSpec, config: ExperimentConfig) -> Dict[str, Any]:
    """Execution plans for every simulated task of a sweep, manifest-ready.

    One :meth:`~repro.fastsim.plan.ExecutionPlan.to_json` entry per
    (app, dataset, scheme) replay task, keyed ``app/dataset/scheme``.
    Plans are computed from the experiment parameters and the current memo
    state alone (no workload is built), so they can be written before
    execution starts — the same planning the workers will do when the
    tasks actually run.
    """
    reorder = spec.resolved_reorder(config)
    plans: Dict[str, Any] = {}
    for dataset in spec.datasets:
        for app in spec.apps:
            pair = plan_pair_tasks(
                app, dataset, reorder, spec.all_schemes(), config, streaming=spec.streaming
            )
            for scheme, plan in pair.items():
                plans[f"{app}/{dataset}/{scheme}"] = plan.to_json()
    return plans


def _write_manifest(
    path: Path,
    run_id: str,
    spec: SweepSpec,
    config: ExperimentConfig,
    workers: int,
    backend_name: str,
    status: str,
    scheduler: Optional[Scheduler] = None,
    resumes: int = 0,
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
        "plans": sweep_plans(spec, config),
    }
    if scheduler is not None:
        payload["counters"] = scheduler.report.to_json()
        payload["counters"].pop("events", None)
        payload["events"] = [event.to_json() for event in scheduler.report.events]
        payload["tasks"] = [record.to_json() for record in scheduler.records.values()]
    else:
        payload["counters"] = {}
        payload["events"] = []
        payload["tasks"] = []
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
    only the tasks whose entries are missing.
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
    # Written before execution so a hard-killed run is still resumable.
    _write_manifest(
        path, run_id, spec, config, worker_count, backend.name, "running",
        scheduler, resumes=_resumes,
    )
    status = "interrupted"
    try:
        scheduler.run()
        status = "failed" if scheduler.report.failed else "completed"
    finally:
        _write_manifest(
            path, run_id, spec, config, worker_count, backend.name, status,
            scheduler, resumes=_resumes,
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

    Rebuilds the task DAG from the recorded spec/config; every task whose
    memo entry already exists is served as a cache hit, so only incomplete
    (or corrupt) tasks execute.  Runtime knobs (``workers``,
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
