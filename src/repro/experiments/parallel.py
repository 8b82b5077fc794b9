"""Process-parallel experiment runner.

:func:`compare_policies_parallel` is a drop-in replacement for
:func:`repro.experiments.runner.compare_policies` that shards the independent
(app, dataset) pairs of a comparison across worker processes.  Each pair is a
self-contained unit of work — workload construction, L1/L2 filtering and every
scheme's LLC replay — so workers need no coordination beyond the optional
on-disk memo store (:mod:`repro.experiments.memo`), which is installed in
every worker so that

* shards of one invocation share built workloads and filtered traces with
  later invocations, and
* separate figure/table drivers (Figs. 5-11, Tables 1-7) reuse each other's
  runs across processes, exactly as the in-memory memo does within one.

Results are returned in the same (dataset, app, scheme) order as the serial
runner, with identical values: parallelism, like the vectorized backend, only
changes how fast the numbers are obtained.  When process pools are
unavailable (restricted sandboxes) or not worth it (a single pair), the
function transparently falls back to the serial path.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.memo import CACHE_DIR_ENV_VAR, DiskMemo, default_cache_dir
from repro.experiments.queue import POOL_BROKEN, FailureEvent, WorkerPoolBrokenWarning
from repro.experiments.runner import DataPoint, compare_policies, set_disk_memo
from repro.fastsim.dispatch import set_default_backend
from repro.fastsim.kernels import THREADS_ENV_VAR

#: Environment variable capping the worker count (0 or 1 forces serial).
WORKERS_ENV_VAR = "REPRO_WORKERS"

_PairTask = Tuple[
    str, str, Tuple[str, ...], ExperimentConfig, Optional[str], str, Optional[str], bool
]


def _init_worker(cache_dir: Optional[str], backend: Optional[str]) -> None:
    """Configure one worker process: disk memo plus simulation backend.

    Process-level parallelism takes precedence over the fused pipeline's
    set-shard threading: with one worker per core, letting every worker also
    spawn ``REPRO_THREADS`` filter threads would oversubscribe the machine,
    so workers run the fused kernels single-threaded (results are
    thread-count-invariant — this only affects scheduling).
    """
    os.environ[THREADS_ENV_VAR] = "1"
    if cache_dir:
        set_disk_memo(DiskMemo(Path(cache_dir)))
    if backend:
        set_default_backend(backend)


def _simulate_pair(task: _PairTask) -> List[DataPoint]:
    """Run all schemes of one (app, dataset) pair (executed in a worker)."""
    app_name, dataset_name, schemes, config, reorder, baseline, cache_dir, streaming = task
    if cache_dir:
        # Covers the fork start method, where _init_worker state is inherited
        # but a worker may be reused across pools with different cache dirs.
        set_disk_memo(DiskMemo(Path(cache_dir)))
    return compare_policies(
        [app_name], [dataset_name], list(schemes), config=config, reorder=reorder,
        baseline=baseline, streaming=streaming,
    )


def _worker_budget(num_pairs: int, max_workers: Optional[int]) -> int:
    if max_workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if env:
            try:
                max_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            max_workers = os.cpu_count() or 1
    return max(0, min(max_workers, num_pairs))


def compare_policies_parallel(
    app_names: Sequence[str],
    dataset_names: Sequence[str],
    schemes: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    reorder: Optional[str] = None,
    baseline: str = "RRIP",
    max_workers: Optional[int] = None,
    cache_dir: Optional[Path | str] = None,
    streaming: bool = False,
) -> List[DataPoint]:
    """Parallel :func:`~repro.experiments.runner.compare_policies`.

    Parameters mirror the serial function, plus:

    max_workers:
        Process count; defaults to ``REPRO_WORKERS`` or the CPU count,
        clamped to the number of (app, dataset) pairs.  Values below 2 run
        serially in-process.
    cache_dir:
        Root of the on-disk memo store shared by the workers (and installed
        in this process, so the parent reuses worker results on later calls).
        Defaults to ``REPRO_CACHE_DIR``; without either, workers still run in
        parallel but share nothing across invocations.
    streaming:
        Compare over the full execution, streamed chunk by chunk, instead of
        the ROI iteration (the serial function's ``streaming`` flag).  Each
        worker's peak memory is bounded by the config's chunk budget, and
        with a shared ``cache_dir`` the workers' per-chunk LLC streams
        (``llcchunk`` / ``llcstream`` entries) are reused across schemes and
        invocations.
    """
    config = config or ExperimentConfig.default()
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if root is not None:
        set_disk_memo(DiskMemo(root))

    def serial() -> List[DataPoint]:
        return compare_policies(
            app_names, dataset_names, schemes, config=config, reorder=reorder,
            baseline=baseline, streaming=streaming,
        )

    pairs = [(app, dataset) for dataset in dataset_names for app in app_names]
    workers = _worker_budget(len(pairs), max_workers)
    if workers < 2 or len(pairs) < 2:
        return serial()

    tasks: List[_PairTask] = [
        (app, dataset, tuple(schemes), config, reorder, baseline,
         str(root) if root is not None else None, streaming)
        for app, dataset in pairs
    ]
    failed_pair: Optional[Tuple[str, str]] = None
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(str(root) if root is not None else None, config.backend),
        ) as pool:
            # One future per pair (rather than pool.map) so that when the
            # pool dies we know exactly which pair's result was lost.
            futures = [pool.submit(_simulate_pair, task) for task in tasks]
            chunks = []
            for (app, dataset), future in zip(pairs, futures):
                failed_pair = (app, dataset)
                chunks.append(future.result())
            failed_pair = None
    except (OSError, BrokenProcessPool) as error:
        # Process pools can be unavailable (sandboxes) or die mid-flight; the
        # serial path always works and reuses whatever reached the memo.  The
        # fallback is *not* silent: the same structured FailureEvent the
        # sweep service records in its run manifest is surfaced as a warning
        # naming the pair whose result was lost.
        event = FailureEvent(
            kind=POOL_BROKEN,
            label=(
                f"{failed_pair[0]}/{failed_pair[1]}" if failed_pair is not None else "<pool start>"
            ),
            detail=f"{type(error).__name__}: {error}; falling back to the serial runner",
        )
        warnings.warn(WorkerPoolBrokenWarning(event), stacklevel=2)
        return serial()
    return [point for chunk in chunks for point in chunk]


__all__ = [
    "CACHE_DIR_ENV_VAR",
    "DiskMemo",
    "WORKERS_ENV_VAR",
    "WorkerPoolBrokenWarning",
    "compare_policies_parallel",
]
