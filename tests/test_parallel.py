"""Tests for the parallel runner (the sweep service's process pool) and the
on-disk memo store."""

import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.queue as queue_module
import repro.fastsim.dispatch as dispatch
from repro.experiments import (
    ExperimentConfig,
    RetryPolicy,
    SweepSpec,
    clear_caches,
    compare_policies,
    run_sweep,
)
from repro.experiments.memo import DiskMemo, MEMO_VERSION, default_cache_dir
from repro.experiments.queue import WORKER_DIED, ProcessPoolBackend, Task
from repro.experiments.runner import active_disk_memo, build_workload, set_disk_memo
from repro.experiments.schemes import scheme_policy
from repro.experiments.service import DONE, Scheduler, _default_workers
from repro.fastsim import kernels


def _exit_on_first_attempt(marker: str) -> str:
    """Kill the worker process the first time; return once ``marker`` exists."""
    path = Path(marker)
    if not path.exists():
        path.touch()
        os._exit(1)
    return "survived"


@pytest.fixture(autouse=True)
def _isolated_memo_state():
    """Keep the module-level disk-memo singleton from leaking across tests."""
    clear_caches()
    yield
    set_disk_memo(None)
    clear_caches()


def _points_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.app_name, a.dataset_name, a.scheme) == (b.app_name, b.dataset_name, b.scheme)
        assert a.stats.hits == b.stats.hits
        assert a.stats.misses == b.stats.misses
        assert a.stats.evictions == b.stats.evictions
        assert a.cycles == pytest.approx(b.cycles)
        assert a.miss_reduction_pct == pytest.approx(b.miss_reduction_pct)
        assert a.speedup_pct == pytest.approx(b.speedup_pct)


class TestDiskMemo:
    def test_roundtrip_and_miss(self, tmp_path):
        memo = DiskMemo(tmp_path)
        key = ("PR", "lj", "dbg", 0.12, 42, True)
        assert memo.get("workload", key) is None
        memo.put("workload", key, {"payload": np.arange(4)})
        loaded = memo.get("workload", key)
        assert np.array_equal(loaded["payload"], np.arange(4))
        assert memo.entry_count("workload") == 1
        assert memo.entry_count() == 1

    def test_versioned_layout(self, tmp_path):
        memo = DiskMemo(tmp_path)
        memo.put("policystream", ("k",), 1)
        assert (tmp_path / f"v{MEMO_VERSION}" / "policystream").is_dir()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        memo = DiskMemo(tmp_path)
        key = ("corrupt",)
        memo.put("llcchunk", key, [1, 2, 3])
        memo.path_for("llcchunk", key).write_bytes(b"not a pickle")
        assert memo.get("llcchunk", key) is None

    def test_distinct_keys_distinct_paths(self, tmp_path):
        memo = DiskMemo(tmp_path)
        assert memo.path_for("policystream", ("a",)) != memo.path_for("policystream", ("b",))
        assert memo.path_for("policystream", ("a",)) != memo.path_for("workload", ("a",))

    def test_default_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path


class TestRunnerDiskIntegration:
    def test_workload_served_from_disk(self, tmp_path):
        config = ExperimentConfig.smoke()
        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        first = build_workload("PR", "lj", config=config)
        assert memo.entry_count("workload") == 1
        clear_caches()  # drop in-memory table; disk copy must satisfy the rebuild
        second = build_workload("PR", "lj", config=config)
        assert first is not second
        assert first.key == second.key
        assert np.array_equal(first.roi.frontier, second.roi.frontier)

    def test_env_var_resolution(self, monkeypatch, tmp_path):
        import repro.experiments.runner as runner_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(runner_module, "_DISK_MEMO", None)
        monkeypatch.setattr(runner_module, "_DISK_MEMO_RESOLVED", False)
        memo = active_disk_memo()
        assert memo is not None
        assert str(memo.root).startswith(str(tmp_path))

    def test_disabled_by_default(self, monkeypatch):
        import repro.experiments.runner as runner_module

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setattr(runner_module, "_DISK_MEMO", None)
        monkeypatch.setattr(runner_module, "_DISK_MEMO_RESOLVED", False)
        assert active_disk_memo() is None


class TestParallelRunner:
    """``run_sweep`` on its real process pool, PR x {lj, pl} x {RRIP, GRASP}.

    A sweep's points are assembled by the serial runner reading the store
    the workers filled, so the sweep tests compare them against a serial run
    made beforehand, without any disk store.
    """

    SPEC = SweepSpec(apps=("PR",), datasets=("lj", "pl"), schemes=("RRIP", "GRASP"))

    def _serial(self, config, streaming=False):
        return compare_policies(
            self.SPEC.apps, self.SPEC.datasets, self.SPEC.schemes,
            config=config, streaming=streaming,
        )

    def _sweep(self, config, cache_dir, spec=None, **kwargs):
        # A fresh "invocation": cold in-memory tables, only the disk store.
        clear_caches()
        set_disk_memo(None)
        return run_sweep(
            spec or self.SPEC, config, cache_dir=cache_dir,
            workers=2, worker_backend="process", **kwargs,
        )

    def test_matches_serial_results_and_order(self, tmp_path):
        config = ExperimentConfig.smoke()
        serial = self._serial(config)
        result = self._sweep(config, tmp_path / "memo")
        _points_equal(serial, result.points)

    def test_disk_reuse_across_invocations(self, tmp_path):
        config = ExperimentConfig.smoke().with_overrides(backend="vector")
        cache_dir = tmp_path / "memo"
        serial = self._serial(config)
        first = self._sweep(config, cache_dir)
        pairs = len(self.SPEC.apps) * len(self.SPEC.datasets)
        assert first.report.executed == pairs  # one task per pair
        memo = DiskMemo(cache_dir)
        assert memo.entry_count("workload") == pairs
        # Each pair task stores its schemes' stats and the scope's summary;
        # its fused pass stores no filtered chunk and no stream manifest.
        assert memo.entry_count("policystream") == pairs * len(self.SPEC.schemes)
        if kernels.has_capability("fused:filter"):
            assert memo.entry_count("llcchunk") == 0
            assert memo.entry_count("llcstream") == pairs
        again = self._sweep(config, cache_dir)
        assert again.report.executed == 0
        assert again.report.cached == pairs
        _points_equal(serial, again.points)

    def test_streaming_matches_serial_streaming(self, tmp_path):
        config = ExperimentConfig.smoke().with_overrides(
            chunk_accesses=1 << 12, backend="vector"
        )
        serial = self._serial(config, streaming=True)
        cache_dir = tmp_path / "memo"
        spec = SweepSpec(
            apps=self.SPEC.apps, datasets=self.SPEC.datasets,
            schemes=self.SPEC.schemes, streaming=True,
        )
        result = self._sweep(config, cache_dir, spec=spec)
        _points_equal(serial, result.points)
        # The workers persisted each pair's full-execution summary and
        # per-scheme results, for reuse across invocations.
        memo = DiskMemo(cache_dir)
        pairs = len(self.SPEC.apps) * len(self.SPEC.datasets)
        assert memo.entry_count("policystream") == pairs * len(self.SPEC.schemes)
        if kernels.has_capability("fused:filter"):
            assert memo.entry_count("llcchunk") == 0
            assert memo.entry_count("llcstream") == pairs

    def test_single_consumer_stream_skips_chunk_store(self, tmp_path):
        """A lone policy replay takes the fused route on either scope: no
        chunk store, only the scope's budget-less counter summary."""
        from repro.experiments.runner import simulate_policy, simulate_scheme

        config = ExperimentConfig.smoke().with_overrides(backend="vector")
        policy = scheme_policy("GRASP")
        if not kernels.has_capability("fused:filter"):
            pytest.skip("no fused kernel available")
        memo = DiskMemo(tmp_path / "memo")
        set_disk_memo(memo)
        workload = build_workload("PR", "lj", config=config)
        simulate_policy(workload, policy, config, streaming=True)
        assert memo.entry_count("llcchunk") == 0
        assert memo.entry_count("llcstream") == 1
        simulate_scheme(workload, "GRASP", config)
        assert memo.entry_count("llcchunk") == 0
        assert memo.entry_count("llcstream") == 2

    def test_dead_pool_is_restarted_and_retried(self, tmp_path, monkeypatch):
        """Every future of the first pool dies; the backend makes a second
        pool and the scheduler retries what the first one lost."""
        pools = []

        class _DeadPool:
            def submit(self, *args, **kwargs):
                future = Future()
                future.set_exception(BrokenProcessPool("injected pool death"))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        def make_pool(**kwargs):
            pool = ProcessPoolExecutor(**kwargs) if pools else _DeadPool()
            pools.append(pool)
            return pool

        monkeypatch.setattr(queue_module, "ProcessPoolExecutor", make_pool)
        config = ExperimentConfig.smoke()
        serial = self._serial(config)
        result = self._sweep(config, tmp_path / "memo", retry=RetryPolicy(base_delay=0.0))
        _points_equal(serial, result.points)
        assert len(pools) == 2
        # Both pair tasks went to the first pool, and both died with it.
        assert result.report.worker_deaths == len(self.SPEC.datasets)
        assert result.report.retries == result.report.worker_deaths
        assert result.report.events
        assert all(event.kind == WORKER_DIED for event in result.report.events)

    def test_real_worker_death_is_retried_in_a_fresh_pool(self, tmp_path):
        """A worker process that exits mid-task breaks the real pool; the
        backend reports the death, and the retry runs in a new pool."""
        task = Task(
            task_id="dies-once", fn=_exit_on_first_attempt, args=(str(tmp_path / "died"),)
        )
        scheduler = Scheduler(
            [task], ProcessPoolBackend(), workers=1, retry=RetryPolicy(base_delay=0.0)
        )
        report = scheduler.run()
        assert [event.kind for event in report.events] == [WORKER_DIED]
        assert report.worker_deaths == 1
        assert report.retries == 1
        record = scheduler.records["dies-once"]
        assert record.status == DONE
        assert record.attempts == 2

    def test_workers_env_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert _default_workers(8, None) == 1
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert _default_workers(3, 16) == 3
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            _default_workers(8, None)

    def test_datapoints_pickle(self):
        config = ExperimentConfig.smoke()
        points = compare_policies(("PR",), ("lj",), ("GRASP",), config=config)
        assert _points_equal is not None
        restored = pickle.loads(pickle.dumps(points))
        _points_equal(points, restored)


def test_inline_sweep_leaves_the_caller_as_it_found_it(tmp_path, monkeypatch):
    """Inline task bodies run in the caller's process: they may install the
    disk memo, but not the pool workers' default backend."""
    # Restores the module's default at teardown, whatever the sweep does.
    monkeypatch.setattr(dispatch, "_default_backend", dispatch._default_backend)
    before = dispatch.default_backend()
    config = ExperimentConfig.smoke().with_overrides(backend="scalar")
    spec = SweepSpec(apps=("PR",), datasets=("lj",), schemes=("RRIP",))
    run_sweep(spec, config, cache_dir=tmp_path, worker_backend="inline")
    assert dispatch.default_backend() == before
