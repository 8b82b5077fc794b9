"""Benchmark F5 — sweep service: scheduling identity and dedup gates.

The sweep scheduler must be invisible in the numbers and free on warm
stores.  This benchmark gates both contracts at benchmark scale:

1. **Identity** — ``run_sweep`` over the process-pool backend produces
   DataPoints bit-identical (hits/misses/evictions; cycles to float
   precision) to the serial runner's, whatever order the workers picked.
2. **Dedup** — a second client sweeping the same spec against the same store
   executes zero tasks: every task is a content-addressed cache hit, and its
   process reads stats and stream summaries only, never a ``workload`` entry.

The timed section is the cold scheduled sweep; the warm re-sweep's elapsed
time and its store reads by kind are recorded in ``extra_info`` alongside
the task/retry counters.
"""

from collections import Counter

import pytest

from repro.experiments import (
    clear_caches,
    compare_policies,
    run_sweep,
    set_disk_memo,
    SweepSpec,
)
from repro.experiments.memo import DiskMemo

APPS = ("PR",)
DATASETS = ("lj", "pl")
SCHEMES = ("LRU", "RRIP", "GRASP")

#: One task per (app, dataset) pair of the spec above.
EXPECTED_TASKS = 2


def _points_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.app_name, a.dataset_name, a.scheme) == (b.app_name, b.dataset_name, b.scheme)
        assert a.stats.hits == b.stats.hits
        assert a.stats.misses == b.stats.misses
        assert a.stats.evictions == b.stats.evictions
        assert a.cycles == pytest.approx(b.cycles)


def test_sweep_identity_and_dedup(benchmark, bench_config, tmp_path, monkeypatch):
    spec = SweepSpec(apps=APPS, datasets=DATASETS, schemes=SCHEMES)
    serial = compare_policies(APPS, DATASETS, SCHEMES, config=bench_config)
    clear_caches()
    set_disk_memo(None)

    def cold_sweep():
        return run_sweep(
            spec,
            config=bench_config,
            cache_dir=tmp_path,
            workers=4,
            worker_backend="process",
        )

    try:
        cold = benchmark.pedantic(cold_sweep, iterations=1, rounds=1)

        _points_equal(serial, cold.points)
        assert cold.report.executed == EXPECTED_TASKS
        assert not cold.report.failed

        # Second client, fresh process state, same store: everything dedups.
        clear_caches()
        set_disk_memo(None)
        warm_gets = Counter()
        get = DiskMemo.get

        def counted(self, kind, key):
            warm_gets[kind] += 1
            return get(self, kind, key)

        monkeypatch.setattr(DiskMemo, "get", counted)
        warm = run_sweep(
            spec, config=bench_config, cache_dir=tmp_path, workers=4,
            worker_backend="process",
        )
        _points_equal(serial, warm.points)
        assert warm.report.executed == 0
        assert warm.report.cached == EXPECTED_TASKS
        assert warm_gets["workload"] == 0

        benchmark.extra_info["tasks"] = EXPECTED_TASKS
        benchmark.extra_info["cold_retries"] = cold.report.retries
        benchmark.extra_info["warm_elapsed_s"] = round(warm.report.elapsed, 4)
        benchmark.extra_info["warm_gets_by_kind"] = dict(sorted(warm_gets.items()))
    finally:
        clear_caches()
        set_disk_memo(None)
