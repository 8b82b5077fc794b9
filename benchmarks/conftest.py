"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (``ExperimentConfig.benchmark()``); set the ``REPRO_SCALE`` environment
variable to run them at other scales (1.0 reproduces the EXPERIMENTS.md
configuration).  Results are attached to each benchmark's ``extra_info`` so
``pytest benchmarks/ --benchmark-only`` both times the experiment and records
the series it produced.  :func:`paired_seconds` is the interleaved timing
the streaming and fused-pipeline ratio gates read.
"""

import time

import pytest

from repro.experiments import ExperimentConfig, clear_caches


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Reduced-scale configuration shared by all benchmarks."""
    return ExperimentConfig.benchmark()


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Clear memoised workloads so each benchmark measures its own work."""
    clear_caches()
    yield


def paired_seconds(first, second, pairs, setup=None):
    """``pairs`` back-to-back timings of ``first`` and ``second``, the side
    that runs first alternating; returns their seconds as two lists.

    ``setup``, when given, runs untimed before every timed call.  A speed
    gate reads the median of the per-pair ratios, so a drift on the shared
    host that slows one draw moves both sides of its pair.
    """
    seconds = ([], [])
    for pair in range(pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            if setup is not None:
                setup()
            start = time.perf_counter()
            (first, second)[side]()
            seconds[side].append(time.perf_counter() - start)
    return seconds
