"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (``ExperimentConfig.benchmark()``); set the ``REPRO_SCALE`` environment
variable to run them at other scales (1.0 reproduces the EXPERIMENTS.md
configuration).  Results are attached to each benchmark's ``extra_info`` so
``pytest benchmarks/ --benchmark-only`` both times the experiment and records
the series it produced.  The interleaved timing the ratio gates read lives
in :mod:`paired_timing`, whose name is unique across ``tests/`` and
``benchmarks/``, so both directories collect in one pytest run; only
fixtures stay here.
"""

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
