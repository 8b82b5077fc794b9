"""Benchmark F1 — fastsim: vectorized vs scalar `filter_trace` throughput.

Replays the Fig. 6 workload set (the benchmark config's apps x high-skew
datasets) through the L1-D/L2 filter on both backends and reports simulated
accesses per second.  The acceptance bar for the fast path is a >= 5x
speed-up over the scalar reference on this workload set.
"""

from repro.experiments.runner import build_workload, filter_trace, roi_trace
from repro.fastsim.dispatch import SCALAR, VECTOR
from repro.perf.throughput import measure_throughput

#: The fast path must beat the scalar reference by at least this factor.
MIN_SPEEDUP = 5.0


def _fig6_traces(config):
    """The (workload, ROI trace) pairs behind Fig. 6 at benchmark scale."""
    traces = []
    for dataset in config.high_skew_datasets:
        for app in config.apps:
            workload = build_workload(app, dataset, config=config)
            traces.append((workload, roi_trace(workload)))
    return traces


def _filter_all(traces, hierarchy, backend):
    for workload, trace in traces:
        filter_trace(trace, hierarchy, workload.layout, backend=backend)


def test_fastsim_throughput(benchmark, bench_config):
    traces = _fig6_traces(bench_config)
    total_accesses = sum(len(trace) for _, trace in traces)

    vector = measure_throughput(
        lambda: _filter_all(traces, bench_config.hierarchy, VECTOR),
        accesses=total_accesses,
        label=VECTOR,
    )
    scalar = measure_throughput(
        lambda: _filter_all(traces, bench_config.hierarchy, SCALAR),
        accesses=total_accesses,
        label=SCALAR,
        repeats=1,
    )
    benchmark.pedantic(
        _filter_all, args=(traces, bench_config.hierarchy, VECTOR), iterations=1, rounds=3
    )

    speedup = vector.speedup_over(scalar)
    benchmark.extra_info["accesses"] = total_accesses
    benchmark.extra_info["scalar_accesses_per_s"] = round(scalar.accesses_per_second)
    benchmark.extra_info["vector_accesses_per_s"] = round(vector.accesses_per_second)
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 1)
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized filter_trace only {speedup:.1f}x faster than scalar "
        f"(required: {MIN_SPEEDUP}x) over {total_accesses} accesses"
    )
