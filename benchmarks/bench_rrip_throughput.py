"""Benchmark F2 — fastsim: vectorized vs scalar RRIP/GRASP LLC replay.

Replays the Fig. 6 workload set's LLC traces (post-L1/L2 filter) under the
paper's DRRIP baseline and under full GRASP (hint streams wired through) on
both backends and reports simulated accesses per second.  The acceptance bar
for the RRIP fast path is a >= 5x speed-up over the scalar reference for
*each* policy.

The bar is carried by the compiled kernel (`repro.fastsim.kernels`).  On a
host without a C compiler the ``vector`` backend resolves to the scalar
reference itself, so there is no fast path to measure and the benchmark
skips.
"""

import pytest

from repro.experiments.runner import build_workload, llc_trace_for
from repro.experiments.schemes import scheme_policy
from repro.fastsim import kernels
from repro.fastsim.dispatch import SCALAR, VECTOR
from repro.perf.throughput import measure_throughput

#: The fast path must beat the scalar reference by at least this factor.
MIN_SPEEDUP = 5.0

#: Paper scheme names under test: the DRRIP baseline and full GRASP.
SCHEMES = ("RRIP", "GRASP")


def _fig6_llc_traces(config):
    """The (workload, LLC trace) pairs behind Fig. 6 at benchmark scale."""
    traces = []
    for dataset in config.high_skew_datasets:
        for app in config.apps:
            workload = build_workload(app, dataset, config=config)
            traces.append((workload, llc_trace_for(workload, config)))
    return traces


def _replay_all(traces, llc_config, scheme, backend):
    from repro.experiments.runner import simulate_llc_policy

    for _, llc_trace in traces:
        simulate_llc_policy(llc_trace, scheme_policy(scheme), llc_config, backend=backend)


def test_rrip_replay_throughput(benchmark, bench_config):
    if not kernels.available():
        pytest.skip("no C compiler for the native kernel: the vector backend "
                    "runs the scalar reference, so there is no speed-up to gate")
    traces = _fig6_llc_traces(bench_config)
    total_accesses = sum(len(llc_trace) for _, llc_trace in traces)
    llc = bench_config.hierarchy.llc

    speedups = {}
    for scheme in SCHEMES:
        vector = measure_throughput(
            lambda scheme=scheme: _replay_all(traces, llc, scheme, VECTOR),
            accesses=total_accesses,
            label=f"{scheme}-{VECTOR}",
        )
        scalar = measure_throughput(
            lambda scheme=scheme: _replay_all(traces, llc, scheme, SCALAR),
            accesses=total_accesses,
            label=f"{scheme}-{SCALAR}",
            repeats=1,
        )
        speedups[scheme] = vector.speedup_over(scalar)
        benchmark.extra_info[f"{scheme}_scalar_accesses_per_s"] = round(
            scalar.accesses_per_second
        )
        benchmark.extra_info[f"{scheme}_vector_accesses_per_s"] = round(
            vector.accesses_per_second
        )
        benchmark.extra_info[f"{scheme}_speedup_vs_scalar"] = round(speedups[scheme], 1)

    benchmark.extra_info["accesses"] = total_accesses
    benchmark.pedantic(
        _replay_all, args=(traces, llc, "GRASP", VECTOR), iterations=1, rounds=3
    )

    for scheme, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"vectorized {scheme} replay only {speedup:.1f}x faster than scalar "
            f"(required: {MIN_SPEEDUP}x) over {total_accesses} accesses"
        )
