"""Benchmark F3 — fastsim: vectorized vs scalar replay for the full matrix.

PR 4 completes the vectorized LLC engine matrix: SHiP-MEM, Hawkeye, Leeway,
the PIN-X pinning configurations and Belady's OPT join LRU and the RRIP
family on the fast path.  This benchmark replays the Fig. 6 workload set's
LLC traces (post-L1/L2 filter) under each newly vectorized scheme on both
backends and reports simulated accesses per second.  The acceptance bar is a
>= 5x speed-up over the scalar reference for *each* scheme.

As with the RRIP benchmark, the bar is carried by the compiled kernels
(`repro.fastsim.kernels`).  On a host without a C compiler the ``vector``
backend resolves to the scalar reference itself, so there is no fast path
to measure and the benchmark skips.
"""

import pytest

from repro.experiments.runner import build_workload, llc_trace_for, simulate_opt
from repro.experiments.schemes import scheme_policy
from repro.fastsim import kernels
from repro.fastsim.dispatch import SCALAR, VECTOR
from repro.perf.throughput import measure_throughput

#: The fast path must beat the scalar reference by at least this factor.
MIN_SPEEDUP = 5.0

#: Paper scheme names newly vectorized in PR 4 ("OPT" routes through
#: ``simulate_opt`` rather than a ReplacementPolicy).
SCHEMES = ("SHiP-MEM", "Hawkeye", "Leeway", "PIN-75", "PIN-100", "OPT")


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
        if scheme == "OPT":
            simulate_opt(llc_trace, llc_config, backend=backend)
        else:
            simulate_llc_policy(
                llc_trace, scheme_policy(scheme), llc_config, backend=backend
            )


def test_policy_matrix_throughput(benchmark, bench_config):
    if not kernels.available():
        pytest.skip("no C compiler for the native kernels: the vector backend "
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
        _replay_all, args=(traces, llc, "SHiP-MEM", VECTOR), iterations=1, rounds=3
    )

    for scheme, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"vectorized {scheme} replay only {speedup:.1f}x faster than scalar "
            f"(required: {MIN_SPEEDUP}x) over {total_accesses} accesses"
        )
