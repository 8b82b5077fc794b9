"""Benchmark F4 — streaming full-execution pipeline: memory bound + throughput.

PR 5 adds the streaming trace pipeline: trace generation, L1/L2 filtering and
the vectorized LLC replay all run chunk by chunk with resumable state, so a
full multi-iteration execution (every iteration's direction and frontier, not
just the ROI) replays under a peak-memory bound set by the chunk budget
instead of the execution length.  This benchmark gates the three contracts
the pipeline makes:

1. **Exactness** — streaming replay of the full execution is bit-identical
   (hits/misses/evictions/bypasses) to one-shot replay of the materialized
   execution trace, for every vectorized engine family (LRU, RRIP/GRASP,
   SHiP-MEM, Hawkeye, Leeway, PIN-X) and for two-pass streaming OPT.
2. **Bounded memory** — peak traced allocations of the streaming pipeline at
   a fixed chunk budget stay flat when the execution is made 4x longer,
   while the one-shot pipeline's peak is O(trace); the streaming peak must
   also sit far below the one-shot peak.
3. **Throughput** — the streaming pipeline (generate + filter + replay) is
   within 10% of the one-shot fast path on the same workload, as the median
   ratio of interleaved timing pairs.

Memory is measured with :mod:`tracemalloc`, which NumPy reports its array
allocations to; the workload (graph, layout, application result) is built
before tracing starts so only pipeline allocations are counted.  The gates
replay through the compiled engines directly, so they skip on a host
without a C compiler, where every simulation runs the scalar reference.
"""

import statistics
import tracemalloc

import pytest
from paired_timing import paired_seconds

from repro.cache.policies import BeladyOptimal
from repro.experiments.runner import (
    _hint_classifier,
    build_workload,
    clear_caches,
    filter_trace,
    simulate_llc_policy,
    simulate_opt,
    simulate_policy,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim import kernels
from repro.fastsim.dispatch import VECTOR
from repro.fastsim.filter import FilterStream
from repro.fastsim.replay import PolicyReplayStream
from repro.trace import generate_execution_trace, iter_execution_trace

pytestmark = pytest.mark.skipif(
    not kernels.available(), reason="no C compiler for the native kernels"
)

#: Streaming must retain at least this fraction of the one-shot throughput.
MIN_THROUGHPUT_RATIO = 0.9

#: Interleaved (one-shot, streaming) timing pairs behind the throughput
#: gate; which side runs first alternates from pair to pair, and the gate
#: reads the median per-pair ratio, so one slow draw cannot decide it.
THROUGHPUT_PAIRS = 7

#: Peak traced memory may grow at most this factor when the execution
#: quadruples (the bound is the chunk budget, not the trace length).
MAX_PEAK_GROWTH = 1.3

#: Streaming peak must sit at least this factor below the one-shot peak on
#: the 4x execution (measured ~75x at benchmark scale; 4x is a safe floor
#: that still proves the O(chunk) vs O(trace) separation).
MIN_PEAK_SEPARATION = 4.0

#: One scheme per vectorized engine family, plus the offline bound.
SCHEMES = ("LRU", "RRIP", "GRASP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-100", "OPT")

#: Deliberately small budget for the exactness/memory gates: cuts every
#: iteration into many chunks, exercising the resume path hard.
SMALL_BUDGET = 1 << 14


def _stream_replay(workload, iterations, config, budget, scheme="GRASP"):
    """Memo-free streaming pipeline over an explicit iteration list.

    Mirrors the full execution's :func:`repro.experiments.runner.llc_chunks` +
    :class:`~repro.fastsim.replay.PolicyReplayStream` without the disk memo, so the
    measurement covers the pipeline itself and accepts a scaled (repeated)
    iteration list for the memory-growth gate.
    """
    llc = config.hierarchy.llc
    filter_stream = FilterStream(config.hierarchy, backend=VECTOR)
    replay = PolicyReplayStream(scheme_policy(scheme), llc)
    classifier = _hint_classifier(workload.layout, llc)
    offset_bits = llc.block_offset_bits
    for chunk in iter_execution_trace(
        workload.graph, workload.layout, iterations, max_chunk_accesses=budget
    ):
        keep = filter_stream.feed(chunk.trace)
        addresses = chunk.trace.addresses[keep]
        replay.feed(
            addresses >> offset_bits,
            hints=classifier.classify_array(addresses),
            regions=chunk.trace.regions[keep],
            pcs=chunk.trace.pcs[keep],
        )
    return replay.stats()


def _one_shot_replay(workload, iterations, config, scheme="GRASP"):
    """Materialize the full execution trace, filter it, replay it once."""
    trace = generate_execution_trace(workload.graph, workload.layout, iterations)
    llc_trace = filter_trace(trace, config.hierarchy, workload.layout, backend=VECTOR)
    if scheme == "OPT":
        return simulate_opt(llc_trace, config.hierarchy.llc, backend=VECTOR)
    return simulate_llc_policy(
        llc_trace, scheme_policy(scheme), config.hierarchy.llc, backend=VECTOR
    )


def _peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_identical(one_shot, streamed, context):
    for field in ("hits", "misses", "evictions", "bypasses"):
        assert getattr(one_shot, field) == getattr(streamed, field), (
            f"{context}: streaming {field}={getattr(streamed, field)} != "
            f"one-shot {field}={getattr(one_shot, field)}"
        )


def test_streaming_bit_identical_all_engines(benchmark, bench_config):
    """Gate 1: streaming == one-shot for every vectorized engine family."""
    workload = build_workload("PR", "lj", config=bench_config)
    iterations = list(workload.app_result.iterations)
    mismatches = 0
    for scheme in SCHEMES:
        clear_caches()  # each scheme runs its own fused streaming pass
        one_shot = _one_shot_replay(workload, iterations, bench_config, scheme)
        policy = (
            BeladyOptimal(bench_config.hierarchy.llc) if scheme == "OPT"
            else scheme_policy(scheme)
        )
        streamed = simulate_policy(
            workload,
            policy,
            bench_config,
            streaming=True,
            backend=VECTOR,
            max_chunk_accesses=SMALL_BUDGET,
        )
        _assert_identical(one_shot, streamed, scheme)
        benchmark.extra_info[f"{scheme}_misses"] = streamed.misses
        mismatches += one_shot.misses != streamed.misses
    assert mismatches == 0
    benchmark.pedantic(
        simulate_policy,
        args=(workload, scheme_policy("GRASP"), bench_config),
        kwargs={"streaming": True, "backend": VECTOR, "max_chunk_accesses": SMALL_BUDGET},
        setup=clear_caches,  # time the streaming pass, not a replay of its spill
        iterations=1,
        rounds=3,
    )


def test_streaming_peak_memory_bounded(benchmark, bench_config):
    """Gate 2: peak memory is O(chunk budget), not O(trace length)."""
    workload = build_workload("PR", "lj", config=bench_config)
    iterations = list(workload.app_result.iterations)
    def run(iters):
        return _stream_replay(workload, iters, bench_config, SMALL_BUDGET)

    run(iterations)  # warm allocator/import caches outside the measurement

    stream_peak_1x = _peak_traced_bytes(lambda: run(iterations))
    stream_peak_4x = _peak_traced_bytes(lambda: run(iterations * 4))
    one_shot_peak_4x = _peak_traced_bytes(
        lambda: _one_shot_replay(workload, iterations * 4, bench_config)
    )
    growth = stream_peak_4x / stream_peak_1x
    separation = one_shot_peak_4x / stream_peak_4x

    benchmark.extra_info["stream_peak_1x_bytes"] = stream_peak_1x
    benchmark.extra_info["stream_peak_4x_bytes"] = stream_peak_4x
    benchmark.extra_info["one_shot_peak_4x_bytes"] = one_shot_peak_4x
    benchmark.extra_info["stream_peak_growth_4x"] = round(growth, 2)
    benchmark.extra_info["one_shot_over_stream_peak"] = round(separation, 1)
    benchmark.pedantic(run, args=(iterations,), iterations=1, rounds=3)

    assert growth <= MAX_PEAK_GROWTH, (
        f"streaming peak grew {growth:.2f}x for a 4x longer execution "
        f"(bound: {MAX_PEAK_GROWTH}x) — peak memory is not O(chunk)"
    )
    assert separation >= MIN_PEAK_SEPARATION, (
        f"streaming peak ({stream_peak_4x / 1e6:.1f} MB) only "
        f"{separation:.1f}x below the one-shot peak "
        f"({one_shot_peak_4x / 1e6:.1f} MB); required {MIN_PEAK_SEPARATION}x"
    )


def test_streaming_throughput_matches_one_shot(benchmark, bench_config):
    """Gate 3: the streaming pipeline keeps the one-shot fast path's speed."""
    workload = build_workload("PR", "lj", config=bench_config)
    iterations = list(workload.app_result.iterations)
    trace = generate_execution_trace(workload.graph, workload.layout, iterations)
    accesses = len(trace)
    del trace

    one_shot, streaming = paired_seconds(
        lambda: _one_shot_replay(workload, iterations, bench_config),
        lambda: _stream_replay(workload, iterations, bench_config, None),
        THROUGHPUT_PAIRS,
    )
    # Throughput ratio of one pair: one-shot time over streaming time.
    ratios = [one / stream for one, stream in zip(one_shot, streaming)]
    ratio = statistics.median(ratios)

    benchmark.extra_info["accesses"] = accesses
    benchmark.extra_info["one_shot_accesses_per_s"] = round(
        accesses / statistics.median(one_shot)
    )
    benchmark.extra_info["streaming_accesses_per_s"] = round(
        accesses / statistics.median(streaming)
    )
    benchmark.extra_info["streaming_over_one_shot"] = round(ratio, 3)
    benchmark.extra_info["pair_ratios"] = [round(r, 3) for r in ratios]
    benchmark.pedantic(
        _stream_replay,
        args=(workload, iterations, bench_config, None),
        iterations=1,
        rounds=3,
    )

    assert ratio >= MIN_THROUGHPUT_RATIO, (
        f"streaming pipeline at {ratio:.2f}x of the one-shot fast path "
        f"(median of {THROUGHPUT_PAIRS} interleaved pairs "
        f"{[round(r, 2) for r in ratios]}; required: {MIN_THROUGHPUT_RATIO}x) "
        f"over {accesses} references"
    )
