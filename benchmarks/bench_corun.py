"""Benchmark F5 — co-run interleaved replay: K=1 exactness + memory bound.

PR 9 adds the multi-programmed co-run subsystem: per-app LLC streams are
merged under an arrival schedule (:class:`InterleavedTraceStream`) and
replayed through one shared — optionally way-partitioned — LLC with
per-stream attribution (:class:`CorunReplayStream`).  This benchmark gates
the two contracts that keep the subsystem honest against the single-app
pipeline it generalizes:

1. **K=1 exactness** — replaying a single application through the whole
   interleaving machinery (merge, stream tagging, per-stream engines) is
   bit-identical to the single-app :class:`PolicyReplayStream` fast path,
   for every vectorized engine family.  PIN-X is covered through a
   one-share partition spanning the full associativity (the unpartitioned
   PIN co-run is scalar-only by design: per-stream bypass attribution
   needs per-stream engines).
2. **Bounded memory** — the interleaved co-run replay streams: peak traced
   allocations at a fixed chunk budget stay flat when the co-run is made
   4x longer, for a real K=2 partitioned co-run.

Wired into CI as ``BENCH_corun.json``.
"""

import itertools
import tracemalloc

from repro.cache.partition import WayPartition
from repro.experiments.runner import build_workload, llc_chunks
from repro.experiments.schemes import scheme_policy
from repro.fastsim.corun import CorunReplayStream, supports_vector_corun
from repro.fastsim.replay import PolicyReplayStream
from repro.trace.interleave import InterleavedTraceStream

#: Peak traced memory may grow at most this factor when the co-run
#: quadruples (the bound is the chunk budget, not the merged length).
MAX_PEAK_GROWTH = 1.3

#: One scheme per vectorized engine family (OPT has no co-run analogue).
SCHEMES = ("LRU", "RRIP", "GRASP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-100")

#: Small chunk budget: many merge turns and many resume points per run.
SMALL_BUDGET = 1 << 14


def _single_app_replay(workload, config, scheme):
    """The single-app fast path: replay the app's LLC stream directly."""
    replay = PolicyReplayStream(scheme_policy(scheme), config.hierarchy.llc)
    for chunk in llc_chunks(workload, config, True, SMALL_BUDGET):
        replay.feed(chunk.block_addresses, chunk.hints, chunk.regions, chunk.pcs)
    return replay.stats()


def _interleaved_replay(workload, config, scheme, partition):
    """The same stream through the K=1 co-run machinery."""
    llc = config.hierarchy.llc
    merged = InterleavedTraceStream(
        [llc_chunks(workload, config, True, SMALL_BUDGET)],
        chunk_accesses=SMALL_BUDGET,
    )
    replay = CorunReplayStream(scheme_policy(scheme), llc, 1, partition=partition)
    for chunk in merged:
        replay.feed(
            chunk.block_addresses, chunk.stream_ids, chunk.hints, chunk.regions, chunk.pcs
        )
    return replay.stats()


def _corun_replay(sources_fn, config, scheme, partition):
    """A K=2 partitioned co-run replay over lazily built chunk sources."""
    merged = InterleavedTraceStream(
        sources_fn(), schedule="round_robin", quantum=64, chunk_accesses=SMALL_BUDGET
    )
    replay = CorunReplayStream(
        scheme_policy(scheme), config.hierarchy.llc, 2, partition=partition
    )
    for chunk in merged:
        replay.feed(
            chunk.block_addresses, chunk.stream_ids, chunk.hints, chunk.regions, chunk.pcs
        )
    return replay.stats()


def _peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_corun_k1_bit_identical_all_engines(benchmark, bench_config):
    """Gate 1: the K=1 interleaved replay equals the single-app replay."""
    workload = build_workload("PR", "lj", config=bench_config)
    ways = bench_config.hierarchy.llc.ways
    mismatches = 0
    for scheme in SCHEMES:
        single = _single_app_replay(workload, bench_config, scheme)
        # The one-share partition covers the whole associativity, so it
        # constrains nothing — and it gives PIN-X its per-stream engine.
        partition = (
            None
            if supports_vector_corun(scheme_policy(scheme), None)
            else WayPartition((ways,))
        )
        corun = _interleaved_replay(workload, bench_config, scheme, partition)
        for field in ("accesses", "hits", "misses", "evictions", "bypasses"):
            assert getattr(single, field) == getattr(corun, field), (
                f"{scheme}: K=1 co-run {field}={getattr(corun, field)} != "
                f"single-app {field}={getattr(single, field)}"
            )
        assert corun.stream_accesses == {0: single.accesses}
        benchmark.extra_info[f"{scheme}_misses"] = corun.misses
        mismatches += single.misses != corun.misses
    assert mismatches == 0
    benchmark.pedantic(
        _interleaved_replay,
        args=(workload, bench_config, "GRASP", None),
        iterations=1,
        rounds=3,
    )


def test_corun_peak_memory_bounded(benchmark, bench_config):
    """Gate 2: the merged co-run replay's peak memory is O(chunk budget)."""
    workloads = [
        build_workload("PR", "lj", config=bench_config),
        build_workload("PR", "pl", config=bench_config),
    ]
    partition = WayPartition((bench_config.hierarchy.llc.ways // 2,) * 2)

    def sources(repeats):
        # A `repeats`-times-longer co-run: each app's stream is chained
        # end to end, regenerated lazily so nothing is held in memory.
        return lambda: [
            itertools.chain.from_iterable(
                llc_chunks(workload, bench_config, True, SMALL_BUDGET)
                for _ in range(repeats)
            )
            for workload in workloads
        ]

    def run(repeats):
        return _corun_replay(sources(repeats), bench_config, "GRASP", partition)

    run(1)  # warm allocator/import caches outside the measurement

    peak_1x = _peak_traced_bytes(lambda: run(1))
    peak_4x = _peak_traced_bytes(lambda: run(4))
    growth = peak_4x / peak_1x

    benchmark.extra_info["corun_peak_1x_bytes"] = peak_1x
    benchmark.extra_info["corun_peak_4x_bytes"] = peak_4x
    benchmark.extra_info["corun_peak_growth_4x"] = round(growth, 2)
    benchmark.pedantic(run, args=(1,), iterations=1, rounds=3)

    assert growth <= MAX_PEAK_GROWTH, (
        f"co-run replay peak grew {growth:.2f}x for a 4x longer co-run "
        f"(bound: {MAX_PEAK_GROWTH}x) — peak memory is not O(chunk)"
    )
