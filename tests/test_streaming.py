"""Streaming-vs-one-shot equivalence suite (ISSUE 5).

Every resumable fast engine must replay a chunked stream bit-identically to
one replay over the concatenation — per-access hit masks, per-set miss
counts, hit/miss/eviction/bypass statistics and the *final policy state*
(PSEL and bimodal counters, SHCT contents, PC predictors, predicted live
distances).  Covered at three levels:

* engine level: randomized block/hint/PC streams fed in chunks through
  every ``*Stream``, for both the compiled kernel and the NumPy fallback,
  across several chunk budgets, against one feed of the whole stream on a
  fresh stream (compiled kernel when available);
* filter level: :class:`repro.fastsim.FilterStream` against
  :func:`repro.fastsim.run_filter` under all three backends;
* pipeline level: the runner's full-execution streaming simulation against
  one-shot replay of the materialized execution trace, for every scheme of
  the paper's matrix including OPT, plus chunk-budget invariance and the
  per-chunk disk memoisation round trip.
"""

import numpy as np
import pytest

from repro.cache.hints import HINT_HIGH
from repro.cache.policies.hawkeye import HawkeyePolicy
from repro.cache.policies.leeway import LeewayPolicy
from repro.cache.policies.opt import BeladyOptimal
from repro.cache.policies.pin import PinningPolicy
from repro.cache.policies.rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.cache.policies.ship import ShipMemPolicy
from repro.core.grasp import GraspPolicy
from repro.experiments import ExperimentConfig, clear_caches, set_disk_memo
from repro.experiments.memo import DiskMemo
from repro.experiments.runner import (
    _chunk_budget,
    _stream_key,
    build_workload,
    execution_trace,
    filter_trace,
    iter_llc_chunks,
    simulate_llc_policy,
    simulate_opt,
    simulate_policy,
    simulate_scheme,
    stream_summary,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim import (
    FilterStream,
    HawkeyeStream,
    LeewayStream,
    LRUStream,
    NextUseTable,
    OptStream,
    PinStream,
    PolicyReplayStream,
    RRIPStream,
    ShipStream,
    kernels,
    hawkeye_spec,
    leeway_spec,
    next_use_indices,
    pin_spec,
    resolve_chunk_next_use,
    rrip_spec,
    run_filter,
    ship_spec,
    vector_policy_replay,
)
from repro.fastsim.filter import assert_stats_equal
from repro.trace import Trace, generate_execution_trace, iter_execution_trace

GEOMETRY = (8, 4)
CHUNK_SIZES = (1, 97, 1024, 10**9)

BACKENDS = [True, False] if kernels.available() else [False]


@pytest.fixture(scope="module")
def streams():
    rng = np.random.default_rng(2026)
    n = 4000
    return {
        "blocks": rng.integers(0, 350, size=n).astype(np.int64),
        "hints": rng.integers(0, 4, size=n).astype(np.int64),
        "pcs": rng.integers(0, 10, size=n).astype(np.int64),
    }


def chunked(array, size):
    return [array[start : start + size] for start in range(0, len(array), size)]


def one_feed(stream, *inputs):
    """Replay whole streams with one feed on a fresh engine: ``(hits, stream)``."""
    return stream.feed(*inputs), stream


@pytest.mark.parametrize("use_native", BACKENDS)
@pytest.mark.parametrize("chunk", CHUNK_SIZES)
class TestEngineStreams:
    def test_lru(self, streams, use_native, chunk):
        num_sets, ways = GEOMETRY
        one_hits, one = one_feed(LRUStream(num_sets, ways), streams["blocks"])
        stream = LRUStream(num_sets, ways, use_native=use_native)
        hits = np.concatenate(
            [stream.feed(part) for part in chunked(streams["blocks"], chunk)]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.evictions == one.evictions

    @pytest.mark.parametrize(
        "policy_factory",
        [SRRIPPolicy, BRRIPPolicy, DRRIPPolicy, GraspPolicy],
        ids=["srrip", "brrip", "drrip", "grasp"],
    )
    def test_rrip_family(self, streams, use_native, chunk, policy_factory):
        num_sets, ways = GEOMETRY
        spec = rrip_spec(policy_factory())
        one_hits, one = one_feed(
            RRIPStream(num_sets, ways, spec), streams["blocks"], streams["hints"]
        )
        stream = RRIPStream(num_sets, ways, spec, use_native=use_native)
        hits = np.concatenate(
            [
                stream.feed(blocks, hints)
                for blocks, hints in zip(
                    chunked(streams["blocks"], chunk), chunked(streams["hints"], chunk)
                )
            ]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.psel == one.psel
        assert stream.insert_count == one.insert_count

    @pytest.mark.parametrize("fraction", [0.25, 1.0], ids=["pin25", "pin100"])
    def test_pin(self, streams, use_native, chunk, fraction):
        num_sets, ways = GEOMETRY
        spec = pin_spec(PinningPolicy(reserved_fraction=fraction))
        one_hits, one = one_feed(
            PinStream(num_sets, ways, spec), streams["blocks"], streams["hints"]
        )
        stream = PinStream(num_sets, ways, spec, use_native=use_native)
        hits = np.concatenate(
            [
                stream.feed(blocks, hints)
                for blocks, hints in zip(
                    chunked(streams["blocks"], chunk), chunked(streams["hints"], chunk)
                )
            ]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        np.testing.assert_array_equal(stream.bypasses_per_set, one.bypasses_per_set)
        assert stream.psel == one.psel
        assert stream.insert_count == one.insert_count
        assert stream.evictions == one.evictions

    def test_ship(self, streams, use_native, chunk):
        num_sets, ways = GEOMETRY
        spec = ship_spec(ShipMemPolicy(region_bytes=256, block_bytes=64))
        one_hits, one = one_feed(ShipStream(num_sets, ways, spec), streams["blocks"])
        stream = ShipStream(num_sets, ways, spec, use_native=use_native)
        hits = np.concatenate(
            [stream.feed(part) for part in chunked(streams["blocks"], chunk)]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.shct == one.shct

    def test_hawkeye(self, streams, use_native, chunk):
        num_sets, ways = GEOMETRY
        spec = hawkeye_spec(HawkeyePolicy())
        one_hits, one = one_feed(
            HawkeyeStream(num_sets, ways, spec), streams["blocks"], streams["pcs"]
        )
        stream = HawkeyeStream(num_sets, ways, spec, use_native=use_native)
        hits = np.concatenate(
            [
                stream.feed(blocks, pcs)
                for blocks, pcs in zip(
                    chunked(streams["blocks"], chunk), chunked(streams["pcs"], chunk)
                )
            ]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.predictor == one.predictor

    def test_leeway(self, streams, use_native, chunk):
        num_sets, ways = GEOMETRY
        spec = leeway_spec(LeewayPolicy())
        one_hits, one = one_feed(
            LeewayStream(num_sets, ways, spec), streams["blocks"], streams["pcs"]
        )
        stream = LeewayStream(num_sets, ways, spec, use_native=use_native)
        hits = np.concatenate(
            [
                stream.feed(blocks, pcs)
                for blocks, pcs in zip(
                    chunked(streams["blocks"], chunk), chunked(streams["pcs"], chunk)
                )
            ]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.predicted_live_distances == one.predicted_live_distances

    def test_opt_two_pass(self, streams, use_native, chunk):
        num_sets, ways = GEOMETRY
        one_hits, one = one_feed(
            OptStream(num_sets, ways),
            streams["blocks"],
            next_use_indices(streams["blocks"]),
        )
        parts = chunked(streams["blocks"], chunk)
        starts = list(range(0, len(streams["blocks"]), chunk))
        table = NextUseTable(use_native=use_native)
        next_uses = [None] * len(parts)
        for index in reversed(range(len(parts))):
            next_uses[index] = resolve_chunk_next_use(
                parts[index], starts[index], table
            )
        stream = OptStream(num_sets, ways, use_native=use_native)
        hits = np.concatenate(
            [stream.feed(blocks, nxt) for blocks, nxt in zip(parts, next_uses)]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)


class TestPolicyReplayStream:
    def test_stats_match_one_shot_vector_replay(self, streams):
        num_sets, ways = GEOMETRY
        from repro.cache.config import CacheConfig

        llc = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="LLC")
        regions = (streams["blocks"] % 3).astype(np.int8)
        for factory in (
            GraspPolicy,
            lambda: PinningPolicy(reserved_fraction=0.5),
            lambda: ShipMemPolicy(region_bytes=256, block_bytes=64),
            HawkeyePolicy,
            LeewayPolicy,
        ):
            one = vector_policy_replay(
                factory(),
                streams["blocks"],
                llc,
                hints=streams["hints"],
                regions=regions,
                pcs=streams["pcs"],
            )
            stream = PolicyReplayStream(factory(), llc)
            for lo in range(0, len(streams["blocks"]), 313):
                hi = lo + 313
                stream.feed(
                    streams["blocks"][lo:hi],
                    hints=streams["hints"][lo:hi],
                    regions=regions[lo:hi],
                    pcs=streams["pcs"][lo:hi],
                )
            assert_stats_equal(one, stream.stats(), "PolicyReplayStream")

    def test_opt_policy_rejected(self):
        from repro.cache.config import CacheConfig

        llc = CacheConfig(size_bytes=2048, ways=4, name="LLC")
        with pytest.raises(ValueError):
            PolicyReplayStream(BeladyOptimal(llc), llc)


@pytest.mark.parametrize("backend", ["vector", "scalar", "verify"])
def test_filter_stream_matches_one_shot(backend):
    config = ExperimentConfig.smoke()
    workload = build_workload("PR", "pl", config=config)
    trace = execution_trace(workload)
    one = run_filter(trace, config.hierarchy, backend=backend)
    stream = FilterStream(config.hierarchy, backend=backend)
    keeps = []
    for lo in range(0, len(trace), 4096):
        hi = lo + 4096
        keeps.append(
            stream.feed(
                Trace(trace.addresses[lo:hi], trace.pcs[lo:hi], trace.regions[lo:hi])
            )
        )
    np.testing.assert_array_equal(np.concatenate(keeps), one.keep)
    l1_stats, l2_stats = stream.level_stats()
    assert_stats_equal(one.l1_stats, l1_stats, "FilterStream L1")
    assert_stats_equal(one.l2_stats, l2_stats, "FilterStream L2")


class TestRunnerStreaming:
    """Full-pipeline equivalence on a real multi-iteration workload."""

    SCHEMES = (
        "LRU",
        "RRIP",
        "GRASP",
        "SHiP-MEM",
        "Hawkeye",
        "Leeway",
        "PIN-75",
        "PIN-100",
        "RRIP+Hints",  # scalar-only policy: exercises the scalar stream path
    )

    @pytest.fixture(scope="class")
    def setup(self):
        clear_caches()
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        one_shot_llc = filter_trace(
            execution_trace(workload), config.hierarchy, workload.layout
        )
        return config, workload, one_shot_llc

    def test_llc_chunks_concatenate_to_one_shot_filter(self, setup):
        config, workload, one = setup
        chunks = list(iter_llc_chunks(workload, config, max_chunk_accesses=5000))
        np.testing.assert_array_equal(
            np.concatenate([chunk.block_addresses for chunk in chunks]),
            one.block_addresses,
        )
        np.testing.assert_array_equal(
            np.concatenate([chunk.hints for chunk in chunks]), one.hints
        )
        np.testing.assert_array_equal(
            np.concatenate([chunk.pcs for chunk in chunks]), one.pcs
        )
        summary = stream_summary(workload, config, streaming=True, max_chunk_accesses=5000)
        assert summary["l1_hits"] == one.upstream_l1_hits
        assert summary["l2_hits"] == one.upstream_l2_hits
        assert summary["total_references"] == one.total_references

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_policy_streaming_matches_one_shot(self, setup, scheme):
        config, workload, one = setup
        streamed = simulate_policy(
            workload, scheme_policy(scheme), config, streaming=True, max_chunk_accesses=5000
        )
        reference = simulate_llc_policy(one, scheme_policy(scheme), config.hierarchy.llc)
        assert_stats_equal(reference, streamed, f"streaming {scheme}")

    def test_opt_streaming_matches_one_shot(self, setup):
        config, workload, one = setup
        streamed = simulate_policy(
            workload, BeladyOptimal(config.hierarchy.llc), config,
            streaming=True, max_chunk_accesses=5000,
        )
        reference = simulate_opt(one, config.hierarchy.llc)
        assert_stats_equal(reference, streamed, "streaming OPT")

    @pytest.mark.parametrize("scheme", ["GRASP", "OPT"])
    def test_chunk_budget_invariance(self, setup, scheme):
        """Budget 700 replays many chunks (OPT: spilled, one next-use table
        across them); 10**9 replays one in-memory chunk."""
        config, workload, _ = setup

        def policy():
            if scheme == "OPT":
                return BeladyOptimal(config.hierarchy.llc)
            return scheme_policy(scheme)

        baseline = simulate_policy(
            workload, policy(), config, streaming=True, max_chunk_accesses=1500
        )
        for budget in (700, 50_000, 10**9):
            other = simulate_policy(
                workload, policy(), config, streaming=True, max_chunk_accesses=budget
            )
            assert_stats_equal(baseline, other, f"{scheme} budget {budget}")

    def test_verify_backend_passes(self, setup):
        config, workload, _ = setup
        simulate_policy(
            workload,
            scheme_policy("GRASP"),
            config,
            streaming=True,
            backend="verify",
            max_chunk_accesses=5000,
        )
        simulate_policy(
            workload, BeladyOptimal(config.hierarchy.llc), config,
            streaming=True, backend="verify", max_chunk_accesses=5000,
        )

    def test_hint_stream_steers_pinning(self, setup):
        """The hint plumbing must survive chunking: PIN-100 with hints must
        differ from hint-blind replay on a skewed workload."""
        config, workload, one = setup
        assert (one.hints == HINT_HIGH).any()
        with_hints = simulate_policy(
            workload, scheme_policy("PIN-100"), config,
            streaming=True, max_chunk_accesses=5000,
        )
        without = simulate_policy(
            workload,
            scheme_policy("PIN-100"),
            config,
            streaming=True,
            use_hints=False,
            max_chunk_accesses=5000,
        )
        assert with_hints.misses != without.misses

    def test_disk_memo_round_trip(self, setup, tmp_path):
        config, workload, _ = setup
        set_disk_memo(DiskMemo(tmp_path))
        try:
            first = list(iter_llc_chunks(workload, config, max_chunk_accesses=5000))
            stats_first = simulate_scheme(workload, "GRASP", config, streaming=True)
            memo = DiskMemo(tmp_path)
            assert memo.entry_count("llcchunk") >= len(first)
            assert memo.entry_count("llcstream") >= 1
            assert memo.entry_count("policystream") == 1
            clear_caches()
            second = list(iter_llc_chunks(workload, config, max_chunk_accesses=5000))
            assert len(first) == len(second)
            for a, b in zip(first, second):
                np.testing.assert_array_equal(a.block_addresses, b.block_addresses)
                np.testing.assert_array_equal(a.hints, b.hints)
            assert simulate_scheme(workload, "GRASP", config, streaming=True) == stats_first
        finally:
            set_disk_memo(None)
            clear_caches()

    def test_corrupt_memo_chunk_falls_back_mid_stream(self, setup, tmp_path):
        """A lost/corrupt persisted chunk regenerates the tail, bit-identically."""
        config, workload, _ = setup
        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        try:
            first = list(iter_llc_chunks(workload, config, max_chunk_accesses=5000))
            assert len(first) > 2
            # Corrupt a middle chunk: the memo-hit path serves the prefix from
            # disk, then falls back to regeneration for the rest of the stream.
            key = _stream_key(
                workload, config, _chunk_budget(config, 5000)
            )
            memo.path_for("llcchunk", key + (1,)).write_bytes(b"not a pickle")
            clear_caches()
            second = list(iter_llc_chunks(workload, config, max_chunk_accesses=5000))
            assert len(first) == len(second)
            for a, b in zip(first, second):
                np.testing.assert_array_equal(a.block_addresses, b.block_addresses)
                np.testing.assert_array_equal(a.hints, b.hints)
            # The fallback also repaired the corrupted entry.
            assert memo.get("llcchunk", key + (1,)) is not None
        finally:
            set_disk_memo(None)
            clear_caches()

    def test_execution_covers_multiple_iterations(self, setup):
        config, workload, one = setup
        assert workload.app_result.num_iterations > 1
        roi_only = filter_trace(
            generate_execution_trace(
                workload.graph, workload.layout, [workload.roi]
            ),
            config.hierarchy,
            workload.layout,
        )
        assert one.total_references > roi_only.total_references


class TestFusedStreaming:
    """Fused single-pass streaming vs the staged chunked pipeline (ISSUE 7).

    The ``vector`` route of ``simulate_policy(streaming=True)`` fuses trace
    generation, L1/L2 filtering and the LLC replay into one native call per
    chunk, sharded over ``REPRO_THREADS`` filter threads.  It must stay
    bit-identical to the staged/scalar cross-checked pipeline for every
    thread count and chunk budget, including the hint-driven schemes.
    """

    SCHEMES = ("GRASP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-50")

    @pytest.fixture(scope="class")
    def setup(self):
        clear_caches()
        set_disk_memo(None)
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        return config, workload

    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_thread_counts_match_verify(self, setup, monkeypatch, scheme, threads):
        config, workload = setup
        monkeypatch.setenv("REPRO_THREADS", threads)
        fused = simulate_policy(
            workload, scheme_policy(scheme), config,
            streaming=True, backend="vector", max_chunk_accesses=5000,
        )
        reference = simulate_policy(
            workload, scheme_policy(scheme), config,
            streaming=True, backend="verify", max_chunk_accesses=5000,
        )
        assert_stats_equal(reference, fused, f"fused {scheme} x{threads}")

    def test_chunk_budget_invariance_under_threads(self, setup, monkeypatch):
        config, workload = setup
        monkeypatch.setenv("REPRO_THREADS", "8")
        baseline = simulate_policy(
            workload, scheme_policy("GRASP"), config,
            streaming=True, backend="vector", max_chunk_accesses=1500,
        )
        for budget in (700, 50_000, 10**9):
            other = simulate_policy(
                workload, scheme_policy("GRASP"), config,
                streaming=True, backend="vector", max_chunk_accesses=budget,
            )
            assert_stats_equal(baseline, other, f"fused budget {budget}")


def test_execution_chunks_respect_budget():
    config = ExperimentConfig.smoke()
    workload = build_workload("PR", "pl", config=config)
    degrees = (workload.graph.in_index[1:] - workload.graph.in_index[:-1]).astype(
        np.int64
    )
    stride = 1 + len(workload.layout.edge_property_arrays)
    record = int(degrees.max()) * stride + 1 + len(workload.layout.vertex_property_arrays)
    budget = max(2048, record)
    for chunk in iter_execution_trace(
        workload.graph,
        workload.layout,
        workload.app_result.iterations,
        max_chunk_accesses=budget,
    ):
        assert len(chunk) <= budget
