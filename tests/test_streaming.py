"""Streaming-vs-one-shot equivalence suite (ISSUE 5).

Every resumable fast engine must replay a chunked stream bit-identically to
one replay over the concatenation — per-access hit masks, per-set miss
counts, hit/miss/eviction/bypass statistics and the *final policy state*
(PSEL and bimodal counters, SHCT contents, PC predictors, predicted live
distances).  Covered at three levels:

* engine level: randomized block/hint/PC streams fed in chunks through
  every ``*Stream`` across several chunk budgets, and through the runner's
  ``scalar`` route that a host without the kernel library takes, against
  one feed of the whole stream on a fresh stream;
* filter level: :class:`repro.fastsim.filter.FilterStream` against
  :func:`repro.fastsim.filter.run_filter` under all three backends;
* pipeline level: the runner's full-execution streaming simulation against
  one-shot replay of the materialized execution trace, for every scheme of
  the paper's matrix including OPT, plus chunk-budget invariance and the
  per-chunk disk memoisation round trip.
"""

import numpy as np
import pytest
from kernel_marks import needs_native

from repro.cache.config import CacheConfig
from repro.cache.hints import HINT_HIGH
from repro.cache.policies.hawkeye import HawkeyePolicy
from repro.cache.policies.leeway import LeewayPolicy
from repro.cache.policies.lru import LRUPolicy
from repro.cache.policies.opt import BeladyOptimal
from repro.cache.policies.pin import PinningPolicy
from repro.cache.policies.rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.cache.policies.ship import ShipMemPolicy
from repro.core.grasp import GraspPolicy
from repro.experiments import ExperimentConfig, clear_caches, set_disk_memo
from repro.experiments.memo import DiskMemo
from repro.experiments.runner import (
    LLCTrace,
    _replay_llc,
    _stream_key,
    build_workload,
    execution_trace,
    filter_trace,
    llc_chunks,
    simulate_llc_policy,
    simulate_opt,
    simulate_policy,
    simulate_scheme,
    stream_summary,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim.filter import FilterStream, assert_stats_equal, run_filter
from repro.fastsim.hawkeye import HawkeyeStream, hawkeye_spec
from repro.fastsim.leeway import LeewayStream, leeway_spec
from repro.fastsim.opt import (
    NextUseTable,
    OptStream,
    next_use_indices,
    resolve_chunk_next_use,
)
from repro.fastsim.pin import PinStream, pin_spec
from repro.fastsim.plan import (
    KERNEL_PYTHON,
    ROUTE_SCALAR,
    STAGE_STREAMING,
    SimRequest,
    plan_request,
)
from repro.fastsim.replay import PolicyReplayStream, vector_policy_replay
from repro.fastsim.rrip import RRIPStream, rrip_spec
from repro.fastsim.ship import ShipStream, ship_spec
from repro.fastsim.stackdist import LRUStream
from repro.trace import Trace, generate_execution_trace, iter_execution_trace

GEOMETRY = (8, 4)
CHUNK_SIZES = (1, 97, 1024, 10**9)


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


def scalar_route_replay(policy, streams, chunk):
    """Replay ``streams`` in ``chunk``-access pieces on the ``scalar`` route.

    This is what a host without the kernel library runs: the planner turns
    the ``vector`` request into a ``scalar`` plan, and the runner's LLC
    driver keeps one reference cache (or, for OPT, spills the chunks for
    the offline reference) across the pieces.  Returns the stats.
    """
    num_sets, ways = GEOMETRY
    name = getattr(policy, "name", type(policy).__name__)
    plan = plan_request(
        SimRequest(
            schemes=(name,),
            policies=(policy,),
            backend="vector",
            stage=STAGE_STREAMING,
            native_override=False,
        )
    )
    assert (plan.route, plan.kernel) == (ROUTE_SCALAR, KERNEL_PYTHON)
    llc = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="LLC")
    pieces = [
        LLCTrace(
            byte_addresses=blocks << 6,
            block_addresses=blocks,
            pcs=pcs,
            regions=np.zeros(len(blocks), dtype=np.int8),
            hints=hints,
            upstream_l1_hits=0,
            upstream_l2_hits=0,
            total_references=len(blocks),
        )
        for blocks, hints, pcs in zip(
            chunked(streams["blocks"], chunk),
            chunked(streams["hints"], chunk),
            chunked(streams["pcs"], chunk),
        )
    ]
    (stats,) = _replay_llc(pieces, (policy,), llc, True, plan)
    return stats


def assert_scalar_route_matches(policy, streams, chunk, one_hits, one):
    """The ``scalar`` route's counts and learned state equal one kernel feed's."""
    stats = scalar_route_replay(policy, streams, chunk)
    assert stats.hits == int(one_hits.sum())
    assert stats.misses == len(one_hits) - stats.hits
    assert stats.evictions == one.evictions
    assert stats.bypasses == getattr(one, "bypass_count", 0)
    kind = type(policy)
    if kind is PinningPolicy:
        assert (policy._psel, policy._insert_count) == (one.psel, one.insert_count)
    elif kind is ShipMemPolicy:
        assert policy._shct == {s: one.shct.get(s, 1) for s in policy._shct}
    elif kind is HawkeyePolicy:
        midpoint = (policy.predictor_max + 1) // 2
        assert policy._predictor == {
            pc: one.predictor.get(pc, midpoint) for pc in policy._predictor
        }
    elif kind is LeewayPolicy:
        assert policy._predicted_ld == {
            s: one.predicted_live_distances.get(s, 0) for s in policy._predicted_ld
        }
    elif rrip_spec(policy) is not None:
        spec = rrip_spec(policy)
        if spec.dueling:
            assert policy._psel == one.psel
        if spec.dueling or spec.epsilon:
            assert policy._insert_count == one.insert_count


@needs_native
# ``native=True`` feeds the chunks to the family's compiled-kernel stream;
# ``native=False`` replays them on the ``scalar`` route a host without the
# kernel library takes (:func:`scalar_route_replay`).  Both must reproduce
# one kernel feed of the whole stream.
@pytest.mark.parametrize("native", [True, False])
@pytest.mark.parametrize("chunk", CHUNK_SIZES)
class TestEngineStreams:
    def test_lru(self, streams, native, chunk):
        num_sets, ways = GEOMETRY
        one_hits, one = one_feed(LRUStream(num_sets, ways), streams["blocks"])
        if not native:
            assert_scalar_route_matches(LRUPolicy(), streams, chunk, one_hits, one)
            return
        stream = LRUStream(num_sets, ways)
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
    def test_rrip_family(self, streams, native, chunk, policy_factory):
        num_sets, ways = GEOMETRY
        spec = rrip_spec(policy_factory())
        one_hits, one = one_feed(
            RRIPStream(num_sets, ways, spec), streams["blocks"], streams["hints"]
        )
        if not native:
            assert_scalar_route_matches(policy_factory(), streams, chunk, one_hits, one)
            return
        stream = RRIPStream(num_sets, ways, spec)
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
    def test_pin(self, streams, native, chunk, fraction):
        num_sets, ways = GEOMETRY
        spec = pin_spec(PinningPolicy(reserved_fraction=fraction))
        one_hits, one = one_feed(
            PinStream(num_sets, ways, spec), streams["blocks"], streams["hints"]
        )
        if not native:
            policy = PinningPolicy(reserved_fraction=fraction)
            assert_scalar_route_matches(policy, streams, chunk, one_hits, one)
            return
        stream = PinStream(num_sets, ways, spec)
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

    def test_ship(self, streams, native, chunk):
        num_sets, ways = GEOMETRY
        spec = ship_spec(ShipMemPolicy(region_bytes=256, block_bytes=64))
        one_hits, one = one_feed(ShipStream(num_sets, ways, spec), streams["blocks"])
        if not native:
            policy = ShipMemPolicy(region_bytes=256, block_bytes=64)
            assert_scalar_route_matches(policy, streams, chunk, one_hits, one)
            return
        stream = ShipStream(num_sets, ways, spec)
        hits = np.concatenate(
            [stream.feed(part) for part in chunked(streams["blocks"], chunk)]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.shct == one.shct

    def test_hawkeye(self, streams, native, chunk):
        num_sets, ways = GEOMETRY
        spec = hawkeye_spec(HawkeyePolicy())
        one_hits, one = one_feed(
            HawkeyeStream(num_sets, ways, spec), streams["blocks"], streams["pcs"]
        )
        if not native:
            assert_scalar_route_matches(HawkeyePolicy(), streams, chunk, one_hits, one)
            return
        stream = HawkeyeStream(num_sets, ways, spec)
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

    def test_leeway(self, streams, native, chunk):
        num_sets, ways = GEOMETRY
        spec = leeway_spec(LeewayPolicy())
        one_hits, one = one_feed(
            LeewayStream(num_sets, ways, spec), streams["blocks"], streams["pcs"]
        )
        if not native:
            assert_scalar_route_matches(LeewayPolicy(), streams, chunk, one_hits, one)
            return
        stream = LeewayStream(num_sets, ways, spec)
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

    def test_opt_two_pass(self, streams, native, chunk):
        num_sets, ways = GEOMETRY
        one_hits, one = one_feed(
            OptStream(num_sets, ways),
            streams["blocks"],
            next_use_indices(streams["blocks"]),
        )
        if not native:
            llc = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="LLC")
            policy = BeladyOptimal(llc)
            assert_scalar_route_matches(policy, streams, chunk, one_hits, one)
            return
        parts = chunked(streams["blocks"], chunk)
        starts = list(range(0, len(streams["blocks"]), chunk))
        table = NextUseTable()
        next_uses = [None] * len(parts)
        for index in reversed(range(len(parts))):
            next_uses[index] = resolve_chunk_next_use(
                parts[index], starts[index], table
            )
        stream = OptStream(num_sets, ways)
        hits = np.concatenate(
            [stream.feed(blocks, nxt) for blocks, nxt in zip(parts, next_uses)]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)


class TestPolicyReplayStream:
    @needs_native
    def test_stats_match_one_shot_vector_replay(self, streams):
        num_sets, ways = GEOMETRY
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
        chunks = list(llc_chunks(workload, config, streaming=True, max_chunk_accesses=5000))
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
            first = list(llc_chunks(workload, config, streaming=True, max_chunk_accesses=5000))
            stats_first = simulate_scheme(workload, "GRASP", config, streaming=True)
            memo = DiskMemo(tmp_path)
            assert memo.entry_count("llcchunk") >= len(first)
            assert memo.entry_count("llcstream") >= 1
            assert memo.entry_count("policystream") == 1
            clear_caches()
            second = list(llc_chunks(workload, config, streaming=True, max_chunk_accesses=5000))
            assert len(first) == len(second)
            for a, b in zip(first, second):
                np.testing.assert_array_equal(a.block_addresses, b.block_addresses)
                np.testing.assert_array_equal(a.hints, b.hints)
            assert simulate_scheme(workload, "GRASP", config, streaming=True) == stats_first
        finally:
            set_disk_memo(None)
            clear_caches()

    @pytest.mark.parametrize("streaming", [False, True], ids=["roi", "execution"])
    def test_corrupt_memo_chunk_falls_back_mid_stream(self, setup, tmp_path, streaming):
        """A lost/corrupt persisted chunk regenerates the tail, bit-identically:
        the ROI's only chunk, or a middle chunk of the full execution."""
        config, workload, _ = setup
        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        try:
            first = list(llc_chunks(workload, config, streaming, max_chunk_accesses=5000))
            assert len(first) > 2 if streaming else len(first) == 1
            # Corrupt a chunk: the memo-hit path serves the prefix from disk,
            # then falls back to regeneration for the rest of the stream.
            damaged = 1 if streaming else 0
            key = _stream_key(workload, config, streaming, 5000)
            memo.path_for("llcchunk", key + (damaged,)).write_bytes(b"not a pickle")
            clear_caches()
            second = list(llc_chunks(workload, config, streaming, max_chunk_accesses=5000))
            assert len(first) == len(second)
            for a, b in zip(first, second):
                for name, value in vars(a).items():
                    np.testing.assert_array_equal(value, getattr(b, name), err_msg=name)
            # The fallback also repaired the corrupted entry.
            assert memo.get("llcchunk", key + (damaged,)) is not None
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

    The ``vector`` route of ``simulate_policy(streaming=True)`` runs trace
    generation, the L1/L2 filter kernel and the family's replay kernel over
    each chunk's LLC-bound accesses.  It must stay bit-identical to the
    staged/scalar cross-checked pipeline for every chunk budget, including
    the hint-driven schemes.  ``REPRO_THREADS`` is retired: a value left in
    the environment (the frozen benchmark suite still exports one) must not
    change any result.
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
        clear_caches()  # nothing stored: the vector call runs the fused pass
        fused = simulate_policy(
            workload, scheme_policy(scheme), config,
            streaming=True, backend="vector", max_chunk_accesses=5000,
        )
        reference = simulate_policy(
            workload, scheme_policy(scheme), config,
            streaming=True, backend="verify", max_chunk_accesses=5000,
        )
        assert_stats_equal(reference, fused, f"fused {scheme} REPRO_THREADS={threads}")

    def test_chunk_budget_invariance(self, setup):
        config, workload = setup
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
