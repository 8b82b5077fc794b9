"""Equivalence tests for the vectorized RRIP-family replay engine.

Property-style: randomized block streams x randomized reuse-hint streams x
randomized cache geometries must produce byte-identical outcomes on the
scalar policies and the compiled-kernel engine — per-access hit masks, full
hit/miss/eviction statistics, and the global set-dueling state (PSEL and
the bimodal insertion counter).
"""

import numpy as np
import pytest
from kernel_marks import needs_native

from repro.cache import CacheConfig, SetAssociativeCache
from repro.cache.policies import LRUPolicy
from repro.cache.policies.rrip import (
    DYNAMIC_INSERTION,
    BRRIPPolicy,
    DRRIPPolicy,
    SRRIPPolicy,
)
from repro.cache.stats import CacheStats
from repro.core.grasp import GraspPolicy
from repro.core.variants import GraspInsertionOnlyPolicy, RRIPWithHintsPolicy
from repro.experiments import ExperimentConfig, build_workload, clear_caches
from repro.experiments.runner import (
    llc_trace_for,
    simulate_llc_policy,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim.dispatch import SCALAR, VECTOR, VERIFY
from repro.fastsim.filter import assert_stats_equal
from repro.fastsim.replay import supports_vector_replay, vector_policy_replay
from repro.fastsim.rrip import RRIPStream, rrip_spec

GEOMETRIES = [(1, 1), (1, 4), (4, 2), (8, 8), (16, 16), (32, 4), (64, 2)]

#: Policy factories under test; fresh instances per replay because the scalar
#: path mutates them.  Non-default parameters (narrow RRPVs, short bimodal
#: periods, a 4-bit PSEL that saturates constantly) stress every code path.
POLICIES = {
    "srrip": lambda: SRRIPPolicy(),
    "srrip-2bit": lambda: SRRIPPolicy(rrpv_bits=2),
    "brrip": lambda: BRRIPPolicy(),
    "brrip-tight": lambda: BRRIPPolicy(rrpv_bits=2, epsilon=3),
    "drrip": lambda: DRRIPPolicy(),
    "drrip-saturating": lambda: DRRIPPolicy(epsilon=4, psel_bits=3),
    "grasp": lambda: GraspPolicy(),
    "grasp-tight": lambda: GraspPolicy(rrpv_bits=2, epsilon=2, psel_bits=4),
}


def _scalar_reference(policy, blocks, hints, num_sets, ways):
    """Independent scalar replay built directly on SetAssociativeCache."""
    config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="ref")
    cache = SetAssociativeCache(config, policy)
    hits = np.array(
        [cache.access_block(int(b), 0, int(h)) for b, h in zip(blocks, hints)],
        dtype=bool,
    )
    return hits, cache.stats


def _replay(blocks, hints, num_sets, ways, spec):
    """Replay a whole stream with one feed on a fresh engine."""
    stream = RRIPStream(num_sets, ways, spec)
    return stream.feed(blocks, hints), stream


def _assert_replay_matches(hits, stream, policy, expected_hits, expected_stats, spec):
    assert np.array_equal(hits, expected_hits)
    assert stream.hit_count == expected_stats.hits
    assert stream.miss_count == expected_stats.misses
    assert stream.evictions == expected_stats.evictions
    if spec.dueling:
        # The set-dueling state must track the scalar policy exactly too.
        assert stream.psel == policy._psel
        assert stream.insert_count == policy._insert_count
    else:
        assert stream.psel is None
        if spec.epsilon:
            assert stream.insert_count == policy._insert_count


class TestSpecExtraction:
    def test_exact_types_supported(self):
        for factory in POLICIES.values():
            policy = factory()
            assert rrip_spec(policy) is not None
            assert supports_vector_replay(policy)

    def test_subclasses_and_other_policies_rejected(self):
        class NotQuiteDRRIP(DRRIPPolicy):
            pass

        for policy in (
            NotQuiteDRRIP(),
            RRIPWithHintsPolicy(),
            GraspInsertionOnlyPolicy(),
            scheme_policy("SHiP-MEM"),
            scheme_policy("Hawkeye"),
            scheme_policy("Leeway"),
            scheme_policy("PIN-50"),
        ):
            # None of these may masquerade as a plain RRIP-family policy...
            assert rrip_spec(policy) is None
        # ...but the exact SHiP/Hawkeye/Leeway/PIN types have dedicated
        # engines (tests/test_fastsim_policies.py); only true subclasses
        # fall back to the scalar simulator.
        for policy in (NotQuiteDRRIP(), RRIPWithHintsPolicy(), GraspInsertionOnlyPolicy()):
            assert not supports_vector_replay(policy)

    def test_invalid_epsilon_rejected(self):
        # A zero bimodal period would make the scalar policy divide by zero
        # and the engines diverge; every bimodal policy must reject it.
        for factory in (BRRIPPolicy, DRRIPPolicy, GraspPolicy):
            with pytest.raises(ValueError):
                factory(epsilon=0)

    def test_spec_reflects_policy_parameters(self):
        spec = rrip_spec(DRRIPPolicy(rrpv_bits=2, epsilon=8, psel_bits=4))
        assert spec.max_rrpv == 3
        assert spec.epsilon == 8
        assert spec.psel_max == 15
        assert spec.leader_period == DRRIPPolicy.LEADER_PERIOD
        assert all(entry == DYNAMIC_INSERTION for entry in spec.insertion_table)
        grasp = rrip_spec(GraspPolicy())
        # Table II: High->MRU, Moderate->near-LRU, Low->LRU, Default->duel.
        assert grasp.insertion_table == (DYNAMIC_INSERTION, 0, 6, 7)
        assert grasp.promotion_table == (0, 0, -1, -1)


@needs_native
class TestRRIPReplayEquivalence:
    # One feed on a fresh ``RRIPStream`` (the compiled kernel) must reproduce
    # the scalar policies exactly.  The ``kernel`` id is the cases'
    # long-standing name.
    KERNEL = pytest.mark.parametrize("kernel", ["rrip_replay"])

    @KERNEL
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("num_sets,ways", GEOMETRIES)
    def test_random_streams(self, kernel, policy_name, num_sets, ways):
        seed = sorted(POLICIES).index(policy_name) * 9973 + num_sets * 131 + ways
        rng = np.random.default_rng(seed)
        for n in (0, 1, ways, 193, 800):
            blocks = rng.integers(0, max(1, 3 * num_sets * ways), size=n)
            hints = rng.integers(0, 4, size=n)
            policy = POLICIES[policy_name]()
            spec = rrip_spec(policy)
            expected_hits, expected_stats = _scalar_reference(
                policy, blocks, hints, num_sets, ways
            )
            hits, stream = _replay(blocks, hints, num_sets, ways, spec)
            _assert_replay_matches(
                hits, stream, policy, expected_hits, expected_stats, spec
            )

    @KERNEL
    @pytest.mark.parametrize("policy_name", ["drrip-saturating", "grasp-tight"])
    def test_leader_heavy_streams_keep_psel_exact(self, kernel, policy_name):
        # Concentrate accesses on leader sets so PSEL saturates repeatedly.
        num_sets, ways = 32, 2
        rng = np.random.default_rng(5)
        leader_blocks = rng.integers(0, 8, size=600) * num_sets  # set 0
        brrip_blocks = rng.integers(0, 8, size=600) * num_sets + 1  # set 1
        blocks = np.empty(1200, dtype=np.int64)
        blocks[0::2] = leader_blocks
        blocks[1::2] = brrip_blocks
        hints = np.zeros(1200, dtype=np.int64)
        policy = POLICIES[policy_name]()
        spec = rrip_spec(policy)
        expected_hits, expected_stats = _scalar_reference(
            policy, blocks, hints, num_sets, ways
        )
        hits, stream = _replay(blocks, hints, num_sets, ways, spec)
        _assert_replay_matches(hits, stream, policy, expected_hits, expected_stats, spec)

    @KERNEL
    def test_hint_stream_none_matches_hint_blind_scalar(self, kernel):
        rng = np.random.default_rng(9)
        blocks = rng.integers(0, 128, size=700)
        policy = GraspPolicy()
        spec = rrip_spec(policy)
        expected_hits, expected_stats = _scalar_reference(
            policy, blocks, np.zeros(700, dtype=np.int64), 16, 4
        )
        hits, stream = _replay(blocks, None, 16, 4, spec)
        _assert_replay_matches(hits, stream, policy, expected_hits, expected_stats, spec)


@needs_native
class TestVectorPolicyReplay:
    def test_region_breakdown_matches_scalar(self):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 96, size=900)
        hints = rng.integers(0, 4, size=900)
        regions = rng.integers(0, 4, size=900).astype(np.int8)
        llc = CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC")
        stats = vector_policy_replay(
            GraspPolicy(), blocks, llc, hints=hints, regions=regions
        )
        cache = SetAssociativeCache(llc, GraspPolicy())
        for block, hint, region in zip(blocks.tolist(), hints.tolist(), regions.tolist()):
            cache.access_block(block, 0, hint, region)
        assert_stats_equal(cache.stats, stats, "test")
        assert cache.stats.region_accesses == stats.region_accesses
        assert cache.stats.region_misses == stats.region_misses

    def test_unsupported_policy_raises(self):
        with pytest.raises(ValueError):
            vector_policy_replay(
                scheme_policy("RRIP+Hints"),
                np.arange(10),
                CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC"),
            )

    def test_lru_still_routes_to_stack_distance_engine(self):
        rng = np.random.default_rng(21)
        blocks = rng.integers(0, 64, size=500)
        llc = CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC")
        stats = vector_policy_replay(LRUPolicy(), blocks, llc)
        cache = SetAssociativeCache(llc, LRUPolicy())
        for block in blocks.tolist():
            cache.access_block(block)
        assert_stats_equal(cache.stats, stats, "test")


class TestEndToEndDispatch:
    @pytest.mark.parametrize("scheme", ["RRIP", "GRASP"])
    def test_real_workload_stats_identical(self, scheme):
        clear_caches()
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        llc_trace = llc_trace_for(workload, config)
        llc = config.hierarchy.llc
        scalar = simulate_llc_policy(llc_trace, scheme_policy(scheme), llc, backend=SCALAR)
        vector = simulate_llc_policy(llc_trace, scheme_policy(scheme), llc, backend=VECTOR)
        verify = simulate_llc_policy(llc_trace, scheme_policy(scheme), llc, backend=VERIFY)
        for other in (vector, verify):
            assert_stats_equal(scalar, other, "test")
        # The region breakdown (Fig. 2) must survive vectorization too.
        assert scalar.region_accesses == vector.region_accesses
        assert scalar.region_misses == vector.region_misses

    def test_hint_blind_replay_matches_scalar(self):
        clear_caches()
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        llc_trace = llc_trace_for(workload, config)
        llc = config.hierarchy.llc
        direct = simulate_llc_policy(
            llc_trace, GraspPolicy(), llc, use_hints=False, backend=SCALAR
        )
        public = simulate_llc_policy(
            llc_trace, GraspPolicy(), llc, use_hints=False, backend=VECTOR
        )
        assert_stats_equal(direct, public, "test")

    def test_ablation_variants_stay_on_scalar_path(self):
        # The Fig. 7 ablations subclass DRRIP/GRASP but override hooks the
        # array tables cannot express; they must not be routed to the engine.
        for scheme in ("RRIP+Hints", "GRASP (Insertion-Only)"):
            assert not supports_vector_replay(scheme_policy(scheme))


class TestStatsContract:
    def test_from_counts_round_trip(self):
        stats = CacheStats.from_counts("LLC", hits=7, misses=5, evictions=2)
        assert stats.accesses == 12
        assert stats.miss_rate == pytest.approx(5 / 12)
