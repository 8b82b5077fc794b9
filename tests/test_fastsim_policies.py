"""Equivalence tests for the PR 4 vectorized LLC policy engines.

Property-style, mirroring ``tests/test_fastsim_rrip.py``: randomized block
streams x reuse-hint streams x PC streams x cache geometries must produce
byte-identical outcomes on the scalar policies and the compiled-kernel
engines for SHiP-MEM, Hawkeye, Leeway, the PIN-X pinning configurations and
Belady's OPT — per-access hit
masks, full hit/miss/eviction/bypass statistics, and the global learning
state (SHCT, PC predictors, PSEL).  The same cases replay once more through
the runner with the kernel library reported unavailable -- the ``scalar``
route a host without a C compiler takes -- and must reproduce the
reference's counts and learning state.  Also regression-tests the scalar-policy
bugs fixed in this PR (PIN's skipped PSEL updates and stale pinned RRPVs,
SHiP's silently truncated region sizes, Leeway's quadratic victim scan).
"""

import dataclasses

import numpy as np
import pytest
from kernel_marks import needs_native

from repro.cache import CacheConfig, SetAssociativeCache
from repro.cache.hints import HINT_DEFAULT, HINT_HIGH
from repro.cache.policies.base import BYPASS
from repro.cache.policies.hawkeye import HawkeyePolicy
from repro.cache.policies.leeway import LeewayPolicy
from repro.cache.policies.opt import BeladyOptimal, simulate_opt_misses
from repro.cache.policies.pin import PinningPolicy
from repro.cache.policies.ship import ShipMemPolicy
from repro.core.variants import GraspInsertionOnlyPolicy, RRIPWithHintsPolicy
from repro.experiments import ExperimentConfig, build_workload, clear_caches
from repro.experiments.runner import (
    LLCTrace,
    llc_trace_for,
    simulate_llc_policy,
    simulate_opt,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim import kernels
from repro.fastsim.dispatch import SCALAR, VECTOR, VERIFY
from repro.fastsim.filter import assert_stats_equal
from repro.fastsim.hawkeye import HawkeyeStream, hawkeye_spec
from repro.fastsim.leeway import LeewayStream, leeway_spec
from repro.fastsim.opt import OptStream, next_use_indices
from repro.fastsim.pin import PinStream, pin_spec
from repro.fastsim.plan import (
    KERNEL_PYTHON,
    NO_KERNELS,
    ROUTE_SCALAR,
    SimRequest,
    plan_request,
)
from repro.fastsim.replay import supports_vector_replay, vector_policy_replay
from repro.fastsim.ship import ShipStream, ship_spec

GEOMETRIES = [(1, 1), (1, 4), (4, 2), (8, 8), (16, 16), (32, 4), (64, 2)]

#: Policy factories under test; fresh instances per replay because the scalar
#: path mutates them.  Non-default parameters (tiny regions, 1-bit counters,
#: every-set sampling, decay period 1) stress every code path.
POLICIES = {
    "ship": lambda: ShipMemPolicy(region_bytes=256, block_bytes=64),
    "ship-tight": lambda: ShipMemPolicy(
        rrpv_bits=2, region_bytes=128, counter_bits=1, block_bytes=64
    ),
    "hawkeye": lambda: HawkeyePolicy(),
    "hawkeye-dense": lambda: HawkeyePolicy(
        rrpv_bits=2, sample_period=1, predictor_bits=1, history_factor=1
    ),
    "leeway": lambda: LeewayPolicy(),
    "leeway-jumpy": lambda: LeewayPolicy(decay_period=1),
    "pin-25": lambda: PinningPolicy(reserved_fraction=0.25),
    "pin-50": lambda: PinningPolicy(reserved_fraction=0.50),
    "pin-75": lambda: PinningPolicy(reserved_fraction=0.75),
    "pin-100": lambda: PinningPolicy(reserved_fraction=1.00),
}


def _scalar_reference(policy, blocks, hints, pcs, num_sets, ways):
    """Independent scalar replay built directly on SetAssociativeCache."""
    config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="ref")
    cache = SetAssociativeCache(config, policy)
    hits = np.array(
        [
            cache.access_block(int(b), int(p), int(h))
            for b, p, h in zip(blocks, pcs, hints)
        ],
        dtype=bool,
    )
    return hits, cache.stats


def _vector_replay(policy, blocks, hints, pcs, num_sets, ways):
    """One feed on a fresh stream engine matching one (fresh) policy instance.

    Returns ``(hits, stream)``.
    """
    if type(policy) is ShipMemPolicy:
        stream = ShipStream(num_sets, ways, ship_spec(policy))
        return stream.feed(blocks), stream
    if type(policy) is HawkeyePolicy:
        stream = HawkeyeStream(num_sets, ways, hawkeye_spec(policy))
        return stream.feed(blocks, pcs), stream
    if type(policy) is LeewayPolicy:
        stream = LeewayStream(num_sets, ways, leeway_spec(policy))
        return stream.feed(blocks, pcs), stream
    stream = PinStream(num_sets, ways, pin_spec(policy))
    return stream.feed(blocks, hints), stream


def _llc_trace(blocks, hints, pcs):
    """A materialized LLC trace (region 0 throughout) over block ids."""
    blocks = np.asarray(blocks, dtype=np.int64)
    return LLCTrace(
        byte_addresses=blocks << 6,
        block_addresses=blocks,
        pcs=np.asarray(pcs, dtype=np.int64),
        regions=np.zeros(len(blocks), dtype=np.int8),
        hints=np.asarray(hints, dtype=np.int64),
        upstream_l1_hits=0,
        upstream_l2_hits=0,
        total_references=len(blocks),
    )


def _scalar_route_replay(monkeypatch, policy, blocks, hints, pcs, num_sets, ways):
    """Replay through the runner as a host without the kernel library does.

    With :func:`repro.fastsim.kernels.available` false the planner turns the
    ``vector`` request into a ``scalar`` plan, and the runner's LLC driver
    feeds ``policy`` on the per-access reference.  Returns the stats.
    """
    monkeypatch.setattr(kernels, "available", lambda: False)
    name = getattr(policy, "name", type(policy).__name__)
    plan = plan_request(SimRequest(schemes=(name,), policies=(policy,), backend=VECTOR))
    assert (plan.route, plan.kernel) == (ROUTE_SCALAR, KERNEL_PYTHON)
    assert NO_KERNELS in plan.fallbacks
    llc = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="ref")
    return simulate_llc_policy(
        _llc_trace(blocks, hints, pcs), policy, llc, backend=VECTOR
    )


def _counts(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.evictions, stats.bypasses)


def _learned_state(policy):
    """A scalar policy's global learning state, as plain values."""
    if type(policy) is ShipMemPolicy:
        return dict(policy._shct)
    if type(policy) is HawkeyePolicy:
        return dict(policy._predictor)
    if type(policy) is LeewayPolicy:
        return dict(policy._predicted_ld)
    return policy._psel, policy._insert_count


#: Engine ids of the equivalence cases (their long-standing names):
#: ``dispatch`` feeds the family's compiled-kernel stream, and ``numpy`` --
#: named for the batched engines that once served hosts without a C
#: compiler -- replays through the runner on the ``scalar`` route such a
#: host now takes (:func:`_scalar_route_replay`).
ENGINE = pytest.mark.parametrize(
    "engine_name", [pytest.param("dispatch", marks=needs_native), "numpy"]
)


def _assert_replay_matches(replay, policy, expected_hits, expected_stats):
    hits, stream = replay
    assert np.array_equal(hits, expected_hits)
    assert stream.hit_count == expected_stats.hits
    assert stream.miss_count == expected_stats.misses
    assert stream.evictions == expected_stats.evictions
    # The global learning state must track the scalar policy exactly too.
    if type(policy) is ShipMemPolicy:
        for signature, value in policy._shct.items():
            assert stream.shct.get(signature, 1) == value
    elif type(policy) is HawkeyePolicy:
        midpoint = (policy.predictor_max + 1) // 2
        for pc, value in policy._predictor.items():
            assert stream.predictor.get(pc, midpoint) == value
    elif type(policy) is LeewayPolicy:
        for signature, value in policy._predicted_ld.items():
            assert stream.predicted_live_distances.get(signature, 0) == value
    elif type(policy) is PinningPolicy:
        assert stream.bypass_count == expected_stats.bypasses
        assert stream.psel == policy._psel
        assert stream.insert_count == policy._insert_count


class TestScalarBugfixes:
    def test_pin_leader_set_misses_update_psel(self):
        # Regression for the pinning fast path skipping DRRIP's set duel:
        # misses in SRRIP leader set 0 that insert *pinned* blocks must still
        # push PSEL up.  Pre-fix, on_insert early-returned before the duel
        # update and PSEL never moved.
        policy = PinningPolicy(reserved_fraction=1.0)
        num_sets, ways = 32, 2
        config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="LLC")
        cache = SetAssociativeCache(config, policy)
        initial_psel = policy._psel
        # Distinct blocks mapping to leader set 0, all High-Reuse: every
        # access is a miss that pins its block.
        for index in range(ways):
            cache.access_block(index * num_sets, 0, HINT_HIGH)
        assert policy._psel == initial_psel + ways
        # The BRRIP leader (set 1) must symmetrically tick the bimodal
        # counter and pull PSEL down, pinned or not.
        for index in range(ways):
            cache.access_block(index * num_sets + 1, 0, HINT_HIGH)
        assert policy._psel == initial_psel
        assert policy._insert_count == ways

    def test_pin_on_hit_refreshes_rrpv(self):
        # Regression for pin-on-hit keeping the stale RRPV: a block inserted
        # unpinned at a distant interval and pinned on a later hit must be
        # promoted to hit priority.
        policy = PinningPolicy(reserved_fraction=1.0)
        num_sets, ways = 32, 4
        config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="LLC")
        cache = SetAssociativeCache(config, policy)
        follower_set = 2
        cache.access_block(follower_set, 0, HINT_DEFAULT)  # insert unpinned
        assert policy.rrpv_of(follower_set, 0) > 0
        cache.access_block(follower_set, 0, HINT_HIGH)  # hit pins the block
        assert policy.is_pinned(follower_set, 0)
        assert policy.rrpv_of(follower_set, 0) == 0

    def test_pin_bypass_only_when_fully_pinned(self):
        policy = PinningPolicy(reserved_fraction=1.0)
        num_sets, ways = 32, 2
        config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="LLC")
        cache = SetAssociativeCache(config, policy)
        for index in range(ways):
            cache.access_block(index * num_sets, 0, HINT_HIGH)
        # The set is full of pinned blocks: the next insertion must bypass.
        assert policy.choose_victim(0, ways * num_sets, 0, HINT_DEFAULT) == BYPASS
        cache.access_block(ways * num_sets, 0, HINT_DEFAULT)
        assert cache.stats.bypasses == 1

    def test_ship_rejects_non_power_of_two_regions(self):
        for region_bytes, block_bytes in ((192, 64), (3 * 1024, 64), (256, 96)):
            with pytest.raises(ValueError):
                ShipMemPolicy(region_bytes=region_bytes, block_bytes=block_bytes)
        # Power-of-two ratios (the paper's configurations) still work.
        assert ShipMemPolicy(region_bytes=2 * 1024, block_bytes=64).region_shift == 5

    def test_leeway_victim_scan_matches_quadratic_reference(self):
        # The single-pass victim search must pick exactly the block the old
        # per-way list.index scan picked.
        def reference_victim(policy, set_index):
            stack = policy._stack[set_index]
            for way in reversed(stack):
                signature = policy._signature[set_index][way]
                position = stack.index(way)
                if position > policy.predicted_live_distance(signature):
                    return way
            return stack[-1]

        rng = np.random.default_rng(11)
        num_sets, ways = 8, 8
        policy = LeewayPolicy(decay_period=2)
        config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="LLC")
        cache = SetAssociativeCache(config, policy)
        for block, pc in zip(
            rng.integers(0, 3 * num_sets * ways, size=600).tolist(),
            rng.integers(0, 5, size=600).tolist(),
        ):
            set_index = block & (num_sets - 1)
            if not cache.contains(block << config.block_offset_bits):
                # About to miss: check both scans agree on the victim.
                assert policy.choose_victim(set_index, block, pc, 0) == (
                    reference_victim(policy, set_index)
                )
            cache.access_block(block, pc, 0)


class TestSpecExtraction:
    def test_exact_types_supported(self):
        for factory in POLICIES.values():
            assert supports_vector_replay(factory())
        assert supports_vector_replay(
            BeladyOptimal(CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC"))
        )

    def test_subclasses_rejected(self):
        class NotQuiteShip(ShipMemPolicy):
            pass

        class NotQuiteHawkeye(HawkeyePolicy):
            pass

        class NotQuiteLeeway(LeewayPolicy):
            pass

        class NotQuitePin(PinningPolicy):
            pass

        for policy in (
            NotQuiteShip(region_bytes=256, block_bytes=64),
            NotQuiteHawkeye(),
            NotQuiteLeeway(),
            NotQuitePin(),
            RRIPWithHintsPolicy(),
            GraspInsertionOnlyPolicy(),
        ):
            assert ship_spec(policy) is None
            assert hawkeye_spec(policy) is None
            assert leeway_spec(policy) is None
            assert pin_spec(policy) is None
            assert not supports_vector_replay(policy)

    def test_spec_reflects_policy_parameters(self):
        ship = ship_spec(ShipMemPolicy(rrpv_bits=2, region_bytes=512, counter_bits=2, block_bytes=64))
        assert (ship.max_rrpv, ship.region_shift, ship.counter_max) == (3, 3, 3)
        hawkeye = hawkeye_spec(HawkeyePolicy(sample_period=4, predictor_bits=2, history_factor=3))
        assert (hawkeye.sample_period, hawkeye.predictor_max, hawkeye.history_factor) == (4, 3, 3)
        assert leeway_spec(LeewayPolicy(decay_period=5)).decay_period == 5
        pin = pin_spec(PinningPolicy(reserved_fraction=0.75))
        assert pin.reserved_fraction == 0.75
        assert pin.reserved_ways(8) == 6
        assert pin.reserved_ways(1) == 1


class TestPolicyReplayEquivalence:
    @ENGINE
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("num_sets,ways", GEOMETRIES)
    def test_random_streams(self, engine_name, policy_name, num_sets, ways, monkeypatch):
        seed = sorted(POLICIES).index(policy_name) * 9973 + num_sets * 131 + ways
        rng = np.random.default_rng(seed)
        for n in (0, 1, ways, 193, 600):
            blocks = rng.integers(0, max(1, 3 * num_sets * ways), size=n)
            hints = rng.integers(0, 4, size=n)
            pcs = rng.integers(0, 7, size=n)
            policy = POLICIES[policy_name]()
            expected_hits, expected_stats = _scalar_reference(
                policy, blocks, hints, pcs, num_sets, ways
            )
            if engine_name == "numpy":
                routed = POLICIES[policy_name]()
                stats = _scalar_route_replay(
                    monkeypatch, routed, blocks, hints, pcs, num_sets, ways
                )
                assert _counts(stats) == _counts(expected_stats)
                assert _learned_state(routed) == _learned_state(policy)
                continue
            replay = _vector_replay(policy, blocks, hints, pcs, num_sets, ways)
            _assert_replay_matches(replay, policy, expected_hits, expected_stats)

    @ENGINE
    def test_pin_100_bypass_accounting(self, engine_name, monkeypatch):
        # All-High-Reuse traffic under PIN-100 pins every way of every
        # touched set; the steady state is nothing but bypasses, which must
        # be counted (inside misses) identically to the scalar simulator.
        num_sets, ways = 8, 4
        rng = np.random.default_rng(23)
        blocks = rng.integers(0, 4 * num_sets * ways, size=900)
        hints = np.full(900, HINT_HIGH, dtype=np.int64)
        pcs = np.zeros(900, dtype=np.int64)
        policy = PinningPolicy(reserved_fraction=1.0)
        expected_hits, expected_stats = _scalar_reference(
            policy, blocks, hints, pcs, num_sets, ways
        )
        assert expected_stats.bypasses > 0  # the scenario actually bypasses
        if engine_name == "numpy":
            routed = PinningPolicy(reserved_fraction=1.0)
            stats = _scalar_route_replay(
                monkeypatch, routed, blocks, hints, pcs, num_sets, ways
            )
            assert _counts(stats) == _counts(expected_stats)
            assert _learned_state(routed) == _learned_state(policy)
            return
        replay = _vector_replay(policy, blocks, hints, pcs, num_sets, ways)
        _assert_replay_matches(replay, policy, expected_hits, expected_stats)
        _, stream = replay
        assert stream.bypass_count == expected_stats.bypasses
        # Bypasses are misses that never insert: eviction counts must agree.
        assert stream.evictions == expected_stats.evictions == 0

    @ENGINE
    @pytest.mark.parametrize("sample_period", [1, 4, 1024])
    def test_hawkeye_sampled_and_unsampled_sets(
        self, engine_name, sample_period, monkeypatch
    ):
        # sample_period=1 trains OPTgen on every set, 4 on a subset, 1024 on
        # set 0 only (period larger than the set count); all must match.
        num_sets, ways = 8, 4
        rng = np.random.default_rng(sample_period)
        blocks = rng.integers(0, 5 * num_sets * ways, size=700)
        pcs = rng.integers(0, 5, size=700)
        hints = np.zeros(700, dtype=np.int64)
        policy = HawkeyePolicy(sample_period=sample_period)
        expected_hits, expected_stats = _scalar_reference(
            policy, blocks, hints, pcs, num_sets, ways
        )
        assert policy._samplers  # OPTgen actually engaged
        if engine_name == "numpy":
            routed = HawkeyePolicy(sample_period=sample_period)
            stats = _scalar_route_replay(
                monkeypatch, routed, blocks, hints, pcs, num_sets, ways
            )
            assert _counts(stats) == _counts(expected_stats)
            assert _learned_state(routed) == _learned_state(policy)
            return
        replay = _vector_replay(policy, blocks, hints, pcs, num_sets, ways)
        _assert_replay_matches(replay, policy, expected_hits, expected_stats)

    @needs_native
    def test_hawkeye_stream_refuses_an_empty_optgen_window(self):
        # The kernel's OPTgen ring buffer indexes modulo the window length;
        # a zero window must be refused before it reaches the kernel.
        empty = dataclasses.replace(hawkeye_spec(HawkeyePolicy()), history_factor=0)
        with pytest.raises(ValueError, match="OPTgen window"):
            HawkeyeStream(8, 4, empty)

    @needs_native
    @pytest.mark.parametrize("kernel", ["opt_replay"])
    @pytest.mark.parametrize("num_sets,ways", GEOMETRIES)
    def test_opt_matches_offline_reference(self, kernel, num_sets, ways):
        rng = np.random.default_rng(num_sets * 131 + ways)
        config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="ref")
        for n in (0, 1, ways, 400, 1200):
            blocks = rng.integers(0, max(1, 2 * num_sets * ways), size=n).astype(np.int64)
            expected = simulate_opt_misses(blocks, config)
            stream = OptStream(num_sets, ways)
            stream.feed(blocks, next_use_indices(blocks))
            assert stream.hit_count == expected.hits
            assert stream.miss_count == expected.misses
            assert stream.evictions == expected.evictions

    @needs_native
    @pytest.mark.parametrize("kernel", ["opt_replay"])
    def test_opt_rejects_short_next_use(self, kernel):
        # The compiled replay used to read past a short next-use array and
        # return counts silently; the stream must refuse it up front.
        blocks = np.random.default_rng(5).integers(0, 256, size=4096)
        stream = OptStream(16, 4)
        with pytest.raises(ValueError, match="next-use stream length 16 != trace length 4096"):
            stream.feed(blocks, next_use_indices(blocks)[:16])
        assert stream.hit_count == 0
        assert stream.miss_count == 0


@needs_native
class TestVectorPolicyReplay:
    @pytest.mark.parametrize("policy_name", ["ship", "hawkeye", "leeway", "pin-75"])
    def test_region_breakdown_matches_scalar(self, policy_name):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 96, size=900)
        hints = rng.integers(0, 4, size=900)
        pcs = rng.integers(0, 5, size=900)
        regions = rng.integers(0, 4, size=900).astype(np.int8)
        llc = CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC")
        stats = vector_policy_replay(
            POLICIES[policy_name](), blocks, llc, hints=hints, regions=regions, pcs=pcs
        )
        cache = SetAssociativeCache(llc, POLICIES[policy_name]())
        for block, pc, hint, region in zip(
            blocks.tolist(), pcs.tolist(), hints.tolist(), regions.tolist()
        ):
            cache.access_block(block, pc, hint, region)
        assert_stats_equal(cache.stats, stats, "test")
        assert cache.stats.region_accesses == stats.region_accesses
        assert cache.stats.region_misses == stats.region_misses

    def test_pin_100_bypasses_surface_in_cache_stats(self):
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 256, size=800)
        hints = np.full(800, HINT_HIGH, dtype=np.int64)
        llc = CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC")
        stats = vector_policy_replay(
            PinningPolicy(reserved_fraction=1.0), blocks, llc, hints=hints
        )
        cache = SetAssociativeCache(llc, PinningPolicy(reserved_fraction=1.0))
        for block, hint in zip(blocks.tolist(), hints.tolist()):
            cache.access_block(block, 0, hint)
        assert stats.bypasses == cache.stats.bypasses > 0
        # BYPASS semantics: a bypass is counted inside misses, so hits +
        # misses covers every access and evictions exclude bypasses.
        assert stats.hits + stats.misses == 800
        assert_stats_equal(cache.stats, stats, "test")

    def test_belady_wrapper_routes_to_opt_engine(self):
        rng = np.random.default_rng(9)
        blocks = rng.integers(0, 128, size=600).astype(np.int64)
        llc = CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC")
        stats = vector_policy_replay(BeladyOptimal(llc), blocks, llc)
        expected = simulate_opt_misses(blocks, llc)
        assert_stats_equal(expected, stats, "test")


class TestEndToEndDispatch:
    @pytest.mark.parametrize(
        "scheme", ["SHiP-MEM", "Hawkeye", "Leeway", "PIN-75", "PIN-100"]
    )
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

    def test_opt_backends_agree(self):
        clear_caches()
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        llc_trace = llc_trace_for(workload, config)
        llc = config.hierarchy.llc
        scalar = simulate_opt(llc_trace, llc, backend=SCALAR)
        vector = simulate_opt(llc_trace, llc, backend=VECTOR)
        verify = simulate_opt(llc_trace, llc, backend=VERIFY)
        for other in (vector, verify):
            assert_stats_equal(scalar, other, "test")
        # The BeladyOptimal wrapper must take the same offline path through
        # the generic entry point on every backend (it cannot run online, so
        # a scalar/verify request must not reach SetAssociativeCache).
        for backend in (SCALAR, VECTOR, VERIFY):
            wrapped = simulate_llc_policy(
                llc_trace, BeladyOptimal(llc), llc, backend=backend
            )
            assert_stats_equal(scalar, wrapped, "test")

    def test_hint_blind_replay_matches_scalar(self):
        clear_caches()
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        llc_trace = llc_trace_for(workload, config)
        llc = config.hierarchy.llc
        direct = simulate_llc_policy(
            llc_trace,
            PinningPolicy(reserved_fraction=0.75),
            llc,
            use_hints=False,
            backend=SCALAR,
        )
        public = simulate_llc_policy(
            llc_trace,
            PinningPolicy(reserved_fraction=0.75),
            llc,
            use_hints=False,
            backend=VECTOR,
        )
        assert_stats_equal(direct, public, "test")

    def test_hawkeye_without_optgen_window_is_scalar(self):
        # A zero-length OPTgen window leaves the kernel's ring buffers
        # nothing to hold: the policy has no array-form spec, so it belongs
        # to the scalar pseudo-family and every backend replays it on the
        # reference.
        assert hawkeye_spec(HawkeyePolicy(history_factor=0)) is None
        assert not supports_vector_replay(HawkeyePolicy(history_factor=0))
        plan = plan_request(
            SimRequest(
                schemes=("Hawkeye",),
                policies=(HawkeyePolicy(history_factor=0),),
                backend=VECTOR,
            )
        )
        assert (plan.route, plan.engine, plan.kernel) == (ROUTE_SCALAR, "scalar", "python")
        rng = np.random.default_rng(31)
        blocks = rng.integers(0, 160, size=1500).astype(np.int64)
        trace = LLCTrace(
            byte_addresses=blocks << 6,
            block_addresses=blocks,
            pcs=rng.integers(0, 6, size=1500).astype(np.int64),
            regions=rng.integers(0, 4, size=1500).astype(np.int8),
            hints=np.zeros(1500, dtype=np.int64),
            upstream_l1_hits=0,
            upstream_l2_hits=0,
            total_references=1500,
        )
        llc = CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC")
        scalar = simulate_llc_policy(
            trace, HawkeyePolicy(history_factor=0), llc, backend=SCALAR
        )
        vector = simulate_llc_policy(
            trace, HawkeyePolicy(history_factor=0), llc, backend=VECTOR
        )
        assert_stats_equal(scalar, vector, "test")
        assert scalar.region_accesses == vector.region_accesses
