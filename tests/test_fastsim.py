"""Equivalence tests for the vectorized simulation fast path.

Property-style: randomized block streams over randomized cache geometries
must produce byte-identical outcomes — per-access hit masks and full
hit/miss/eviction statistics — on the scalar and vector backends, for both
the L1/L2 filter and the LLC LRU replay.
"""

import numpy as np
import pytest
from kernel_marks import needs_native

from repro.cache import CacheConfig, SetAssociativeCache
from repro.cache.config import HierarchyConfig
from repro.cache.policies import LRUPolicy
from repro.cache.stats import CacheStats
from repro.experiments import ExperimentConfig, build_workload, clear_caches
from repro.experiments.runner import (
    filter_trace,
    llc_trace_for,
    roi_trace,
    simulate_llc_policy,
)
from repro.fastsim import kernels
from repro.fastsim.dispatch import (
    BACKENDS,
    SCALAR,
    VECTOR,
    VERIFY,
    default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.fastsim.filter import FastSimMismatchError, assert_stats_equal, run_filter
from repro.fastsim.replay import supports_vector_replay, vector_policy_replay
from repro.fastsim.stackdist import DenseIdMap, LRUStream
from repro.trace import Trace

GEOMETRIES = [(1, 1), (1, 4), (4, 1), (4, 4), (8, 2), (2, 8), (16, 16)]


def _reference_lru(blocks, num_sets, ways):
    """Independent scalar reference built directly on SetAssociativeCache."""
    config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="ref")
    cache = SetAssociativeCache(config, LRUPolicy())
    hits = np.array([cache.access_block(int(b)) for b in blocks], dtype=bool)
    return hits, cache.stats


def _random_blocks(rng, style, n, footprint):
    if style == "reuse-heavy":
        return rng.integers(0, max(1, footprint // 2), size=n)
    if style == "thrashing":
        return rng.integers(0, 4 * footprint + 1, size=n)
    if style == "skewed":
        return (rng.zipf(1.5, size=n) % (8 * footprint)).astype(np.int64)
    if style == "streaming":
        return np.arange(n, dtype=np.int64) % (2 * footprint + 1)
    raise AssertionError(style)


class TestDenseIdMap:
    def test_direct_and_dict_paths_assign_identical_ids(self):
        # Ids are handed out chunk by chunk, new keys in sorted order, and
        # never change -- on the direct-lookup path, on the dict path, and
        # across the switch from one to the other mid-stream.
        rng = np.random.default_rng(13)
        limit = DenseIdMap.DIRECT_LIMIT
        chunks = [
            np.array([5, 3, 5, 9]),
            np.array([], dtype=np.int64),
            np.array([9, 0, 3, 100]),
            rng.integers(0, 5000, size=700),
            # A key beyond the direct range moves the map to its dict.
            np.array([limit + 7, 3, 4999, 6000, limit + 7]),
            rng.integers(0, 8000, size=700),
            np.array([-4, 6000, 2]),
        ]
        direct = DenseIdMap()
        via_dict = DenseIdMap()
        via_dict.DIRECT_LIMIT = 0  # every chunk takes the dict path
        reference = {}
        for index, chunk in enumerate(chunks):
            for key in sorted(set(chunk.tolist()) - reference.keys()):
                reference[key] = len(reference)
            expected = [reference[key] for key in chunk.tolist()]
            assert direct.map(chunk).tolist() == expected
            assert via_dict.map(chunk).tolist() == expected
            assert (direct._ids is None) == (index < 4)
            assert len(direct) == len(via_dict) == len(reference)
            assert direct.keys_in_id_order() == list(reference)
            assert via_dict.keys_in_id_order() == list(reference)


@needs_native
class TestLRUReplayEquivalence:
    # One feed on a fresh ``LRUStream`` (the compiled kernel) must reproduce
    # the scalar simulator exactly.  The ``kernel`` id is the cases'
    # long-standing name.
    KERNEL = pytest.mark.parametrize("kernel", ["lru_replay"])

    @KERNEL
    @pytest.mark.parametrize("num_sets,ways", GEOMETRIES)
    @pytest.mark.parametrize("style", ["reuse-heavy", "thrashing", "skewed", "streaming"])
    def test_random_streams(self, kernel, num_sets, ways, style):
        rng = np.random.default_rng(hash((num_sets, ways, style)) % (2**32))
        for n in (0, 1, 2, ways, 257):
            blocks = _random_blocks(rng, style, n, num_sets * ways)
            expected_hits, expected_stats = _reference_lru(blocks, num_sets, ways)
            stream = LRUStream(num_sets, ways)
            assert np.array_equal(stream.feed(blocks), expected_hits)
            assert stream.hit_count == expected_stats.hits
            assert stream.miss_count == expected_stats.misses
            assert stream.evictions == expected_stats.evictions

    @KERNEL
    def test_handcrafted_eviction_pattern(self, kernel):
        # One 2-way set: A B C B A -> C evicts A, final A evicts C.
        stream = LRUStream(num_sets=1, ways=2)
        hits = stream.feed(np.array([0, 1, 2, 1, 0]) * 1)
        assert hits.tolist() == [False, False, False, True, False]
        assert stream.miss_count == 4
        assert stream.evictions == 2


class TestFilterEquivalence:
    def _random_trace(self, rng, n):
        addresses = rng.integers(0, 64 * 1024, size=n).astype(np.int64)
        pcs = rng.integers(0, 4, size=n).astype(np.int16)
        regions = rng.integers(0, 4, size=n).astype(np.int8)
        return Trace(addresses=addresses, pcs=pcs, regions=regions)

    @pytest.mark.parametrize("seed", range(5))
    def test_synthetic_traces(self, seed):
        rng = np.random.default_rng(seed)
        trace = self._random_trace(rng, int(rng.integers(0, 3000)))
        hierarchy = HierarchyConfig()
        scalar = run_filter(trace, hierarchy, backend=SCALAR)
        vector = run_filter(trace, hierarchy, backend=VECTOR)
        assert np.array_equal(scalar.keep, vector.keep)
        for left, right in ((scalar.l1_stats, vector.l1_stats), (scalar.l2_stats, vector.l2_stats)):
            assert_stats_equal(left, right, "test")

    def test_verify_backend_passes_on_agreement(self):
        rng = np.random.default_rng(11)
        trace = self._random_trace(rng, 500)
        result = run_filter(trace, HierarchyConfig(), backend=VERIFY)
        assert result.keep.dtype == bool

    def test_real_workload_llc_trace_identical(self):
        clear_caches()
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        trace = roi_trace(workload)
        scalar = filter_trace(trace, config.hierarchy, workload.layout, backend=SCALAR)
        vector = filter_trace(trace, config.hierarchy, workload.layout, backend=VECTOR)
        assert np.array_equal(scalar.byte_addresses, vector.byte_addresses)
        assert np.array_equal(scalar.block_addresses, vector.block_addresses)
        assert np.array_equal(scalar.pcs, vector.pcs)
        assert np.array_equal(scalar.regions, vector.regions)
        assert np.array_equal(scalar.hints, vector.hints)
        assert scalar.upstream_l1_hits == vector.upstream_l1_hits
        assert scalar.upstream_l2_hits == vector.upstream_l2_hits
        assert scalar.total_references == vector.total_references


class TestLLCReplayEquivalence:
    def test_real_workload_lru_stats_identical(self):
        clear_caches()
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        llc_trace = llc_trace_for(workload, config)
        llc = config.hierarchy.llc
        scalar = simulate_llc_policy(llc_trace, LRUPolicy(), llc, backend=SCALAR)
        vector = simulate_llc_policy(llc_trace, LRUPolicy(), llc, backend=VECTOR)
        verify = simulate_llc_policy(llc_trace, LRUPolicy(), llc, backend=VERIFY)
        for other in (vector, verify):
            assert_stats_equal(scalar, other, "test")
        # The region breakdown (Fig. 2) must survive vectorization too.
        assert scalar.region_accesses == vector.region_accesses
        assert scalar.region_misses == vector.region_misses

    def test_vector_replay_dispatch_predicate(self):
        from repro.experiments.schemes import scheme_policy

        assert supports_vector_replay(LRUPolicy())
        # Every scheme of the paper's comparison matrix has a vectorized
        # engine (LRU, the RRIP family, SHiP-MEM, Hawkeye, Leeway, PIN-X)...
        for scheme in ("RRIP", "GRASP", "Hawkeye", "Leeway", "SHiP-MEM", "PIN-50"):
            assert supports_vector_replay(scheme_policy(scheme))
        # ...while the GRASP ablation subclasses override hooks the array
        # specs cannot express and stay on the scalar simulator.
        for scheme in ("RRIP+Hints", "GRASP (Insertion-Only)"):
            assert not supports_vector_replay(scheme_policy(scheme))

    def test_lru_subclass_falls_back_to_scalar(self):
        class NotQuiteLRU(LRUPolicy):
            pass

        assert not supports_vector_replay(NotQuiteLRU())

    @needs_native
    def test_vector_replay_region_breakdown(self):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 64, size=800)
        regions = rng.integers(0, 4, size=800).astype(np.int8)
        llc = CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC")
        stats = vector_policy_replay(LRUPolicy(), blocks, llc, regions=regions)
        reference = CacheStats(name="LLC")
        cache = SetAssociativeCache(llc, LRUPolicy())
        for block, region in zip(blocks.tolist(), regions.tolist()):
            cache.access_block(block, 0, 0, region)
        assert_stats_equal(cache.stats, stats, "test")
        assert cache.stats.region_accesses == stats.region_accesses
        assert cache.stats.region_misses == stats.region_misses
        assert reference.accesses == 0  # the fresh object stayed untouched

    def test_mismatch_guard_raises(self):
        good = CacheStats.from_counts("LLC", hits=5, misses=3, evictions=1)
        bad = CacheStats.from_counts("LLC", hits=4, misses=4, evictions=1)
        with pytest.raises(FastSimMismatchError):
            assert_stats_equal(good, bad, "test")


class TestDispatch:
    @pytest.fixture(autouse=True)
    def _restore_default(self):
        yield
        set_default_backend(None)

    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        set_default_backend(None)
        assert default_backend() == VECTOR

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "scalar")
        set_default_backend(None)
        assert default_backend() == SCALAR
        assert resolve_backend(None) == SCALAR
        assert resolve_backend(VECTOR, native=True) == VECTOR

    def test_no_kernel_library_resolves_to_scalar(self, monkeypatch):
        # The two backends that need the compiled kernels fall back to the
        # reference; an explicit scalar request is untouched either way.
        for backend in (VECTOR, VERIFY):
            assert resolve_backend(backend, native=False) == SCALAR
            assert resolve_backend(backend, native=True) == backend
        assert resolve_backend(SCALAR, native=True) == SCALAR
        monkeypatch.setattr(kernels, "available", lambda: False)
        assert resolve_backend(VECTOR) == SCALAR
        monkeypatch.setattr(kernels, "available", lambda: True)
        assert resolve_backend(VERIFY) == VERIFY

    def test_set_default_backend(self):
        set_default_backend(VERIFY)
        assert default_backend() == VERIFY

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("quantum")
        with pytest.raises(ValueError):
            set_default_backend("quantum")
        with pytest.raises(ValueError):
            ExperimentConfig(backend="quantum")
        assert ExperimentConfig(backend=SCALAR).backend == SCALAR
        assert sorted(BACKENDS) == ["scalar", "vector", "verify"]

    def test_scalar_llc_replay_matches_public_path(self):
        clear_caches()
        config = ExperimentConfig.smoke().with_overrides(backend=SCALAR)
        workload = build_workload("PR", "lj", config=config)
        llc_trace = llc_trace_for(workload, config)
        cache = SetAssociativeCache(config.hierarchy.llc, LRUPolicy())
        for block, pc, hint, region in zip(
            llc_trace.block_addresses.tolist(), llc_trace.pcs.tolist(),
            llc_trace.hints.tolist(), llc_trace.regions.tolist(),
        ):
            cache.access_block(block, pc, hint, region)
        direct = cache.stats
        public = simulate_llc_policy(llc_trace, LRUPolicy(), config.hierarchy.llc, backend=SCALAR)
        assert_stats_equal(direct, public, "test")
