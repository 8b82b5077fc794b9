"""Multi-programmed co-run subsystem suite (ISSUE 9).

Covers every layer the stream identity threads through:

* trace layer — :class:`InterleavedTraceStream` schedule determinism, output
  chunk-size invariance, per-stream subsequence preservation and the
  address-space remap (stream 0 untouched, stream ``k`` offset by
  ``k << STREAM_ADDRESS_BITS``);
* policy layer — :class:`WayPartition` parsing/geometry and the
  :class:`PartitionedPolicy` wrapper contract (plain policies reject a
  partition at bind time, no double wrapping);
* cache layer — the partition boundary invariant: after any partitioned
  replay, every resident block's stream owns the way it occupies, i.e. no
  eviction or insertion ever crossed a partition boundary;
* fastsim layer — :class:`CorunReplayStream` against the scalar
  stream-tracking :class:`SetAssociativeCache` bit-exactly, per scheme, both
  partitioned and shared, and the 1-stream replay identity against the
  single-app :class:`PolicyReplayStream`;
* runner layer — ``simulate_corun``'s degenerate-K=1 delegation to the
  single-app streaming path (same stats, same memo entries, no ``streams``
  key in the summary), the per-stream ``validate()`` invariants of a real
  K=2 co-run under the ``verify`` backend, and the per-app data points of
  ``compare_policies_corun``.
"""

import numpy as np
import pytest

from repro.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.partition import PartitionedPolicy, WayPartition
from repro.cache.policies import LRUPolicy
from repro.cache.policies.opt import BeladyOptimal
from repro.experiments import ExperimentConfig, clear_caches
from repro.experiments.runner import (
    CorunSpec,
    build_workload,
    compare_policies_corun,
    corun_memo_key,
    plan_corun_task,
    simulate_corun,
    simulate_scheme,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim.corun import CorunReplayStream, supports_vector_corun
from repro.fastsim.filter import assert_stats_equal
from repro.fastsim.replay import PolicyReplayStream
from repro.trace.interleave import (
    SCHEDULES,
    STREAM_ADDRESS_BITS,
    InterleavedTraceStream,
)

#: Shared-LLC geometry of the synthetic co-run tests: 16 sets x 16 ways.
LLC = CacheConfig(size_bytes=16 * 1024, ways=16, block_bytes=64, name="LLC")

#: Schemes exercised against the scalar reference (OPT has no co-run form).
CORUN_SCHEMES = ("LRU", "RRIP", "GRASP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-50")


class _SourceChunk:
    """Minimal chunk-like object: parallel block/pc/region/hint arrays."""

    def __init__(self, blocks, pcs, regions, hints):
        self.block_addresses = np.asarray(blocks, dtype=np.int64)
        self.pcs = np.asarray(pcs, dtype=np.int64)
        self.regions = np.asarray(regions, dtype=np.int64)
        self.hints = np.asarray(hints, dtype=np.int64)


def synthetic_source(seed, length, pieces=4):
    """One app's LLC stream as a list of unevenly sized chunks."""
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, 512, size=length)
    pcs = rng.integers(0, 64, size=length) * 4
    regions = rng.integers(0, 4, size=length)
    hints = rng.integers(0, 4, size=length)
    cuts = sorted(rng.integers(1, length, size=pieces - 1).tolist())
    bounds = [0] + cuts + [length]
    return [
        _SourceChunk(blocks[a:b], pcs[a:b], regions[a:b], hints[a:b])
        for a, b in zip(bounds, bounds[1:])
        if b > a
    ]


def _concat(sources_or_chunks, field):
    return np.concatenate([getattr(chunk, field) for chunk in sources_or_chunks])


def merged_arrays(sources, **kwargs):
    chunks = list(InterleavedTraceStream(sources, **kwargs))
    return {
        field: _concat(chunks, field)
        for field in ("block_addresses", "pcs", "regions", "hints", "stream_ids")
    }


# ---------------------------------------------------------------------------
# trace layer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("schedule", SCHEDULES)
def test_schedule_deterministic_and_chunk_invariant(schedule):
    """The merge order never depends on the output chunk budget."""
    make = lambda: [synthetic_source(11, 700), synthetic_source(22, 450)]  # noqa: E731
    reference = merged_arrays(make(), schedule=schedule, quantum=16, seed=5)
    assert len(reference["block_addresses"]) == 700 + 450
    for chunk_accesses in (97, 256, 1 << 16):
        again = merged_arrays(
            make(), schedule=schedule, quantum=16, seed=5, chunk_accesses=chunk_accesses
        )
        for field, expected in reference.items():
            np.testing.assert_array_equal(again[field], expected)


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_per_stream_subsequence_and_remap(schedule):
    """Each stream's accesses survive in order; only its blocks are offset."""
    sources = [synthetic_source(1, 300), synthetic_source(2, 500), synthetic_source(3, 200)]
    originals = [
        {field: _concat(source, field) for field in ("block_addresses", "pcs", "regions", "hints")}
        for source in sources
    ]
    merged = merged_arrays(sources, schedule=schedule, quantum=7, seed=9)
    for stream, original in enumerate(originals):
        mask = merged["stream_ids"] == stream
        blocks = merged["block_addresses"][mask]
        offset = np.int64(stream) << STREAM_ADDRESS_BITS
        assert np.all((blocks >> STREAM_ADDRESS_BITS) == stream)
        np.testing.assert_array_equal(blocks - offset, original["block_addresses"])
        for field in ("pcs", "regions", "hints"):
            np.testing.assert_array_equal(merged[field][mask], original[field])


def test_remap_disabled_keeps_raw_blocks():
    sources = [synthetic_source(4, 150), synthetic_source(5, 150)]
    raw = [_concat(source, "block_addresses") for source in sources]
    merged = merged_arrays(sources, remap=False)
    for stream in (0, 1):
        np.testing.assert_array_equal(
            merged["block_addresses"][merged["stream_ids"] == stream], raw[stream]
        )


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_single_stream_is_passthrough(schedule):
    """K=1 interleaving is the identity on the underlying stream."""
    source = synthetic_source(7, 600)
    original = {
        field: _concat(source, field)
        for field in ("block_addresses", "pcs", "regions", "hints")
    }
    merged = merged_arrays([source], schedule=schedule, quantum=13, seed=3)
    assert np.all(merged["stream_ids"] == 0)
    for field, expected in original.items():
        np.testing.assert_array_equal(merged[field], expected)


def test_poisson_schedule_is_seeded():
    make = lambda: [synthetic_source(8, 800), synthetic_source(9, 800)]  # noqa: E731
    a = merged_arrays(make(), schedule="poisson", quantum=8, seed=1)
    b = merged_arrays(make(), schedule="poisson", quantum=8, seed=1)
    np.testing.assert_array_equal(a["stream_ids"], b["stream_ids"])
    c = merged_arrays(make(), schedule="poisson", quantum=8, seed=2)
    assert not np.array_equal(a["stream_ids"], c["stream_ids"])


def test_interleave_parameter_validation():
    source = synthetic_source(1, 10)
    with pytest.raises(ValueError):
        InterleavedTraceStream([])
    with pytest.raises(ValueError):
        InterleavedTraceStream([source], schedule="fifo")
    with pytest.raises(ValueError):
        InterleavedTraceStream([source], quantum=0)
    with pytest.raises(ValueError):
        InterleavedTraceStream([source], chunk_accesses=0)


# ---------------------------------------------------------------------------
# partition layer
# ---------------------------------------------------------------------------

def test_way_partition_geometry():
    part = WayPartition.parse("4:12")
    assert part.counts == (4, 12)
    assert part.num_streams == 2
    assert part.total_ways == 16
    assert str(part) == "4:12"
    assert part.bounds(0) == (0, 4)
    assert part.bounds(1) == (4, 16)
    assert list(part.allowed(0)) == [0, 1, 2, 3]
    assert [part.owner_of(way) for way in range(16)] == [0] * 4 + [1] * 12
    part.validate_ways(16)
    with pytest.raises(ValueError):
        part.validate_ways(8)
    with pytest.raises(IndexError):
        part.bounds(2)
    with pytest.raises(IndexError):
        part.owner_of(16)


@pytest.mark.parametrize("bad", ["", "8:", "a:b", "8:0", "8:-4"])
def test_way_partition_parse_rejects(bad):
    with pytest.raises(ValueError):
        WayPartition.parse(bad)


def test_plain_policy_rejects_partition_at_bind():
    with pytest.raises(ValueError, match="PartitionedPolicy"):
        LRUPolicy().bind(16, 16, WayPartition((8, 8)))


def test_partitioned_policy_wrapper_contract():
    part = WayPartition((8, 8))
    wrapper = PartitionedPolicy(LRUPolicy(), part)
    assert wrapper.name == "lru@8:8"
    with pytest.raises(ValueError):
        PartitionedPolicy(wrapper, part)
    with pytest.raises(ValueError):
        wrapper.bind(16, 12)  # shares don't cover 12 ways
    wrapper.bind(16, 16)
    assert wrapper.sub_policy(0).ways == 8


def test_corun_spec_validates_partition_arity():
    with pytest.raises(ValueError):
        CorunSpec(pairs=(("PR", "lj"),), partition=WayPartition((8, 8)))
    with pytest.raises(ValueError):
        CorunSpec(pairs=())


# ---------------------------------------------------------------------------
# cache layer: no eviction crosses a partition boundary
# ---------------------------------------------------------------------------

def _merged_chunks(num_streams=2, length=1500, schedule="round_robin", quantum=16):
    sources = [synthetic_source(100 + k, length) for k in range(num_streams)]
    return list(
        InterleavedTraceStream(
            sources, schedule=schedule, quantum=quantum, seed=0, chunk_accesses=499
        )
    )


def _feed_scalar(cache, chunks):
    for chunk in chunks:
        for block, pc, hint, region, stream in zip(
            chunk.block_addresses.tolist(),
            chunk.pcs.tolist(),
            chunk.hints.tolist(),
            chunk.regions.tolist(),
            chunk.stream_ids.tolist(),
        ):
            cache.access_block(block, pc, hint, region, stream)


@pytest.mark.parametrize("scheme", CORUN_SCHEMES)
def test_partition_boundary_invariant(scheme):
    """Every resident block sits in a way owned by its own stream."""
    part = WayPartition((4, 12))
    cache = SetAssociativeCache(LLC, scheme_policy(scheme), partition=part)
    chunks = _merged_chunks()
    _feed_scalar(cache, chunks)
    placements = cache.resident_blocks_by_way()
    assert placements, "the replay must leave resident blocks behind"
    for _set_index, way, block in placements:
        assert block >> STREAM_ADDRESS_BITS == part.owner_of(way)
    stats = cache.stats.validate()
    assert set(stats.stream_accesses) == {0, 1}
    assert sum(stats.stream_accesses.values()) == stats.accesses


@pytest.mark.parametrize("scheme", CORUN_SCHEMES)
@pytest.mark.parametrize("counts", [None, (8, 8), (4, 12)])
def test_vector_corun_matches_scalar(scheme, counts):
    """CorunReplayStream reproduces the stream-tracking scalar cache exactly."""
    part = WayPartition(counts) if counts else None
    policy = scheme_policy(scheme)
    if not supports_vector_corun(policy, part):
        pytest.skip(f"{scheme} with partition={part} is scalar-only by design")
    vector = CorunReplayStream(policy, LLC, 2, partition=part)
    cache = SetAssociativeCache(
        LLC, scheme_policy(scheme), partition=part, track_streams=True
    )
    chunks = _merged_chunks(schedule="poisson", quantum=8)
    for chunk in chunks:
        vector.feed(
            chunk.block_addresses, chunk.stream_ids, chunk.hints, chunk.regions, chunk.pcs
        )
    _feed_scalar(cache, chunks)
    assert_stats_equal(cache.stats.validate(), vector.stats(), f"co-run {scheme}")


@pytest.mark.parametrize("scheme", CORUN_SCHEMES)
def test_single_stream_replay_identity(scheme):
    """A 1-stream co-run replay is bit-identical to the single-app replay."""
    policy = scheme_policy(scheme)
    if not supports_vector_corun(policy, None):
        pytest.skip(f"{scheme} is scalar-only when unpartitioned")
    source = synthetic_source(42, 2000)
    chunks = list(InterleavedTraceStream([source], chunk_accesses=333))
    corun = CorunReplayStream(policy, LLC, 1)
    single = PolicyReplayStream(scheme_policy(scheme), LLC)
    corun_hits = np.concatenate(
        [
            corun.feed(c.block_addresses, c.stream_ids, c.hints, c.regions, c.pcs)
            for c in chunks
        ]
    )
    single_hits = np.concatenate(
        [single.feed(c.block_addresses, c.hints, c.regions, c.pcs) for c in chunks]
    )
    np.testing.assert_array_equal(corun_hits, single_hits)
    corun_stats, single_stats = corun.stats(), single.stats()
    for field in ("accesses", "hits", "misses", "evictions", "bypasses"):
        assert getattr(corun_stats, field) == getattr(single_stats, field)
    assert corun_stats.region_accesses == single_stats.region_accesses
    assert corun_stats.region_misses == single_stats.region_misses


def test_supports_vector_corun_predicate():
    part = WayPartition((8, 8))
    assert supports_vector_corun(scheme_policy("LRU"), None)
    assert supports_vector_corun(scheme_policy("GRASP"), part)
    assert not supports_vector_corun(scheme_policy("PIN-50"), None)
    assert supports_vector_corun(scheme_policy("PIN-50"), part)
    assert not supports_vector_corun(BeladyOptimal(LLC), None)


def test_corun_replay_stream_validates_geometry():
    with pytest.raises(ValueError):
        CorunReplayStream(scheme_policy("LRU"), LLC, 0)
    with pytest.raises(ValueError):
        CorunReplayStream(scheme_policy("LRU"), LLC, 2, partition=WayPartition((4, 4)))
    with pytest.raises(ValueError):
        CorunReplayStream(scheme_policy("LRU"), LLC, 3, partition=WayPartition((8, 8)))
    with pytest.raises(ValueError):
        CorunReplayStream(scheme_policy("PIN-50"), LLC, 2)


# ---------------------------------------------------------------------------
# runner layer
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corun_config():
    return ExperimentConfig.smoke().with_overrides(scale=0.06, backend="verify")


def test_degenerate_corun_is_the_single_app_path(memo_isolation, corun_config):
    """K=1 + no partition delegates: same stats, same memo keys, no streams."""
    config = corun_config.with_overrides(backend="vector")
    spec = CorunSpec(pairs=(("PR", "lj"),))
    corun = simulate_corun(spec, "GRASP", config)
    workload = build_workload("PR", "lj", reorder=config.reorder, config=config)
    single = simulate_scheme(workload, "GRASP", config, streaming=True)
    assert corun is single  # served from the policystream memo, not recomputed
    assert corun.as_dict() == single.as_dict()
    assert "streams" not in corun.as_dict()


@pytest.mark.parametrize(
    "pairs", [(("PR", "lj"),), (("PR", "lj"), ("PR", "pl"))], ids=["K1", "K2"]
)
def test_corun_rejects_opt(corun_config, pairs):
    """OPT has no co-run analogue at any K, in planning and in execution."""
    spec = CorunSpec(pairs=pairs)
    with pytest.raises(ValueError, match="OPT"):
        simulate_corun(spec, "OPT", corun_config)
    with pytest.raises(ValueError, match="OPT"):
        plan_corun_task(spec, "OPT", corun_config)


#: Scalar-reference co-run stats per (scheme, partition): budget-independent.
_SCALAR_CORUNS = {}


@pytest.mark.parametrize("chunk_accesses", [700, 4096, None])
@pytest.mark.parametrize("counts", [None, (8, 8)])
@pytest.mark.parametrize("scheme", ["GRASP", "PIN-75"])
def test_corun_stats_are_chunk_budget_invariant(
    memo_isolation, corun_config, scheme, counts, chunk_accesses
):
    """Every chunk budget replays the same co-run, per-stream columns included."""
    part = WayPartition(counts) if counts else None
    spec = CorunSpec(pairs=(("PR", "lj"), ("PR", "pl")), partition=part)
    if (scheme, counts) not in _SCALAR_CORUNS:
        scalar = simulate_corun(spec, scheme, corun_config.with_overrides(backend="scalar"))
        _SCALAR_CORUNS[scheme, counts] = scalar.as_dict()
        clear_caches()
    config = corun_config.with_overrides(backend="vector", chunk_accesses=chunk_accesses)
    stats = simulate_corun(spec, scheme, config)
    assert stats.as_dict() == _SCALAR_CORUNS[scheme, counts]


@pytest.mark.parametrize("counts", [None, (8, 8)])
def test_corun_stream_invariants_end_to_end(memo_isolation, corun_config, counts):
    """A real K=2 co-run verifies scalar==vector and the per-stream sums."""
    part = WayPartition(counts) if counts else None
    spec = CorunSpec(pairs=(("PR", "lj"), ("PR", "pl")), partition=part)
    stats = simulate_corun(spec, "GRASP", corun_config)
    stats.validate()
    assert set(stats.stream_accesses) == {0, 1}
    assert sum(stats.stream_accesses.values()) == stats.accesses
    assert sum(stats.stream_hits.values()) == stats.hits
    assert sum(stats.stream_misses.values()) == stats.misses
    assert stats.stream_view(0).accesses == stats.stream_accesses[0]
    assert "streams" in stats.as_dict()


def test_corun_memo_key_is_schedule_sensitive(corun_config):
    base = CorunSpec(pairs=(("PR", "lj"), ("PR", "pl")))
    key = corun_memo_key(base, "dbg", "GRASP", corun_config)
    assert key[-1] == "corun"
    variants = [
        CorunSpec(pairs=base.pairs, schedule="poisson"),
        CorunSpec(pairs=base.pairs, quantum=8),
        CorunSpec(pairs=base.pairs, seed=1),
        CorunSpec(pairs=base.pairs, partition=WayPartition((8, 8))),
    ]
    keys = {key} | {
        corun_memo_key(variant, "dbg", "GRASP", corun_config) for variant in variants
    }
    assert len(keys) == 1 + len(variants)


def test_compare_policies_corun_points(memo_isolation, corun_config):
    """One data point per co-runner per scheme, baseline-relative per stream."""
    spec = CorunSpec(
        pairs=(("PR", "lj"), ("PR", "pl")), partition=WayPartition((8, 8))
    )
    points = compare_policies_corun(
        spec, ["RRIP", "GRASP"], config=corun_config, baseline="RRIP"
    )
    assert [(p.app_name, p.dataset_name, p.scheme) for p in points] == [
        ("PR", "lj", "RRIP"),
        ("PR", "pl", "RRIP"),
        ("PR", "lj", "GRASP"),
        ("PR", "pl", "GRASP"),
    ]
    for point in points[:2]:
        assert point.miss_reduction_pct == pytest.approx(0.0)
        assert point.speedup_pct == pytest.approx(0.0)
    totals = simulate_corun(spec, "GRASP", corun_config)
    assert points[2].stats.misses + points[3].stats.misses == totals.misses
