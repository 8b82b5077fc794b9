"""One pass over every engine family plus OPT, and OPT's bound, on drawn streams.

Two invariants, stated here and checked by machine on adversarial inputs —
one set or one way, one block repeated, strided conflicts within a set,
every hint value 0-3, chunk budgets down to one access:

* **One pass feeds every scheme what its own staged feed sees.**  The fused
  pass over raw trace pieces (the filter kernel once per piece, every online
  family replaying the piece's LLC-bound accesses, OPT fed their blocks)
  gives each scheme the statistics of that scheme replayed alone
  over the filtered stream.  So does one read of a stored filtered stream
  feeding every replay at once.
* **OPT misses no more than any scheme that recorded no bypass.**  Belady's
  OPT here always inserts, so a bypassing run is outside the bound: on one
  1-way set, blocks 0 and 1 alternating ten times with hints High and Low,
  PIN-100 pins block 0, misses 11 times and bypasses block 1 ten times,
  while OPT misses all 20 accesses.

The suite needs ``hypothesis``; it is skipped wholesale where the package is
unavailable.  The fused pass needs the kernel library; the staged property
runs on the scalar reference without one.
"""

import numpy as np
import pytest
from kernel_marks import needs_native

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cache import CacheConfig, SetAssociativeCache  # noqa: E402
from repro.cache.config import HierarchyConfig  # noqa: E402
from repro.cache.hints import HINT_HIGH, HINT_LOW  # noqa: E402
from repro.cache.policies import BeladyOptimal, create_policy, simulate_opt_misses  # noqa: E402
from repro.core import AddressBoundRegisterFile, GraspClassifier  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    LLCTrace,
    _fused_replay,
    _replay_llc,
    simulate_llc_policy,
)
from repro.fastsim import kernels  # noqa: E402
from repro.fastsim.filter import run_filter  # noqa: E402
from repro.fastsim.pin import PinStream, pin_spec  # noqa: E402
from repro.fastsim.plan import (  # noqa: E402
    PLANNER,
    ROUTE_FUSED,
    STAGE_ROI,
    STAGE_STREAMING,
    SimRequest,
)
from repro.trace import Trace, iter_trace_slices  # noqa: E402

BLOCK = 64

#: One policy per engine family (two RRIP-family tables, both PIN-X
#: extremes), with parameters that reach every code path on tiny caches.
POLICIES = {
    "LRU": lambda: create_policy("lru"),
    "DRRIP": lambda: create_policy("drrip"),
    "GRASP": lambda: create_policy("grasp"),
    "PIN-50": lambda: create_policy("pin", reserved_fraction=0.5),
    "PIN-100": lambda: create_policy("pin", reserved_fraction=1.0),
    "SHiP-MEM": lambda: create_policy("ship-mem", region_bytes=256, block_bytes=BLOCK),
    "Hawkeye": lambda: create_policy("hawkeye", sample_period=1),
    "Leeway": lambda: create_policy("leeway", decay_period=1),
}
SCHEMES = (*POLICIES, "OPT")
FIELDS = ("hits", "misses", "evictions", "bypasses", "region_accesses", "region_misses")


def _llc(num_sets, ways):
    return CacheConfig(size_bytes=num_sets * ways * BLOCK, ways=ways, name="LLC")


def _policies(llc):
    return [POLICIES[name]() for name in POLICIES] + [BeladyOptimal(llc)]


def _plan(policies, stage, have_stream=False):
    return PLANNER.plan(
        SimRequest(
            schemes=SCHEMES, policies=tuple(policies), stage=stage,
            backend="vector", have_stream=have_stream,
        )
    )


def _alone(llc_trace, llc):
    """Each scheme replayed alone over the whole filtered stream."""
    return [simulate_llc_policy(llc_trace, policy, llc) for policy in _policies(llc)]


def _assert_bounded_by_opt(stats):
    opt = stats[-1]
    for name, scheme in zip(SCHEMES, stats):
        if scheme.bypasses == 0:
            assert opt.misses <= scheme.misses, (name, opt.misses, scheme.misses)


def _assert_same(got, want):
    for name, left, right in zip(SCHEMES, got, want):
        for field in FIELDS:
            assert getattr(left, field) == getattr(right, field), (name, field)


geometries = st.tuples(st.sampled_from((1, 2, 4, 8)), st.sampled_from((1, 2, 4)))


@st.composite
def block_streams(draw, num_sets, ways, max_length):
    """A drawn footprint, one hot block among others, or same-set conflicts."""
    length = draw(st.integers(0, max_length))
    kind = draw(st.sampled_from(("footprint", "repeated", "strided")))
    if kind == "footprint":
        footprint = draw(st.integers(1, 3 * num_sets * ways + 2))
        return draw(st.lists(st.integers(0, footprint - 1), min_size=length, max_size=length))
    if kind == "repeated":
        hot = draw(st.integers(0, 15))
        others = st.one_of(st.just(hot), st.integers(0, 15))
        return draw(st.lists(others, min_size=length, max_size=length))
    stride = num_sets * draw(st.integers(1, 3))
    offset = draw(st.integers(0, num_sets - 1))
    slots = draw(st.lists(st.integers(0, ways + 2), min_size=length, max_size=length))
    return [offset + slot * stride for slot in slots]


@st.composite
def raw_cases(draw):
    num_sets, ways = draw(geometries)
    blocks = np.asarray(draw(block_streams(num_sets, ways, 120)), dtype=np.int64)
    n = len(blocks)
    pcs = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    regions = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int8)
    # No Address Bound Register gives every access hint 0 (Default); one
    # register splits the blocks into High, Moderate and Low (1-3).
    bounds = draw(st.one_of(
        st.none(),
        st.tuples(st.integers(0, 15), st.integers(1, 24)).map(lambda b: (b[0], b[0] + b[1])),
    ))
    budget = draw(st.integers(1, max(1, n)))
    stage = draw(st.sampled_from((STAGE_ROI, STAGE_STREAMING)))
    return num_sets, ways, Trace(addresses=blocks * BLOCK, pcs=pcs, regions=regions), \
        bounds, budget, stage


def _classifier(bounds, llc):
    abrs = AddressBoundRegisterFile(capacity=8)
    if bounds is not None:
        abrs.configure(bounds[0] * BLOCK, bounds[1] * BLOCK)
    return GraspClassifier(abrs, llc_size_bytes=llc.size_bytes)


def _filtered(trace, hierarchy, classifier):
    """The trace's LLC-bound accesses through the scalar L1/L2 reference."""
    keep = run_filter(trace, hierarchy, backend="scalar").keep
    byte_addresses = trace.addresses[keep]
    return LLCTrace(
        byte_addresses=byte_addresses,
        block_addresses=byte_addresses // BLOCK,
        pcs=trace.pcs[keep],
        regions=trace.regions[keep],
        hints=classifier.classify_array(byte_addresses),
        upstream_l1_hits=0,
        upstream_l2_hits=0,
        total_references=len(trace),
    )


@needs_native
@given(case=raw_cases())
@settings(max_examples=80, deadline=None)
def test_one_fused_pass_matches_each_scheme_alone_and_opt_bounds_them(case):
    num_sets, ways, trace, bounds, budget, stage = case
    llc = _llc(num_sets, ways)
    # One-block, one-way L1 and L2: the LLC sees every access but the
    # immediate repeats of a block.
    hierarchy = HierarchyConfig(
        l1=CacheConfig(size_bytes=BLOCK, ways=1, name="L1D"),
        l2=CacheConfig(size_bytes=BLOCK, ways=1, name="L2"),
        llc=llc,
    )
    classifier = _classifier(bounds, llc)
    policies = _policies(llc)
    plan = _plan(policies, stage)
    assert plan.route == ROUTE_FUSED
    got, pipeline, _ = _fused_replay(
        iter_trace_slices(trace, budget), hierarchy, classifier, policies, True, plan
    )
    assert pipeline.total_references == len(trace)
    _assert_same(got, _alone(_filtered(trace, hierarchy, classifier), llc))
    _assert_bounded_by_opt(got)


@st.composite
def llc_cases(draw):
    num_sets, ways = draw(geometries)
    blocks = np.asarray(draw(block_streams(num_sets, ways, 160)), dtype=np.int64)
    n = len(blocks)
    hints = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int8)
    pcs = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    budget = draw(st.integers(1, max(1, n)))
    return num_sets, ways, blocks, hints, pcs, budget


def _llc_trace(blocks, hints, pcs):
    return LLCTrace(
        byte_addresses=blocks * BLOCK,
        block_addresses=blocks,
        pcs=pcs,
        regions=blocks % 3,
        hints=hints,
        upstream_l1_hits=0,
        upstream_l2_hits=0,
        total_references=len(blocks),
    )


@given(case=llc_cases())
@settings(max_examples=80, deadline=None)
def test_one_read_of_a_stored_stream_matches_each_scheme_and_opt_bounds_them(case):
    num_sets, ways, blocks, hints, pcs, budget = case
    llc = _llc(num_sets, ways)
    whole = _llc_trace(blocks, hints, pcs)
    chunks = [
        _llc_trace(blocks[start:start + budget], hints[start:start + budget],
                   pcs[start:start + budget])
        for start in range(0, len(blocks), budget)
    ]
    policies = _policies(llc)
    got = _replay_llc(chunks, policies, llc, True, _plan(policies, STAGE_ROI, have_stream=True))
    _assert_same(got, _alone(whole, llc))
    _assert_bounded_by_opt(got)


def test_a_bypassing_scheme_can_beat_opt():
    """Why the bound skips runs with bypasses: the worked example above."""
    llc = _llc(1, 1)
    blocks = np.asarray([0, 1] * 10, dtype=np.int64)
    hints = np.asarray([HINT_HIGH, HINT_LOW] * 10, dtype=np.int8)
    cache = SetAssociativeCache(llc, create_policy("pin", reserved_fraction=1.0))
    for block, hint in zip(blocks.tolist(), hints.tolist()):
        cache.access_block(block, 0, hint)
    assert (cache.stats.misses, cache.stats.bypasses) == (11, 10)
    if kernels.available():
        stream = PinStream(1, 1, pin_spec(create_policy("pin", reserved_fraction=1.0)))
        stream.feed(blocks, hints)
        assert (stream.miss_count, stream.bypass_count) == (11, 10)
    assert simulate_opt_misses(blocks, llc).misses == 20
