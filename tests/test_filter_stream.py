"""Property suite for the one L1-D/L2 filter engine.

:class:`repro.fastsim.filter.FilterStream` is the only filter engine: the runner
feeds it every scope's raw pieces, and :func:`repro.fastsim.filter.run_filter` is
one feed on a fresh stream.  On drawn L1/L2 geometries (power-of-two set
counts, one set and one way included) and drawn address streams (a single
repeated block, strided conflicts into one set, a small random footprint,
and runs of adjacent repeats), fed in drawn chunk splits (empty and
one-access chunks included), the ``vector`` backend's concatenated keep
masks and ``level_stats()`` must equal a reference built here on two
``SetAssociativeCache(LRUPolicy())`` objects, not on the stream's own
scalar branch.  ``run_filter`` over the whole stream must equal the chunked
result.

The suite needs ``hypothesis``; it is skipped wholesale where the package
is unavailable.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cache import CacheConfig, SetAssociativeCache  # noqa: E402
from repro.cache.config import HierarchyConfig  # noqa: E402
from repro.cache.policies import LRUPolicy  # noqa: E402
from repro.fastsim.filter import FilterStream, run_filter  # noqa: E402
from repro.trace import Trace  # noqa: E402

BLOCK = 64
STAT_FIELDS = ("accesses", "hits", "misses", "evictions", "bypasses")


def _counts(stats) -> tuple:
    return tuple(getattr(stats, name) for name in STAT_FIELDS)


def reference_filter(addresses, hierarchy):
    """Keep mask and L1/L2 counters from two live LRU caches, one access each.

    L2 sees only the L1 misses; an access is kept when it misses both.
    """
    l1 = SetAssociativeCache(hierarchy.l1, LRUPolicy())
    l2 = SetAssociativeCache(hierarchy.l2, LRUPolicy())
    keep = [not l1.access(address) and not l2.access(address) for address in addresses]
    return np.array(keep, dtype=bool), l1.stats, l2.stats


def _level(sets_log2: int, ways: int, name: str) -> CacheConfig:
    return CacheConfig(size_bytes=(1 << sets_log2) * ways * BLOCK, ways=ways, name=name)


@st.composite
def hierarchies(draw):
    """L1 and L2 of 1-8 / 1-16 sets and 1-4 / 1-8 ways, L1 never the larger."""
    l1 = (draw(st.integers(0, 3)), draw(st.integers(1, 4)))
    l2 = (draw(st.integers(0, 4)), draw(st.integers(1, 8)))
    if (1 << l1[0]) * l1[1] > (1 << l2[0]) * l2[1]:
        l1, l2 = l2, l1
    return HierarchyConfig(
        l1=_level(*l1, "L1D"), l2=_level(*l2, "L2"), llc=_level(*l2, "LLC")
    )


def _streams(hierarchy):
    """Block streams for one geometry; ``stride`` maps every block to set 0."""
    stride = max(hierarchy.l1.num_sets, hierarchy.l2.num_sets)
    ways = hierarchy.l2.ways
    one_block = st.tuples(st.integers(0, 2**40), st.integers(0, 60)).map(
        lambda drawn: [drawn[0]] * drawn[1]
    )
    conflicts = st.lists(st.integers(0, 3 * ways), max_size=200).map(
        lambda ids: [i * stride for i in ids]
    )
    footprint = st.lists(st.integers(0, 31), max_size=300)
    runs = st.lists(
        st.tuples(st.integers(0, 63), st.integers(1, 8)), max_size=60
    ).map(lambda pairs: [block for block, length in pairs for _ in range(length)])
    return st.one_of(one_block, conflicts, footprint, runs)


@st.composite
def filter_cases(draw):
    """``(hierarchy, addresses, bounds)``: chunk bounds run from 0 to len.

    Repeated cut points make empty chunks; adjacent ones, one-access chunks.
    Each address lands at a drawn byte offset inside its block.
    """
    hierarchy = draw(hierarchies())
    blocks = draw(_streams(hierarchy))
    offsets = draw(
        st.lists(st.integers(0, BLOCK - 1), min_size=len(blocks), max_size=len(blocks))
    )
    addresses = np.array(
        [block * BLOCK + offset for block, offset in zip(blocks, offsets)], dtype=np.int64
    )
    n = len(addresses)
    cuts = draw(st.lists(st.integers(0, n), max_size=10))
    return hierarchy, addresses, [0, *sorted(cuts), n]


def _trace(addresses) -> Trace:
    n = len(addresses)
    return Trace(addresses, np.zeros(n, dtype=np.int16), np.zeros(n, dtype=np.int8))


def _chunked(hierarchy, addresses, bounds):
    """Feed ``addresses`` split at ``bounds`` through one vector stream."""
    stream = FilterStream(hierarchy, backend="vector")
    keeps = [
        stream.feed(_trace(addresses[start:end]))
        for start, end in zip(bounds[:-1], bounds[1:])
    ]
    return np.concatenate(keeps) if keeps else np.zeros(0, dtype=bool), stream


@given(filter_cases())
@settings(max_examples=300, deadline=None)
def test_chunked_vector_stream_matches_two_live_caches(case):
    hierarchy, addresses, bounds = case
    keep, l1_ref, l2_ref = reference_filter(addresses.tolist(), hierarchy)
    chunked, stream = _chunked(hierarchy, addresses, bounds)
    np.testing.assert_array_equal(chunked, keep)
    l1, l2 = stream.level_stats()
    assert (_counts(l1), _counts(l2)) == (_counts(l1_ref), _counts(l2_ref))
    assert stream.upstream_hit_counts() == (l1_ref.hits, l2_ref.hits)
    assert stream.total_references == len(addresses)


@given(filter_cases())
@settings(max_examples=150, deadline=None)
def test_run_filter_equals_the_chunked_stream(case):
    hierarchy, addresses, bounds = case
    chunked, stream = _chunked(hierarchy, addresses, bounds)
    l1, l2 = stream.level_stats()
    whole = run_filter(_trace(addresses), hierarchy, backend="vector")
    np.testing.assert_array_equal(whole.keep, chunked)
    assert (_counts(whole.l1_stats), _counts(whole.l2_stats)) == (_counts(l1), _counts(l2))
