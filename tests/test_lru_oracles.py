"""LRU and OPT checked against oracles that share no code with the engines.

On drawn block streams, 1-8 sets (powers of two) and 1-8 ways:

* LRU misses never increase with ways at a fixed set count (the stack
  property);
* LRU misses equal a count kept here with a plain per-set recency list: an
  access misses when its block is new to its set, or when at least ``ways``
  distinct same-set blocks were touched since its previous access;
* Belady's OPT (``simulate_opt_misses``) never misses more than LRU.

Each property runs on the compiled ``LRUStream`` (skipped without the
kernel library) and on the scalar ``SetAssociativeCache`` with
``LRUPolicy``, so the oracles also hold on a host without a compiler.

The suite needs ``hypothesis``; it is skipped wholesale where the package
is unavailable.
"""

import numpy as np
import pytest
from conftest import needs_native

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cache import CacheConfig, SetAssociativeCache  # noqa: E402
from repro.cache.policies import LRUPolicy, simulate_opt_misses  # noqa: E402
from repro.fastsim.stackdist import LRUStream  # noqa: E402

BLOCK = 64
MAX_WAYS = 8


def _config(num_sets: int, ways: int) -> CacheConfig:
    return CacheConfig(size_bytes=num_sets * ways * BLOCK, ways=ways, block_bytes=BLOCK)


def stream_misses(blocks, num_sets, ways):
    stream = LRUStream(num_sets, ways)
    stream.feed(np.asarray(blocks, dtype=np.int64))
    return stream.miss_count


def scalar_misses(blocks, num_sets, ways):
    cache = SetAssociativeCache(_config(num_sets, ways), LRUPolicy())
    for block in blocks:
        cache.access_block(block)
    return cache.stats.misses


ENGINES = [
    pytest.param(stream_misses, marks=needs_native, id="LRUStream"),
    pytest.param(scalar_misses, id="scalar"),
]


def reference_misses(blocks, num_sets, ways):
    """Misses by the reuse rule, with one most-recent-last list per set."""
    recency = [[] for _ in range(num_sets)]
    misses = 0
    for block in blocks:
        order = recency[block % num_sets]
        if block in order:
            position = order.index(block)
            # The blocks after it in the list are the distinct same-set
            # blocks touched since its previous access.
            if len(order) - 1 - position >= ways:
                misses += 1
            del order[position]
        else:
            misses += 1
        order.append(block)
    return misses


@st.composite
def block_streams(draw):
    """A stream over a drawn footprint, so reuse at every distance occurs."""
    footprint = draw(st.integers(1, 48))
    length = draw(st.integers(0, 300))
    base = draw(st.sampled_from((0, 1 << 40)))
    offsets = draw(st.lists(st.integers(0, footprint - 1), min_size=length, max_size=length))
    return [base + offset for offset in offsets]


sets = st.sampled_from((1, 2, 4, 8))


@pytest.mark.parametrize("lru_misses", ENGINES)
@given(blocks=block_streams(), num_sets=sets)
@settings(max_examples=60, deadline=None)
def test_lru_misses_never_increase_with_ways(lru_misses, blocks, num_sets):
    counts = [lru_misses(blocks, num_sets, ways) for ways in range(1, MAX_WAYS + 1)]
    assert counts == sorted(counts, reverse=True), counts


@pytest.mark.parametrize("lru_misses", ENGINES)
@given(blocks=block_streams(), num_sets=sets, ways=st.integers(1, MAX_WAYS))
@settings(max_examples=100, deadline=None)
def test_lru_misses_equal_the_reuse_count(lru_misses, blocks, num_sets, ways):
    assert lru_misses(blocks, num_sets, ways) == reference_misses(blocks, num_sets, ways)


@pytest.mark.parametrize("lru_misses", ENGINES)
@given(blocks=block_streams(), num_sets=sets, ways=st.integers(1, MAX_WAYS))
@settings(max_examples=100, deadline=None)
def test_opt_never_misses_more_than_lru(lru_misses, blocks, num_sets, ways):
    opt = simulate_opt_misses(blocks, _config(num_sets, ways))
    assert opt.misses <= lru_misses(blocks, num_sets, ways)
