"""Property suite for OPT's reverse next-use pass.

:func:`repro.fastsim.opt.resolve_chunk_next_use` resolves a stream's chunks in
reverse order through one :class:`repro.fastsim.opt.NextUseTable`.  On drawn
block streams (small ids, a single repeated block, and ids at and above
``DenseIdMap.DIRECT_LIMIT``, where the table's id map leaves its direct
range) split at drawn points (empty chunks and one-access chunks
included), every chunk's result must equal the matching slice of a
pure-Python backwards walk over the whole stream, on the compiled scan and
on the NumPy fallback alike.  :func:`next_use_indices` must be that same
resolve on one chunk at offset 0.  The compiled scan's wrapper must refuse,
before the kernel runs, ids outside the table and arrays the kernel cannot
take (not C-contiguous int64, or a read-only table).

The suite needs ``hypothesis``; it is skipped wholesale where the package
is unavailable.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.fastsim import kernels  # noqa: E402
from repro.fastsim.opt import (  # noqa: E402
    NEVER,
    NextUseTable,
    next_use_indices,
    resolve_chunk_next_use,
)
from repro.fastsim.stackdist import DenseIdMap  # noqa: E402

PATHS = [True, False] if kernels.available() else [False]
PATH_IDS = ["native", "numpy"] if kernels.available() else ["numpy"]

LIMIT = DenseIdMap.DIRECT_LIMIT


def reference_next_use(blocks) -> np.ndarray:
    """Walk the stream backwards with a dict of each block's next access."""
    out = np.full(len(blocks), NEVER, dtype=np.int64)
    seen = {}
    for index in reversed(range(len(blocks))):
        block = int(blocks[index])
        out[index] = seen.get(block, NEVER)
        seen[block] = index
    return out


small_ids = st.lists(st.integers(min_value=0, max_value=63), max_size=300)
one_block = st.tuples(
    st.integers(min_value=0, max_value=2**62), st.integers(min_value=0, max_value=60)
).map(lambda drawn: [drawn[0]] * drawn[1])
past_direct_limit = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=LIMIT - 2, max_value=LIMIT + 2),
        st.just(2**62),
    ),
    max_size=200,
)
block_streams = st.one_of(small_ids, one_block, past_direct_limit).map(
    lambda blocks: np.array(blocks, dtype=np.int64)
)


@st.composite
def split_streams(draw):
    """``(blocks, bounds)``: a stream and its chunk boundaries, 0 to len.

    Repeated cut points make empty chunks; adjacent ones, one-access chunks.
    """
    blocks = draw(block_streams)
    n = len(blocks)
    cuts = draw(st.lists(st.integers(min_value=0, max_value=n), max_size=10))
    return blocks, [0, *sorted(cuts), n]


@pytest.mark.parametrize("use_native", PATHS, ids=PATH_IDS)
@given(split_streams())
@settings(max_examples=150, deadline=None)
def test_reverse_pass_matches_backwards_walk(use_native, drawn):
    blocks, bounds = drawn
    expected = reference_next_use(blocks)
    table = NextUseTable(use_native=use_native)
    for start, end in reversed(list(zip(bounds[:-1], bounds[1:]))):
        got = resolve_chunk_next_use(blocks[start:end], start, table)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected[start:end])


@pytest.mark.parametrize("use_native", PATHS, ids=PATH_IDS)
@given(block_streams)
@settings(max_examples=100, deadline=None)
def test_next_use_indices_is_one_chunk_at_offset_zero(use_native, blocks):
    one_chunk = resolve_chunk_next_use(blocks, 0, NextUseTable(use_native=use_native))
    np.testing.assert_array_equal(next_use_indices(blocks), one_chunk)
    np.testing.assert_array_equal(one_chunk, reference_next_use(blocks))


def _read_only(array):
    array.flags.writeable = False
    return array


@pytest.mark.parametrize(
    "ids,table,message",
    [
        (np.array([0, 3], dtype=np.int64), np.full(3, NEVER), r"ids must lie in \[0, 3\)"),
        (np.array([-1], dtype=np.int64), np.full(3, NEVER), r"ids must lie in \[0, 3\)"),
        (np.array([0, 1], dtype=np.int32), np.full(3, NEVER), "ids must be a C-contiguous"),
        (np.arange(4, dtype=np.int64)[::2], np.full(3, NEVER), "ids must be a C-contiguous"),
        (np.zeros(1, dtype=np.int64), np.full(6, NEVER)[::2], "table must be a C-contiguous"),
        (np.zeros(1, dtype=np.int64), _read_only(np.full(3, NEVER)), "table must be writable"),
    ],
    ids=["past-end", "negative", "int32", "strided", "strided-table", "read-only-table"],
)
def test_kernel_wrapper_rejects_what_the_scan_cannot_take(ids, table, message):
    with pytest.raises(ValueError, match=message):
        kernels.opt_next_use(ids, 0, table)
    assert (table == NEVER).all()
