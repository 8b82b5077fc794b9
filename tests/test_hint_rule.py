"""One hint rule: the first containing region wins, in every classifier.

GRASP's hints come from three places: :meth:`GraspClassifier.classify`
(one address), :meth:`GraspClassifier.classify_array` (the staged filter's
chunks) and the filter kernel's ``grasp_classify``
(:func:`~repro.fastsim.kernels.fused.fused_filter_feed`, the fused pass's
chunks, which the runner also holds for later replays).  A held stream and
a freshly filtered one must carry the same hints, so the three must agree
on every region table, not only on the disjoint ones GRASP's Address
Bound Registers produce.  The property draws tables from a small address
range, so overlapping, nested, touching and empty tables are all common,
and addresses at and beside every region bound.

The kernel part is skipped where the kernel library has no fused filter;
the suite needs ``hypothesis`` and is skipped wholesale without it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cache.hints import HINT_DEFAULT, HINT_HIGH, HINT_LOW, HINT_MODERATE  # noqa: E402
from repro.core import AddressBoundRegisterFile, GraspClassifier  # noqa: E402
from repro.core.classification import _Region  # noqa: E402
from repro.fastsim import kernels  # noqa: E402
from repro.fastsim.kernels.fused import (  # noqa: E402
    OUT_LLC_HIT,
    FilterState,
    RegionTable,
    fused_filter_feed,
)

HINTS = (HINT_DEFAULT, HINT_HIGH, HINT_MODERATE, HINT_LOW)

regions = st.tuples(st.integers(0, 40), st.integers(1, 24), st.sampled_from(HINTS)).map(
    lambda drawn: (drawn[0], drawn[0] + drawn[1], drawn[2])
)
tables = st.lists(regions, max_size=6).map(tuple)


def _classifier(table):
    """A classifier consulting ``table`` as given.

    The ABR file rejects overlapping registers, so a drawn table is
    installed in place of the one the registers would build.
    """
    classifier = GraspClassifier(AddressBoundRegisterFile(), llc_size_bytes=64)
    classifier._regions = [_Region(*region) for region in table]
    return classifier


def _addresses(table, extra):
    """Every region bound and its neighbours, plus the drawn addresses."""
    bounds = {edge + delta for start, end, _ in table for edge in (start, end)
              for delta in (-1, 0, 1)}
    return np.array(sorted(address for address in bounds | set(extra) if address >= 0),
                    dtype=np.int64)


def _kernel_hints(table, addresses):
    n = len(addresses)
    hints = np.empty(n, dtype=np.uint8)
    # Distinct blocks miss both levels, so the kernel classifies every access.
    out = fused_filter_feed(
        np.arange(n, dtype=np.int64), FilterState(1, 1, 1, 1), hints, addresses,
        RegionTable.from_regions(table),
    )
    assert (out == OUT_LLC_HIT).all()
    return hints


@settings(max_examples=300, deadline=None)
@given(table=tables, extra=st.lists(st.integers(0, 70), max_size=8))
@example(table=((0, 10, HINT_HIGH), (5, 20, HINT_MODERATE)), extra=[7])
def test_classify_classify_array_and_kernel_agree(table, extra):
    classifier = _classifier(table)
    addresses = _addresses(table, extra)
    single = np.array([classifier.classify(a) for a in addresses.tolist()], dtype=np.uint8)
    first = [
        next((hint for start, end, hint in table if start <= a < end), HINT_LOW)
        if table else HINT_DEFAULT
        for a in addresses.tolist()
    ]
    np.testing.assert_array_equal(single, first)
    np.testing.assert_array_equal(classifier.classify_array(addresses), single)
    if kernels.has_capability("fused:filter"):
        np.testing.assert_array_equal(_kernel_hints(classifier.regions(), addresses), single)


def test_classify_array_writes_the_kernels_dtype():
    """uint8, like the kernel's hints, so held and fresh chunks match field
    for field."""
    for table in ((), ((0, 64, HINT_HIGH),)):
        hints = _classifier(table).classify_array(np.arange(0, 128, 8))
        assert hints.dtype == np.uint8
