"""Property suite for the replay kernels' outcome-vector contract.

Every online engine (``LRUStream``, ``RRIPStream``, ``PinStream``,
``ShipStream``, ``HawkeyeStream``, ``LeewayStream``) takes an optional
per-access outcome vector: it replays only the accesses marked 2 (the
filter's "LLC-bound") and overwrites each with 2 (hit), 3 (miss) or 4
(PIN-X bypass), leaving every other entry alone.  The staged feed and the
fused pass both hand an engine a chunk cut to its LLC-bound accesses (an
all-2 vector); under any other vector a chunk must still replay exactly
like a fresh engine fed only the accesses marked 2.

On drawn geometries (one set and one way included), block streams, hints
(above 3 too: only the low two bits count), PCs and code vectors over
{0, 1, 2} (all-0 and all-2 included), fed as two chunks, this suite checks
the codes, the hit/miss/eviction/bypass counts, the tag arrays, PSEL and
the bimodal counter, and the learning tables on trained keys: the SHiP
signatures, Hawkeye and Leeway PCs handed to accesses marked 0 or 1 get
ids but stay untrained.  An outcome, hint or PC array whose length differs
from the blocks raises :class:`ValueError` before the kernel runs.

The suite needs ``hypothesis`` and the kernel library; it is skipped where
either is unavailable.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cache import CacheConfig  # noqa: E402
from repro.cache.policies import create_policy  # noqa: E402
from repro.fastsim import kernels  # noqa: E402
from repro.fastsim.replay import family_engine, feed_engine  # noqa: E402
from repro.fastsim.ship import _UNSEEN  # noqa: E402

pytestmark = pytest.mark.skipif(
    not kernels.available(), reason="native kernels unavailable"
)

#: One policy per engine family (two RRIP-family tables, both PIN-X
#: extremes), with parameters that reach every code path on tiny caches.
POLICIES = {
    "lru": lambda: create_policy("lru"),
    "brrip": lambda: create_policy("brrip"),
    "drrip": lambda: create_policy("drrip"),
    "grasp": lambda: create_policy("grasp"),
    "pin-50": lambda: create_policy("pin", reserved_fraction=0.5),
    "pin-100": lambda: create_policy("pin", reserved_fraction=1.0),
    "ship-mem": lambda: create_policy("ship-mem", region_bytes=256, block_bytes=64),
    "hawkeye": lambda: create_policy("hawkeye", sample_period=1),
    "leeway": lambda: create_policy("leeway", decay_period=1),
}


def _engine(name, num_sets, ways):
    config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="LLC")
    return family_engine(POLICIES[name](), config)


@st.composite
def contract_cases(draw):
    num_sets = 1 << draw(st.integers(0, 3))
    ways = draw(st.integers(1, 4))
    n = draw(st.integers(0, 160))
    footprint = draw(st.integers(1, 40))
    blocks = draw(st.lists(st.integers(0, footprint - 1), min_size=n, max_size=n))
    codes = draw(
        st.one_of(
            st.just([0] * n),
            st.just([2] * n),
            st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n),
        )
    )
    hints = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    pcs = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    split = draw(st.integers(0, n))
    return (
        num_sets,
        ways,
        np.array(blocks, dtype=np.int64),
        np.array(codes, dtype=np.uint8),
        np.array(hints, dtype=np.int64),
        np.array(pcs, dtype=np.int64),
        split,
    )


def _learned_state(family, engine):
    """PSEL, the bimodal counter and the trained learning-table entries."""
    if family in ("rrip", "pin"):
        return engine.psel, engine.insert_count
    if family == "hawkeye":
        return engine.predictor  # off-midpoint counters only
    if family == "leeway":
        return engine.predicted_live_distances  # non-zero predictions only
    return None


@pytest.mark.parametrize("name", sorted(POLICIES))
@given(case=contract_cases())
@settings(max_examples=120, deadline=None)
def test_outcome_vector_replays_like_the_compacted_stream(name, case):
    num_sets, ways, blocks, codes, hints, pcs, split = case
    family, engine = _engine(name, num_sets, ways)
    out = codes.copy()
    for part in (slice(0, split), slice(split, None)):
        hits = feed_engine(
            family, engine, blocks[part], hints[part], pcs[part], outcomes=out[part]
        )
        np.testing.assert_array_equal(hits, out[part] == 2)

    bound = codes == 2
    _, reference = _engine(name, num_sets, ways)
    want = np.full(int(bound.sum()), 2, dtype=np.uint8)
    feed_engine(family, reference, blocks[bound], hints[bound], pcs[bound], outcomes=want)

    np.testing.assert_array_equal(out[~bound], codes[~bound])
    np.testing.assert_array_equal(out[bound], want)
    assert engine.hit_count == reference.hit_count
    assert engine.miss_count == reference.miss_count
    assert engine.evictions == reference.evictions
    if family == "pin":
        assert engine.bypass_count == reference.bypass_count
        assert engine.bypass_count == int(np.count_nonzero(out == 4))
    np.testing.assert_array_equal(engine.tags, reference.tags)
    assert _learned_state(family, engine) == _learned_state(family, reference)
    if family == "ship":
        got, ref = engine.shct, reference.shct
        assert ref.items() <= got.items()
        assert all(got[key] == _UNSEEN for key in got.keys() - ref.keys())


def _bad_lengths(family, n):
    """(hints, pcs, outcomes) triples with exactly one array too short."""
    good = (np.zeros(n, np.int64), np.zeros(n, np.int64), np.full(n, 2, np.uint8))
    cases = [(good[0], good[1], good[2][:-1])]
    if family in ("rrip", "pin"):
        cases.append((good[0][:-1], good[1], good[2]))
    if family in ("hawkeye", "leeway"):
        cases.append((good[0], good[1][:-1], good[2]))
    return cases


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_mismatched_lengths_raise_before_the_kernel_runs(name):
    blocks = np.arange(64, dtype=np.int64)
    family, engine = _engine(name, 4, 2)
    for hints, pcs, outcomes in _bad_lengths(family, len(blocks)):
        before = outcomes.copy()
        with pytest.raises(ValueError, match="length"):
            feed_engine(family, engine, blocks, hints, pcs, outcomes=outcomes)
        np.testing.assert_array_equal(outcomes, before)
    assert engine.hit_count == 0
    assert engine.miss_count == 0
    assert (np.asarray(engine.tags) == -1).all()
    # A vector of another type is rejected at the ctypes boundary, unwritten.
    wide = np.full(len(blocks), 2, dtype=np.int64)
    with pytest.raises(TypeError, match="uint8"):
        feed_engine(
            family, engine, blocks, np.zeros(64, np.int64), np.zeros(64, np.int64),
            outcomes=wide,
        )
    assert (wide == 2).all()
    assert engine.miss_count == 0
