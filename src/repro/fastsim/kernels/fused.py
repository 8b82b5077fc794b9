"""The L1/L2 filter kernel, and the outcome codes every replay kernel shares.

A fused pass over one trace chunk is two kernel calls over one per-access
``outcome`` vector (uint8), each a serial walk in trace order:

* **Filter**: :func:`fused_filter_feed` pushes every access through the L1
  and L2 LRU filters in place on the persistent :class:`FilterState`.  A
  repeat of the previous block is a guaranteed L1 MRU hit and touches no
  state.  Every access gets 0 (L1 hit), 1 (L2 hit) or 2 (LLC-bound); given
  a hint buffer, every LLC-bound access also gets its GRASP reuse hint,
  classified in C from its byte address against a :class:`RegionTable`.
* **LLC**: the policy family's own replay kernel (``lru_replay``,
  ``rrip_replay``, ...) replays only the accesses marked 2 and overwrites
  each with 2 (hit), 3 (miss) or 4 (bypass, PIN-X only).  A staged replay
  hands it an all-2 vector.  Serial order keeps duel and predictor state
  (PSEL, SHCT, OPTgen) bit-identical to the staged engines.

No compacted block, hint or PC array is materialized between the two calls;
the statistics come from the filter's and the engine's own counters.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.fastsim.kernels import registry
from repro.fastsim.kernels.registry import (
    KernelSpec,
    as_i32,
    as_i64,
    as_u8,
    i32,
    i64,
    p_i32,
    p_i64,
    p_u8,
    register_kernel,
)

#: Outcome codes of the per-access outcome vector.
OUT_L1_HIT = 0
OUT_L2_HIT = 1
OUT_LLC_HIT = 2  # also the filter's "LLC-bound" mark, which replay kernels read
OUT_LLC_MISS = 3
OUT_LLC_BYPASS = 4

_SOURCE = r"""
/* The L1/L2 filter: push blocks[0..n) through L1 then L2, one outcome byte
 * each (0 = L1 hit, 1 = L2 hit, 2 = LLC-bound).  Given a hints buffer, every
 * LLC-bound access also gets its 2-bit GRASP hint, classified from addrs[i]
 * against the region table; hints of the other accesses are left unwritten. */
void fused_filter_only(const int64_t *blocks, int64_t n, int32_t l1_sets,
                       int32_t l1_ways, int64_t *l1_tags, int64_t *l1_stamps,
                       int64_t *l1_clocks, int64_t *l1_miss, int32_t l2_sets,
                       int32_t l2_ways, int64_t *l2_tags, int64_t *l2_stamps,
                       int64_t *l2_clocks, int64_t *l2_miss, uint8_t *out,
                       const int64_t *addrs, const int64_t *reg_lo,
                       const int64_t *reg_hi, const int32_t *reg_hint,
                       int32_t n_regions, uint8_t *hints)
{
    const int64_t l1_mask = (int64_t)l1_sets - 1;
    const int64_t l2_mask = (int64_t)l2_sets - 1;
    int64_t last_block = -1;
    for (int64_t i = 0; i < n; i++) {
        const int64_t block = blocks[i];
        if (block == last_block) { out[i] = 0; continue; }
        last_block = block;
        const int64_t s1 = block & l1_mask;
        if (lru_step(block, l1_ways, l1_tags + s1 * l1_ways,
                     l1_stamps + s1 * l1_ways, l1_miss + s1, l1_clocks + s1)) {
            out[i] = 0;
            continue;
        }
        const int64_t s2 = block & l2_mask;
        if (lru_step(block, l2_ways, l2_tags + s2 * l2_ways,
                     l2_stamps + s2 * l2_ways, l2_miss + s2, l2_clocks + s2)) {
            out[i] = 1;
            continue;
        }
        out[i] = 2;
        if (hints)
            hints[i] = (uint8_t)(grasp_classify(addrs[i], reg_lo, reg_hi,
                                                reg_hint, n_regions) & 3);
    }
}
"""

register_kernel(
    KernelSpec(
        name="fused",
        source=_SOURCE,
        functions={
            "fused_filter_only": [
                p_i64, i64,
                i32, i32, p_i64, p_i64, p_i64, p_i64,
                i32, i32, p_i64, p_i64, p_i64, p_i64,
                p_u8, p_i64, p_i64, p_i64, p_i32, i32, p_u8,
            ],
        },
        capabilities=("fused", "fused:filter"),
    )
)


@dataclass
class FilterState:
    """Persistent L1/L2 filter state of one vector-backend ``FilterStream``.

    The arrays are allocated once and only ever updated in place, so their
    kernel arguments are converted once, into ``args`` (each pointer keeps
    its array alive): the per-chunk call converts only the chunk's arrays.
    """

    l1_sets: int
    l1_ways: int
    l2_sets: int
    l2_ways: int
    l1_tags: np.ndarray = field(init=False)
    l1_stamps: np.ndarray = field(init=False)
    l1_clocks: np.ndarray = field(init=False)
    l1_misses: np.ndarray = field(init=False)
    l2_tags: np.ndarray = field(init=False)
    l2_stamps: np.ndarray = field(init=False)
    l2_clocks: np.ndarray = field(init=False)
    l2_misses: np.ndarray = field(init=False)
    args: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.l1_tags = np.full(self.l1_sets * self.l1_ways, -1, dtype=np.int64)
        self.l1_stamps = np.zeros(self.l1_sets * self.l1_ways, dtype=np.int64)
        self.l1_clocks = np.zeros(self.l1_sets, dtype=np.int64)
        self.l1_misses = np.zeros(self.l1_sets, dtype=np.int64)
        self.l2_tags = np.full(self.l2_sets * self.l2_ways, -1, dtype=np.int64)
        self.l2_stamps = np.zeros(self.l2_sets * self.l2_ways, dtype=np.int64)
        self.l2_clocks = np.zeros(self.l2_sets, dtype=np.int64)
        self.l2_misses = np.zeros(self.l2_sets, dtype=np.int64)
        self.args = (
            ctypes.c_int32(self.l1_sets),
            ctypes.c_int32(self.l1_ways),
            as_i64(self.l1_tags),
            as_i64(self.l1_stamps),
            as_i64(self.l1_clocks),
            as_i64(self.l1_misses),
            ctypes.c_int32(self.l2_sets),
            ctypes.c_int32(self.l2_ways),
            as_i64(self.l2_tags),
            as_i64(self.l2_stamps),
            as_i64(self.l2_clocks),
            as_i64(self.l2_misses),
        )


@dataclass(frozen=True)
class RegionTable:
    """GRASP ABR regions in array form for the in-kernel classifier.

    Immutable, so its kernel arguments are converted once, into ``args``.
    """

    lo: np.ndarray
    hi: np.ndarray
    hint: np.ndarray
    args: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", (
            as_i64(self.lo),
            as_i64(self.hi),
            as_i32(self.hint),
            ctypes.c_int32(self.lo.shape[0]),
        ))

    @classmethod
    def empty(cls) -> "RegionTable":
        return cls(
            lo=np.zeros(0, dtype=np.int64),
            hi=np.zeros(0, dtype=np.int64),
            hint=np.zeros(0, dtype=np.int32),
        )

    @classmethod
    def from_regions(cls, regions: Tuple[Tuple[int, int, int], ...]) -> "RegionTable":
        if not regions:
            return cls.empty()
        lo, hi, hint = zip(*regions)
        return cls(
            lo=np.asarray(lo, dtype=np.int64),
            hi=np.asarray(hi, dtype=np.int64),
            hint=np.asarray(hint, dtype=np.int32),
        )


def fused_filter_feed(
    blocks: np.ndarray,
    filt: FilterState,
    hints: Optional[np.ndarray] = None,
    addresses: Optional[np.ndarray] = None,
    regions: Optional[RegionTable] = None,
) -> np.ndarray:
    """L1/L2 filter pass over one chunk, advancing ``filt`` in place.

    Returns the per-access outcome vector: 0 = L1 hit, 1 = L2 hit,
    2 = LLC-bound.  With ``hints`` (a uint8 buffer, one entry per access),
    every LLC-bound access's GRASP hint is also written into it, classified
    from its byte address in ``addresses`` against ``regions`` (no regions:
    every hint is 0, as with the scalar simulator's ``use_hints=False``).
    """
    kernel = registry.lookup("fused_filter_only")
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    n = int(blocks.shape[0])
    out = np.empty(n, dtype=np.uint8)
    hint_args = (None, None, None, None, ctypes.c_int32(0), None)
    if hints is not None:
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if hints.shape[0] != n or addresses.shape[0] != n:
            raise ValueError(
                f"hint buffer ({hints.shape[0]}) and addresses "
                f"({addresses.shape[0]}) must match the chunk's {n} blocks"
            )
        regions = regions if regions is not None else RegionTable.empty()
        hint_args = (as_i64(addresses), *regions.args, as_u8(hints))
    kernel(as_i64(blocks), ctypes.c_int64(n), *filt.args, as_u8(out), *hint_args)
    return out
