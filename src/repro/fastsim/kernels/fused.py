"""Fused single-pass pipeline kernels: L1/L2 filter + LLC replay.

One C call per trace chunk replaces the staged vector pipeline's
filter → compact → classify → replay sequence.  The call runs two phases
over a shared per-access ``outcome`` vector (uint8), both serial, in trace
order, on the calling thread:

* **Filter phase**: every access is pushed through the L1 and L2 LRU
  filters in place on the persistent :class:`FilterState`.  A repeat of the
  previous block is a guaranteed L1 MRU hit and touches no state, mirroring
  the staged path's run-head collapse.  The pipelines' ``threads`` setting
  (``REPRO_THREADS``) does not fan this phase out: a set-sharded filter
  never beat this loop on the hosts measured (``ROADMAP.md`` keeps the
  numbers).
* **LLC phase**: accesses the filter marked as kept run through the engine
  family's ``*_step`` transition — the same C code the standalone kernels
  loop over — including GRASP hint classification in C for the
  hint-driven families.  Serial order keeps duel/predictor state
  (PSEL, SHCT, OPTgen) bit-identical to the staged engines.

Outcome codes: 0 = L1 hit, 1 = L2 hit, 2 = LLC hit (and the filter phase's
"kept" placeholder), 3 = LLC miss, 4 = LLC bypass (PIN-X only).  All stats
derive from ``np.bincount`` over this vector plus the per-set miss
counters; no intermediate compacted arrays are ever materialized.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Tuple

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

#: Outcome codes written by the fused kernels.
OUT_L1_HIT = 0
OUT_L2_HIT = 1
OUT_LLC_HIT = 2
OUT_LLC_MISS = 3
OUT_LLC_BYPASS = 4

_SOURCE = r"""
/* The filter phase: push blocks[0..n) through L1 then L2, one outcome byte
 * each (0 = L1 hit, 1 = L2 hit, 2 = LLC-bound). */
static void fused_filter(const int64_t *blocks, int64_t n, int32_t l1_sets,
                         int32_t l1_ways, int64_t *l1_tags,
                         int64_t *l1_stamps, int64_t *l1_clocks,
                         int64_t *l1_miss, int32_t l2_sets, int32_t l2_ways,
                         int64_t *l2_tags, int64_t *l2_stamps,
                         int64_t *l2_clocks, int64_t *l2_miss, uint8_t *out)
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
    }
}

#define FUSED_FILTER_ARGS                                                    \
    const int64_t *blocks, int64_t n, int32_t l1_sets, int32_t l1_ways,      \
    int64_t *l1_tags, int64_t *l1_stamps, int64_t *l1_clocks,                \
    int64_t *l1_miss, int32_t l2_sets, int32_t l2_ways, int64_t *l2_tags,    \
    int64_t *l2_stamps, int64_t *l2_clocks, int64_t *l2_miss

#define FUSED_RUN_FILTER()                                                   \
    fused_filter(blocks, n, l1_sets, l1_ways, l1_tags, l1_stamps, l1_clocks, \
                 l1_miss, l2_sets, l2_ways, l2_tags, l2_stamps, l2_clocks,   \
                 l2_miss, out)

/* Filter-only entry: run the L1/L2 phase and stop, leaving the "kept"
 * placeholder (2) on every LLC-bound access.  Lets one filter pass
 * feed any number of per-policy LLC engines (the fused multi-scheme route)
 * without duplicating the filter work or materializing a filtered trace. */
void fused_filter_only(FUSED_FILTER_ARGS, uint8_t *out)
{
    FUSED_RUN_FILTER();
}

/* Fused LRU pipeline: per-set LLC recency clocks (outcome-equivalent to the
 * staged engine's global clock; see kernels/core.py). */
void fused_lru(FUSED_FILTER_ARGS, int32_t num_sets, int32_t ways,
               int64_t *tags, int64_t *stamps, int64_t *clocks,
               int64_t *misses_per_set, uint8_t *out)
{
    FUSED_RUN_FILTER();
    const int64_t mask = (int64_t)num_sets - 1;
    for (int64_t i = 0; i < n; i++) {
        if (out[i] != 2) continue;
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        out[i] = lru_step(block, ways, tags + set * ways, stamps + set * ways,
                          misses_per_set + set, clocks + set) ? 2 : 3;
    }
}

/* Fused RRIP-family pipeline (SRRIP / BRRIP / DRRIP / GRASP): reuse hints
 * are classified in C from byte addresses against the ABR region table. */
void fused_rrip(FUSED_FILTER_ARGS, const int64_t *addrs,
                const int64_t *reg_lo, const int64_t *reg_hi,
                const int32_t *reg_hint, int32_t n_regions, int32_t num_sets,
                int32_t ways, int32_t max_rrpv, const int32_t *ins_table,
                const int32_t *promo_table, int64_t epsilon, int64_t psel_max,
                int32_t leader_period, int64_t *tags, int32_t *rrpv,
                int64_t *misses_per_set, int64_t *state, uint8_t *out)
{
    FUSED_RUN_FILTER();
    int64_t psel = state[0];
    int64_t insert_count = state[1];
    const int64_t mask = (int64_t)num_sets - 1;
    const int64_t midpoint = (psel_max + 1) / 2;
    for (int64_t i = 0; i < n; i++) {
        if (out[i] != 2) continue;
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        const int32_t hint =
            grasp_classify(addrs[i], reg_lo, reg_hi, reg_hint, n_regions) & 3;
        out[i] = rrip_step(block, hint, set, ways, max_rrpv, ins_table,
                           promo_table, epsilon, psel_max, leader_period,
                           midpoint, tags + set * ways, rrpv + set * ways,
                           misses_per_set + set, &psel, &insert_count)
                     ? 2 : 3;
    }
    state[0] = psel;
    state[1] = insert_count;
}

/* Fused PIN-X pipeline: DRRIP + pinned ways, hints classified in C. */
void fused_pin(FUSED_FILTER_ARGS, const int64_t *addrs,
               const int64_t *reg_lo, const int64_t *reg_hi,
               const int32_t *reg_hint, int32_t n_regions, int32_t num_sets,
               int32_t ways, int32_t max_rrpv, int64_t epsilon,
               int64_t psel_max, int32_t leader_period, int32_t reserved_ways,
               int32_t hint_high, int64_t *tags, int32_t *rrpv,
               uint8_t *pinned, int32_t *pinned_count, int64_t *misses_per_set,
               int64_t *bypasses_per_set, int64_t *state, uint8_t *out)
{
    FUSED_RUN_FILTER();
    int64_t psel = state[0];
    int64_t insert_count = state[1];
    const int64_t mask = (int64_t)num_sets - 1;
    const int64_t midpoint = (psel_max + 1) / 2;
    for (int64_t i = 0; i < n; i++) {
        if (out[i] != 2) continue;
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        const int32_t hint =
            grasp_classify(addrs[i], reg_lo, reg_hi, reg_hint, n_regions) & 3;
        const int code = pin_step(block, hint, set, ways, max_rrpv, epsilon,
                                  psel_max, leader_period, midpoint,
                                  reserved_ways, hint_high, tags + set * ways,
                                  rrpv + set * ways, pinned + set * ways,
                                  pinned_count + set, misses_per_set + set,
                                  bypasses_per_set + set, &psel,
                                  &insert_count);
        out[i] = code == 1 ? 2 : (code == 2 ? 4 : 3);
    }
    state[0] = psel;
    state[1] = insert_count;
}

/* Fused SHiP-MEM pipeline: sig_ids are dense per-access signature ids. */
void fused_ship(FUSED_FILTER_ARGS, const int64_t *sig_ids, int32_t num_sets,
                int32_t ways, int32_t max_rrpv, int32_t counter_max,
                int64_t *tags, int32_t *rrpv, int64_t *line_sig,
                uint8_t *reused, int64_t *shct, int64_t *misses_per_set,
                uint8_t *out)
{
    FUSED_RUN_FILTER();
    const int64_t mask = (int64_t)num_sets - 1;
    for (int64_t i = 0; i < n; i++) {
        if (out[i] != 2) continue;
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        out[i] = ship_step(block, sig_ids[i], ways, max_rrpv, counter_max,
                           tags + set * ways, rrpv + set * ways,
                           line_sig + set * ways, reused + set * ways, shct,
                           misses_per_set + set) ? 2 : 3;
    }
}

/* Fused Leeway pipeline: pc_ids are dense per-access PC ids. */
void fused_leeway(FUSED_FILTER_ARGS, const int64_t *pc_ids, int32_t num_sets,
                  int32_t ways, int32_t decay_period, int64_t *tags,
                  int32_t *pos, int64_t *line_sig, int32_t *observed,
                  int64_t *predicted, int64_t *votes, int64_t *misses_per_set,
                  uint8_t *out)
{
    FUSED_RUN_FILTER();
    const int64_t mask = (int64_t)num_sets - 1;
    for (int64_t i = 0; i < n; i++) {
        if (out[i] != 2) continue;
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        out[i] = leeway_step(block, pc_ids[i], ways, decay_period,
                             tags + set * ways, pos + set * ways,
                             line_sig + set * ways, observed + set * ways,
                             predicted, votes, misses_per_set + set) ? 2 : 3;
    }
}

/* Fused Hawkeye pipeline: block_ids/pc_ids are dense per-access ids. */
void fused_hawkeye(FUSED_FILTER_ARGS, const int64_t *block_ids,
                   const int64_t *pc_ids, int32_t num_sets, int32_t ways,
                   int32_t max_rrpv, int32_t sample_period,
                   int32_t predictor_max, int64_t history, int64_t *tags,
                   int32_t *rrpv, uint8_t *friendly, int64_t *line_pc,
                   int32_t *predictor, int64_t *last_access, int64_t *last_pc,
                   int32_t *occupancy, int64_t *occ_head, int64_t *occ_len,
                   int64_t *timestamps, int64_t *misses_per_set, uint8_t *out)
{
    FUSED_RUN_FILTER();
    const int64_t mask = (int64_t)num_sets - 1;
    const int32_t midpoint = (predictor_max + 1) / 2;
    for (int64_t i = 0; i < n; i++) {
        if (out[i] != 2) continue;
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        out[i] = hawkeye_step(block, block_ids[i], pc_ids[i], set, ways,
                              max_rrpv, sample_period, predictor_max, midpoint,
                              history, tags + set * ways, rrpv + set * ways,
                              friendly + set * ways, line_pc + set * ways,
                              predictor, last_access, last_pc, occupancy,
                              occ_head, occ_len, timestamps,
                              misses_per_set + set) ? 2 : 3;
    }
}
"""

# Filter-phase argtypes shared by every fused entry (FUSED_FILTER_ARGS).
_FILTER_ARGTYPES = [
    p_i64, i64,
    i32, i32, p_i64, p_i64, p_i64, p_i64,
    i32, i32, p_i64, p_i64, p_i64, p_i64,
]

register_kernel(
    KernelSpec(
        name="fused",
        source=_SOURCE,
        functions={
            "fused_filter_only": _FILTER_ARGTYPES + [p_u8],
            "fused_lru": _FILTER_ARGTYPES + [i32, i32, p_i64, p_i64, p_i64, p_i64, p_u8],
            "fused_rrip": _FILTER_ARGTYPES + [
                p_i64, p_i64, p_i64, p_i32, i32,
                i32, i32, i32, p_i32, p_i32, i64, i64, i32,
                p_i64, p_i32, p_i64, p_i64, p_u8,
            ],
            "fused_pin": _FILTER_ARGTYPES + [
                p_i64, p_i64, p_i64, p_i32, i32,
                i32, i32, i32, i64, i64, i32, i32, i32,
                p_i64, p_i32, p_u8, p_i32, p_i64, p_i64, p_i64, p_u8,
            ],
            "fused_ship": _FILTER_ARGTYPES + [
                p_i64, i32, i32, i32, i32,
                p_i64, p_i32, p_i64, p_u8, p_i64, p_i64, p_u8,
            ],
            "fused_leeway": _FILTER_ARGTYPES + [
                p_i64, i32, i32, i32,
                p_i64, p_i32, p_i64, p_i32, p_i64, p_i64, p_i64, p_u8,
            ],
            "fused_hawkeye": _FILTER_ARGTYPES + [
                p_i64, p_i64, i32, i32, i32, i32, i32, i64,
                p_i64, p_i32, p_u8, p_i64, p_i32, p_i64, p_i64, p_i32,
                p_i64, p_i64, p_i64, p_i64, p_u8,
            ],
        },
        capabilities=(
            "fused",
            "fused:filter",
            "fused:lru",
            "fused:rrip",
            "fused:pin",
            "fused:ship",
            "fused:leeway",
            "fused:hawkeye",
        ),
    )
)


@dataclass
class FilterState:
    """Persistent L1/L2 filter state for one fused pipeline instance."""

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

    def __post_init__(self) -> None:
        self.l1_tags = np.full(self.l1_sets * self.l1_ways, -1, dtype=np.int64)
        self.l1_stamps = np.zeros(self.l1_sets * self.l1_ways, dtype=np.int64)
        self.l1_clocks = np.zeros(self.l1_sets, dtype=np.int64)
        self.l1_misses = np.zeros(self.l1_sets, dtype=np.int64)
        self.l2_tags = np.full(self.l2_sets * self.l2_ways, -1, dtype=np.int64)
        self.l2_stamps = np.zeros(self.l2_sets * self.l2_ways, dtype=np.int64)
        self.l2_clocks = np.zeros(self.l2_sets, dtype=np.int64)
        self.l2_misses = np.zeros(self.l2_sets, dtype=np.int64)


@dataclass(frozen=True)
class RegionTable:
    """GRASP ABR regions in array form for the in-kernel classifier."""

    lo: np.ndarray
    hi: np.ndarray
    hint: np.ndarray

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

    def __len__(self) -> int:
        return int(self.lo.shape[0])


def _filter_args(blocks: np.ndarray, n: int, filt: FilterState):
    return [
        as_i64(blocks),
        ctypes.c_int64(n),
        ctypes.c_int32(filt.l1_sets),
        ctypes.c_int32(filt.l1_ways),
        as_i64(filt.l1_tags),
        as_i64(filt.l1_stamps),
        as_i64(filt.l1_clocks),
        as_i64(filt.l1_misses),
        ctypes.c_int32(filt.l2_sets),
        ctypes.c_int32(filt.l2_ways),
        as_i64(filt.l2_tags),
        as_i64(filt.l2_stamps),
        as_i64(filt.l2_clocks),
        as_i64(filt.l2_misses),
    ]


def _prep(blocks, out_n):
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    out = np.empty(out_n, dtype=np.uint8)
    return blocks, out


def fused_filter_feed(blocks, filt):
    """L1/L2 filter phase over one chunk.

    Returns the per-access outcome vector with the LLC phase left unrun:
    0 = L1 hit, 1 = L2 hit, 2 = kept (LLC-bound).
    """
    kernel = registry.lookup("fused_filter_only")
    blocks, out = _prep(blocks, len(blocks))
    kernel(*_filter_args(blocks, len(blocks), filt), as_u8(out))
    return out


def fused_lru_feed(blocks, filt, num_sets, ways, tags, stamps, clocks,
                   misses_per_set):
    """Fused LRU pipeline over one chunk."""
    kernel = registry.lookup("fused_lru")
    blocks, out = _prep(blocks, len(blocks))
    kernel(
        *_filter_args(blocks, len(blocks), filt),
        ctypes.c_int32(num_sets),
        ctypes.c_int32(ways),
        as_i64(tags),
        as_i64(stamps),
        as_i64(clocks),
        as_i64(misses_per_set),
        as_u8(out),
    )
    return out


def fused_rrip_feed(blocks, addrs, filt, regions, num_sets, ways, max_rrpv,
                    ins_table, promo_table, epsilon, psel_max,
                    leader_period, tags, rrpv, misses_per_set, state):
    """Fused RRIP-family pipeline over one chunk."""
    kernel = registry.lookup("fused_rrip")
    blocks, out = _prep(blocks, len(blocks))
    addrs = np.ascontiguousarray(addrs, dtype=np.int64)
    kernel(
        *_filter_args(blocks, len(blocks), filt),
        as_i64(addrs),
        as_i64(regions.lo),
        as_i64(regions.hi),
        as_i32(regions.hint),
        ctypes.c_int32(len(regions)),
        ctypes.c_int32(num_sets),
        ctypes.c_int32(ways),
        ctypes.c_int32(max_rrpv),
        as_i32(ins_table),
        as_i32(promo_table),
        ctypes.c_int64(epsilon),
        ctypes.c_int64(psel_max),
        ctypes.c_int32(leader_period),
        as_i64(tags),
        as_i32(rrpv),
        as_i64(misses_per_set),
        as_i64(state),
        as_u8(out),
    )
    return out


def fused_pin_feed(blocks, addrs, filt, regions, num_sets, ways, max_rrpv,
                   epsilon, psel_max, leader_period, reserved_ways, hint_high,
                   tags, rrpv, pinned, pinned_count, misses_per_set,
                   bypasses_per_set, state):
    """Fused PIN-X pipeline over one chunk."""
    kernel = registry.lookup("fused_pin")
    blocks, out = _prep(blocks, len(blocks))
    addrs = np.ascontiguousarray(addrs, dtype=np.int64)
    kernel(
        *_filter_args(blocks, len(blocks), filt),
        as_i64(addrs),
        as_i64(regions.lo),
        as_i64(regions.hi),
        as_i32(regions.hint),
        ctypes.c_int32(len(regions)),
        ctypes.c_int32(num_sets),
        ctypes.c_int32(ways),
        ctypes.c_int32(max_rrpv),
        ctypes.c_int64(epsilon),
        ctypes.c_int64(psel_max),
        ctypes.c_int32(leader_period),
        ctypes.c_int32(reserved_ways),
        ctypes.c_int32(hint_high),
        as_i64(tags),
        as_i32(rrpv),
        as_u8(pinned),
        as_i32(pinned_count),
        as_i64(misses_per_set),
        as_i64(bypasses_per_set),
        as_i64(state),
        as_u8(out),
    )
    return out


def fused_ship_feed(blocks, sig_ids, filt, num_sets, ways, max_rrpv,
                    counter_max, tags, rrpv, line_sig, reused, shct,
                    misses_per_set):
    """Fused SHiP-MEM pipeline over one chunk."""
    kernel = registry.lookup("fused_ship")
    blocks, out = _prep(blocks, len(blocks))
    sig_ids = np.ascontiguousarray(sig_ids, dtype=np.int64)
    kernel(
        *_filter_args(blocks, len(blocks), filt),
        as_i64(sig_ids),
        ctypes.c_int32(num_sets),
        ctypes.c_int32(ways),
        ctypes.c_int32(max_rrpv),
        ctypes.c_int32(counter_max),
        as_i64(tags),
        as_i32(rrpv),
        as_i64(line_sig),
        as_u8(reused),
        as_i64(shct),
        as_i64(misses_per_set),
        as_u8(out),
    )
    return out


def fused_leeway_feed(blocks, pc_ids, filt, num_sets, ways, decay_period,
                      tags, pos, line_sig, observed, predicted, votes,
                      misses_per_set):
    """Fused Leeway pipeline over one chunk."""
    kernel = registry.lookup("fused_leeway")
    blocks, out = _prep(blocks, len(blocks))
    pc_ids = np.ascontiguousarray(pc_ids, dtype=np.int64)
    kernel(
        *_filter_args(blocks, len(blocks), filt),
        as_i64(pc_ids),
        ctypes.c_int32(num_sets),
        ctypes.c_int32(ways),
        ctypes.c_int32(decay_period),
        as_i64(tags),
        as_i32(pos),
        as_i64(line_sig),
        as_i32(observed),
        as_i64(predicted),
        as_i64(votes),
        as_i64(misses_per_set),
        as_u8(out),
    )
    return out


def fused_hawkeye_feed(blocks, block_ids, pc_ids, filt, num_sets, ways,
                       max_rrpv, sample_period, predictor_max, history,
                       tags, rrpv, friendly, line_pc, predictor, last_access,
                       last_pc, occupancy, occ_head, occ_len, timestamps,
                       misses_per_set):
    """Fused Hawkeye pipeline over one chunk."""
    kernel = registry.lookup("fused_hawkeye")
    blocks, out = _prep(blocks, len(blocks))
    block_ids = np.ascontiguousarray(block_ids, dtype=np.int64)
    pc_ids = np.ascontiguousarray(pc_ids, dtype=np.int64)
    kernel(
        *_filter_args(blocks, len(blocks), filt),
        as_i64(block_ids),
        as_i64(pc_ids),
        ctypes.c_int32(num_sets),
        ctypes.c_int32(ways),
        ctypes.c_int32(max_rrpv),
        ctypes.c_int32(sample_period),
        ctypes.c_int32(predictor_max),
        ctypes.c_int64(history),
        as_i64(tags),
        as_i32(rrpv),
        as_u8(friendly),
        as_i64(line_pc),
        as_i32(predictor),
        as_i64(last_access),
        as_i64(last_pc),
        as_i32(occupancy),
        as_i64(occ_head),
        as_i64(occ_len),
        as_i64(timestamps),
        as_i64(misses_per_set),
        as_u8(out),
    )
    return out
