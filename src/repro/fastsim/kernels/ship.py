"""SHiP-MEM engine-family kernel (SRRIP + signature history counter table)."""

from __future__ import annotations

import ctypes

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

_SOURCE = r"""
/* One SHiP-MEM access against a single set: returns 1 on hit, 0 on miss
 * (after inserting).  A first reuse trains the line's signature up, a
 * capacity eviction of a never-reused line trains it down, and every
 * insertion reads the incoming signature to pick between long and distant
 * re-reference insertion.  sig is a dense signature id; shct must cover it. */
static inline int ship_step(int64_t block, int64_t sig, int32_t ways,
                            int32_t max_rrpv, int32_t counter_max,
                            int64_t *tag, int32_t *r, int64_t *ls,
                            uint8_t *ru, int64_t *shct, int64_t *miss_ctr)
{
    int32_t way = -1;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == block) { way = w; break; }
    }
    if (way >= 0) {
        r[way] = 0;
        if (!ru[way]) {
            ru[way] = 1;
            if (shct[ls[way]] < counter_max) shct[ls[way]]++;
        }
        return 1;
    }
    (*miss_ctr)++;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == -1) { way = w; break; }
    }
    if (way < 0) {
        for (;;) {
            for (int32_t w = 0; w < ways; w++) {
                if (r[w] >= max_rrpv) { way = w; break; }
            }
            if (way >= 0) break;
            for (int32_t w = 0; w < ways; w++) r[w]++;
        }
        if (!ru[way] && shct[ls[way]] > 0) shct[ls[way]]--;
    }
    tag[way] = block;
    r[way] = (shct[sig] == 0) ? max_rrpv : max_rrpv - 1;
    ls[way] = sig;
    ru[way] = 0;
    return 0;
}

/* Exact SHiP-MEM replay over ship_step (the caller densifies signatures;
 * shct is initialised to the unseen value).  Outcome contract: only
 * accesses with out[i] == 2 replay, and each is overwritten with 2 (hit)
 * or 3 (miss); the signatures of the others are never read. */
void ship_replay(const int64_t *blocks, const int64_t *sig_ids, int64_t n,
                 int32_t num_sets, int32_t ways, int32_t max_rrpv,
                 int32_t counter_max, int64_t *tags, int32_t *rrpv,
                 int64_t *line_sig, uint8_t *reused, int64_t *shct,
                 uint8_t *out, int64_t *misses_per_set)
{
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
"""

register_kernel(
    KernelSpec(
        name="ship",
        source=_SOURCE,
        functions={
            "ship_replay": [
                p_i64, p_i64, i64, i32, i32, i32, i32, p_i64, p_i32, p_i64,
                p_u8, p_i64, p_u8, p_i64,
            ],
        },
        capabilities=("replay:ship",),
    )
)


def ship_feed(
    blocks: np.ndarray,
    sig_ids: np.ndarray,
    out: np.ndarray,
    num_sets: int,
    ways: int,
    max_rrpv: int,
    counter_max: int,
    tags: np.ndarray,
    rrpv: np.ndarray,
    line_sig: np.ndarray,
    reused: np.ndarray,
    shct: np.ndarray,
    misses_per_set: np.ndarray,
) -> None:
    """Run the SHiP kernel over caller-owned state.

    ``out`` is the chunk's outcome vector: the accesses marked 2 replay and
    get 2 (hit) or 3 (miss).  ``sig_ids`` must use signature ids that are
    stable across calls, and ``shct`` must cover every id in the chunk; all
    array arguments after ``counter_max`` persist across calls.
    """
    kernel = registry.lookup("ship_replay")
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    sig_ids = np.ascontiguousarray(sig_ids, dtype=np.int64)
    kernel(
        as_i64(blocks),
        as_i64(sig_ids),
        ctypes.c_int64(blocks.shape[0]),
        ctypes.c_int32(num_sets),
        ctypes.c_int32(ways),
        ctypes.c_int32(max_rrpv),
        ctypes.c_int32(counter_max),
        as_i64(tags),
        as_i32(rrpv),
        as_i64(line_sig),
        as_u8(reused),
        as_i64(shct),
        as_u8(out),
        as_i64(misses_per_set),
    )
