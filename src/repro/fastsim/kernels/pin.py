"""PIN-X engine-family kernel (DRRIP + pinned ways, the XMem adaptation)."""

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
/* One PIN-X access against a single set: returns 1 on hit, 0 on miss (after
 * inserting), 2 on bypass.  Matches the bug-fixed scalar policy: every
 * non-bypassed insertion feeds the set duel, pinning assigns hit priority
 * on both the hit and insert paths, victim search ages only the unpinned
 * ways, and a full set whose every way is pinned bypasses the incoming
 * block (PIN-100 only), leaving all state — including PSEL — untouched. */
static inline int pin_step(int64_t block, int32_t hint, int64_t set,
                           int32_t ways, int32_t max_rrpv, int64_t epsilon,
                           int64_t psel_max, int32_t leader_period,
                           int64_t midpoint, int32_t reserved_ways,
                           int32_t hint_high, int64_t *tag, int32_t *r,
                           uint8_t *pin, int32_t *pin_ctr, int64_t *miss_ctr,
                           int64_t *bypass_ctr, int64_t *psel,
                           int64_t *insert_count)
{
    int32_t way = -1;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == block) { way = w; break; }
    }
    if (way >= 0) {
        if (pin[way]) return 1;
        if (hint == hint_high && *pin_ctr < reserved_ways) {
            pin[way] = 1;
            (*pin_ctr)++;
        }
        r[way] = 0;
        return 1;
    }
    (*miss_ctr)++;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == -1) { way = w; break; }
    }
    if (way < 0) {
        if (*pin_ctr >= ways) { (*bypass_ctr)++; return 2; }
        for (;;) {
            for (int32_t w = 0; w < ways; w++) {
                if (!pin[w] && r[w] >= max_rrpv) { way = w; break; }
            }
            if (way >= 0) break;
            for (int32_t w = 0; w < ways; w++) {
                if (!pin[w]) r[w]++;
            }
        }
    }
    /* Every inserted block runs the DRRIP duel (the scalar bug fix); the
     * pinning path below then overrides the RRPV with hit priority. */
    int32_t insertion;
    const int64_t slot = set % leader_period;
    if (slot == 0) {
        if (*psel < psel_max) (*psel)++;
        insertion = max_rrpv - 1;
    } else if (slot == 1) {
        if (*psel > 0) (*psel)--;
        (*insert_count)++;
        insertion = (epsilon > 0 && *insert_count % epsilon == 0)
                        ? max_rrpv - 1 : max_rrpv;
    } else if (*psel < midpoint) {
        insertion = max_rrpv - 1;
    } else {
        (*insert_count)++;
        insertion = (epsilon > 0 && *insert_count % epsilon == 0)
                        ? max_rrpv - 1 : max_rrpv;
    }
    tag[way] = block;
    if (hint == hint_high && *pin_ctr < reserved_ways) {
        pin[way] = 1;
        (*pin_ctr)++;
        r[way] = 0;
    } else {
        pin[way] = 0;
        r[way] = insertion;
    }
    return 0;
}

/* Exact PIN-X replay over pin_step; bypasses are counted in both
 * misses_per_set and bypasses_per_set, exactly like the scalar policy.
 * Outcome contract: only accesses with out[i] == 2 replay (reading
 * hints[i]), and each is overwritten with 2 (hit), 3 (miss) or 4 (bypass). */
void pin_replay(const int64_t *blocks, const uint8_t *hints, int64_t n,
                int32_t num_sets, int32_t ways, int32_t max_rrpv,
                int64_t epsilon, int64_t psel_max, int32_t leader_period,
                int32_t reserved_ways, int32_t hint_high,
                int64_t *tags, int32_t *rrpv, uint8_t *pinned,
                int32_t *pinned_count, uint8_t *out, int64_t *misses_per_set,
                int64_t *bypasses_per_set, int64_t *state)
{
    int64_t psel = state[0];
    int64_t insert_count = state[1];
    const int64_t mask = (int64_t)num_sets - 1;
    const int64_t midpoint = (psel_max + 1) / 2;
    for (int64_t i = 0; i < n; i++) {
        if (out[i] != 2) continue;
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        const int code = pin_step(block, hints[i] & 3, set, ways, max_rrpv,
                                  epsilon, psel_max, leader_period, midpoint,
                                  reserved_ways, hint_high, tags + set * ways,
                                  rrpv + set * ways, pinned + set * ways,
                                  pinned_count + set, misses_per_set + set,
                                  bypasses_per_set + set, &psel, &insert_count);
        out[i] = code == 1 ? 2 : (code == 2 ? 4 : 3);
    }
    state[0] = psel;
    state[1] = insert_count;
}
"""

register_kernel(
    KernelSpec(
        name="pin",
        source=_SOURCE,
        functions={
            "pin_replay": [
                p_i64, p_u8, i64, i32, i32, i32, i64, i64, i32, i32, i32,
                p_i64, p_i32, p_u8, p_i32, p_u8, p_i64, p_i64, p_i64,
            ],
        },
        capabilities=("replay:pin",),
    )
)


def pin_feed(
    blocks: np.ndarray,
    hints: np.ndarray,
    out: np.ndarray,
    num_sets: int,
    ways: int,
    max_rrpv: int,
    epsilon: int,
    psel_max: int,
    leader_period: int,
    reserved_ways: int,
    hint_high: int,
    tags: np.ndarray,
    rrpv: np.ndarray,
    pinned: np.ndarray,
    pinned_count: np.ndarray,
    misses_per_set: np.ndarray,
    bypasses_per_set: np.ndarray,
    state: np.ndarray,
) -> None:
    """Run the PIN-X kernel over caller-owned state.

    ``out`` is the chunk's outcome vector: the accesses marked 2 replay
    under their ``hints`` (uint8, one per access) and get 2 (hit), 3 (miss)
    or 4 (bypass).  All array arguments after ``hint_high`` persist across
    calls (``state`` is ``[psel, insert_count]``).
    """
    kernel = registry.lookup("pin_replay")
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    kernel(
        as_i64(blocks),
        as_u8(hints),
        ctypes.c_int64(blocks.shape[0]),
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
        as_u8(out),
        as_i64(misses_per_set),
        as_i64(bypasses_per_set),
        as_i64(state),
    )
