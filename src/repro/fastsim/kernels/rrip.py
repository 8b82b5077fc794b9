"""RRIP engine-family kernel (SRRIP / BRRIP / DRRIP / GRASP)."""

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
/* One RRIP-family access against a single set: returns 1 on hit, 0 on miss
 * (after inserting).  Policy behaviour is parameterized in array form:
 * ins_table / promo_table hold, per 2-bit reuse hint, the insertion RRPV
 * (negative = dynamic: bimodal counter when psel_max == 0, DRRIP set duel
 * otherwise) and the hit-promotion RRPV (negative = decrement one step
 * towards MRU).  tag/r point at the set's ways; psel/insert_count at the
 * shared duel state. */
static inline int rrip_step(int64_t block, int32_t hint, int64_t set,
                            int32_t ways, int32_t max_rrpv,
                            const int32_t *ins_table,
                            const int32_t *promo_table, int64_t epsilon,
                            int64_t psel_max, int32_t leader_period,
                            int64_t midpoint, int64_t *tag, int32_t *r,
                            int64_t *miss_ctr, int64_t *psel,
                            int64_t *insert_count)
{
    int32_t way = -1;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == block) { way = w; break; }
    }
    if (way >= 0) {
        const int32_t promotion = promo_table[hint];
        if (promotion >= 0) r[way] = promotion;
        else if (r[way] > 0) r[way]--;
        return 1;
    }
    (*miss_ctr)++;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == -1) { way = w; break; }
    }
    if (way < 0) {
        /* Standard RRIP victim search: leftmost saturated way, ageing
         * every way until one saturates. */
        for (;;) {
            for (int32_t w = 0; w < ways; w++) {
                if (r[w] >= max_rrpv) { way = w; break; }
            }
            if (way >= 0) break;
            for (int32_t w = 0; w < ways; w++) r[w]++;
        }
    }
    int32_t insertion = ins_table[hint];
    if (insertion < 0) {
        if (psel_max <= 0) {
            /* BRRIP: every insertion consults the bimodal counter. */
            (*insert_count)++;
            insertion = (epsilon > 0 && *insert_count % epsilon == 0)
                            ? max_rrpv - 1 : max_rrpv;
        } else {
            const int64_t slot = set % leader_period;
            if (slot == 0) {            /* SRRIP leader */
                if (*psel < psel_max) (*psel)++;
                insertion = max_rrpv - 1;
            } else if (slot == 1) {     /* BRRIP leader */
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
        }
    }
    tag[way] = block;
    r[way] = insertion;
    return 0;
}

/* Exact RRIP-family replay over rrip_step.  tags/rrpv are caller-provided
 * scratch of num_sets*ways entries (tags initialised to -1, rrpv to
 * max_rrpv); state is {psel, insert_count} in/out so the final duel state
 * can be compared against the scalar policies.  Outcome contract: only
 * accesses with out[i] == 2 replay (reading hints[i]), and each is
 * overwritten with 2 (hit) or 3 (miss). */
void rrip_replay(const int64_t *blocks, const uint8_t *hints, int64_t n,
                 int32_t num_sets, int32_t ways, int32_t max_rrpv,
                 const int32_t *ins_table, const int32_t *promo_table,
                 int64_t epsilon, int64_t psel_max, int32_t leader_period,
                 int64_t *tags, int32_t *rrpv,
                 uint8_t *out, int64_t *misses_per_set, int64_t *state)
{
    int64_t psel = state[0];
    int64_t insert_count = state[1];
    const int64_t mask = (int64_t)num_sets - 1;
    const int64_t midpoint = (psel_max + 1) / 2;
    for (int64_t i = 0; i < n; i++) {
        if (out[i] != 2) continue;
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        out[i] = rrip_step(block, hints[i] & 3, set, ways, max_rrpv,
                           ins_table, promo_table, epsilon, psel_max,
                           leader_period, midpoint, tags + set * ways,
                           rrpv + set * ways, misses_per_set + set,
                           &psel, &insert_count) ? 2 : 3;
    }
    state[0] = psel;
    state[1] = insert_count;
}
"""

register_kernel(
    KernelSpec(
        name="rrip",
        source=_SOURCE,
        functions={
            "rrip_replay": [
                p_i64, p_u8, i64, i32, i32, i32, p_i32, p_i32, i64, i64, i32,
                p_i64, p_i32, p_u8, p_i64, p_i64,
            ],
        },
        capabilities=("replay:rrip",),
    )
)


def rrip_feed(
    blocks: np.ndarray,
    hints: np.ndarray,
    out: np.ndarray,
    num_sets: int,
    ways: int,
    max_rrpv: int,
    ins_table: np.ndarray,
    promo_table: np.ndarray,
    epsilon: int,
    psel_max: int,
    leader_period: int,
    tags: np.ndarray,
    rrpv: np.ndarray,
    misses_per_set: np.ndarray,
    state: np.ndarray,
) -> None:
    """Run the RRIP kernel over caller-owned state.

    ``out`` is the chunk's outcome vector: the accesses marked 2 replay
    under their ``hints`` (uint8, one per access) and get 2 (hit) or 3
    (miss).  ``tags`` (int64, -1 initial) / ``rrpv`` (int32, ``max_rrpv``
    initial) / ``misses_per_set`` / ``state`` (``[psel, insert_count]``)
    persist across calls.
    """
    kernel = registry.lookup("rrip_replay")
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    kernel(
        as_i64(blocks),
        as_u8(hints),
        ctypes.c_int64(blocks.shape[0]),
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
        as_u8(out),
        as_i64(misses_per_set),
        as_i64(state),
    )
