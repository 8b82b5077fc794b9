"""Hawkeye engine-family kernel (sampled OPTgen + PC predictor replay)."""

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
/* Hawkeye's OPTgen step for one sampled set: replicate _OptGen.access with
 * a ring-buffer occupancy window and global (dense-block-id) last-access /
 * last-PC tables — a block maps to exactly one set, so one global table
 * serves every sampler, and the scalar structure's stale-entry trimming is
 * subsumed by the start >= 0 window check. */
static void hawkeye_observe(int64_t sampler, int64_t bid, int64_t pc,
                            int32_t capacity, int64_t history,
                            int32_t *occupancy, int64_t *occ_head,
                            int64_t *occ_len, int64_t *timestamps,
                            int64_t *last_access, int64_t *last_pc,
                            int32_t *predictor, int32_t predictor_max)
{
    int32_t *occ = occupancy + sampler * history;
    const int64_t t = timestamps[sampler];
    const int64_t len = occ_len[sampler];
    const int64_t head = occ_head[sampler];
    const int64_t base = t - len;
    const int64_t last = last_access[bid];
    int64_t train_pc = -1;
    int opt_hit = 0;
    if (last >= 0) {
        const int64_t start = last - base;
        if (start >= 0) {
            train_pc = last_pc[bid];
            if (start < len) {
                int32_t max_occ = 0;
                for (int64_t k = start; k < len; k++) {
                    const int32_t v = occ[(head + k) % history];
                    if (v > max_occ) max_occ = v;
                }
                if (max_occ < capacity) {
                    opt_hit = 1;
                    for (int64_t k = start; k < len; k++) occ[(head + k) % history]++;
                }
            } else {
                opt_hit = 1;  /* same-timestamp re-access: empty interval */
            }
        }
    }
    last_access[bid] = t;
    last_pc[bid] = pc;
    if (len == history) {
        occ[head] = 0;
        occ_head[sampler] = (head + 1) % history;
    } else {
        occ[(head + len) % history] = 0;
        occ_len[sampler] = len + 1;
    }
    timestamps[sampler] = t + 1;
    if (train_pc >= 0) {
        const int32_t v = predictor[train_pc];
        if (opt_hit) {
            if (v < predictor_max) predictor[train_pc] = v + 1;
        } else if (v > 0) {
            predictor[train_pc] = v - 1;
        }
    }
}

/* One Hawkeye access against a single set: returns 1 on hit, 0 on miss
 * (after inserting).  Sampled-set OPTgen training, the PC predictor (dense
 * pc ids, initialised to the weakly-friendly midpoint), friendly / averse
 * insertion and hit promotion, ageing of other lines on friendly
 * insertions, and detraining when an oldest friendly line is evicted. */
static inline int hawkeye_step(int64_t block, int64_t bid, int64_t pc,
                               int64_t set, int32_t ways, int32_t max_rrpv,
                               int32_t sample_period, int32_t predictor_max,
                               int32_t midpoint, int64_t history, int64_t *tag,
                               int32_t *r, uint8_t *fr, int64_t *lp,
                               int32_t *predictor, int64_t *last_access,
                               int64_t *last_pc, int32_t *occupancy,
                               int64_t *occ_head, int64_t *occ_len,
                               int64_t *timestamps, int64_t *miss_ctr)
{
    const int sampled = (set % sample_period) == 0;
    const int64_t sampler = set / sample_period;
    int32_t way = -1;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == block) { way = w; break; }
    }
    if (way >= 0) {
        if (sampled)
            hawkeye_observe(sampler, bid, pc, ways, history,
                            occupancy, occ_head, occ_len, timestamps,
                            last_access, last_pc, predictor, predictor_max);
        const int f = predictor[pc] >= midpoint;
        fr[way] = (uint8_t)f;
        lp[way] = pc;
        r[way] = f ? 0 : max_rrpv;
        return 1;
    }
    (*miss_ctr)++;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == -1) { way = w; break; }
    }
    if (way < 0) {
        /* Prefer a cache-averse (saturated) line; otherwise evict the
         * oldest line and detrain its PC if it was friendly. */
        for (int32_t w = 0; w < ways; w++) {
            if (r[w] >= max_rrpv) { way = w; break; }
        }
        if (way < 0) {
            way = 0;
            for (int32_t w = 1; w < ways; w++) {
                if (r[w] > r[way]) way = w;
            }
            if (fr[way] && predictor[lp[way]] > 0) predictor[lp[way]]--;
        }
    }
    if (sampled)
        hawkeye_observe(sampler, bid, pc, ways, history,
                        occupancy, occ_head, occ_len, timestamps,
                        last_access, last_pc, predictor, predictor_max);
    const int f = predictor[pc] >= midpoint;
    if (f) {
        for (int32_t w = 0; w < ways; w++) {
            if (w != way && r[w] < max_rrpv - 1) r[w]++;
        }
    }
    fr[way] = (uint8_t)f;
    lp[way] = pc;
    r[way] = f ? 0 : max_rrpv;
    tag[way] = block;
    return 0;
}

/* Exact Hawkeye replay over hawkeye_step.  Outcome contract: only accesses
 * with out[i] == 2 replay, and each is overwritten with 2 (hit) or 3
 * (miss); the block and PC ids of the others are never read. */
void hawkeye_replay(const int64_t *blocks, const int64_t *block_ids,
                    const int64_t *pc_ids, int64_t n, int32_t num_sets,
                    int32_t ways, int32_t max_rrpv, int32_t sample_period,
                    int32_t predictor_max, int64_t history, int64_t *tags,
                    int32_t *rrpv, uint8_t *friendly, int64_t *line_pc,
                    int32_t *predictor, int64_t *last_access, int64_t *last_pc,
                    int32_t *occupancy, int64_t *occ_head, int64_t *occ_len,
                    int64_t *timestamps, uint8_t *out, int64_t *misses_per_set)
{
    const int64_t mask = (int64_t)num_sets - 1;
    const int32_t midpoint = (predictor_max + 1) / 2;
    for (int64_t i = 0; i < n; i++) {
        if (out[i] != 2) continue;
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        out[i] = hawkeye_step(
            block, block_ids[i], pc_ids[i], set, ways, max_rrpv, sample_period,
            predictor_max, midpoint, history, tags + set * ways,
            rrpv + set * ways, friendly + set * ways, line_pc + set * ways,
            predictor, last_access, last_pc, occupancy, occ_head, occ_len,
            timestamps, misses_per_set + set) ? 2 : 3;
    }
}
"""

register_kernel(
    KernelSpec(
        name="hawkeye",
        source=_SOURCE,
        functions={
            "hawkeye_replay": [
                p_i64, p_i64, p_i64, i64, i32, i32, i32, i32, i32, i64, p_i64,
                p_i32, p_u8, p_i64, p_i32, p_i64, p_i64, p_i32, p_i64, p_i64,
                p_i64, p_u8, p_i64,
            ],
        },
        capabilities=("replay:hawkeye",),
    )
)


def hawkeye_feed(
    blocks: np.ndarray,
    block_ids: np.ndarray,
    pc_ids: np.ndarray,
    out: np.ndarray,
    num_sets: int,
    ways: int,
    max_rrpv: int,
    sample_period: int,
    predictor_max: int,
    history: int,
    tags: np.ndarray,
    rrpv: np.ndarray,
    friendly: np.ndarray,
    line_pc: np.ndarray,
    predictor: np.ndarray,
    last_access: np.ndarray,
    last_pc: np.ndarray,
    occupancy: np.ndarray,
    occ_head: np.ndarray,
    occ_len: np.ndarray,
    timestamps: np.ndarray,
    misses_per_set: np.ndarray,
) -> None:
    """Run the Hawkeye kernel over caller-owned state.

    ``out`` is the chunk's outcome vector: the accesses marked 2 replay and
    get 2 (hit) or 3 (miss).  ``block_ids``/``pc_ids`` must use dense ids
    that are stable across calls and covered by
    ``last_access``/``last_pc``/``predictor``; all array arguments after
    ``history`` persist across calls.
    """
    kernel = registry.lookup("hawkeye_replay")
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    block_ids = np.ascontiguousarray(block_ids, dtype=np.int64)
    pc_ids = np.ascontiguousarray(pc_ids, dtype=np.int64)
    kernel(
        as_i64(blocks),
        as_i64(block_ids),
        as_i64(pc_ids),
        ctypes.c_int64(blocks.shape[0]),
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
        as_u8(out),
        as_i64(misses_per_set),
    )
