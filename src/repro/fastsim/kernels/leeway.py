"""Leeway engine-family kernel (live-distance predictor replay)."""

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
/* One Leeway access against a single set: returns 1 on hit, 0 on miss
 * (after inserting).  p holds the set's recency-stack positions (0 = MRU, a
 * permutation of 0..ways-1), ob the per-line observed live distances, and
 * predicted/votes the global per-signature predictor with the
 * reuse-oriented (grow fast, shrink slowly) update. */
static inline int leeway_step(int64_t block, int64_t pc, int32_t ways,
                              int32_t decay_period, int64_t *tag, int32_t *p,
                              int64_t *ls, int32_t *ob, int64_t *predicted,
                              int64_t *votes, int64_t *miss_ctr)
{
    int32_t way = -1;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == block) { way = w; break; }
    }
    if (way >= 0) {
        const int32_t depth = p[way];
        if (depth > ob[way]) ob[way] = depth;
        for (int32_t w = 0; w < ways; w++) {
            if (p[w] < depth) p[w]++;
        }
        p[way] = 0;
        return 1;
    }
    (*miss_ctr)++;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == -1) { way = w; break; }
    }
    if (way < 0) {
        /* Deepest predicted-dead line, else plain LRU (positions are a
         * permutation, so comparisons are tie-free). */
        int32_t lru = 0;
        int32_t best = -1;
        for (int32_t w = 0; w < ways; w++) {
            if (p[w] > p[lru]) lru = w;
            if (p[w] > predicted[ls[w]] && (best < 0 || p[w] > p[best])) best = w;
        }
        way = (best >= 0) ? best : lru;
        const int64_t sig = ls[way];
        const int64_t obs = ob[way];
        const int64_t prd = predicted[sig];
        if (obs > prd) {
            predicted[sig] = obs;
            votes[sig] = 0;
        } else if (obs < prd) {
            if (++votes[sig] >= decay_period) {
                predicted[sig] = prd - 1;
                votes[sig] = 0;
            }
        }
    }
    tag[way] = block;
    ls[way] = pc;
    ob[way] = 0;
    const int32_t depth = p[way];
    for (int32_t w = 0; w < ways; w++) {
        if (p[w] < depth) p[w]++;
    }
    p[way] = 0;
    return 0;
}

/* Exact Leeway replay over leeway_step.  pos is caller-initialised to
 * 0..ways-1 per set; predicted/votes are dense per-PC arrays (the caller
 * densifies PCs).  Outcome contract: only accesses with out[i] == 2
 * replay, and each is overwritten with 2 (hit) or 3 (miss). */
void leeway_replay(const int64_t *blocks, const int64_t *pc_ids, int64_t n,
                   int32_t num_sets, int32_t ways, int32_t decay_period,
                   int64_t *tags, int32_t *pos, int64_t *line_sig,
                   int32_t *observed, int64_t *predicted, int64_t *votes,
                   uint8_t *out, int64_t *misses_per_set)
{
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
"""

register_kernel(
    KernelSpec(
        name="leeway",
        source=_SOURCE,
        functions={
            "leeway_replay": [
                p_i64, p_i64, i64, i32, i32, i32, p_i64, p_i32, p_i64, p_i32,
                p_i64, p_i64, p_u8, p_i64,
            ],
        },
        capabilities=("replay:leeway",),
    )
)


def leeway_feed(
    blocks: np.ndarray,
    pc_ids: np.ndarray,
    out: np.ndarray,
    num_sets: int,
    ways: int,
    decay_period: int,
    tags: np.ndarray,
    pos: np.ndarray,
    line_sig: np.ndarray,
    observed: np.ndarray,
    predicted: np.ndarray,
    votes: np.ndarray,
    misses_per_set: np.ndarray,
) -> None:
    """Run the Leeway kernel over caller-owned state.

    ``out`` is the chunk's outcome vector: the accesses marked 2 replay and
    get 2 (hit) or 3 (miss).  ``pc_ids`` must use PC ids that are stable
    across calls, and ``predicted``/``votes`` must cover every id in the
    chunk; all array arguments after ``decay_period`` persist across calls.
    """
    kernel = registry.lookup("leeway_replay")
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    pc_ids = np.ascontiguousarray(pc_ids, dtype=np.int64)
    kernel(
        as_i64(blocks),
        as_i64(pc_ids),
        ctypes.c_int64(blocks.shape[0]),
        ctypes.c_int32(num_sets),
        ctypes.c_int32(ways),
        ctypes.c_int32(decay_period),
        as_i64(tags),
        as_i32(pos),
        as_i64(line_sig),
        as_i32(observed),
        as_i64(predicted),
        as_i64(votes),
        as_u8(out),
        as_i64(misses_per_set),
    )
