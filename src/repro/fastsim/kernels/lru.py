"""LRU engine-family kernel: exact set-associative LRU replay."""

from __future__ import annotations

import ctypes

import numpy as np

from repro.fastsim.kernels import registry
from repro.fastsim.kernels.registry import (
    KernelSpec,
    as_i64,
    as_u8,
    i32,
    i64,
    p_i64,
    p_u8,
    register_kernel,
)

_SOURCE = r"""
/* Exact set-associative LRU replay: timestamp per way, linear way scan.
 * tags/stamps are caller-provided state of num_sets*ways entries; tags must
 * be initialised to -1 on the first call.  state[0] is the recency clock
 * in/out, so a stream can be replayed in chunks against persistent
 * tags/stamps with bit-identical outcomes.  Outcome contract: only accesses
 * with out[i] == 2 (LLC-bound) replay, and each is overwritten with 2 (hit)
 * or 3 (miss); misses_per_set accumulates. */
void lru_replay(const int64_t *blocks, int64_t n, int32_t num_sets,
                int32_t ways, int64_t *tags, int64_t *stamps,
                uint8_t *out, int64_t *misses_per_set, int64_t *state)
{
    const int64_t mask = (int64_t)num_sets - 1;
    for (int64_t i = 0; i < n; i++) {
        if (out[i] != 2) continue;
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        out[i] = lru_step(block, ways, tags + set * ways, stamps + set * ways,
                          misses_per_set + set, state) ? 2 : 3;
    }
}
"""

register_kernel(
    KernelSpec(
        name="lru",
        source=_SOURCE,
        functions={
            "lru_replay": [p_i64, i64, i32, i32, p_i64, p_i64, p_u8, p_i64, p_i64],
        },
        capabilities=("replay:lru",),
    )
)


def lru_feed(
    blocks: np.ndarray,
    out: np.ndarray,
    num_sets: int,
    ways: int,
    tags: np.ndarray,
    stamps: np.ndarray,
    misses_per_set: np.ndarray,
    state: np.ndarray,
) -> None:
    """Run the LRU kernel over caller-owned state.

    ``out`` is the chunk's outcome vector: the accesses marked 2 replay and
    get 2 (hit) or 3 (miss).  ``tags``/``stamps`` (``num_sets * ways``
    int64, tags initialised to -1), ``misses_per_set`` (accumulating) and
    ``state`` (``[clock]``) persist across calls, so feeding a stream in
    chunks is bit-identical to one call over the concatenation.
    """
    kernel = registry.lookup("lru_replay")
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    kernel(
        as_i64(blocks),
        ctypes.c_int64(blocks.shape[0]),
        ctypes.c_int32(num_sets),
        ctypes.c_int32(ways),
        as_i64(tags),
        as_i64(stamps),
        as_u8(out),
        as_i64(misses_per_set),
        as_i64(state),
    )
