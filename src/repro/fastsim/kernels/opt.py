"""Belady-OPT engine-family kernels: the reverse next-use scan and the replay."""

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
/* OPT's reverse pass over one chunk at global offset `start`: table[id]
 * holds the global index of id's earliest access in the chunks already
 * resolved (INT64_MAX if none).  Walking the chunk backwards, each access
 * reads its next use from the table and becomes the id's earliest access. */
void opt_next_use(const int64_t *ids, int64_t n, int64_t start,
                  int64_t *table, int64_t *out)
{
    for (int64_t i = n - 1; i >= 0; i--) {
        const int64_t id = ids[i];
        out[i] = table[id];
        table[id] = start + i;
    }
}

/* Exact Belady's OPT replay over precomputed next-use indices: on a
 * capacity miss, evict the resident block whose next use lies farthest in
 * the future (ties only occur between never-used-again blocks and cannot
 * change any count).  next_vals is caller-provided scratch. */
void opt_replay(const int64_t *blocks, const int64_t *next_use, int64_t n,
                int32_t num_sets, int32_t ways, int64_t *tags,
                int64_t *next_vals, uint8_t *hits, int64_t *misses_per_set)
{
    const int64_t mask = (int64_t)num_sets - 1;
    for (int64_t i = 0; i < n; i++) {
        const int64_t block = blocks[i];
        const int64_t set = block & mask;
        int64_t *tag = tags + set * ways;
        int64_t *nv = next_vals + set * ways;
        int32_t way = -1;
        for (int32_t w = 0; w < ways; w++) {
            if (tag[w] == block) { way = w; break; }
        }
        if (way >= 0) {
            hits[i] = 1;
            nv[way] = next_use[i];
            continue;
        }
        hits[i] = 0;
        misses_per_set[set]++;
        for (int32_t w = 0; w < ways; w++) {
            if (tag[w] == -1) { way = w; break; }
        }
        if (way < 0) {
            way = 0;
            for (int32_t w = 1; w < ways; w++) {
                if (nv[w] > nv[way]) way = w;
            }
        }
        tag[way] = block;
        nv[way] = next_use[i];
    }
}
"""

register_kernel(
    KernelSpec(
        name="opt",
        source=_SOURCE,
        functions={
            "opt_next_use": [p_i64, i64, i64, p_i64, p_i64],
            "opt_replay": [p_i64, p_i64, i64, i32, i32, p_i64, p_i64, p_u8, p_i64],
        },
        capabilities=("replay:opt",),
    )
)


def opt_next_use(ids: np.ndarray, start: int, table: np.ndarray):
    """Resolve one chunk's next-use indices backwards.

    ``ids`` are the chunk's dense block ids and ``table`` (indexed by id) the
    earliest known future access of each, updated in place.  Both must be
    C-contiguous int64 arrays, ``table`` writable, and every id must lie in
    ``[0, len(table))``: anything else raises :class:`ValueError` rather
    than reaching the kernel.
    """
    for name, array in (("ids", ids), ("table", table)):
        if not (
            isinstance(array, np.ndarray)
            and array.dtype == np.int64
            and array.ndim == 1
            and array.flags.c_contiguous
        ):
            raise ValueError(f"{name} must be a C-contiguous 1-D int64 array")
    if not table.flags.writeable:
        raise ValueError("table must be writable")
    n = int(ids.shape[0])
    if n and (int(ids.min()) < 0 or int(ids.max()) >= table.shape[0]):
        raise ValueError(
            f"ids must lie in [0, {table.shape[0]}), "
            f"got [{int(ids.min())}, {int(ids.max())}]"
        )
    kernel = registry.lookup("opt_next_use")
    out = np.empty(n, dtype=np.int64)
    kernel(as_i64(ids), ctypes.c_int64(n), ctypes.c_int64(start), as_i64(table), as_i64(out))
    return out


def opt_feed(
    blocks: np.ndarray,
    next_use: np.ndarray,
    num_sets: int,
    ways: int,
    tags: np.ndarray,
    next_vals: np.ndarray,
    misses_per_set: np.ndarray,
):
    """Run the OPT kernel over caller-owned state.

    ``next_use`` must hold globally consistent next-use indices (the caller's
    two-pass precompute); ``tags``/``next_vals``/``misses_per_set`` persist
    across calls.  Returns the chunk's hit mask.
    """
    kernel = registry.lookup("opt_replay")
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    next_use = np.ascontiguousarray(next_use, dtype=np.int64)
    n = int(blocks.shape[0])
    hits = np.empty(n, dtype=np.uint8)
    kernel(
        as_i64(blocks),
        as_i64(next_use),
        ctypes.c_int64(n),
        ctypes.c_int32(num_sets),
        ctypes.c_int32(ways),
        as_i64(tags),
        as_i64(next_vals),
        as_u8(hits),
        as_i64(misses_per_set),
    )
    return hits.view(bool)
