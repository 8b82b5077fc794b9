"""Shared C helpers used by every engine-family fragment.

``lru_step`` is the single-access set-associative LRU transition used by the
LRU replay kernel (with a global recency clock) *and* by the L1/L2 filter
kernel (with per-set clocks).  Victim choice compares stamps only within
one set, so a global and a per-set clock produce identical
hit/miss/eviction outcomes.

``grasp_classify`` is the C mirror of
:meth:`repro.core.classification.GraspClassifier.classify`: no regions maps
to ``HINT_DEFAULT`` (0), the first containing ``[lo, hi)`` region wins, and
everything else is ``HINT_LOW`` (3).
"""

from __future__ import annotations

from repro.fastsim.kernels.registry import KernelSpec, register_kernel

_SOURCE = r"""
/* One LRU access against a single set: returns 1 on hit, 0 on miss (after
 * inserting).  tag/stamp point at the set's ways; miss_ctr at the set's
 * miss counter; clock at the recency clock (global or per-set). */
static inline int lru_step(int64_t block, int32_t ways, int64_t *tag,
                           int64_t *stamp, int64_t *miss_ctr, int64_t *clock)
{
    int32_t way = -1;
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == block) { way = w; break; }
    }
    if (way >= 0) {
        stamp[way] = ++(*clock);
        return 1;
    }
    (*miss_ctr)++;
    int32_t victim = 0;
    int64_t oldest = stamp[0];
    for (int32_t w = 0; w < ways; w++) {
        if (tag[w] == -1) { victim = w; break; }
        if (stamp[w] < oldest) { oldest = stamp[w]; victim = w; }
    }
    tag[victim] = block;
    stamp[victim] = ++(*clock);
    return 0;
}

/* GraspClassifier.classify: 0 (DEFAULT) without regions, first matching
 * [lo, hi) region's hint, else 3 (LOW). */
static inline int32_t grasp_classify(int64_t addr, const int64_t *lo,
                                     const int64_t *hi, const int32_t *hint,
                                     int32_t n_regions)
{
    if (n_regions <= 0) return 0;
    for (int32_t k = 0; k < n_regions; k++) {
        if (addr >= lo[k] && addr < hi[k]) return hint[k];
    }
    return 3;
}
"""

register_kernel(KernelSpec(name="core", source=_SOURCE))
