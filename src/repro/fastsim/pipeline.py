"""Fused single-pass pipeline: L1/L2 filter + LLC replay in one kernel call.

:class:`FusedPipeline` is the chunk-feedable front end to the fused kernels
of :mod:`repro.fastsim.kernels.fused`: each :meth:`~FusedPipeline.feed`
pushes a raw :class:`~repro.trace.generator.Trace` chunk through the
L1/L2 filter and the policy's LLC engine in a single native call —
no keep-mask, no compacted block/hint/PC arrays, no Python-side
classification.  Statistics for all three levels come from one
``np.bincount`` over the per-access outcome vector plus the kernels'
per-set miss counters, and are bit-identical to the staged
``FilterStream`` → ``PolicyReplayStream`` pipeline for every supported
policy family and any ``REPRO_THREADS`` setting.

Both pipelines run their native kernels only: building one where the
kernel library lacks the kernel (no C compiler, or a broken ``REPRO_CC``)
raises :class:`RuntimeError` naming it.  The planner checks
:func:`fused_native_supported` first and otherwise routes the staged
engines, or the scalar reference when no kernel library exists at all.

Belady's OPT is not fused (it needs future next-use indices, a two-pass
offline computation); :func:`fused_native_supported` returns ``False`` for
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cache.config import HierarchyConfig
from repro.cache.hints import HINT_HIGH
from repro.cache.stats import CacheStats
from repro.fastsim import kernels
from repro.fastsim.hawkeye import hawkeye_spec
from repro.fastsim.kernels.fused import FilterState, RegionTable
from repro.fastsim.leeway import leeway_spec
from repro.fastsim.pin import pin_spec
from repro.fastsim.replay import PolicyReplayStream, _family
from repro.fastsim.rrip import rrip_spec
from repro.fastsim.ship import _UNSEEN, ship_spec
from repro.fastsim.stackdist import DenseIdMap, grow_to
from repro.trace.generator import Trace


def fused_native_supported(policy) -> bool:
    """Whether the kernel library has a fused kernel for this policy."""
    family = _family(policy)
    return family is not None and kernels.has_capability(f"fused:{family}")


#: Largest thread count :func:`effective_threads` reports.
MAX_THREADS = 64


def effective_threads(requested: int, hierarchy: HierarchyConfig) -> int:
    """Largest power-of-two shard count consistent with every level's sets.

    This is the clamp a set-sharded filter needs: it splits work by
    ``block & (S - 1)``, so S must divide the set count of every simulated
    level, and S is the largest power of two not exceeding the request,
    ``MAX_THREADS`` and each level's set count.  The pipelines record it as
    ``threads`` and plans report it; the fused filter itself runs on the
    calling thread.
    """
    cap = min(
        max(1, requested),
        MAX_THREADS,
        hierarchy.l1.num_sets,
        hierarchy.l2.num_sets,
        hierarchy.llc.num_sets,
    )
    shards = 1
    while shards * 2 <= cap:
        shards *= 2
    return shards


@dataclass(frozen=True)
class FusedStats:
    """Per-level statistics of one fused pipeline run."""

    l1_stats: CacheStats
    l2_stats: CacheStats
    llc_stats: CacheStats


class FusedPipeline:
    """Feed raw trace chunks; collect L1/L2/LLC stats in one pass.

    Parameters
    ----------
    hierarchy:
        Cache hierarchy (shared block size across levels is enforced by
        :class:`~repro.cache.config.HierarchyConfig`).
    policy:
        LLC replacement policy; must satisfy :func:`fused_native_supported`.
    classifier:
        Optional :class:`~repro.core.classification.GraspClassifier`
        providing reuse hints for the hint-driven families (GRASP, PIN-X).
    use_hints:
        When ``False``, the LLC replays hint-blind even if a classifier is
        given (matching the scalar simulator's ``use_hints=False``).
    threads:
        Requested thread count; defaults to ``REPRO_THREADS``.  Recorded,
        clamped by :func:`effective_threads`, as :attr:`threads`; the
        filter phase runs on the calling thread at every count.
    """

    def __init__(
        self,
        hierarchy: HierarchyConfig,
        policy,
        *,
        classifier=None,
        use_hints: bool = True,
        threads: Optional[int] = None,
    ) -> None:
        self.family = _family(policy)
        if self.family is None:
            raise ValueError(
                f"policy {policy!r} has no fused pipeline; "
                "use fused_native_supported() before dispatching"
            )
        kernels.lookup(f"fused_{self.family}")
        self.hierarchy = hierarchy
        self.policy = policy
        requested = kernels.thread_count() if threads is None else int(threads)
        self.threads = effective_threads(requested, hierarchy)
        self._offset_bits = hierarchy.l1.block_offset_bits
        self._outcomes = np.zeros(5, dtype=np.int64)
        self._total = 0
        self._region_accesses: Dict[int, int] = {}
        self._region_misses: Dict[int, int] = {}
        regions = ()
        if use_hints and classifier is not None:
            regions = classifier.regions()
        self._regions = RegionTable.from_regions(tuple(regions))
        llc = hierarchy.llc
        num_sets, ways = llc.num_sets, llc.ways
        self._filt = FilterState(
            hierarchy.l1.num_sets, hierarchy.l1.ways,
            hierarchy.l2.num_sets, hierarchy.l2.ways,
        )
        self._llc_misses = np.zeros(num_sets, dtype=np.int64)
        family = self.family
        if family == "lru":
            self._tags = np.full(num_sets * ways, -1, dtype=np.int64)
            self._stamps = np.zeros(num_sets * ways, dtype=np.int64)
            self._clocks = np.zeros(num_sets, dtype=np.int64)
        elif family == "rrip":
            spec = rrip_spec(policy)
            self._spec = spec
            self._tags = np.full(num_sets * ways, -1, dtype=np.int64)
            self._rrpv = np.full(num_sets * ways, spec.max_rrpv, dtype=np.int32)
            self._ins_table = np.asarray(spec.insertion_table, dtype=np.int32)
            self._promo_table = np.asarray(spec.promotion_table, dtype=np.int32)
            self._state = np.array([spec.psel_max // 2, 0], dtype=np.int64)
        elif family == "pin":
            spec = pin_spec(policy)
            self._spec = spec
            self._tags = np.full(num_sets * ways, -1, dtype=np.int64)
            self._rrpv = np.full(num_sets * ways, spec.max_rrpv, dtype=np.int32)
            self._pinned = np.zeros(num_sets * ways, dtype=np.uint8)
            self._pinned_count = np.zeros(num_sets, dtype=np.int32)
            self._bypasses = np.zeros(num_sets, dtype=np.int64)
            self._state = np.array([spec.psel_max // 2, 0], dtype=np.int64)
        elif family == "ship":
            spec = ship_spec(policy)
            self._spec = spec
            self._tags = np.full(num_sets * ways, -1, dtype=np.int64)
            self._rrpv = np.full(num_sets * ways, spec.max_rrpv, dtype=np.int32)
            self._line_sig = np.zeros(num_sets * ways, dtype=np.int64)
            self._reused = np.zeros(num_sets * ways, dtype=np.uint8)
            self._sig_ids = DenseIdMap()
            self._shct = np.empty(0, dtype=np.int64)
        elif family == "leeway":
            spec = leeway_spec(policy)
            self._spec = spec
            self._tags = np.full(num_sets * ways, -1, dtype=np.int64)
            self._pos = np.tile(np.arange(ways, dtype=np.int32), num_sets)
            self._line_sig = np.zeros(num_sets * ways, dtype=np.int64)
            self._observed = np.zeros(num_sets * ways, dtype=np.int32)
            self._pc_ids = DenseIdMap()
            self._predicted = np.empty(0, dtype=np.int64)
            self._votes = np.empty(0, dtype=np.int64)
        else:  # hawkeye
            spec = hawkeye_spec(policy)
            self._spec = spec
            self._history = spec.history_factor * ways
            num_samplers = (num_sets + spec.sample_period - 1) // spec.sample_period
            self._tags = np.full(num_sets * ways, -1, dtype=np.int64)
            self._rrpv = np.full(num_sets * ways, spec.max_rrpv, dtype=np.int32)
            self._friendly = np.zeros(num_sets * ways, dtype=np.uint8)
            self._line_pc = np.zeros(num_sets * ways, dtype=np.int64)
            self._block_ids = DenseIdMap()
            self._pc_id_map = DenseIdMap()
            self._predictor = np.empty(0, dtype=np.int32)
            self._last_access = np.empty(0, dtype=np.int64)
            self._last_pc = np.empty(0, dtype=np.int64)
            self._occupancy = np.zeros(num_samplers * self._history, dtype=np.int32)
            self._occ_head = np.zeros(num_samplers, dtype=np.int64)
            self._occ_len = np.zeros(num_samplers, dtype=np.int64)
            self._timestamps = np.zeros(num_samplers, dtype=np.int64)

    # -- feeding ----------------------------------------------------------

    def feed(self, trace: Trace) -> np.ndarray:
        """Run one trace chunk through the pipeline.

        Returns the chunk's per-access outcome vector (codes in
        :mod:`repro.fastsim.kernels.fused`) and advances the accumulated
        statistics.
        """
        n = len(trace)
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        blocks = trace.block_addresses(self._offset_bits)
        out = self._native_feed(trace, blocks)
        self._total += n
        # Index the (typically small) LLC substream once and count everything
        # from it — cheaper than a bincount over the whole chunk.
        llc_level = np.flatnonzero(out >= 2)
        llc_out = out[llc_level]
        l1_hits = int(np.count_nonzero(out == 0))
        self._outcomes[0] += l1_hits
        self._outcomes[1] += n - l1_hits - llc_level.shape[0]
        self._outcomes[2:] += np.bincount(llc_out, minlength=5)[2:]
        if len(trace.regions):
            # Pack (region, missed) into a combined bincount key instead of
            # masking the full chunk twice.
            packed = (trace.regions[llc_level].astype(np.int64) << 1) | (
                llc_out >= 3
            )
            for key, count in enumerate(np.bincount(packed)):
                if count:
                    label = key >> 1
                    self._region_accesses[label] = (
                        self._region_accesses.get(label, 0) + int(count)
                    )
                    if key & 1:
                        self._region_misses[label] = (
                            self._region_misses.get(label, 0) + int(count)
                        )
        return out

    def _native_feed(self, trace: Trace, blocks: np.ndarray) -> np.ndarray:
        llc = self.hierarchy.llc
        num_sets, ways = llc.num_sets, llc.ways
        family = self.family
        if family == "lru":
            out = kernels.fused_lru_feed(
                blocks, self._filt, num_sets, ways,
                self._tags, self._stamps, self._clocks, self._llc_misses,
            )
        elif family == "rrip":
            spec = self._spec
            out = kernels.fused_rrip_feed(
                blocks, trace.addresses, self._filt,
                self._regions, num_sets, ways, spec.max_rrpv,
                self._ins_table, self._promo_table, spec.epsilon,
                spec.psel_max, spec.leader_period, self._tags, self._rrpv,
                self._llc_misses, self._state,
            )
        elif family == "pin":
            spec = self._spec
            out = kernels.fused_pin_feed(
                blocks, trace.addresses, self._filt,
                self._regions, num_sets, ways, spec.max_rrpv, spec.epsilon,
                spec.psel_max, spec.leader_period, spec.reserved_ways(ways),
                HINT_HIGH, self._tags, self._rrpv, self._pinned,
                self._pinned_count, self._llc_misses, self._bypasses,
                self._state,
            )
        elif family == "ship":
            spec = self._spec
            sig_ids = self._sig_ids.map(blocks >> spec.region_shift)
            self._shct = grow_to(self._shct, len(self._sig_ids), _UNSEEN)
            out = kernels.fused_ship_feed(
                blocks, sig_ids, self._filt, num_sets, ways,
                spec.max_rrpv, spec.counter_max, self._tags, self._rrpv,
                self._line_sig, self._reused, self._shct, self._llc_misses,
            )
        elif family == "leeway":
            spec = self._spec
            pc_ids = self._pc_ids.map(np.asarray(trace.pcs, dtype=np.int64))
            self._predicted = grow_to(self._predicted, len(self._pc_ids), 0)
            self._votes = grow_to(self._votes, len(self._pc_ids), 0)
            out = kernels.fused_leeway_feed(
                blocks, pc_ids, self._filt, num_sets, ways,
                spec.decay_period, self._tags, self._pos, self._line_sig,
                self._observed, self._predicted, self._votes,
                self._llc_misses,
            )
        else:  # hawkeye
            spec = self._spec
            block_ids = self._block_ids.map(blocks)
            pc_ids = self._pc_id_map.map(np.asarray(trace.pcs, dtype=np.int64))
            self._predictor = grow_to(
                self._predictor, len(self._pc_id_map), spec.midpoint
            )
            self._last_access = grow_to(self._last_access, len(self._block_ids), -1)
            self._last_pc = grow_to(self._last_pc, len(self._block_ids), 0)
            out = kernels.fused_hawkeye_feed(
                blocks, block_ids, pc_ids, self._filt, num_sets,
                ways, spec.max_rrpv, spec.sample_period, spec.predictor_max,
                self._history, self._tags, self._rrpv, self._friendly,
                self._line_pc, self._predictor, self._last_access,
                self._last_pc, self._occupancy, self._occ_head, self._occ_len,
                self._timestamps, self._llc_misses,
            )
        return out

    # -- results ----------------------------------------------------------

    @property
    def total_references(self) -> int:
        """Accesses fed so far (all levels see the same reference stream)."""
        return self._total

    def upstream_hit_counts(self):
        """Aggregate ``(l1_hits, l2_hits)`` of the filter phase."""
        return int(self._outcomes[0]), int(self._outcomes[1])

    def stats(self) -> FusedStats:
        """Aggregate per-level :class:`CacheStats` over everything fed."""
        hierarchy = self.hierarchy
        oc = self._outcomes
        l1_hits = int(oc[0])
        l1_misses = self._total - l1_hits
        l2_hits = int(oc[1])
        llc_hits = int(oc[2])
        llc_misses = int(oc[3] + oc[4])
        bypasses = int(oc[4])
        l1 = CacheStats.from_counts(
            name=hierarchy.l1.name,
            hits=l1_hits,
            misses=l1_misses,
            evictions=int(
                np.maximum(0, self._filt.l1_misses - hierarchy.l1.ways).sum()
            ),
        )
        l2 = CacheStats.from_counts(
            name=hierarchy.l2.name,
            hits=l2_hits,
            misses=llc_hits + llc_misses,
            evictions=int(
                np.maximum(0, self._filt.l2_misses - hierarchy.l2.ways).sum()
            ),
        )
        filled = self._llc_misses
        if self.family == "pin":
            filled = self._llc_misses - self._bypasses
        llc = CacheStats.from_counts(
            name=hierarchy.llc.name,
            hits=llc_hits,
            misses=llc_misses,
            evictions=int(np.maximum(0, filled - hierarchy.llc.ways).sum()),
            bypasses=bypasses,
            region_accesses=self._region_accesses or None,
            region_misses=self._region_misses or None,
        )
        return FusedStats(l1_stats=l1, l2_stats=l2, llc_stats=llc)


class MultiFusedPipeline:
    """One shared filter phase feeding N per-policy LLC replay engines.

    The fused multi-scheme route: each raw trace chunk runs through the
    native L1/L2 filter exactly once
    (:func:`repro.fastsim.kernels.fused.fused_filter_feed`), and the kept
    accesses — compacted, hint-classified once — feed every policy's
    :class:`~repro.fastsim.replay.PolicyReplayStream`.  Compared with
    replaying the same N schemes one at a time, the raw trace is generated
    once instead of N times and filtered once instead of N times, with no
    filtered stream ever materialized to memory beyond the current chunk
    or to disk at all.

    Every policy needs an online vector engine (so not the offline OPT);
    per-policy LLC statistics are bit-identical to running each policy
    alone through the staged (or fused single-policy) pipeline.  Building
    one where the kernel library lacks the fused filter kernel raises
    :class:`RuntimeError`; the planner then takes the staged
    materialize-once path instead.
    """

    def __init__(
        self,
        hierarchy: HierarchyConfig,
        policies,
        *,
        classifier=None,
        use_hints: bool = True,
        threads: Optional[int] = None,
    ) -> None:
        policies = list(policies)
        if not policies:
            raise ValueError("MultiFusedPipeline needs at least one policy")
        for policy in policies:
            if _family(policy) is None:
                raise ValueError(
                    f"policy {policy!r} has no vector replay engine to feed "
                    "(the ablation subclasses and the offline OPT have none)"
                )
        kernels.lookup("fused_filter_only")
        self.hierarchy = hierarchy
        self.policies = policies
        requested = kernels.thread_count() if threads is None else int(threads)
        self.threads = effective_threads(requested, hierarchy)
        self._offset_bits = hierarchy.l1.block_offset_bits
        self._use_hints = use_hints and classifier is not None
        self._classifier = classifier
        self._replays = [
            PolicyReplayStream(policy, hierarchy.llc) for policy in policies
        ]
        self._filt = FilterState(
            hierarchy.l1.num_sets, hierarchy.l1.ways,
            hierarchy.l2.num_sets, hierarchy.l2.ways,
        )
        self._l1_hits = 0
        self._l2_hits = 0
        self._total = 0

    def feed(self, trace: Trace) -> None:
        """Filter one raw chunk once; advance every policy's replay."""
        n = len(trace)
        if n == 0:
            return
        blocks = trace.block_addresses(self._offset_bits)
        out = kernels.fused_filter_feed(blocks, self._filt)
        keep = out == 2
        kept_blocks = blocks[keep]
        l1_hits = int(np.count_nonzero(out == 0))
        self._total += n
        self._l1_hits += l1_hits
        self._l2_hits += n - l1_hits - int(kept_blocks.shape[0])
        addresses = trace.addresses[keep]
        hints = None
        if self._use_hints:
            hints = self._classifier.classify_array(addresses)
        regions = np.asarray(trace.regions)[keep]
        pcs = np.asarray(trace.pcs, dtype=np.int64)[keep]
        for replay in self._replays:
            replay.feed(kept_blocks, hints=hints, regions=regions, pcs=pcs)

    # -- results ----------------------------------------------------------

    @property
    def total_references(self) -> int:
        """Accesses fed so far (all levels see the same reference stream)."""
        return self._total

    def upstream_hit_counts(self):
        """Aggregate ``(l1_hits, l2_hits)`` of the shared filter phase."""
        return self._l1_hits, self._l2_hits

    def level_stats(self):
        """``(l1_stats, l2_stats)`` of the shared filter phase."""
        hierarchy = self.hierarchy
        kept = self._total - self._l1_hits - self._l2_hits
        l1 = CacheStats.from_counts(
            name=hierarchy.l1.name,
            hits=self._l1_hits,
            misses=self._total - self._l1_hits,
            evictions=int(
                np.maximum(0, self._filt.l1_misses - hierarchy.l1.ways).sum()
            ),
        )
        l2 = CacheStats.from_counts(
            name=hierarchy.l2.name,
            hits=self._l2_hits,
            misses=kept,
            evictions=int(
                np.maximum(0, self._filt.l2_misses - hierarchy.l2.ways).sum()
            ),
        )
        return l1, l2

    def stats(self):
        """Per-policy LLC :class:`CacheStats`, in constructor policy order."""
        return [replay.stats() for replay in self._replays]


__all__ = [
    "FusedPipeline",
    "FusedStats",
    "MultiFusedPipeline",
    "effective_threads",
    "fused_native_supported",
]
