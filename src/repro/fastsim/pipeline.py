"""Fused pipelines: the L1/L2 filter and the LLC replay over raw trace chunks.

:class:`FusedPipeline` is one policy's chunk-feedable single pass: each
:meth:`~FusedPipeline.feed` pushes a raw
:class:`~repro.trace.generator.Trace` chunk through a vector-backend
:class:`~repro.fastsim.filter.FilterStream` and then the policy family's
own ``*Stream`` engine, over one per-access outcome vector (codes in
:mod:`repro.fastsim.kernels.fused`) — no keep-mask, no compacted
block/hint/PC arrays, no Python-side classification: the filter kernel
writes the GRASP hints of the LLC-bound accesses, and the family's replay
kernel replays exactly those.  The filter owns the L1/L2 state and
counters and the engine owns the LLC's, so the statistics of all three
levels are bit-identical to the staged ``FilterStream`` →
``PolicyReplayStream`` pipeline for every supported policy family.

Both pipelines run their native kernels only: building one where the
kernel library is unavailable (no C compiler, or a broken ``REPRO_CC``)
raises :class:`RuntimeError` naming the filter kernel.  The planner checks
:func:`fused_native_supported` first and otherwise routes the staged
engines, or the scalar reference when no kernel library exists at all.

Belady's OPT is not fused (it needs future next-use indices, a two-pass
offline computation); :func:`fused_native_supported` returns ``False`` for
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.cache.config import HierarchyConfig
from repro.cache.stats import CacheStats
from repro.fastsim import kernels
from repro.fastsim.dispatch import VECTOR
from repro.fastsim.filter import FilterStream
from repro.fastsim.kernels.fused import OUT_LLC_HIT, OUT_LLC_MISS, RegionTable
from repro.fastsim.replay import (
    HINT_FAMILIES,
    PolicyReplayStream,
    _family,
    engine_stats,
    family_engine,
    feed_engine,
)
from repro.trace.generator import Trace


def fused_native_supported(policy) -> bool:
    """Whether the kernel library can run this policy's fused pipeline.

    Every online engine family fuses once the filter kernel is present.
    """
    return _family(policy) is not None and kernels.has_capability("fused:filter")


def _native_filter(hierarchy: HierarchyConfig) -> FilterStream:
    """The pipelines' kernel-backed filter; raises naming its kernel when
    the library is unavailable."""
    kernels.lookup("fused_filter_only")
    return FilterStream(hierarchy, backend=VECTOR)


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
    """

    def __init__(
        self,
        hierarchy: HierarchyConfig,
        policy,
        *,
        classifier=None,
        use_hints: bool = True,
    ) -> None:
        if _family(policy) is None:
            raise ValueError(
                f"policy {policy!r} has no fused pipeline; "
                "use fused_native_supported() before dispatching"
            )
        self.hierarchy = hierarchy
        self.policy = policy
        self._filter = _native_filter(hierarchy)
        self.family, self._engine = family_engine(policy, hierarchy.llc)
        self._offset_bits = hierarchy.l1.block_offset_bits
        # The filter kernel classifies hints only for the families that read them.
        self._regions = None
        if self.family in HINT_FAMILIES:
            regions = classifier.regions() if use_hints and classifier is not None else ()
            self._regions = RegionTable.from_regions(tuple(regions))
        self._region_accesses: Dict[int, int] = {}
        self._region_misses: Dict[int, int] = {}

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
        hints = None if self._regions is None else np.empty(n, dtype=np.uint8)
        out = self._filter.outcomes(blocks, hints, trace.addresses, self._regions)
        feed_engine(self.family, self._engine, blocks, hints, trace.pcs, outcomes=out)
        if len(trace.regions):
            # Pack (region, missed) of the LLC substream into one bincount
            # key instead of masking the full chunk twice.
            llc_level = np.flatnonzero(out >= OUT_LLC_HIT)
            packed = (trace.regions[llc_level].astype(np.int64) << 1) | (
                out[llc_level] >= OUT_LLC_MISS
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

    # -- results ----------------------------------------------------------

    @property
    def total_references(self) -> int:
        """Accesses fed so far (all levels see the same reference stream)."""
        return self._filter.total_references

    def upstream_hit_counts(self):
        """Aggregate ``(l1_hits, l2_hits)`` of the filter phase."""
        return self._filter.upstream_hit_counts()

    def stats(self) -> FusedStats:
        """Aggregate per-level :class:`CacheStats` over everything fed."""
        l1, l2 = self._filter.level_stats()
        llc = engine_stats(
            self.family, self._engine, self.hierarchy.llc.name,
            self._region_accesses, self._region_misses,
        )
        return FusedStats(l1_stats=l1, l2_stats=l2, llc_stats=llc)


class MultiFusedPipeline:
    """One shared filter phase feeding N per-policy LLC replay engines.

    The fused multi-scheme route: each raw trace chunk runs through the
    native L1/L2 filter exactly once (a vector-backend
    :class:`~repro.fastsim.filter.FilterStream`), and the kept accesses —
    compacted, hint-classified once — feed every policy's
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
        self.hierarchy = hierarchy
        self.policies = policies
        self._filter = _native_filter(hierarchy)
        self._offset_bits = hierarchy.l1.block_offset_bits
        self._use_hints = use_hints and classifier is not None
        self._classifier = classifier
        self._replays = [
            PolicyReplayStream(policy, hierarchy.llc) for policy in policies
        ]

    def feed(self, trace: Trace) -> None:
        """Filter one raw chunk once; advance every policy's replay."""
        if len(trace) == 0:
            return
        blocks = trace.block_addresses(self._offset_bits)
        keep = self._filter.outcomes(blocks) == OUT_LLC_HIT
        kept_blocks = blocks[keep]
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
        return self._filter.total_references

    def upstream_hit_counts(self):
        """Aggregate ``(l1_hits, l2_hits)`` of the shared filter phase."""
        return self._filter.upstream_hit_counts()

    def level_stats(self):
        """``(l1_stats, l2_stats)`` of the shared filter phase."""
        return self._filter.level_stats()

    def stats(self):
        """Per-policy LLC :class:`CacheStats`, in constructor policy order."""
        return [replay.stats() for replay in self._replays]


__all__ = [
    "FusedPipeline",
    "FusedStats",
    "MultiFusedPipeline",
    "fused_native_supported",
]
