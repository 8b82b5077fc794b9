"""The fused pass: the L1/L2 filter and every scheme's LLC replay over raw
trace chunks.

:class:`FusedPipeline` is the one chunk-feedable pass over N schemes: each
:meth:`~FusedPipeline.feed` pushes a raw
:class:`~repro.trace.generator.Trace` chunk once through a vector-backend
:class:`~repro.fastsim.filter.FilterStream`, whose kernel marks every
access with its outcome (codes in :mod:`repro.fastsim.kernels.fused`) and
writes the GRASP hints of the LLC-bound accesses.  The chunk's LLC-bound
accesses are then gathered once — blocks, kernel-written hints, regions
and PCs — and fed to each scheme's
:class:`~repro.fastsim.replay.PolicyReplayStream` exactly as the staged
path feeds a filtered chunk, with no Python-side hint classification.
The filter owns the L1/L2 state and counters and each stream its LLC's,
so the statistics of all three levels are bit-identical to the staged
``FilterStream`` -> ``PolicyReplayStream`` pipeline for every supported
policy family.

Belady's OPT rides the same pass without an engine here: it needs future
next-use indices, so the caller keeps the LLC-bound blocks each
:meth:`~FusedPipeline.feed` returns and runs OPT's two offline passes
after this one.

The pipeline runs native kernels only: building one where the kernel
library is unavailable (no C compiler, or a broken ``REPRO_CC``) raises
:class:`RuntimeError` naming the filter kernel.  The planner checks for the
``fused:filter`` kernel first and otherwise routes the staged engines, or
the scalar reference when no kernel library exists at all.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import HierarchyConfig
from repro.fastsim import kernels
from repro.fastsim.dispatch import VECTOR
from repro.fastsim.filter import FilterStream
from repro.fastsim.kernels.fused import OUT_LLC_HIT, RegionTable
from repro.fastsim.replay import HINT_FAMILIES, PolicyReplayStream, _family
from repro.trace.generator import Trace


class FusedPipeline:
    """Feed raw trace chunks; collect L1/L2 stats and every scheme's LLC stats
    in one pass.

    Parameters
    ----------
    hierarchy:
        Cache hierarchy (shared block size across levels is enforced by
        :class:`~repro.cache.config.HierarchyConfig`).
    policies:
        LLC replacement policies, each with an online engine family (every
        family but the offline OPT); none at all makes a filter-only pass,
        which still returns each chunk's LLC-bound blocks.
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
        policies,
        *,
        classifier=None,
        use_hints: bool = True,
    ) -> None:
        policies = list(policies)
        for policy in policies:
            if _family(policy) is None:
                raise ValueError(f"policy {policy!r} has no fused replay engine")
        self.hierarchy = hierarchy
        # Without the kernel library this raises, naming the filter kernel.
        kernels.lookup("fused_filter_only")
        self._filter = FilterStream(hierarchy, backend=VECTOR)
        self.replays = [PolicyReplayStream(policy, hierarchy.llc) for policy in policies]
        self._offset_bits = hierarchy.l1.block_offset_bits
        # The filter kernel classifies hints only when a family reads them.
        self._regions = None
        if any(replay.family in HINT_FAMILIES for replay in self.replays):
            regions = classifier.regions() if use_hints and classifier is not None else ()
            self._regions = RegionTable.from_regions(tuple(regions))

    def feed(self, trace: Trace) -> np.ndarray:
        """Run one trace chunk through the filter once and every scheme's replay.

        Returns the block addresses of the chunk's LLC-bound accesses, in
        trace order, and advances the accumulated statistics.
        """
        n = len(trace)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        blocks = trace.block_addresses(self._offset_bits)
        hints = None if self._regions is None else np.empty(n, dtype=np.uint8)
        out = self._filter.outcomes(blocks, hints, trace.addresses, self._regions)
        llc = np.flatnonzero(out == OUT_LLC_HIT)
        llc_blocks = blocks[llc]
        if self.replays:
            llc_hints = None if hints is None else hints[llc]
            regions, pcs = trace.regions[llc], trace.pcs[llc]
            for replay in self.replays:
                replay.feed(llc_blocks, llc_hints, regions, pcs)
        return llc_blocks

    # -- results ----------------------------------------------------------

    @property
    def total_references(self) -> int:
        """Accesses fed so far (all levels see the same reference stream)."""
        return self._filter.total_references

    def upstream_hit_counts(self):
        """Aggregate ``(l1_hits, l2_hits)`` of the filter phase."""
        return self._filter.upstream_hit_counts()

    def level_stats(self):
        """``(l1_stats, l2_stats)`` of the filter phase."""
        return self._filter.level_stats()

    def stats(self):
        """Per-scheme LLC :class:`~repro.cache.stats.CacheStats`, in
        constructor order."""
        return [replay.stats() for replay in self.replays]


class MultiFusedPipeline(FusedPipeline):
    """Not built anywhere.  The benchmark's span tracer
    (``benchmarks/suite/tracing.py``) patches ``feed`` in this class's own
    dict by name; the class goes when spans inside the program replace that
    tracer (ROADMAP item 2)."""

    feed = FusedPipeline.feed


__all__ = ["FusedPipeline"]
