"""The fused pass: the L1/L2 filter and every scheme's LLC replay over raw
trace chunks.

:class:`FusedPipeline` is the one chunk-feedable pass over N schemes: each
:meth:`~FusedPipeline.feed` pushes a raw
:class:`~repro.trace.generator.Trace` chunk once through a vector-backend
:class:`~repro.fastsim.filter.FilterStream`, whose kernel marks every
access with its outcome (codes in :mod:`repro.fastsim.kernels.fused`) and
writes the GRASP hints of the LLC-bound accesses.  The chunk's LLC-bound
accesses are then gathered once — byte addresses, blocks, kernel-written
hints, regions and PCs — and fed to each scheme's
:class:`~repro.fastsim.replay.PolicyReplayStream` exactly as the staged
path feeds a filtered chunk, with no Python-side hint classification.
The filter owns the L1/L2 state and counters and each stream its LLC's,
so the statistics of all three levels are bit-identical to the staged
``FilterStream`` -> ``PolicyReplayStream`` pipeline for every supported
policy family.

:meth:`~FusedPipeline.feed` hands the gathered chunk back
(:class:`LLCAccesses`).  Belady's OPT rides the pass without an engine
here: it needs future next-use indices, so the caller keeps each chunk's
blocks and runs OPT's two offline passes after this one.  The caller may
also keep the whole chunk, a filtered stream that later replays read
instead of regenerating the raw trace: the hints are written whenever a
classifier is given, whatever the schemes and ``use_hints``.

The pipeline runs native kernels only: building one where the kernel
library is unavailable (no C compiler, or a broken ``REPRO_CC``) raises
:class:`RuntimeError` naming the filter kernel.  The planner checks for the
``fused:filter`` kernel first and otherwise routes the staged engines, or
the scalar reference when no kernel library exists at all.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.cache.config import HierarchyConfig
from repro.fastsim import kernels
from repro.fastsim.dispatch import VECTOR
from repro.fastsim.filter import FilterStream
from repro.fastsim.kernels.fused import OUT_LLC_HIT, RegionTable
from repro.fastsim.replay import PolicyReplayStream, _family
from repro.trace.generator import Trace


class LLCAccesses(NamedTuple):
    """One chunk's LLC-bound accesses, in trace order, as a fused pass
    gathered them; ``hints`` are the kernel's, ``None`` without a
    classifier."""

    addresses: np.ndarray
    blocks: np.ndarray
    hints: Optional[np.ndarray]
    regions: np.ndarray
    pcs: np.ndarray


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
        which still returns each chunk's LLC-bound accesses.
    classifier:
        Optional :class:`~repro.core.classification.GraspClassifier`
        whose regions the filter kernel classifies every LLC-bound access
        against; the hint-driven families (GRASP, PIN-X) replay with them.
    use_hints:
        When ``False``, the LLC replays hint-blind even if a classifier is
        given (matching the scalar simulator's ``use_hints=False``); the
        gathered chunk still carries the hints.
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
        self._regions = (
            None if classifier is None else RegionTable.from_regions(classifier.regions())
        )
        self._use_hints = use_hints

    def feed(self, trace: Trace) -> LLCAccesses:
        """Run one trace chunk through the filter once and every scheme's replay.

        Returns the chunk's LLC-bound accesses, gathered once, and advances
        the accumulated statistics.
        """
        n = len(trace)
        blocks = trace.block_addresses(self._offset_bits)
        hints = None if self._regions is None else np.empty(n, dtype=np.uint8)
        out = self._filter.outcomes(blocks, hints, trace.addresses, self._regions)
        llc = np.flatnonzero(out == OUT_LLC_HIT)
        addresses = trace.addresses[llc]
        gathered = LLCAccesses(
            addresses=addresses,
            blocks=addresses >> self._offset_bits,
            hints=None if hints is None else hints[llc],
            regions=trace.regions[llc],
            pcs=trace.pcs[llc],
        )
        replay_hints = gathered.hints if self._use_hints else None
        for replay in self.replays:
            replay.feed(gathered.blocks, replay_hints, gathered.regions, gathered.pcs)
        return gathered

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


__all__ = ["FusedPipeline", "LLCAccesses"]
