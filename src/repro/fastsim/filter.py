"""L1-D/L2 filtering of a reference stream: one engine, both backends.

Pipeline stage 5 replays a trace through the L1-D and L2 caches and keeps
only the accesses that miss both — the stream the LLC actually sees.  Both
levels always use LRU (Sec. IV of the paper).  :class:`FilterStream` is the
only filter engine: feed it a trace in chunks, or filter a whole trace with
one feed on a fresh stream (:func:`run_filter`).  The ``vector`` backend
runs the fused filter kernel
(:func:`repro.fastsim.kernels.fused.fused_filter_feed`) over one
:class:`~repro.fastsim.kernels.fused.FilterState`, the same pass the fused
pipelines make; the ``scalar`` backend is the reference, two
:class:`~repro.cache.SetAssociativeCache` objects with one ``access`` call
per reference.  Both produce the same keep mask and the same L1/L2
:class:`~repro.cache.stats.CacheStats`, and the ``verify`` backend runs
both and enforces that on every feed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cache import SetAssociativeCache
from repro.cache.config import HierarchyConfig
from repro.cache.policies import LRUPolicy
from repro.cache.stats import CacheStats
from repro.fastsim.dispatch import SCALAR, VECTOR, VERIFY, resolve_backend
from repro.fastsim.kernels.fused import (
    OUT_LLC_HIT,
    FilterState,
    RegionTable,
    fused_filter_feed,
)
from repro.trace import Trace


class FastSimMismatchError(AssertionError):
    """The vectorized and scalar simulators disagreed (equivalence guard)."""


@dataclass(frozen=True)
class FilterResult:
    """Outcome of running one trace through the L1-D/L2 filter levels."""

    keep: np.ndarray
    l1_stats: CacheStats
    l2_stats: CacheStats


def assert_stats_equal(scalar: CacheStats, vector: CacheStats, context: str) -> None:
    """Equivalence guard: raise unless two stat blocks carry identical counts."""
    fields = ("accesses", "hits", "misses", "evictions", "bypasses")
    for field_name in fields:
        left, right = getattr(scalar, field_name), getattr(vector, field_name)
        if left != right:
            raise FastSimMismatchError(
                f"{context}: scalar and vector backends disagree on "
                f"{scalar.name} {field_name}: {left} != {right}"
            )
    if scalar.region_accesses != vector.region_accesses:
        raise FastSimMismatchError(f"{context}: region access breakdowns differ")
    if scalar.region_misses != vector.region_misses:
        raise FastSimMismatchError(f"{context}: region miss breakdowns differ")
    for field_name in ("stream_accesses", "stream_hits", "stream_misses", "stream_bypasses"):
        left = getattr(scalar, field_name, {})
        right = getattr(vector, field_name, {})
        if left != right:
            raise FastSimMismatchError(
                f"{context}: scalar and vector backends disagree on "
                f"{scalar.name} {field_name}: {left} != {right}"
            )


class FilterStream:
    """Resumable L1-D/L2 filter: feed a trace in chunks, collect LLC accesses.

    ``vector`` runs the fused filter kernel over one persistent
    :class:`~repro.fastsim.kernels.fused.FilterState`, ``scalar`` keeps the
    two reference :class:`~repro.cache.SetAssociativeCache` objects alive
    across chunks, and ``verify`` runs both and raises
    :class:`FastSimMismatchError` on any keep-mask difference per chunk (and
    any stats difference at :meth:`level_stats`).  Chunked filtering is
    bit-identical to filtering the concatenated trace in one feed; peak
    memory is O(chunk + cache state).
    """

    def __init__(self, hierarchy: HierarchyConfig, backend: str = None) -> None:
        self.hierarchy = hierarchy
        self.mode = resolve_backend(backend)
        self.total_references = 0
        if self.mode != SCALAR:
            self._state = FilterState(
                hierarchy.l1.num_sets, hierarchy.l1.ways,
                hierarchy.l2.num_sets, hierarchy.l2.ways,
            )
        if self.mode != VECTOR:
            self._scalar_l1 = SetAssociativeCache(hierarchy.l1, LRUPolicy())
            self._scalar_l2 = SetAssociativeCache(hierarchy.l2, LRUPolicy())

    def outcomes(
        self,
        blocks: np.ndarray,
        hints: Optional[np.ndarray] = None,
        addresses: Optional[np.ndarray] = None,
        regions: Optional[RegionTable] = None,
    ) -> np.ndarray:
        """Filter one chunk's block addresses on the kernel backends.

        Returns the chunk's outcome vector (0 = L1 hit, 1 = L2 hit,
        2 = LLC-bound), the input of the replay kernels' outcome contract;
        ``hints``, ``addresses`` and ``regions`` ask the kernel to write each
        LLC-bound access's GRASP hint too
        (:func:`~repro.fastsim.kernels.fused.fused_filter_feed`).
        """
        self.total_references += int(blocks.shape[0])
        return fused_filter_feed(blocks, self._state, hints, addresses, regions)

    def feed(self, trace: Trace) -> np.ndarray:
        """Filter one chunk; returns the keep mask of LLC-bound accesses."""
        if self.mode == SCALAR:
            self.total_references += len(trace)
            return self._scalar_keep(trace)
        blocks = trace.block_addresses(self.hierarchy.l1.block_offset_bits)
        keep = self.outcomes(blocks) == OUT_LLC_HIT
        if self.mode == VERIFY and not np.array_equal(self._scalar_keep(trace), keep):
            raise FastSimMismatchError(
                "streaming L1/L2 filter: keep masks differ between backends"
            )
        return keep

    def _scalar_keep(self, trace: Trace) -> np.ndarray:
        keep = np.zeros(len(trace), dtype=bool)
        l1_access, l2_access = self._scalar_l1.access, self._scalar_l2.access
        for index, address in enumerate(trace.addresses.tolist()):
            if l1_access(address):
                continue
            if l2_access(address):
                continue
            keep[index] = True
        return keep

    def upstream_hit_counts(self) -> Tuple[int, int]:
        """Cumulative (L1 hits, L2 hits) so far, without cross-checking."""
        if self.mode == SCALAR:
            return self._scalar_l1.stats.hits, self._scalar_l2.stats.hits
        l1_misses = int(self._state.l1_misses.sum())
        l2_misses = int(self._state.l2_misses.sum())
        return self.total_references - l1_misses, l1_misses - l2_misses

    def level_stats(self) -> Tuple[CacheStats, CacheStats]:
        """L1/L2 statistics accumulated so far (verify mode cross-checks)."""
        if self.mode == SCALAR:
            return self._scalar_l1.stats, self._scalar_l2.stats
        # Each level sees the previous level's misses; LRU never bypasses,
        # so a set evicts once per miss beyond its ways.
        levels = []
        accesses = self.total_references
        for config, misses in (
            (self.hierarchy.l1, self._state.l1_misses),
            (self.hierarchy.l2, self._state.l2_misses),
        ):
            missed = int(misses.sum())
            levels.append(CacheStats.from_counts(
                name=config.name,
                hits=accesses - missed,
                misses=missed,
                evictions=int(np.maximum(0, misses - config.ways).sum()),
            ))
            accesses = missed
        l1, l2 = levels
        if self.mode == VERIFY:
            assert_stats_equal(self._scalar_l1.stats, l1, "streaming L1/L2 filter")
            assert_stats_equal(self._scalar_l2.stats, l2, "streaming L1/L2 filter")
        return l1, l2


def run_filter(trace: Trace, hierarchy: HierarchyConfig, backend: str = None) -> FilterResult:
    """Filter a whole trace: one feed on a fresh :class:`FilterStream`."""
    stream = FilterStream(hierarchy, backend=backend)
    keep = stream.feed(trace)
    l1_stats, l2_stats = stream.level_stats()
    return FilterResult(keep=keep, l1_stats=l1_stats, l2_stats=l2_stats)
