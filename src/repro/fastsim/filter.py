"""L1-D/L2 filtering of a reference stream, in both backends.

Pipeline stage 5 replays the ROI trace through the L1-D and L2 caches and
keeps only the accesses that miss both — the stream the LLC actually sees.
Both levels always use LRU (Sec. IV of the paper), so the vector backend can
use the stack-distance engine: filter L1 over the whole trace at once, then
filter L2 over the surviving subsequence.

Both backends return a :class:`FilterResult` — the keep mask plus the L1/L2
:class:`~repro.cache.stats.CacheStats` — and must agree exactly; the
``verify`` backend (:func:`run_filter`) enforces that on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.cache.policies import LRUPolicy
from repro.cache.stats import CacheStats
from repro.fastsim import kernels
from repro.fastsim.dispatch import SCALAR, VECTOR, resolve_backend
from repro.fastsim.stackdist import (
    LRUStream,
    numpy_lru_replay,
    occurrence_order,
    previous_occurrence_indices,
    substream_previous_indices,
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


def scalar_filter(trace: Trace, hierarchy: HierarchyConfig) -> FilterResult:
    """Reference implementation: one :meth:`access` call per reference."""
    l1 = SetAssociativeCache(hierarchy.l1, LRUPolicy())
    l2 = SetAssociativeCache(hierarchy.l2, LRUPolicy())
    keep = np.zeros(len(trace), dtype=bool)
    l1_access, l2_access = l1.access, l2.access
    for index, address in enumerate(trace.addresses.tolist()):
        if l1_access(address):
            continue
        if l2_access(address):
            continue
        keep[index] = True
    return FilterResult(keep=keep, l1_stats=l1.stats, l2_stats=l2.stats)


def _replay_level(
    blocks: np.ndarray, level: CacheConfig, prev_indices: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Hit mask and per-set misses of one LRU level over ``blocks``.

    ``prev_indices`` selects the tier: ``None`` replays through the compiled
    kernel on a fresh :class:`LRUStream`; links from the caller's shared
    block sort replay through the NumPy stack-distance engine.
    """
    if prev_indices is None:
        stream = LRUStream(level.num_sets, level.ways, use_native=True)
        return stream.feed(blocks), stream.misses_per_set
    return numpy_lru_replay(blocks, level.num_sets, level.ways, prev_indices=prev_indices)


def _level_stats(
    level: CacheConfig, hits: np.ndarray, misses_per_set: np.ndarray, extra_hits: int = 0
) -> CacheStats:
    return CacheStats.from_counts(
        name=level.name,
        hits=extra_hits + int(hits.sum()),
        misses=int(misses_per_set.sum()),
        evictions=int(np.maximum(0, misses_per_set - level.ways).sum()),
    )


def vector_filter(trace: Trace, hierarchy: HierarchyConfig) -> FilterResult:
    """Vectorized implementation: per-set batched replay of both levels.

    Trace-adjacent accesses to one block (the bulk of a graph trace: a
    64-byte block serves several consecutive Edge-Array reads) are collapsed
    to their run head before anything is sorted — they are L1 hits that leave
    the LRU stack untouched, so only run heads enter the replay machinery.
    The surviving stream is then sorted by block once
    (:func:`occurrence_order`); both the L1 replay and the L2 replay of the
    L1-missing substream derive their previous-same-block links from that
    single sort.
    """
    n = len(trace)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return FilterResult(
            keep=keep,
            l1_stats=CacheStats(name=hierarchy.l1.name),
            l2_stats=CacheStats(name=hierarchy.l2.name),
        )
    blocks = trace.block_addresses(hierarchy.l1.block_offset_bits)
    run_head = np.empty(n, dtype=bool)
    run_head[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=run_head[1:])
    head_indices = np.flatnonzero(run_head)
    head_blocks = blocks[head_indices]

    # The block sort (and the previous-occurrence links derived from it) only
    # feeds the NumPy stack-distance engine; the compiled kernel tracks
    # recency in-line and needs neither.
    occ = None if kernels.available() else occurrence_order(head_blocks)
    l1_hits, l1_misses = _replay_level(
        head_blocks,
        hierarchy.l1,
        None if occ is None else previous_occurrence_indices(head_blocks, occ),
    )
    miss_heads = np.flatnonzero(~l1_hits)
    l2_hits, l2_misses = _replay_level(
        head_blocks[miss_heads],
        hierarchy.l2,
        None if occ is None else substream_previous_indices(head_blocks, occ, miss_heads),
    )
    keep[head_indices[miss_heads[~l2_hits]]] = True
    return FilterResult(
        keep=keep,
        l1_stats=_level_stats(
            hierarchy.l1, l1_hits, l1_misses, extra_hits=n - int(head_indices.shape[0])
        ),
        l2_stats=_level_stats(hierarchy.l2, l2_hits, l2_misses),
    )


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

    The streaming counterpart of :func:`run_filter` with the same backend
    semantics — ``vector`` carries two :class:`~repro.fastsim.stackdist.LRUStream`
    states (L1, then L2 over the L1-missing substream), ``scalar`` keeps the
    two reference :class:`~repro.cache.SetAssociativeCache` objects alive
    across chunks, and ``verify`` runs both and raises
    :class:`FastSimMismatchError` on any keep-mask difference per chunk (and
    any stats difference at :meth:`level_stats`).  Chunked filtering is
    bit-identical to one-shot filtering of the concatenated trace; peak
    memory is O(chunk + cache state).
    """

    def __init__(self, hierarchy: HierarchyConfig, backend: str = None) -> None:
        self.hierarchy = hierarchy
        self.mode = resolve_backend(backend)
        self.total_references = 0
        if self.mode != SCALAR:
            self._l1 = LRUStream(hierarchy.l1.num_sets, hierarchy.l1.ways)
            self._l2 = LRUStream(hierarchy.l2.num_sets, hierarchy.l2.ways)
        if self.mode != VECTOR:
            self._scalar_l1 = SetAssociativeCache(hierarchy.l1, LRUPolicy())
            self._scalar_l2 = SetAssociativeCache(hierarchy.l2, LRUPolicy())

    def feed(self, trace: Trace) -> np.ndarray:
        """Filter one chunk; returns the keep mask of LLC-bound accesses."""
        self.total_references += len(trace)
        keep = None
        if self.mode != SCALAR:
            blocks = trace.block_addresses(self.hierarchy.l1.block_offset_bits)
            l1_hits = self._l1.feed(blocks)
            miss_indices = np.flatnonzero(~l1_hits)
            l2_hits = self._l2.feed(blocks[miss_indices])
            keep = np.zeros(len(trace), dtype=bool)
            keep[miss_indices[~l2_hits]] = True
        if self.mode != VECTOR:
            scalar_keep = np.zeros(len(trace), dtype=bool)
            l1_access, l2_access = self._scalar_l1.access, self._scalar_l2.access
            for index, address in enumerate(trace.addresses.tolist()):
                if l1_access(address):
                    continue
                if l2_access(address):
                    continue
                scalar_keep[index] = True
            if keep is None:
                keep = scalar_keep
            elif not np.array_equal(scalar_keep, keep):
                raise FastSimMismatchError(
                    "streaming L1/L2 filter: keep masks differ between backends"
                )
        return keep

    def upstream_hit_counts(self) -> Tuple[int, int]:
        """Cumulative (L1 hits, L2 hits) so far, without cross-checking."""
        if self.mode != SCALAR:
            return self._l1.hit_count, self._l2.hit_count
        return self._scalar_l1.stats.hits, self._scalar_l2.stats.hits

    def level_stats(self) -> Tuple[CacheStats, CacheStats]:
        """L1/L2 statistics accumulated so far (verify mode cross-checks)."""
        if self.mode != SCALAR:
            l1 = CacheStats.from_counts(
                name=self.hierarchy.l1.name,
                hits=self._l1.hit_count,
                misses=self._l1.miss_count,
                evictions=self._l1.evictions,
            )
            l2 = CacheStats.from_counts(
                name=self.hierarchy.l2.name,
                hits=self._l2.hit_count,
                misses=self._l2.miss_count,
                evictions=self._l2.evictions,
            )
            if self.mode != VECTOR:
                assert_stats_equal(self._scalar_l1.stats, l1, "streaming L1/L2 filter")
                assert_stats_equal(self._scalar_l2.stats, l2, "streaming L1/L2 filter")
            return l1, l2
        return self._scalar_l1.stats, self._scalar_l2.stats


def run_filter(trace: Trace, hierarchy: HierarchyConfig, backend: str = None) -> FilterResult:
    """Filter a trace with the selected backend (``verify`` runs both)."""
    mode = resolve_backend(backend)
    if mode == SCALAR:
        return scalar_filter(trace, hierarchy)
    if mode == VECTOR:
        return vector_filter(trace, hierarchy)
    scalar = scalar_filter(trace, hierarchy)
    vector = vector_filter(trace, hierarchy)
    if not np.array_equal(scalar.keep, vector.keep):
        raise FastSimMismatchError("L1/L2 filter: keep masks differ between backends")
    assert_stats_equal(scalar.l1_stats, vector.l1_stats, "L1/L2 filter")
    assert_stats_equal(scalar.l2_stats, vector.l2_stats, "L1/L2 filter")
    return vector
