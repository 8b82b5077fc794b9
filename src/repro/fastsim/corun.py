"""Vectorized co-run LLC replay with per-stream attribution.

:class:`CorunReplayStream` is the fast-path counterpart of replaying an
interleaved (stream-tagged) access stream through a partitioned
:class:`~repro.cache.cache.SetAssociativeCache`:

* **Unpartitioned** (``partition=None``): every stream contends for the whole
  LLC under one shared policy instance, so the merged stream is replayed
  through a single :class:`~repro.fastsim.replay.PolicyReplayStream` and the
  per-stream hit/miss attribution is recovered from the hit mask with
  ``np.bincount`` over the ``stream_ids`` column.
* **Way-partitioned**: a stream confined to ``c`` contiguous ways of every
  set behaves bit-identically to the same policy bound to a standalone
  ``c``-way cache with the same number of sets (all the engine specs —
  RRIP/PIN/SHiP/Hawkeye/Leeway — are geometry-independent), so each stream
  gets its own per-partition replay engine and the merged chunk is
  scatter/gathered by stream.  This is exactly the semantics of the scalar
  :class:`~repro.cache.partition.PartitionedPolicy`, which the ``verify``
  backend checks against.

:func:`supports_vector_corun` is the dispatch predicate.  One genuine gap:
an *unpartitioned* PIN-X co-run cannot attribute bypasses per stream from
the shared hit mask (a bypass is indistinguishable from an ordinary miss in
the mask), so that one configuration falls back to the scalar simulator.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.partition import WayPartition
from repro.cache.policies.opt import BeladyOptimal
from repro.cache.stats import CacheStats
from repro.fastsim.pin import pin_spec
from repro.fastsim.replay import PolicyReplayStream, supports_vector_replay


def supports_vector_corun(policy, partition: Optional[WayPartition] = None) -> bool:
    """Whether the vectorized co-run path reproduces this configuration exactly.

    Everything :func:`~repro.fastsim.replay.supports_vector_replay` accepts
    qualifies, except the offline :class:`BeladyOptimal` (no online stream)
    and the unpartitioned PIN-X configurations (per-stream bypass attribution
    needs per-stream engines, which only a partition provides).
    """
    if type(policy) is BeladyOptimal or not supports_vector_replay(policy):
        return False
    if partition is None and pin_spec(policy) is not None:
        return False
    return True


class CorunReplayStream:
    """Resumable stream-tagged LLC replay with per-stream attribution.

    Feed aligned ``(block_addresses, stream_ids, hints, regions, pcs)``
    chunks — e.g. from :class:`~repro.trace.interleave.InterleavedTraceStream`
    — then read :meth:`stats`; the result carries per-stream counters that
    sum exactly to the aggregates (``CacheStats.validate`` is enforced).
    Chunked replay is bit-identical to one-shot replay of the concatenation.

    Parameters
    ----------
    policy:
        Template policy; consulted only for its array-form spec.  Must pass
        :func:`supports_vector_corun` for the given partition.
    llc_config:
        Geometry of the shared LLC.
    num_streams:
        Number of co-running streams (stream ids are ``0..num_streams-1``).
    partition:
        Optional :class:`~repro.cache.partition.WayPartition` with one share
        per stream; ``None`` replays the free-for-all contention regime.
    """

    def __init__(
        self,
        policy,
        llc_config: CacheConfig,
        num_streams: int,
        partition: Optional[WayPartition] = None,
    ) -> None:
        if num_streams < 1:
            raise ValueError("num_streams must be at least 1")
        if not supports_vector_corun(policy, partition):
            raise ValueError(
                f"policy {policy!r} has no vectorized co-run engine for "
                f"partition={partition}; use supports_vector_corun() before dispatching"
            )
        if partition is not None:
            partition.validate_ways(llc_config.ways)
            if partition.num_streams != num_streams:
                raise ValueError(
                    f"partition {partition} provisions {partition.num_streams} "
                    f"streams but the co-run has {num_streams}"
                )
        self.llc_config = llc_config
        self.num_streams = num_streams
        self.partition = partition
        self._stream_hits: Dict[int, int] = {}
        self._stream_misses: Dict[int, int] = {}
        if partition is None:
            self._engines = [PolicyReplayStream(policy, llc_config)]
        else:
            self._engines = []
            for ways in partition.counts:
                sub_config = CacheConfig(
                    size_bytes=llc_config.num_sets * ways * llc_config.block_bytes,
                    ways=ways,
                    block_bytes=llc_config.block_bytes,
                    name=llc_config.name,
                )
                self._engines.append(PolicyReplayStream(policy, sub_config))

    def feed(
        self,
        block_addresses: np.ndarray,
        stream_ids: np.ndarray,
        hints: Optional[np.ndarray] = None,
        regions: Optional[np.ndarray] = None,
        pcs: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Replay one merged chunk; returns its hit mask in access order."""
        if len(block_addresses) != len(stream_ids):
            raise ValueError("block_addresses and stream_ids must be parallel")
        if not len(block_addresses):
            return np.zeros(0, dtype=bool)
        streams = np.asarray(stream_ids, dtype=np.int64)
        if self.partition is None:
            hits = self._engines[0].feed(block_addresses, hints, regions, pcs)
        else:
            hits = np.zeros(len(block_addresses), dtype=bool)
            for stream, engine in enumerate(self._engines):
                mask = streams == stream
                if not mask.any():
                    continue
                hits[mask] = engine.feed(
                    block_addresses[mask],
                    hints[mask] if hints is not None else None,
                    regions[mask] if regions is not None else None,
                    pcs[mask] if pcs is not None else None,
                )
        counts = np.bincount(streams, minlength=self.num_streams)
        hit_counts = np.bincount(streams[hits], minlength=self.num_streams)
        for stream in range(self.num_streams):
            accesses = int(counts[stream])
            if not accesses:
                continue
            stream_hits = int(hit_counts[stream])
            self._stream_hits[stream] = self._stream_hits.get(stream, 0) + stream_hits
            self._stream_misses[stream] = (
                self._stream_misses.get(stream, 0) + accesses - stream_hits
            )
        return hits

    def stats(self) -> CacheStats:
        """Aggregate + per-stream :class:`CacheStats` over everything fed."""
        per_engine = [engine.stats() for engine in self._engines]
        if self.partition is None:
            aggregate = per_engine[0]
            stream_bypasses = None  # PIN is excluded unpartitioned; no bypasses.
        else:
            aggregate = per_engine[0]
            for sub in per_engine[1:]:
                aggregate = aggregate.merge(sub)
            aggregate.name = self.llc_config.name
            stream_bypasses = {
                stream: sub.bypasses
                for stream, sub in enumerate(per_engine)
                if sub.bypasses
            }
        stats = CacheStats.from_counts(
            name=self.llc_config.name,
            hits=aggregate.hits,
            misses=aggregate.misses,
            evictions=aggregate.evictions,
            bypasses=aggregate.bypasses,
            region_accesses=aggregate.region_accesses or None,
            region_misses=aggregate.region_misses or None,
            stream_hits=self._stream_hits,
            stream_misses=self._stream_misses,
            stream_bypasses=stream_bypasses,
        )
        return stats.validate()
