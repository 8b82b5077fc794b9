"""Vectorized Belady's OPT (MIN) replay over precomputed next-use arrays.

The scalar reference (:func:`repro.cache.policies.opt.simulate_opt_misses`)
walks the trace once backwards to build per-access next-use indices and then
replays forwards with a per-set ``dict`` of resident blocks, scanning it with
``max()`` on every capacity eviction.  Both halves have a fast form:

* the next-use links come from one reverse scan per chunk over a
  :class:`NextUseTable`, each block's earliest known future access in a
  flat int64 array: walking the chunk from its end, each access reads its
  next use from the table and becomes the block's earliest access.  The
  compiled kernel (:func:`repro.fastsim.kernels.opt_next_use`) runs that
  loop; the NumPy fallback, for hosts with no compiler, derives the same
  links from one stable block-sort of the chunk
  (:func:`repro.fastsim.stackdist.occurrence_order`).  A whole trace is one
  chunk on a fresh table (:func:`next_use_indices`).  The table costs one
  int64 per distinct block plus its ``DenseIdMap`` key table, which is
  direct-indexed below ``DenseIdMap.DIRECT_LIMIT``;
* OPT keeps *no* cross-set state at all, so the batched set-parallel chunking
  of the RRIP engine applies unchanged: within a maximal trace-ordered chunk
  in which every set appears at most once, a broadcast tag compare classifies
  every access and the Belady victim ("resident block whose next use lies
  farthest in the future") is one row-wise ``argmax`` over a
  ``(num_sets, ways)`` array of next-use indices.

Victim ties can only occur between never-referenced-again blocks (finite
next-use values are distinct trace indices); evicting either leaves every
future hit/miss decision — and therefore every reported count — unchanged,
so the engine's leftmost-way tie-break is exact with respect to the scalar
reference even though the latter breaks ties in dict-insertion order.

:class:`OptStream` is the engine: it advances its state through the
compiled kernel (:func:`repro.fastsim.kernels.opt_feed`) when one is
available and through the NumPy sweeps otherwise; both are exact.  A
one-shot replay is one :meth:`OptStream.feed` of the whole trace with its
:func:`next_use_indices`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fastsim import kernels
from repro.fastsim.rrip import _chunk_end
from repro.fastsim.stackdist import (
    DenseIdMap,
    grow_to,
    occurrence_order,
    previous_occurrence_indices,
)

#: "Never referenced again" marker, matching the scalar reference.
NEVER = np.iinfo(np.int64).max


class NextUseTable:
    """Each block's earliest known future access: the state of OPT's reverse pass.

    :func:`resolve_chunk_next_use` reads and updates it once per chunk, over
    a stream's chunks in reverse order.  A
    :class:`~repro.fastsim.stackdist.DenseIdMap` numbers the blocks, and one
    int64 per number (:data:`NEVER` until set) holds the global index of the
    block's earliest access in the chunks resolved so far.  Memory: one
    int64 per distinct block plus the map's key table, direct-indexed (one
    int64 per key up to the largest block id) below
    ``DenseIdMap.DIRECT_LIMIT`` and a dict above it.

    ``use_native=None`` scans with the compiled kernel when the registry has
    it and sorts in NumPy otherwise; ``False`` forces NumPy.  Both are exact.
    """

    def __init__(self, use_native: Optional[bool] = None) -> None:
        self._use_native = (
            kernels.available() if use_native is None else bool(use_native)
        )
        self._ids = DenseIdMap()
        self._next = np.empty(0, dtype=np.int64)

    def _slots(self, blocks: np.ndarray) -> np.ndarray:
        """Dense ids of ``blocks``, the table grown to cover the new ones."""
        ids = self._ids.map(blocks)
        self._next = grow_to(self._next, len(self._ids), NEVER)
        return ids


def resolve_chunk_next_use(
    blocks: np.ndarray, start: int, table: NextUseTable
) -> np.ndarray:
    """Global next-use indices for one chunk of a stream, resolved backwards.

    Call over the stream's chunks in *reverse* order with one ``table``;
    ``start`` is the chunk's offset in the concatenated stream.  Each call
    leaves every block of the chunk pointing at its first access there.  The
    result equals the corresponding slice of :func:`next_use_indices` over
    the whole stream, which is how streaming OPT stays two-pass with bounded
    memory: one reverse pass resolving next-use per chunk, one forward pass
    replaying.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    if blocks.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    ids = table._slots(blocks)
    out = None
    if table._use_native:
        out = kernels.opt_next_use(ids, start, table._next)
    if out is None:
        out = _numpy_next_use(ids, start, table._next)
    return out


def _numpy_next_use(ids: np.ndarray, start: int, table: np.ndarray) -> np.ndarray:
    """The reverse scan's result from one stable sort of the chunk's ids."""
    occ = occurrence_order(ids)
    grouped = ids[occ]
    same = grouped[1:] == grouped[:-1]
    out = np.empty(ids.shape[0], dtype=np.int64)
    out[occ[:-1][same]] = occ[1:][same] + start
    # An id's last access in the chunk finds its next use in a later chunk
    # (the table); its first access becomes its earliest known access.
    last = np.append(~same, True)
    first = np.insert(~same, 0, True)
    out[occ[last]] = table[grouped[last]]
    table[grouped[first]] = occ[first] + start
    return out


def next_use_indices(blocks: np.ndarray) -> np.ndarray:
    """Index of the next access to the same block, :data:`NEVER` for the last.

    One :func:`resolve_chunk_next_use` of the whole trace on a fresh table.
    """
    return resolve_chunk_next_use(blocks, 0, NextUseTable())


class OptStream:
    """Resumable exact Belady replay: feed (blocks, next-use) in chunks.

    Carries tags and per-way next-use values across :meth:`feed` calls.  The
    caller supplies globally consistent next-use indices per chunk — OPT
    needs the future, so a stream is replayed in two passes: a reverse pass
    over the (spilled) chunks through :func:`resolve_chunk_next_use`, then a
    forward pass feeding this stream.  Chunked replay is then bit-identical
    to one-shot replay over the concatenation.
    """

    def __init__(
        self, num_sets: int, ways: int, use_native: Optional[bool] = None
    ) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self._use_native = (
            kernels.available() if use_native is None else bool(use_native)
        )
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        self.next_values = np.zeros((num_sets, ways), dtype=np.int64)
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self.hit_count = 0

    @property
    def miss_count(self) -> int:
        """Total number of misses fed so far."""
        return int(self.misses_per_set.sum())

    @property
    def evictions(self) -> int:
        """Total evictions so far (OPT never bypasses)."""
        return int(np.maximum(0, self.misses_per_set - self.ways).sum())

    def feed(self, block_addresses: np.ndarray, next_use: np.ndarray) -> np.ndarray:
        """Replay one chunk; returns its hit mask and advances the state."""
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        next_use = np.ascontiguousarray(next_use, dtype=np.int64)
        n = int(blocks.shape[0])
        if next_use.shape[0] != n:
            raise ValueError(
                f"next-use stream length {next_use.shape[0]} != trace length {n}"
            )
        if n == 0:
            return np.zeros(0, dtype=bool)
        hits = None
        if self._use_native:
            hits = kernels.opt_feed(
                blocks,
                next_use,
                self.num_sets,
                self.ways,
                self.tags,
                self.next_values,
                self.misses_per_set,
            )
        if hits is None:
            hits = self._numpy_feed(blocks, next_use)
        self.hit_count += int(hits.sum())
        return hits

    def _numpy_feed(self, blocks: np.ndarray, next_use: np.ndarray) -> np.ndarray:
        num_sets = self.num_sets
        tags, next_values = self.tags, self.next_values
        n = int(blocks.shape[0])
        hits = np.zeros(n, dtype=bool)
        set_ids = blocks & (num_sets - 1)
        prev = previous_occurrence_indices(set_ids)

        position = 0
        while position < n:
            end = _chunk_end(prev, position, n)
            sets = set_ids[position:end]
            chunk_blocks = blocks[position:end]
            chunk_next = next_use[position:end]

            match = tags[sets] == chunk_blocks[:, None]
            is_hit = match.any(axis=1)
            hits[position:end] = is_hit

            if is_hit.any():
                hit_sets = sets[is_hit]
                hit_ways = match[is_hit].argmax(axis=1)
                next_values[hit_sets, hit_ways] = chunk_next[is_hit]

            if not is_hit.all():
                miss = ~is_hit
                miss_sets = sets[miss]
                empty = tags[miss_sets] == -1
                has_empty = empty.any(axis=1)
                victim_way = np.empty(miss_sets.shape[0], dtype=np.int64)
                victim_way[has_empty] = empty[has_empty].argmax(axis=1)
                full_sets = miss_sets[~has_empty]
                if full_sets.size:
                    # Belady: evict the resident block whose next use is
                    # farthest.
                    victim_way[~has_empty] = next_values[full_sets].argmax(axis=1)
                tags[miss_sets, victim_way] = chunk_blocks[miss]
                next_values[miss_sets, victim_way] = chunk_next[miss]
            position = end

        self.misses_per_set += np.bincount(set_ids[~hits], minlength=num_sets)
        return hits
