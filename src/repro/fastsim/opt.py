"""Belady's OPT (MIN) replay over precomputed next-use arrays.

The scalar reference (:func:`repro.cache.policies.opt.simulate_opt_misses`)
walks the trace once backwards to build per-access next-use indices and then
replays forwards with a per-set ``dict`` of resident blocks, scanning it with
``max()`` on every capacity eviction.  Both halves have a compiled form:

* the next-use links come from one reverse scan per chunk over a
  :class:`NextUseTable`, each block's earliest known future access in a
  flat int64 array: walking the chunk from its end, each access reads its
  next use from the table and becomes the block's earliest access
  (:func:`repro.fastsim.kernels.opt_next_use`).  A whole trace is one
  chunk on a fresh table (:func:`next_use_indices`).  The table costs one
  int64 per distinct block plus its ``DenseIdMap`` key table, which is
  direct-indexed below ``DenseIdMap.DIRECT_LIMIT``;
* the forward replay (:func:`repro.fastsim.kernels.opt_feed`) keeps a
  ``(num_sets, ways)`` array of the resident blocks' next-use indices, and
  the Belady victim ("resident block whose next use lies farthest in the
  future") is the row's leftmost maximum.

Victim ties can only occur between never-referenced-again blocks (finite
next-use values are distinct trace indices); evicting either leaves every
future hit/miss decision — and therefore every reported count — unchanged,
so the engine's leftmost-way tie-break is exact with respect to the scalar
reference even though the latter breaks ties in dict-insertion order.

:class:`OptStream` is the engine.  A one-shot replay is one
:meth:`OptStream.feed` of the whole trace with its :func:`next_use_indices`.
"""

from __future__ import annotations

import numpy as np

from repro.fastsim import kernels
from repro.fastsim.stackdist import DenseIdMap, grow_to

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
    ``DenseIdMap.DIRECT_LIMIT`` and a dict above it.  Building a table on a
    host without the kernel library raises :class:`RuntimeError`.
    """

    def __init__(self) -> None:
        kernels.lookup("opt_next_use")
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
    return kernels.opt_next_use(table._slots(blocks), start, table._next)


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
    to one-shot replay over the concatenation.  Building a stream on a host
    without the kernel library raises :class:`RuntimeError`.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        kernels.lookup("opt_replay")
        self.num_sets = num_sets
        self.ways = ways
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
        hits = kernels.opt_feed(
            blocks,
            next_use,
            self.num_sets,
            self.ways,
            self.tags,
            self.next_values,
            self.misses_per_set,
        )
        self.hit_count += int(hits.sum())
        return hits
