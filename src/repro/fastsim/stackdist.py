"""The LRU engine, plus the id and table helpers every stream engine shares.

LRU has the *stack (inclusion) property*: a W-way set holds precisely the W
most recently used distinct blocks that map to it, so an access hits exactly
when fewer than W distinct same-set blocks were touched since the previous
access to the same block.  The scalar reference
(:class:`repro.cache.cache.SetAssociativeCache` with an LRU policy) and the
compiled kernel (:func:`repro.fastsim.kernels.lru_feed`: one timestamp per
way, a linear way scan) both realise it; :class:`LRUStream` runs the kernel
over state it keeps between chunks.

Eviction counts need no per-access bookkeeping: LRU never bypasses, so a
set's occupancy grows by one per miss until it is full, giving
``evictions = max(0, misses_in_set - ways)`` per set.

:class:`DenseIdMap` and :func:`grow_to` serve the engines whose learning
structures are indexed by an unbounded key (SHiP signatures, Hawkeye and
Leeway PCs, Hawkeye and OPT block ids), and :func:`outcome_vector` is the
outcome contract every online engine's ``feed`` shares.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fastsim import kernels
from repro.fastsim.kernels.fused import OUT_LLC_HIT


class DenseIdMap:
    """Grow-only mapping from raw keys to dense ids, stable across chunks.

    The engines densify unbounded key spaces (SHiP signatures, Leeway/Hawkeye
    PCs, Hawkeye block ids) so their learning structures are flat arrays.  A
    stream cannot see its whole trace, so ids are handed out chunk by chunk
    and never change: a chunk's unseen keys take the next ids in sorted key
    order.  All the learning structures are label-invariant, so any stable
    assignment produces the same simulation.

    Keys in ``[0, DIRECT_LIMIT)`` are looked up in a grow-only array indexed
    by key, and a chunk's new keys are found by marking that range — no sort
    and no per-key Python work.  The first chunk holding a key outside the
    range moves the map to a dict for good, carrying every id over.
    """

    #: Largest key eligible for the direct-lookup fast path; beyond this the
    #: table (8 bytes/slot) would dominate the stream's bounded footprint.
    DIRECT_LIMIT = 1 << 22

    def __init__(self) -> None:
        #: key -> id (-1 unassigned) while every key is in the direct range.
        self._direct = np.empty(0, dtype=np.int64)
        self._count = 0
        #: Authoritative dict once a key left the direct range.
        self._ids: Optional[dict] = None

    def __len__(self) -> int:
        return self._count if self._ids is None else len(self._ids)

    def map(self, values: np.ndarray) -> np.ndarray:
        """Dense ids for ``values``, assigning new ids to unseen keys."""
        values = np.asarray(values)
        if values.size == 0:
            return np.empty(0, dtype=np.int64)
        if self._ids is None:
            lo, hi = int(values.min()), int(values.max())
            if 0 <= lo and hi < self.DIRECT_LIMIT:
                return self._map_direct(values, hi)
            self._ids = dict(zip(self.keys_in_id_order(), range(self._count)))
            self._direct = None
        unique, inverse = np.unique(values, return_inverse=True)
        ids = self._ids
        table = np.fromiter(
            (ids.setdefault(key, len(ids)) for key in unique.tolist()),
            dtype=np.int64,
            count=unique.shape[0],
        )
        return table[inverse]

    def _map_direct(self, values: np.ndarray, hi: int) -> np.ndarray:
        """O(n + key range) lookup through the grow-only key-indexed table."""
        direct = self._direct
        if direct.shape[0] <= hi:
            direct = self._direct = grow_to(direct, max(hi + 1, 2 * direct.shape[0]), -1)
        out = direct[values]
        missing = out < 0
        if not missing.any():
            return out
        new = values[missing]
        lo = int(new.min())
        mark = np.zeros(int(new.max()) - lo + 1, dtype=bool)
        mark[new - lo] = True
        fresh = np.flatnonzero(mark) + lo
        direct[fresh] = np.arange(self._count, self._count + fresh.shape[0], dtype=np.int64)
        self._count += fresh.shape[0]
        out[missing] = direct[new]
        return out

    def keys_in_id_order(self) -> list:
        """Raw keys ordered by their dense id."""
        if self._ids is not None:
            return list(self._ids)
        keys = np.flatnonzero(self._direct >= 0)
        return keys[np.argsort(self._direct[keys])].tolist()


def grow_to(array: np.ndarray, size: int, fill) -> np.ndarray:
    """Return ``array`` grown to at least ``size`` entries, padded with ``fill``."""
    if array.shape[0] >= size:
        return array
    grown = np.full(size, fill, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


def outcome_vector(outcomes: Optional[np.ndarray], n: int) -> np.ndarray:
    """The outcome vector a replay kernel runs over for an ``n``-access chunk.

    ``None`` (a staged feed) replays every access: an all-2 vector.
    Otherwise ``outcomes`` is a caller's vector (uint8, one entry per
    access): the kernel replays the accesses marked 2 and overwrites each
    with its LLC outcome, leaving every other entry as it was.  A vector of
    another length raises :class:`ValueError` before any kernel reads it.
    """
    if outcomes is None:
        return np.full(n, OUT_LLC_HIT, dtype=np.uint8)
    if outcomes.shape[0] != n:
        raise ValueError(f"outcome vector length {outcomes.shape[0]} != trace length {n}")
    return outcomes


class LRUStream:
    """Resumable exact LRU replay: feed a block stream in bounded chunks.

    Carries the full cache state — per-way tags plus recency stamps — across
    :meth:`feed` calls, so replaying a stream chunk by chunk produces hit
    masks and counters bit-identical to one replay over the concatenation,
    with peak memory O(chunk + num_sets * ways).  The compiled kernel
    advances that state in place; building a stream on a host without the
    kernel library raises :class:`RuntimeError`.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        kernels.lookup("lru_replay")
        self.num_sets = num_sets
        self.ways = ways
        self.tags = np.full(num_sets * ways, -1, dtype=np.int64)
        self.stamps = np.zeros(num_sets * ways, dtype=np.int64)
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self._state = np.zeros(1, dtype=np.int64)
        self.hit_count = 0

    @property
    def miss_count(self) -> int:
        """Total number of misses fed so far."""
        return int(self.misses_per_set.sum())

    @property
    def evictions(self) -> int:
        """Total evictions so far (LRU never bypasses; sets only fill up)."""
        return int(np.maximum(0, self.misses_per_set - self.ways).sum())

    def feed(
        self, block_addresses: np.ndarray, outcomes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Replay one chunk; returns its LLC hit mask and advances the state.

        With ``outcomes`` (see :func:`outcome_vector`) only the accesses
        marked 2 replay, and their codes are written into it in place.
        """
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        out = outcome_vector(outcomes, int(blocks.shape[0]))
        if blocks.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        kernels.lru_feed(
            blocks, out, self.num_sets, self.ways,
            self.tags, self.stamps, self.misses_per_set, self._state,
        )
        hits = out == OUT_LLC_HIT
        self.hit_count += int(np.count_nonzero(hits))
        return hits
