"""Vectorized exact LRU simulation via per-set stack distances.

LRU has the *stack (inclusion) property*: a W-way set holds precisely the W
most recently used distinct blocks that map to it.  An access therefore hits
if and only if its **stack distance** — the number of distinct same-set blocks
referenced since the previous access to the same block — is below the
associativity.  Computing stack distances offline turns cache simulation into
an array problem with no per-access Python loop.

For an access ``i`` of one set's subsequence, let ``p[i]`` be the position of
the previous access to the same block (``-1`` if none).  Every position
``j <= p[i]`` trivially satisfies ``p[j] < j <= p[i]``, so

    distance(i) = #{ p[i] < j < i : p[j] <= p[i] }
                = #{ j < i : p[j] <= p[i] }  -  (p[i] + 1)

and the whole problem reduces to an *online rank*: for every element, the
number of earlier elements that are ``<=`` it.  :func:`_rank_grid` computes
that rank with a bottom-up merge count — a pair ``(j, i)`` is counted exactly
once, at the unique merge level where ``j`` falls in the left and ``i`` in the
right half of sibling blocks — in ``log2(n)`` rounds of row-parallel NumPy
work.  All cache sets are processed at once: each set's subsequence is padded
to a common power-of-two row of one grid, so a level costs a handful of NumPy
calls regardless of the set count (padding lives at row tails, after every
real element, and thus never contributes to a real element's rank).  Each
level picks the cheapest exact ranking kernel for its merge width: direct
broadcast comparisons for narrow levels, sort + one flat ``searchsorted``
(pairs packed into disjoint 32-bit key ranges where possible) for the middle,
and cumulative histograms once the value span is comparable to the width.

One structural shortcut keeps the constant factors small.  *Run
compression*: an access whose previous same-set access touched the same block
(ubiquitous in graph traces — sequential Edge-Array reads hit one 64-byte
block ``block/stride`` times in a row) is a guaranteed hit that leaves the
LRU stack untouched, so such repeats are answered directly and excluded from
the ranking problem, typically halving it.  The previous-same-block links
the ranking starts from come from one stable block sort
(:func:`previous_occurrence_indices` over :func:`occurrence_order`).

Eviction counts need no per-access bookkeeping either: LRU never bypasses, so
a set's occupancy grows by one per miss until it is full, giving
``evictions = max(0, misses_in_set - ways)`` per set.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

_INT32_MAX = np.iinfo(np.int32).max
_UINT32_MAX = np.iinfo(np.uint32).max

#: Skew guard: fall back to per-set ranking when padding every set to the
#: busiest set's length would blow the grid up beyond this factor.
_MAX_PAD_FACTOR = 4

#: Merge widths up to this bound are ranked by direct comparison instead of
#: sort-and-binary-search (see :func:`_rank_grid`).
_DIRECT_WIDTH = 16

#: Once the value span is at most this multiple of the merge width, ranking
#: via a cumulative histogram beats binary searching.
_HISTOGRAM_SPAN_FACTOR = 16


def _rank_grid(grid: np.ndarray, span: int) -> np.ndarray:
    """Online rank of every element within its row of ``grid``.

    ``grid`` has shape ``(rows, L)`` with ``L`` a power of two and
    non-negative entries strictly below ``span - 1``; the result has the same
    shape and holds, per element, the count of earlier elements of the *same
    row* that are less than or equal to it.  Rows are ranked simultaneously:
    at merge width ``w`` the grid is viewed as pairs of sibling half-blocks
    and every right-half element is ranked against its pair's left half with
    the cheapest exact kernel for that width:

    * ``w <= _DIRECT_WIDTH`` — one broadcast comparison per left column; a
      flat searchsorted would spend ~log2(num_pairs) probes per query merely
      re-locating the query's own pair.
    * mid widths — row-wise sort of the left halves plus one flat
      ``searchsorted``, with pairs packed into disjoint key ranges (32-bit
      keys when they fit).
    * ``span <= _HISTOGRAM_SPAN_FACTOR * w`` — a cumulative histogram of the
      left keys answers all queries with one gather.
    """
    rows, length = grid.shape
    counts = np.zeros_like(grid)
    if rows == 0 or length < 2:
        return counts
    values = grid
    key_dtype = None
    width = 1
    while width < length:
        pairs = values.reshape(-1, 2 * width)
        num_pairs = pairs.shape[0]
        out = counts.reshape(-1, 2 * width)[:, width:]
        if width <= _DIRECT_WIDTH:
            left = pairs[:, :width]
            right = pairs[:, width:]
            for column in range(width):
                out += left[:, column : column + 1] <= right
        elif span <= _HISTOGRAM_SPAN_FACTOR * width:
            offsets = np.arange(num_pairs, dtype=np.int64)[:, None] * span
            histogram = np.bincount(
                (pairs[:, :width] + offsets).ravel(), minlength=num_pairs * span
            )
            cumulative = np.cumsum(histogram)
            rank = cumulative[pairs[:, width:] + offsets]
            rank -= np.arange(num_pairs, dtype=np.int64)[:, None] * width
            out += rank.astype(counts.dtype, copy=False)
        else:
            if key_dtype is None:
                max_key = (values.size // (2 * width) + 1) * span
                key_dtype = np.int32 if max_key < _INT32_MAX else np.int64
                values = values.astype(key_dtype, copy=False)
                pairs = values.reshape(-1, 2 * width)
            offsets = np.arange(num_pairs, dtype=key_dtype)[:, None] * key_dtype(span)
            left_sorted = np.sort(pairs[:, :width], axis=1) + offsets
            right = pairs[:, width:] + offsets
            rank = np.searchsorted(left_sorted.ravel(), right.ravel(), side="right")
            rank = rank.reshape(num_pairs, width) - np.arange(num_pairs, dtype=np.int64)[:, None] * width
            out += rank.astype(counts.dtype, copy=False)
        width *= 2
    return counts


def prior_leq_counts(values: np.ndarray) -> np.ndarray:
    """For each element, count earlier elements less than or equal to it.

    Equivalent to ``[sum(v <= values[i] for v in values[:i]) for i in
    range(len(values))]`` but computed in ``O(n log^2 n)`` by
    :func:`_rank_grid` on a single padded row.
    """
    n = int(values.shape[0])
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    length = 1 << (n - 1).bit_length()
    row = np.zeros(length, dtype=np.int64)
    base = int(values.min())
    row[:n] = values - base + 1
    span = int(row[:n].max()) + 2
    return _rank_grid(row.reshape(1, length), span)[0, :n]


def occurrence_order(blocks: np.ndarray) -> np.ndarray:
    """Stable order grouping equal blocks together, time-ordered within.

    One radix argsort (narrowed to 32-bit when the block range allows): the
    previous-occurrence links of :func:`previous_occurrence_indices` and
    OPT's next-use links in NumPy are adjacent pairs of it.
    """
    base = int(blocks.min()) if blocks.size else 0
    sort_blocks = blocks
    if blocks.size and int(blocks.max()) - base < _UINT32_MAX:
        sort_blocks = (blocks - base).astype(np.uint32)
    return np.argsort(sort_blocks, kind="stable")


def previous_occurrence_indices(blocks: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same block, ``-1`` for the first."""
    n = int(blocks.shape[0])
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    occ = occurrence_order(blocks)
    occ_blocks = blocks[occ]
    same = occ_blocks[1:] == occ_blocks[:-1]
    prev[occ[1:][same]] = occ[:-1][same]
    return prev


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


def _stack_hits(
    prev_pos: np.ndarray,
    sets: np.ndarray,
    positions: np.ndarray,
    set_counts: np.ndarray,
    num_sets: int,
    ways: int,
) -> np.ndarray:
    """Hit mask for set-grouped accesses given within-set previous positions."""
    n = int(prev_pos.shape[0])
    max_count = int(set_counts.max()) if n else 0
    row_length = 1 << max(0, max_count - 1).bit_length() if max_count else 1
    if num_sets * row_length <= max(_MAX_PAD_FACTOR * n, 4096):
        # One grid row per set, holding prev + 1 (so pads, cold accesses and
        # the span are all known without scanning); tail padding is inert.
        slots = sets.astype(np.int64) * row_length + positions
        grid = np.zeros(num_sets * row_length, dtype=prev_pos.dtype)
        grid[slots] = prev_pos + prev_pos.dtype.type(1)
        ranks = _rank_grid(grid.reshape(num_sets, row_length), row_length + 2).ravel()[slots]
        depth = ranks - prev_pos - 1
        return (prev_pos >= 0) & (depth < ways)
    # Pathologically skewed set utilisation: rank each set on its own to
    # keep the padded footprint linear in the trace length.
    set_starts = np.concatenate(([0], np.cumsum(set_counts)))
    hits = np.zeros(n, dtype=bool)
    for set_index in range(num_sets):
        lo, hi = int(set_starts[set_index]), int(set_starts[set_index + 1])
        if hi == lo:
            continue
        p = prev_pos[lo:hi]
        depth = prior_leq_counts(p) - p - 1
        hits[lo:hi] = (p >= 0) & (depth < ways)
    return hits


class LRUStream:
    """Resumable exact LRU replay: feed a block stream in bounded chunks.

    Carries the full cache state — per-way tags plus recency stamps — across
    :meth:`feed` calls, so replaying a stream chunk by chunk produces hit
    masks and counters bit-identical to one replay over the concatenation,
    with peak memory O(chunk + num_sets * ways).

    The compiled kernel (when available) advances the persistent state
    in-line.  The NumPy stack-distance engine is a batch algorithm with no
    carried state, so the NumPy path *reconstructs* the state instead: each
    chunk is replayed behind a synthetic prefix that re-inserts every
    resident block in LRU→MRU order (at most ``num_sets * ways`` accesses,
    rebuilding the exact LRU stacks by the stack property), and the resident
    set is re-derived from the replayed stream afterwards.
    """

    def __init__(self, num_sets: int, ways: int, use_native: Optional[bool] = None) -> None:
        from repro.fastsim import kernels

        self.num_sets = num_sets
        self.ways = ways
        self._use_native = kernels.available() if use_native is None else bool(use_native)
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

    def resident_blocks_per_set(self) -> list[list[int]]:
        """Resident blocks per set in LRU→MRU order (state introspection)."""
        result = []
        for set_index in range(self.num_sets):
            row = slice(set_index * self.ways, (set_index + 1) * self.ways)
            tags, stamps = self.tags[row], self.stamps[row]
            occupied = np.flatnonzero(tags != -1)
            result.append(tags[occupied[np.argsort(stamps[occupied])]].tolist())
        return result

    def feed(self, block_addresses: np.ndarray) -> np.ndarray:
        """Replay one chunk; returns its hit mask and advances the state."""
        from repro.fastsim import kernels

        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        if blocks.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        hits = None
        if self._use_native:
            hits = kernels.lru_feed(
                blocks, self.num_sets, self.ways,
                self.tags, self.stamps, self.misses_per_set, self._state,
            )
        if hits is None:
            hits = self._numpy_feed(blocks)
        self.hit_count += int(hits.sum())
        return hits

    def _numpy_feed(self, blocks: np.ndarray) -> np.ndarray:
        num_sets, ways = self.num_sets, self.ways
        occupied = np.flatnonzero(self.tags != -1)
        prefix_order = np.lexsort((self.stamps[occupied], occupied // ways))
        prefix = self.tags[occupied][prefix_order]
        stream = np.concatenate([prefix, blocks]) if prefix.size else blocks
        stream_hits, _ = numpy_lru_replay(stream, num_sets, ways)
        hits = stream_hits[prefix.shape[0] :]
        chunk_sets = blocks & (num_sets - 1)
        self.misses_per_set += np.bincount(chunk_sets[~hits], minlength=num_sets)
        self._rebuild_residency(stream)
        return hits

    def _rebuild_residency(self, stream: np.ndarray) -> None:
        """Recompute tags/stamps: each set holds its W most recent distinct
        blocks, stamped in recency order."""
        num_sets, ways = self.num_sets, self.ways
        n = int(stream.shape[0])
        unique, reversed_first = np.unique(stream[::-1], return_index=True)
        last_pos = n - 1 - reversed_first
        sets = unique & (num_sets - 1)
        order = np.lexsort((last_pos, sets))
        counts = np.bincount(sets, minlength=num_sets)
        kept = np.minimum(counts, ways)
        ends = np.cumsum(counts)
        total = int(kept.sum())
        slot = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(kept) - kept, kept
        )
        chosen = order[np.repeat(ends - kept, kept) + slot]
        flat = np.repeat(np.arange(num_sets, dtype=np.int64) * ways, kept) + slot
        self.tags.fill(-1)
        self.stamps.fill(0)
        self.tags[flat] = unique[chosen]
        # Recency rank within the set is all that matters; keep the global
        # clock ahead of every stamp so a later chunk's ordering stays valid.
        self.stamps[flat] = slot + 1
        self._state[0] = ways + 1


def numpy_lru_replay(
    block_addresses: np.ndarray, num_sets: int, ways: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay ``block_addresses`` through a ``num_sets`` x ``ways`` LRU cache
    with the NumPy stack-distance engine.

    Returns the per-access hit mask (in trace order) and the per-set miss
    counts.  ``num_sets`` must be a power of two (the set index is
    ``block & mask``, matching :class:`repro.cache.cache.SetAssociativeCache`).
    This is the engine behind :class:`LRUStream`'s NumPy path.
    """
    blocks = np.asarray(block_addresses, dtype=np.int64)
    n = int(blocks.shape[0])
    if n == 0:
        return np.zeros(0, dtype=bool), np.zeros(num_sets, dtype=np.int64)

    # Positions fit 32-bit for any realistic trace; narrow dtypes halve the
    # memory traffic of both the radix argsorts and the index plumbing below.
    index_dtype = np.int32 if n < _INT32_MAX else np.int64

    set_ids = (blocks & (num_sets - 1)).astype(index_dtype)
    # Group accesses by set, preserving time order inside each group.
    sort_sets = set_ids.astype(np.uint16) if num_sets <= 1 << 16 else set_ids
    order = np.argsort(sort_sets, kind="stable")
    grouped_sets = set_ids[order]
    set_counts = np.bincount(grouped_sets, minlength=num_sets)
    set_starts = np.cumsum(np.concatenate(([0], set_counts))).astype(index_dtype)
    grouped_index = np.arange(n, dtype=index_dtype)
    within_set_pos = grouped_index - np.repeat(set_starts[:-1], set_counts)

    # Previous occurrence of each access's block, as a within-set position.
    # A block maps to exactly one set, so same-block links are same-set links.
    prev_indices = previous_occurrence_indices(blocks)
    original_pos = np.empty(n, dtype=index_dtype)
    original_pos[order] = within_set_pos
    has_link = prev_indices >= 0
    prev_pos_original = np.where(
        has_link,
        original_pos[np.where(has_link, prev_indices, 0)],
        index_dtype(-1),
    )
    prev_pos = prev_pos_original[order]

    # Run compression: an access whose immediately preceding same-set access
    # touched the same block is a guaranteed hit (its block sits on top of the
    # set's LRU stack) and leaves the stack unchanged, so it can be dropped
    # from the ranking problem.  Stack distances of the surviving accesses are
    # unaffected, provided their prev pointers are rewired to each run's head.
    immediate = (prev_pos >= 0) & (prev_pos == within_set_pos - 1)
    if immediate.any():
        kept = ~immediate
        run_head = np.maximum.accumulate(np.where(kept, grouped_index, -1))
        compressed_index = np.cumsum(kept, dtype=index_dtype) - index_dtype(1)
        kept_sets = grouped_sets[kept]
        kept_counts = np.bincount(kept_sets, minlength=num_sets)
        kept_starts = np.cumsum(np.concatenate(([0], kept_counts))).astype(index_dtype)
        kept_set_starts = kept_starts[kept_sets]
        kept_positions = compressed_index[kept] - kept_set_starts
        kept_prev = prev_pos[kept]
        has_prev = kept_prev >= 0
        prev_grouped = set_starts[kept_sets] + np.where(has_prev, kept_prev, 0)
        prev_head = run_head[prev_grouped]
        kept_prev_positions = np.where(
            has_prev, compressed_index[prev_head] - kept_set_starts, index_dtype(-1)
        )
        grouped_hits = np.ones(n, dtype=bool)
        grouped_hits[kept] = _stack_hits(
            kept_prev_positions, kept_sets, kept_positions, kept_counts, num_sets, ways
        )
    else:
        grouped_hits = _stack_hits(
            prev_pos, grouped_sets, within_set_pos, set_counts, num_sets, ways
        )

    hits = np.empty(n, dtype=bool)
    hits[order] = grouped_hits
    return hits, np.bincount(grouped_sets[~grouped_hits], minlength=num_sets)
