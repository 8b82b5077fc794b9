"""Exact vectorized replay for the RRIP family (SRRIP, BRRIP, DRRIP, GRASP).

Unlike LRU, RRIP-family policies have no stack property: hit/miss outcomes
depend on mutable per-way RRPV counters, on BRRIP's global bimodal insertion
counter and on DRRIP's set-dueling PSEL counter.  The engine here still
eliminates the per-access Python policy dispatch by keeping the whole
simulator state in NumPy arrays — one ``(num_sets, ways)`` tag array and one
``(num_sets, ways)`` RRPV array — and replaying the trace in *batched
set-parallel sweeps*:

1. The trace is cut into maximal trace-ordered chunks in which every cache
   set appears at most once (``_chunk_end`` finds each boundary from the
   previous-same-set links in amortized O(n)).  Within such a chunk no access
   depends on another access's per-set state, so the whole chunk is one batch
   of vectorized work: a single broadcast tag compare classifies every access,
   hit promotions and insertions are scatter writes, and victim selection
   (age-until-saturated + leftmost-max) is two array reductions per chunk.
2. The only state shared *across* sets — DRRIP's saturating PSEL counter and
   the bimodal insertion counter — is advanced in trace order inside the
   chunk: PSEL is walked over the chunk's (sparse) leader-set misses and every
   follower reads the value after the latest earlier leader update via one
   ``searchsorted``; bimodal counter values fall out of a cumulative sum.

The policy-specific rules are not hard-coded: each policy publishes its
insertion and hit-promotion behaviour in array form
(:meth:`~repro.cache.policies.rrip._RRIPBase.hint_insertion_table` /
``hint_promotion_table``), and :func:`rrip_spec` snapshots those tables plus
the duel parameters into an :class:`RRIPSpec`.  Only the four exact policy
types are eligible — a subclass could override any hook and silently diverge,
so :func:`rrip_spec` returns ``None`` for anything else and the caller falls
back to the scalar simulator.

:class:`RRIPStream` is the engine: it advances its state through the
compiled kernel (:func:`repro.fastsim.kernels.rrip_feed`) when one is
available and through the NumPy sweeps otherwise; both are exact, including
the final PSEL / bimodal-counter state, which the equivalence tests compare
against the scalar policies.  A one-shot replay is one :meth:`RRIPStream.feed`
on a fresh stream.

Chunk width — and with it the NumPy engine's batch parallelism — is bounded
by the number of LLC sets, which the scaled-down default geometry caps at
16.  The NumPy engine is therefore the exactness/portability fallback; the
compiled kernel is the throughput path and the one
``benchmarks/bench_rrip_throughput.py`` holds to the >=5x bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.core.grasp import GraspPolicy
from repro.fastsim import kernels
from repro.fastsim.stackdist import previous_occurrence_indices


@dataclass(frozen=True)
class RRIPSpec:
    """Array-form description of one RRIP-family policy instance.

    ``insertion_table`` / ``promotion_table`` are hint-indexed (4 entries);
    negative insertion entries mean "dynamic" (bimodal counter when
    ``psel_max == 0``, set duel otherwise) and negative promotion entries
    mean "decrement towards MRU".
    """

    max_rrpv: int
    insertion_table: Tuple[int, int, int, int]
    promotion_table: Tuple[int, int, int, int]
    #: Bimodal insertion period (0 when the policy never inserts bimodally).
    epsilon: int = 0
    #: PSEL saturation value; 0 disables set dueling (SRRIP/BRRIP).
    psel_max: int = 0
    #: One SRRIP leader and one BRRIP leader per ``leader_period`` sets.
    leader_period: int = 0

    @property
    def dueling(self) -> bool:
        """Whether the policy runs a DRRIP-style set duel."""
        return self.psel_max > 0


def rrip_spec(policy: ReplacementPolicy) -> Optional[RRIPSpec]:
    """Snapshot a policy into an :class:`RRIPSpec`, or ``None`` if ineligible.

    Restricted to the exact types :class:`SRRIPPolicy`, :class:`BRRIPPolicy`,
    :class:`DRRIPPolicy` and :class:`GraspPolicy` — subclasses (SHiP, Hawkeye,
    pinning, the GRASP ablations) override hooks the tables cannot express.
    """
    kind = type(policy)
    if kind is SRRIPPolicy:
        epsilon, psel_max, leader_period = 0, 0, 0
    elif kind is BRRIPPolicy:
        epsilon, psel_max, leader_period = policy.epsilon, 0, 0
    elif kind is DRRIPPolicy or kind is GraspPolicy:
        epsilon = policy.epsilon
        psel_max = policy.psel_max
        leader_period = policy.LEADER_PERIOD
    else:
        return None
    return RRIPSpec(
        max_rrpv=policy.max_rrpv,
        insertion_table=tuple(policy.hint_insertion_table()),
        promotion_table=tuple(policy.hint_promotion_table()),
        epsilon=epsilon,
        psel_max=psel_max,
        leader_period=leader_period,
    )


def _hint_array(hints: Optional[np.ndarray], n: int) -> np.ndarray:
    """Normalise an optional hint stream to ``n`` 2-bit values."""
    if hints is None:
        return np.zeros(n, dtype=np.int64)
    values = np.asarray(hints, dtype=np.int64) & 3
    if values.shape[0] != n:
        raise ValueError(f"hint stream length {values.shape[0]} != trace length {n}")
    return values


def _chunk_end(prev: np.ndarray, start: int, n: int) -> int:
    """First index past ``start`` whose set already appeared in the chunk.

    ``prev`` holds previous-same-set links; index ``i`` conflicts with the
    chunk ``[start, i)`` exactly when ``prev[i] >= start``.  Scanned in
    doubling windows so the total cost over all chunks stays linear.
    """
    lo = start + 1
    width = 64
    while lo < n:
        hi = min(n, lo + width)
        conflict = prev[lo:hi] >= start
        if conflict.any():
            return lo + int(conflict.argmax())
        lo = hi
        width *= 2
    return n


def _dynamic_insertions(
    miss_sets: np.ndarray, spec: RRIPSpec, psel: int, insert_count: int
) -> Tuple[np.ndarray, int, int]:
    """Insertion RRPVs for one chunk's dynamic misses, in trace order.

    Advances (and returns) the global PSEL and bimodal counters exactly as
    the scalar policies do: leader-set misses steer PSEL saturating by one,
    follower misses read the value left by the latest earlier leader update,
    and every bimodal insertion increments the shared counter whose value
    modulo ``epsilon`` picks the insertion position.
    """
    m = int(miss_sets.shape[0])
    max_rrpv = spec.max_rrpv
    values = np.full(m, max_rrpv - 1, dtype=np.int32)
    if not spec.dueling:
        bimodal = np.ones(m, dtype=bool)
    else:
        slot = miss_sets % spec.leader_period
        srrip_leader = slot == 0
        brrip_leader = slot == 1
        follower = ~(srrip_leader | brrip_leader)
        leader_positions = np.flatnonzero(~follower)
        # Saturating PSEL walk over the (sparse) leader misses of the chunk.
        psel_after = np.empty(leader_positions.shape[0] + 1, dtype=np.int64)
        psel_after[0] = psel
        for index, position in enumerate(leader_positions.tolist()):
            if srrip_leader[position]:
                if psel < spec.psel_max:
                    psel += 1
            elif psel > 0:
                psel -= 1
            psel_after[index + 1] = psel
        # A follower reads PSEL after the latest earlier leader update.
        follower_positions = np.flatnonzero(follower)
        reads = psel_after[np.searchsorted(leader_positions, follower_positions, side="left")]
        midpoint = (spec.psel_max + 1) // 2
        bimodal = brrip_leader.copy()
        bimodal[follower_positions] = reads >= midpoint
    counters = insert_count + np.cumsum(bimodal)
    bimodal_positions = np.flatnonzero(bimodal)
    values[bimodal_positions] = np.where(
        counters[bimodal_positions] % spec.epsilon == 0, max_rrpv - 1, max_rrpv
    )
    insert_count += int(bimodal_positions.shape[0])
    return values, psel, insert_count


class RRIPStream:
    """Resumable exact RRIP-family replay: feed a block stream in chunks.

    Carries the whole simulator state — tag and RRPV matrices plus the
    global PSEL / bimodal counters — across :meth:`feed` calls, so chunked
    replay is bit-identical to one replay over the concatenation.  The
    compiled kernel (when available) advances the state arrays in place; the
    NumPy path runs the batched set-parallel sweeps against the same arrays.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        spec: RRIPSpec,
        use_native: Optional[bool] = None,
    ) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.spec = spec
        self._use_native = (
            kernels.available() if use_native is None else bool(use_native)
        )
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        self.rrpv = np.full((num_sets, ways), spec.max_rrpv, dtype=np.int32)
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self._state = np.array([spec.psel_max // 2, 0], dtype=np.int64)
        self.hit_count = 0

    @property
    def psel(self) -> Optional[int]:
        """Current PSEL value (``None`` for non-dueling policies)."""
        return int(self._state[0]) if self.spec.dueling else None

    @property
    def insert_count(self) -> int:
        """Current bimodal insertion count."""
        return int(self._state[1])

    @property
    def miss_count(self) -> int:
        """Total number of misses fed so far."""
        return int(self.misses_per_set.sum())

    @property
    def evictions(self) -> int:
        """Total evictions so far (RRIP never bypasses)."""
        return int(np.maximum(0, self.misses_per_set - self.ways).sum())

    def feed(
        self, block_addresses: np.ndarray, hints: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Replay one chunk; returns its hit mask and advances the state."""
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        n = int(blocks.shape[0])
        hint_values = _hint_array(hints, n)
        if n == 0:
            return np.zeros(0, dtype=bool)
        hits = None
        if self._use_native:
            hits = kernels.rrip_feed(
                blocks,
                hint_values.astype(np.uint8),
                self.num_sets,
                self.ways,
                self.spec.max_rrpv,
                np.asarray(self.spec.insertion_table, dtype=np.int32),
                np.asarray(self.spec.promotion_table, dtype=np.int32),
                self.spec.epsilon,
                self.spec.psel_max,
                self.spec.leader_period,
                self.tags,
                self.rrpv,
                self.misses_per_set,
                self._state,
            )
        if hits is None:
            hits = self._numpy_feed(blocks, hint_values)
        self.hit_count += int(hits.sum())
        return hits

    def _numpy_feed(self, blocks: np.ndarray, hint_values: np.ndarray) -> np.ndarray:
        spec = self.spec
        num_sets = self.num_sets
        tags, rrpv = self.tags, self.rrpv
        psel = int(self._state[0])
        insert_count = int(self._state[1])
        n = int(blocks.shape[0])
        hits = np.zeros(n, dtype=bool)
        set_ids = blocks & (num_sets - 1)
        insertion_table = np.asarray(spec.insertion_table, dtype=np.int32)
        promotion_table = np.asarray(spec.promotion_table, dtype=np.int32)
        prev = previous_occurrence_indices(set_ids)

        position = 0
        while position < n:
            end = _chunk_end(prev, position, n)
            sets = set_ids[position:end]
            chunk_blocks = blocks[position:end]
            chunk_hints = hint_values[position:end]

            match = tags[sets] == chunk_blocks[:, None]
            is_hit = match.any(axis=1)
            hits[position:end] = is_hit

            if is_hit.any():
                hit_sets = sets[is_hit]
                hit_ways = match[is_hit].argmax(axis=1)
                promotion = promotion_table[chunk_hints[is_hit]]
                current = rrpv[hit_sets, hit_ways]
                rrpv[hit_sets, hit_ways] = np.where(
                    promotion >= 0, promotion, np.maximum(current - 1, 0)
                )

            if not is_hit.all():
                miss = ~is_hit
                miss_sets = sets[miss]
                # Fills take the leftmost empty way without ageing; victim
                # search (age every way until one saturates, take the
                # leftmost) only runs on full sets, like the scalar cache.
                empty = tags[miss_sets] == -1
                has_empty = empty.any(axis=1)
                victim_way = np.empty(miss_sets.shape[0], dtype=np.int64)
                victim_way[has_empty] = empty[has_empty].argmax(axis=1)
                full_sets = miss_sets[~has_empty]
                if full_sets.size:
                    full_rrpvs = rrpv[full_sets]
                    full_rrpvs += (spec.max_rrpv - full_rrpvs.max(axis=1))[:, None]
                    victim_way[~has_empty] = (full_rrpvs == spec.max_rrpv).argmax(axis=1)
                    rrpv[full_sets] = full_rrpvs
                insertion = insertion_table[chunk_hints[miss]]
                dynamic = insertion < 0
                if dynamic.any():
                    dynamic_values, psel, insert_count = _dynamic_insertions(
                        miss_sets[dynamic], spec, psel, insert_count
                    )
                    insertion[dynamic] = dynamic_values
                tags[miss_sets, victim_way] = chunk_blocks[miss]
                rrpv[miss_sets, victim_way] = insertion
            position = end

        self.misses_per_set += np.bincount(set_ids[~hits], minlength=num_sets)
        self._state[0] = psel
        self._state[1] = insert_count
        return hits
