"""Exact vectorized replay for the XMem-style pinning policy (PIN-X).

:class:`~repro.cache.policies.pin.PinningPolicy` is DRRIP plus three per-set
extensions: a boolean pinned mask, a reserved-capacity cap on how many ways
may be pinned, and a BYPASS outcome when an insertion finds every way of a
full set pinned (possible only under PIN-100).  All of that state is per-set,
so the batched set-parallel chunking of the RRIP engine applies unchanged —
the pinned mask simply layers on top:

* hit promotions set RRPV 0 exactly like DRRIP, but skip already-pinned ways
  (their RRPV is pinned at 0 anyway) and may newly pin a High-Reuse line when
  reserved capacity remains;
* victim search runs age-until-saturated / leftmost-saturated over the
  *unpinned* ways only;
* every non-bypassed insertion feeds DRRIP's set duel (leader-set PSEL
  updates and the shared bimodal counter) via the same trace-order walk the
  RRIP engine uses (:func:`repro.fastsim.rrip._dynamic_insertions`), and
  pinned insertions then override the duel RRPV with hit priority —
  mirroring the bug-fixed scalar policy, where pinning no longer short-
  circuits the duel;
* bypassed accesses are counted (misses that evict nothing and insert
  nothing) and leave every piece of state untouched, including PSEL.

:class:`PinStream` is the engine: it advances its state through the
compiled kernel (:func:`repro.fastsim.kernels.pin_feed`) when one is
available and through the NumPy sweeps otherwise; both are exact, including
the final PSEL / bimodal-counter state and the per-set pinned populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cache.hints import HINT_HIGH
from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.pin import PinningPolicy
from repro.fastsim import kernels
from repro.fastsim.rrip import (
    RRIPSpec,
    _chunk_end,
    _dynamic_insertions,
    _hint_array,
)
from repro.fastsim.stackdist import previous_occurrence_indices


@dataclass(frozen=True)
class PinSpec:
    """Array-form description of one :class:`PinningPolicy` instance."""

    max_rrpv: int
    reserved_fraction: float
    epsilon: int
    psel_max: int
    leader_period: int

    def reserved_ways(self, ways: int) -> int:
        """Ways pinnable per set, with the scalar policy's exact rounding."""
        return max(1, int(round(ways * self.reserved_fraction)))

    def duel_spec(self) -> RRIPSpec:
        """The underlying DRRIP duel, for :func:`_dynamic_insertions`."""
        return RRIPSpec(
            max_rrpv=self.max_rrpv,
            insertion_table=(-1, -1, -1, -1),
            promotion_table=(0, 0, 0, 0),
            epsilon=self.epsilon,
            psel_max=self.psel_max,
            leader_period=self.leader_period,
        )


def pin_spec(policy: ReplacementPolicy) -> Optional[PinSpec]:
    """Snapshot a policy into a :class:`PinSpec`, or ``None`` if ineligible.

    Restricted to the exact type :class:`PinningPolicy` — a subclass could
    override any hook and silently diverge.
    """
    if type(policy) is not PinningPolicy:
        return None
    return PinSpec(
        max_rrpv=policy.max_rrpv,
        reserved_fraction=policy.reserved_fraction,
        epsilon=policy.epsilon,
        psel_max=policy.psel_max,
        leader_period=policy.LEADER_PERIOD,
    )


class PinStream:
    """Resumable exact PIN-X replay: feed a block/hint stream in chunks.

    Carries tags, RRPVs, the pinned masks and populations, and the global
    PSEL / bimodal counters across :meth:`feed` calls; chunked replay is
    bit-identical to one replay over the concatenation.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        spec: PinSpec,
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
        self.pinned = np.zeros((num_sets, ways), dtype=np.uint8)
        self.pinned_count = np.zeros(num_sets, dtype=np.int32)
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self.bypasses_per_set = np.zeros(num_sets, dtype=np.int64)
        self._state = np.array([spec.psel_max // 2, 0], dtype=np.int64)
        self.hit_count = 0

    @property
    def psel(self) -> int:
        """Current PSEL value."""
        return int(self._state[0])

    @property
    def insert_count(self) -> int:
        """Current bimodal insertion count."""
        return int(self._state[1])

    @property
    def miss_count(self) -> int:
        """Total misses fed so far (bypassed accesses included)."""
        return int(self.misses_per_set.sum())

    @property
    def bypass_count(self) -> int:
        """Total bypassed insertions so far."""
        return int(self.bypasses_per_set.sum())

    @property
    def evictions(self) -> int:
        """Total evictions so far: non-bypassed misses beyond capacity."""
        filled = self.misses_per_set - self.bypasses_per_set
        return int(np.maximum(0, filled - self.ways).sum())

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
            hits = kernels.pin_feed(
                blocks,
                hint_values.astype(np.uint8),
                self.num_sets,
                self.ways,
                self.spec.max_rrpv,
                self.spec.epsilon,
                self.spec.psel_max,
                self.spec.leader_period,
                self.spec.reserved_ways(self.ways),
                HINT_HIGH,
                self.tags,
                self.rrpv,
                self.pinned,
                self.pinned_count,
                self.misses_per_set,
                self.bypasses_per_set,
                self._state,
            )
        if hits is None:
            hits = self._numpy_feed(blocks, hint_values)
        self.hit_count += int(hits.sum())
        return hits

    def _numpy_feed(self, blocks: np.ndarray, hint_values: np.ndarray) -> np.ndarray:
        spec = self.spec
        num_sets, ways = self.num_sets, self.ways
        max_rrpv = spec.max_rrpv
        duel = spec.duel_spec()
        reserved = spec.reserved_ways(ways)
        tags, rrpv = self.tags, self.rrpv
        pinned = self.pinned.view(bool)
        pinned_count = self.pinned_count
        psel = int(self._state[0])
        insert_count = int(self._state[1])
        n = int(blocks.shape[0])
        hits = np.zeros(n, dtype=bool)
        set_ids = blocks & (num_sets - 1)
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
                already = pinned[hit_sets, hit_ways]
                # Both the pin-on-hit path and DRRIP's hit promotion assign
                # hit priority; only already-pinned lines are left untouched.
                rrpv[hit_sets[~already], hit_ways[~already]] = 0
                pin_now = (
                    ~already
                    & (chunk_hints[is_hit] == HINT_HIGH)
                    & (pinned_count[hit_sets] < reserved)
                )
                if pin_now.any():
                    pinned[hit_sets[pin_now], hit_ways[pin_now]] = True
                    pinned_count[hit_sets[pin_now]] += 1

            if not is_hit.all():
                miss = ~is_hit
                miss_sets = sets[miss]
                miss_hints = chunk_hints[miss]
                empty = tags[miss_sets] == -1
                has_empty = empty.any(axis=1)
                # A full set whose every way is pinned declines the insertion.
                bypass = ~has_empty & (pinned_count[miss_sets] >= ways)
                if bypass.any():
                    self.bypasses_per_set += np.bincount(
                        miss_sets[bypass], minlength=num_sets
                    )
                insert = ~bypass
                victim_way = np.empty(miss_sets.shape[0], dtype=np.int64)
                victim_way[has_empty] = empty[has_empty].argmax(axis=1)
                full = ~has_empty & insert
                full_sets = miss_sets[full]
                if full_sets.size:
                    full_rrpvs = rrpv[full_sets]
                    full_pinned = pinned[full_sets]
                    # Age only the unpinned ways until one saturates, then
                    # take the leftmost saturated unpinned way — the scalar
                    # loop in PinningPolicy.choose_victim collapsed into two
                    # reductions.
                    unpinned_max = np.where(full_pinned, -1, full_rrpvs).max(axis=1)
                    full_rrpvs = full_rrpvs + np.where(
                        full_pinned, 0, (max_rrpv - unpinned_max)[:, None]
                    ).astype(np.int32)
                    victim_way[full] = (
                        (full_rrpvs == max_rrpv) & ~full_pinned
                    ).argmax(axis=1)
                    rrpv[full_sets] = full_rrpvs
                if insert.any():
                    ins_sets = miss_sets[insert]
                    ins_hints = miss_hints[insert]
                    ins_ways = victim_way[insert]
                    # Every non-bypassed insertion feeds the DRRIP duel (the
                    # scalar bug fix), pinned or not.
                    values, psel, insert_count = _dynamic_insertions(
                        ins_sets, duel, psel, insert_count
                    )
                    pin_ins = (ins_hints == HINT_HIGH) & (pinned_count[ins_sets] < reserved)
                    values[pin_ins] = 0
                    tags[ins_sets, ins_ways] = chunk_blocks[miss][insert]
                    rrpv[ins_sets, ins_ways] = values
                    pinned[ins_sets, ins_ways] = pin_ins
                    if pin_ins.any():
                        pinned_count[ins_sets[pin_ins]] += 1
            position = end

        self.misses_per_set += np.bincount(set_ids[~hits], minlength=num_sets)
        self._state[0] = psel
        self._state[1] = insert_count
        return hits
