"""Exact vectorized replay for SHiP-MEM (memory-region signature SHiP).

:class:`~repro.cache.policies.ship.ShipMemPolicy` is SRRIP plus one global
learning structure: the Signature History Counter Table (SHCT), keyed by the
block's memory region.  Per-set state (tags, RRPVs, per-line signature and
reused bits) batches exactly like the RRIP engine — within a maximal
trace-ordered chunk every set appears at most once, so the tag compare, the
hit promotion (RRPV 0 for every hint) and the age-until-saturated victim
search are whole-chunk array operations.

The SHCT itself is shared *across* sets, so its reads and saturating updates
must advance in trace order: a first reuse trains the line's signature up, an
eviction of a never-reused line trains it down, and every insertion reads the
incoming block's signature to pick between long (``max-1``) and distant
(``max``) re-reference insertion.  Those events are sparse relative to the
trace (misses plus first-reuse hits only) and all their inputs — victim ways,
line signatures, reused bits — are known from the batched phase, so the
engine walks just the chunk's event positions in order, exactly like the
RRIP engine walks leader-set PSEL updates.  Signatures are densified through
a grow-only :class:`~repro.fastsim.stackdist.DenseIdMap` so the SHCT is a
flat array rather than a dict (the paper's table is unbounded, so no
aliasing is introduced).

:class:`ShipStream` is the engine: it advances its state through the
compiled kernel (:func:`repro.fastsim.kernels.ship_feed`) when one is
available and through the NumPy sweeps otherwise; both are exact, including
the final SHCT contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.ship import ShipMemPolicy
from repro.fastsim import kernels
from repro.fastsim.rrip import _chunk_end
from repro.fastsim.stackdist import (
    DenseIdMap,
    grow_to,
    previous_occurrence_indices,
)

#: SHCT value assumed for a signature that was never trained (weakly reused).
_UNSEEN = 1


@dataclass(frozen=True)
class ShipSpec:
    """Array-form description of one :class:`ShipMemPolicy` instance."""

    max_rrpv: int
    region_shift: int
    counter_max: int


def ship_spec(policy: ReplacementPolicy) -> Optional[ShipSpec]:
    """Snapshot a policy into a :class:`ShipSpec`, or ``None`` if ineligible.

    Restricted to the exact type :class:`ShipMemPolicy` — a subclass could
    override any hook and silently diverge.
    """
    if type(policy) is not ShipMemPolicy:
        return None
    return ShipSpec(
        max_rrpv=policy.max_rrpv,
        region_shift=policy.region_shift,
        counter_max=policy.counter_max,
    )


class ShipStream:
    """Resumable exact SHiP-MEM replay: feed a block stream in chunks.

    Carries tags, RRPVs, per-line signature/reused bits and the global SHCT
    across :meth:`feed` calls; chunked replay is bit-identical to one replay
    over the concatenation.  Signatures are densified incrementally through
    a grow-only id map, and the SHCT array grows with the id space
    (label-invariant, so outcomes are unchanged).
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        spec: ShipSpec,
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
        self.line_sig = np.zeros((num_sets, ways), dtype=np.int64)
        self.reused = np.zeros((num_sets, ways), dtype=np.uint8)
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self._sig_ids = DenseIdMap()
        self._shct = np.empty(0, dtype=np.int64)
        self.hit_count = 0

    @property
    def miss_count(self) -> int:
        """Total number of misses fed so far."""
        return int(self.misses_per_set.sum())

    @property
    def evictions(self) -> int:
        """Total evictions so far (SHiP never bypasses)."""
        return int(np.maximum(0, self.misses_per_set - self.ways).sum())

    @property
    def shct(self) -> Dict[int, int]:
        """Current SHCT as ``{signature: counter}`` over seen signatures."""
        return {
            int(signature): int(value)
            for signature, value in zip(
                self._sig_ids.keys_in_id_order(), self._shct.tolist()
            )
        }

    def feed(self, block_addresses: np.ndarray) -> np.ndarray:
        """Replay one chunk; returns its hit mask and advances the state."""
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        n = int(blocks.shape[0])
        if n == 0:
            return np.zeros(0, dtype=bool)
        sig_ids = self._sig_ids.map(blocks >> self.spec.region_shift)
        self._shct = grow_to(self._shct, len(self._sig_ids), _UNSEEN)
        hits = None
        if self._use_native:
            hits = kernels.ship_feed(
                blocks,
                sig_ids,
                self.num_sets,
                self.ways,
                self.spec.max_rrpv,
                self.spec.counter_max,
                self.tags,
                self.rrpv,
                self.line_sig,
                self.reused,
                self._shct,
                self.misses_per_set,
            )
        if hits is None:
            hits = self._numpy_feed(blocks, sig_ids)
        self.hit_count += int(hits.sum())
        return hits

    def _numpy_feed(self, blocks: np.ndarray, sig_ids: np.ndarray) -> np.ndarray:
        num_sets = self.num_sets
        max_rrpv = self.spec.max_rrpv
        counter_max = self.spec.counter_max
        tags, rrpv, line_sig = self.tags, self.rrpv, self.line_sig
        reused = self.reused.view(bool)
        shct = self._shct
        n = int(blocks.shape[0])
        hits = np.zeros(n, dtype=bool)
        set_ids = blocks & (num_sets - 1)
        prev = previous_occurrence_indices(set_ids)

        position = 0
        while position < n:
            end = _chunk_end(prev, position, n)
            sets = set_ids[position:end]
            chunk_blocks = blocks[position:end]
            chunk_sigs = sig_ids[position:end]

            match = tags[sets] == chunk_blocks[:, None]
            is_hit = match.any(axis=1)
            hits[position:end] = is_hit

            # Batched per-set phase: promotions, victim selection, reused
            # bits.  SHCT reads/updates are deferred to the trace-order walk
            # below.
            train_up = np.empty(0, dtype=np.int64)
            train_up_pos = np.empty(0, dtype=np.int64)
            if is_hit.any():
                hit_sets = sets[is_hit]
                hit_ways = match[is_hit].argmax(axis=1)
                rrpv[hit_sets, hit_ways] = 0
                first_reuse = ~reused[hit_sets, hit_ways]
                reused[hit_sets[first_reuse], hit_ways[first_reuse]] = True
                train_up = line_sig[hit_sets[first_reuse], hit_ways[first_reuse]]
                train_up_pos = np.flatnonzero(is_hit)[first_reuse]

            miss_pos = np.empty(0, dtype=np.int64)
            train_down = np.empty(0, dtype=np.int64)
            ins_sigs = np.empty(0, dtype=np.int64)
            miss_sets = victim_way = None
            if not is_hit.all():
                miss = ~is_hit
                miss_pos = np.flatnonzero(miss)
                miss_sets = sets[miss]
                empty = tags[miss_sets] == -1
                has_empty = empty.any(axis=1)
                victim_way = np.empty(miss_sets.shape[0], dtype=np.int64)
                victim_way[has_empty] = empty[has_empty].argmax(axis=1)
                full_sets = miss_sets[~has_empty]
                if full_sets.size:
                    full_rrpvs = rrpv[full_sets]
                    full_rrpvs += (max_rrpv - full_rrpvs.max(axis=1))[:, None]
                    victim_way[~has_empty] = (full_rrpvs == max_rrpv).argmax(axis=1)
                    rrpv[full_sets] = full_rrpvs
                # A capacity eviction of a never-reused line trains its
                # signature down; -1 marks fills (no eviction, nothing to
                # train).
                victim_sig = line_sig[miss_sets, victim_way]
                victim_reused = reused[miss_sets, victim_way]
                train_down = np.where(~has_empty & ~victim_reused, victim_sig, -1)
                ins_sigs = chunk_sigs[miss]
                # State writes independent of the SHCT can land now; the
                # insertion RRPVs are filled in by the walk below.
                tags[miss_sets, victim_way] = chunk_blocks[miss]
                line_sig[miss_sets, victim_way] = ins_sigs
                reused[miss_sets, victim_way] = False

            # Trace-order SHCT walk over the chunk's sparse events:
            # first-reuse hits train up, evictions train down, insertions
            # read.
            ins_values = np.empty(ins_sigs.shape[0], dtype=np.int32)
            up_iter = iter(zip(train_up_pos.tolist(), train_up.tolist()))
            next_up = next(up_iter, None)
            for index, (pos, down_sig, ins_sig) in enumerate(
                zip(miss_pos.tolist(), train_down.tolist(), ins_sigs.tolist())
            ):
                while next_up is not None and next_up[0] < pos:
                    up_sig = next_up[1]
                    if shct[up_sig] < counter_max:
                        shct[up_sig] += 1
                    next_up = next(up_iter, None)
                if down_sig >= 0 and shct[down_sig] > 0:
                    shct[down_sig] -= 1
                ins_values[index] = max_rrpv if shct[ins_sig] == 0 else max_rrpv - 1
            while next_up is not None:
                up_sig = next_up[1]
                if shct[up_sig] < counter_max:
                    shct[up_sig] += 1
                next_up = next(up_iter, None)
            if miss_pos.size:
                rrpv[miss_sets, victim_way] = ins_values
            position = end

        self.misses_per_set += np.bincount(set_ids[~hits], minlength=num_sets)
        return hits
