"""Exact replay for SHiP-MEM (memory-region signature SHiP).

:class:`~repro.cache.policies.ship.ShipMemPolicy` is SRRIP plus one global
learning structure: the Signature History Counter Table (SHCT), keyed by the
block's memory region.  A first reuse trains the line's signature up, an
eviction of a never-reused line trains it down, and every insertion reads
the incoming block's signature to pick between long (``max-1``) and distant
(``max``) re-reference insertion.  :class:`ShipStream` keeps the per-set
state (tags, RRPVs, per-line signature and reused bits) and the SHCT in
arrays, and the compiled kernel (:func:`repro.fastsim.kernels.ship_feed`)
advances them in trace order.  Signatures are densified through a grow-only
:class:`~repro.fastsim.stackdist.DenseIdMap` so the SHCT is a flat array
rather than a dict (the paper's table is unbounded, so no aliasing is
introduced).

The replay is exact, including the final SHCT contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.ship import ShipMemPolicy
from repro.fastsim import kernels
from repro.fastsim.kernels.fused import OUT_LLC_HIT
from repro.fastsim.stackdist import DenseIdMap, grow_to, outcome_vector

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
    (label-invariant, so outcomes are unchanged).  Building a stream on a
    host without the kernel library raises :class:`RuntimeError`.
    """

    def __init__(self, num_sets: int, ways: int, spec: ShipSpec) -> None:
        kernels.lookup("ship_replay")
        self.num_sets = num_sets
        self.ways = ways
        self.spec = spec
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

    def feed(
        self, block_addresses: np.ndarray, outcomes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Replay one chunk; returns its LLC hit mask and advances the state.

        With ``outcomes`` (see :func:`~repro.fastsim.stackdist.outcome_vector`)
        only the accesses marked 2 replay, and their codes are written into
        it in place.  Every access of the chunk gets a signature id, but
        only the replayed ones train the SHCT.
        """
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        n = int(blocks.shape[0])
        out = outcome_vector(outcomes, n)
        if n == 0:
            return np.zeros(0, dtype=bool)
        sig_ids = self._sig_ids.map(blocks >> self.spec.region_shift)
        self._shct = grow_to(self._shct, len(self._sig_ids), _UNSEEN)
        kernels.ship_feed(
            blocks,
            sig_ids,
            out,
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
        hits = out == OUT_LLC_HIT
        self.hit_count += int(np.count_nonzero(hits))
        return hits
