"""Exact replay for the XMem-style pinning policy (PIN-X).

:class:`~repro.cache.policies.pin.PinningPolicy` is DRRIP plus three per-set
extensions: a boolean pinned mask, a reserved-capacity cap on how many ways
may be pinned, and a BYPASS outcome when an insertion finds every way of a
full set pinned (possible only under PIN-100).  :class:`PinStream` keeps that
state next to the RRIP engine's tags, RRPVs and duel counters, and the
compiled kernel (:func:`repro.fastsim.kernels.pin_feed`) applies the rules:

* hit promotions set RRPV 0 exactly like DRRIP, but skip already-pinned ways
  (their RRPV is pinned at 0 anyway) and may newly pin a High-Reuse line when
  reserved capacity remains;
* victim search runs age-until-saturated / leftmost-saturated over the
  *unpinned* ways only;
* every non-bypassed insertion feeds DRRIP's set duel (leader-set PSEL
  updates and the shared bimodal counter), and pinned insertions then
  override the duel RRPV with hit priority — mirroring the bug-fixed scalar
  policy, where pinning no longer short-circuits the duel;
* bypassed accesses are counted (misses that evict nothing and insert
  nothing) and leave every piece of state untouched, including PSEL.

The replay is exact, including the final PSEL / bimodal-counter state and
the per-set pinned populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cache.hints import HINT_HIGH
from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.pin import PinningPolicy
from repro.fastsim import kernels
from repro.fastsim.kernels.fused import OUT_LLC_HIT
from repro.fastsim.rrip import _hint_array
from repro.fastsim.stackdist import outcome_vector


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
    bit-identical to one replay over the concatenation.  Building a stream
    on a host without the kernel library raises :class:`RuntimeError`.
    """

    def __init__(self, num_sets: int, ways: int, spec: PinSpec) -> None:
        kernels.lookup("pin_replay")
        self.num_sets = num_sets
        self.ways = ways
        self.spec = spec
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        self.rrpv = np.full((num_sets, ways), spec.max_rrpv, dtype=np.int32)
        self.pinned = np.zeros((num_sets, ways), dtype=np.uint8)
        self.pinned_count = np.zeros(num_sets, dtype=np.int32)
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self.bypasses_per_set = np.zeros(num_sets, dtype=np.int64)
        self._state = np.array([spec.psel_max // 2, 0], dtype=np.int64)
        self._reserved_ways = spec.reserved_ways(ways)
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
        self,
        block_addresses: np.ndarray,
        hints: Optional[np.ndarray] = None,
        outcomes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Replay one chunk; returns its LLC hit mask and advances the state.

        With ``outcomes`` (see :func:`~repro.fastsim.stackdist.outcome_vector`)
        only the accesses marked 2 replay, and their codes (4 for a bypass)
        are written into it in place.
        """
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        n = int(blocks.shape[0])
        hint_values = _hint_array(hints, n)
        out = outcome_vector(outcomes, n)
        if n == 0:
            return np.zeros(0, dtype=bool)
        kernels.pin_feed(
            blocks,
            hint_values,
            out,
            self.num_sets,
            self.ways,
            self.spec.max_rrpv,
            self.spec.epsilon,
            self.spec.psel_max,
            self.spec.leader_period,
            self._reserved_ways,
            HINT_HIGH,
            self.tags,
            self.rrpv,
            self.pinned,
            self.pinned_count,
            self.misses_per_set,
            self.bypasses_per_set,
            self._state,
        )
        hits = out == OUT_LLC_HIT
        self.hit_count += int(np.count_nonzero(hits))
        return hits
