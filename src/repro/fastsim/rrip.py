"""Exact replay for the RRIP family (SRRIP, BRRIP, DRRIP, GRASP).

Unlike LRU, RRIP-family policies have no stack property: hit/miss outcomes
depend on mutable per-way RRPV counters, on BRRIP's global bimodal insertion
counter and on DRRIP's set-dueling PSEL counter.  :class:`RRIPStream` keeps
that whole simulator state in arrays — one ``(num_sets, ways)`` tag array,
one ``(num_sets, ways)`` RRPV array and the ``[psel, insert_count]`` pair —
and the compiled kernel (:func:`repro.fastsim.kernels.rrip_feed`) advances
it access by access, so no per-access Python policy dispatch remains.

The policy-specific rules are not hard-coded: each policy publishes its
insertion and hit-promotion behaviour in array form
(:meth:`~repro.cache.policies.rrip._RRIPBase.hint_insertion_table` /
``hint_promotion_table``), and :func:`rrip_spec` snapshots those tables plus
the duel parameters into an :class:`RRIPSpec`.  Only the four exact policy
types are eligible — a subclass could override any hook and silently diverge,
so :func:`rrip_spec` returns ``None`` for anything else and the caller falls
back to the scalar simulator.

The replay is exact, including the final PSEL / bimodal-counter state, which
the equivalence tests compare against the scalar policies.  A one-shot
replay is one :meth:`RRIPStream.feed` on a fresh stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.core.grasp import GraspPolicy
from repro.fastsim import kernels
from repro.fastsim.kernels.fused import OUT_LLC_HIT
from repro.fastsim.stackdist import outcome_vector


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
    """An optional hint stream as ``n`` uint8 values whose low 2 bits count.

    A uint8 stream (the fused filter's) passes through as it is: the
    kernels read ``hint & 3``.
    """
    if hints is None:
        return np.zeros(n, dtype=np.uint8)
    values = np.asarray(hints)
    if values.shape[0] != n:
        raise ValueError(f"hint stream length {values.shape[0]} != trace length {n}")
    if values.dtype != np.uint8:
        values = (values.astype(np.int64) & 3).astype(np.uint8)
    return np.ascontiguousarray(values)


class RRIPStream:
    """Resumable exact RRIP-family replay: feed a block stream in chunks.

    Carries the whole simulator state — tag and RRPV matrices plus the
    global PSEL / bimodal counters — across :meth:`feed` calls, so chunked
    replay is bit-identical to one replay over the concatenation.  The
    compiled kernel advances the state arrays in place; building a stream
    on a host without the kernel library raises :class:`RuntimeError`.
    """

    def __init__(self, num_sets: int, ways: int, spec: RRIPSpec) -> None:
        kernels.lookup("rrip_replay")
        self.num_sets = num_sets
        self.ways = ways
        self.spec = spec
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        self.rrpv = np.full((num_sets, ways), spec.max_rrpv, dtype=np.int32)
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self._state = np.array([spec.psel_max // 2, 0], dtype=np.int64)
        self._ins_table = np.asarray(spec.insertion_table, dtype=np.int32)
        self._promo_table = np.asarray(spec.promotion_table, dtype=np.int32)
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
        self,
        block_addresses: np.ndarray,
        hints: Optional[np.ndarray] = None,
        outcomes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Replay one chunk; returns its LLC hit mask and advances the state.

        With ``outcomes`` (see :func:`~repro.fastsim.stackdist.outcome_vector`)
        only the accesses marked 2 replay, and their codes are written into
        it in place.
        """
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        n = int(blocks.shape[0])
        hint_values = _hint_array(hints, n)
        out = outcome_vector(outcomes, n)
        if n == 0:
            return np.zeros(0, dtype=bool)
        kernels.rrip_feed(
            blocks,
            hint_values,
            out,
            self.num_sets,
            self.ways,
            self.spec.max_rrpv,
            self._ins_table,
            self._promo_table,
            self.spec.epsilon,
            self.spec.psel_max,
            self.spec.leader_period,
            self.tags,
            self.rrpv,
            self.misses_per_set,
            self._state,
        )
        hits = out == OUT_LLC_HIT
        self.hit_count += int(np.count_nonzero(hits))
        return hits
