"""Exact replay for Hawkeye (OPTgen-trained PC prediction).

:class:`~repro.cache.policies.hawkeye.HawkeyePolicy` couples every cache set
through one global PC predictor: accesses to sampled sets train it via the
per-set OPTgen reconstruction, every hit and insertion reads it, and
evictions of friendly lines detrain it.  :class:`HawkeyeStream` keeps the
per-set state (tags, RRPVs, per-line friendliness and PCs), the predictor
and every sampled set's OPTgen window in flat arrays, with grow-only
:class:`~repro.fastsim.stackdist.DenseIdMap` numberings for blocks and PCs
and one ring buffer of occupancy counts per sampled set; the compiled
kernel (:func:`repro.fastsim.kernels.hawkeye_feed`) advances them in trace
order.

A policy with no OPTgen window (``history_factor <= 0``) has no such ring
buffer: :func:`hawkeye_spec` rejects it, so it replays through the scalar
reference like the GRASP ablation subclasses.

The replay is exact, including the final predictor contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.hawkeye import HawkeyePolicy
from repro.fastsim import kernels
from repro.fastsim.kernels.fused import OUT_LLC_HIT
from repro.fastsim.leeway import _pc_array
from repro.fastsim.stackdist import DenseIdMap, grow_to, outcome_vector


@dataclass(frozen=True)
class HawkeyeSpec:
    """Array-form description of one :class:`HawkeyePolicy` instance."""

    max_rrpv: int
    sample_period: int
    predictor_max: int
    history_factor: int

    @property
    def midpoint(self) -> int:
        """Predictor threshold at and above which a PC is cache-friendly."""
        return (self.predictor_max + 1) // 2


def hawkeye_spec(policy: ReplacementPolicy) -> Optional[HawkeyeSpec]:
    """Snapshot a policy into a :class:`HawkeyeSpec`, or ``None`` if ineligible.

    Restricted to the exact type :class:`HawkeyePolicy` — a subclass could
    override any hook and silently diverge — with a non-empty OPTgen window
    (``history_factor > 0``), which the kernel's ring buffers need.
    """
    if type(policy) is not HawkeyePolicy or policy.history_factor <= 0:
        return None
    return HawkeyeSpec(
        max_rrpv=policy.max_rrpv,
        sample_period=policy.sample_period,
        predictor_max=policy.predictor_max,
        history_factor=policy.history_factor,
    )


class HawkeyeStream:
    """Resumable exact Hawkeye replay: feed a block/PC stream in chunks.

    Carries tags, RRPVs, per-line friendliness/PCs, the global PC predictor
    and every sampled set's OPTgen reconstruction across :meth:`feed` calls;
    chunked replay is bit-identical to one replay over the concatenation.
    Building a stream on a host without the kernel library raises
    :class:`RuntimeError`.
    """

    def __init__(self, num_sets: int, ways: int, spec: HawkeyeSpec) -> None:
        kernels.lookup("hawkeye_replay")
        self.num_sets = num_sets
        self.ways = ways
        self.spec = spec
        self._history = spec.history_factor * ways
        if self._history <= 0:
            raise ValueError(
                "Hawkeye needs a non-empty OPTgen window (history_factor > 0); "
                "replay a windowless policy through the scalar reference"
            )
        num_samplers = (num_sets + spec.sample_period - 1) // spec.sample_period
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self.hit_count = 0
        self.tags = np.full(num_sets * ways, -1, dtype=np.int64)
        self.rrpv = np.full(num_sets * ways, spec.max_rrpv, dtype=np.int32)
        self._friendly = np.zeros(num_sets * ways, dtype=np.uint8)
        self._line_pc = np.zeros(num_sets * ways, dtype=np.int64)
        self._block_ids = DenseIdMap()
        self._pc_id_map = DenseIdMap()
        self._predictor = np.empty(0, dtype=np.int32)
        self._last_access = np.empty(0, dtype=np.int64)
        self._last_pc = np.empty(0, dtype=np.int64)
        self._occupancy = np.zeros(num_samplers * self._history, dtype=np.int32)
        self._occ_head = np.zeros(num_samplers, dtype=np.int64)
        self._occ_len = np.zeros(num_samplers, dtype=np.int64)
        self._timestamps = np.zeros(num_samplers, dtype=np.int64)

    @property
    def miss_count(self) -> int:
        """Total number of misses fed so far."""
        return int(self.misses_per_set.sum())

    @property
    def evictions(self) -> int:
        """Total evictions so far (Hawkeye never bypasses)."""
        return int(np.maximum(0, self.misses_per_set - self.ways).sum())

    @property
    def predictor(self) -> Dict[int, int]:
        """Current PC predictor, restricted to counters off the midpoint."""
        midpoint = self.spec.midpoint
        return {
            int(pc): int(value)
            for pc, value in zip(
                self._pc_id_map.keys_in_id_order(), self._predictor.tolist()
            )
            if value != midpoint
        }

    def feed(
        self,
        block_addresses: np.ndarray,
        pcs: Optional[np.ndarray] = None,
        outcomes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Replay one chunk; returns its LLC hit mask and advances the state.

        With ``outcomes`` (see :func:`~repro.fastsim.stackdist.outcome_vector`)
        only the accesses marked 2 replay, and their codes are written into
        it in place.  Every access of the chunk gets block and PC ids, but
        only the replayed ones train OPTgen and the predictor.
        """
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        n = int(blocks.shape[0])
        pc_values = _pc_array(pcs, n)
        out = outcome_vector(outcomes, n)
        if n == 0:
            return np.zeros(0, dtype=bool)
        spec = self.spec
        block_ids = self._block_ids.map(blocks)
        pc_ids = self._pc_id_map.map(pc_values)
        self._predictor = grow_to(
            self._predictor, len(self._pc_id_map), spec.midpoint
        )
        self._last_access = grow_to(self._last_access, len(self._block_ids), -1)
        self._last_pc = grow_to(self._last_pc, len(self._block_ids), 0)
        kernels.hawkeye_feed(
            blocks,
            block_ids,
            pc_ids,
            out,
            self.num_sets,
            self.ways,
            spec.max_rrpv,
            spec.sample_period,
            spec.predictor_max,
            self._history,
            self.tags,
            self.rrpv,
            self._friendly,
            self._line_pc,
            self._predictor,
            self._last_access,
            self._last_pc,
            self._occupancy,
            self._occ_head,
            self._occ_len,
            self._timestamps,
            self.misses_per_set,
        )
        hits = out == OUT_LLC_HIT
        self.hit_count += int(np.count_nonzero(hits))
        return hits
