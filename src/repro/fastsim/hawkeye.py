"""Exact vectorized replay for Hawkeye (OPTgen-trained PC prediction).

:class:`~repro.cache.policies.hawkeye.HawkeyePolicy` couples every cache set
through one global PC predictor: accesses to sampled sets train it via the
per-set OPTgen reconstruction, every hit and insertion reads it, and
evictions of friendly lines detrain it.  What *does* batch under the RRIP
engine's chunking (every set at most once per chunk) is everything keyed by
per-set state alone:

* the broadcast tag compare classifying the whole chunk's hits;
* empty-way discovery and the victim way itself — Hawkeye's victim choice
  (leftmost saturated line, else the oldest line) reads only RRPVs, which a
  chunk's other accesses cannot touch;
* the tag scatter writes for the chunk's insertions.

The predictor reads (insertion/hit RRPVs depend on the PC's current
friendliness), detrains and OPTgen updates are then applied in exact trace
order by a walk over the chunk — the same pattern the RRIP engine uses for
PSEL, with a heavier per-event body.  The walk reuses the scalar policy's
:class:`~repro.cache.policies.hawkeye._OptGen` so the reconstruction cannot
drift from the reference; the compiled kernel reimplements it with dense
block/PC ids and ring-buffer occupancy vectors and is the throughput path
(the NumPy engine is the exactness/portability fallback, as for RRIP).

:class:`HawkeyeStream` is the engine: it runs the compiled kernel
(:func:`repro.fastsim.kernels.hawkeye_feed`) when one is available and the
OPTgen window is non-empty, and the NumPy walk otherwise; both are exact,
including the final predictor contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.hawkeye import HawkeyePolicy, _OptGen
from repro.fastsim import kernels
from repro.fastsim.leeway import _pc_array
from repro.fastsim.rrip import _chunk_end
from repro.fastsim.stackdist import (
    DenseIdMap,
    grow_to,
    previous_occurrence_indices,
)


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
    override any hook and silently diverge.
    """
    if type(policy) is not HawkeyePolicy:
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

    The two backends keep different state representations (the NumPy path
    reuses the scalar policy's :class:`_OptGen` objects, the compiled kernel
    dense ring buffers with grow-only block/PC id maps), so the backend is
    fixed at construction.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        spec: HawkeyeSpec,
        use_native: Optional[bool] = None,
    ) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.spec = spec
        self._history = spec.history_factor * ways
        if use_native is None:
            use_native = kernels.available() and self._history > 0
        self._use_native = bool(use_native)
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self.hit_count = 0
        if self._use_native:
            num_samplers = (num_sets + spec.sample_period - 1) // spec.sample_period
            self.tags = np.full(num_sets * ways, -1, dtype=np.int64)
            self.rrpv = np.full(num_sets * ways, spec.max_rrpv, dtype=np.int32)
            self._friendly = np.zeros(num_sets * ways, dtype=np.uint8)
            self._line_pc = np.zeros(num_sets * ways, dtype=np.int64)
            self._block_ids = DenseIdMap()
            self._pc_id_map = DenseIdMap()
            self._predictor = np.empty(0, dtype=np.int32)
            self._last_access = np.empty(0, dtype=np.int64)
            self._last_pc = np.empty(0, dtype=np.int64)
            self._occupancy = np.zeros(
                max(1, num_samplers * self._history), dtype=np.int32
            )
            self._occ_head = np.zeros(max(1, num_samplers), dtype=np.int64)
            self._occ_len = np.zeros(max(1, num_samplers), dtype=np.int64)
            self._timestamps = np.zeros(max(1, num_samplers), dtype=np.int64)
        else:
            self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
            self.rrpv = np.full((num_sets, ways), spec.max_rrpv, dtype=np.int64)
            self._friendly = [[False] * ways for _ in range(num_sets)]
            self._line_pc = [[0] * ways for _ in range(num_sets)]
            self._predictor_dict: Dict[int, int] = {}
            self._samplers: Dict[int, _OptGen] = {}

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
        if self._use_native:
            return {
                int(pc): int(value)
                for pc, value in zip(
                    self._pc_id_map.keys_in_id_order(), self._predictor.tolist()
                )
                if value != midpoint
            }
        return {
            pc: value
            for pc, value in self._predictor_dict.items()
            if value != midpoint
        }

    def feed(
        self, block_addresses: np.ndarray, pcs: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Replay one chunk; returns its hit mask and advances the state."""
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        n = int(blocks.shape[0])
        pc_values = _pc_array(pcs, n)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if self._use_native:
            hits = self._native_feed(blocks, pc_values)
        else:
            hits = self._numpy_feed(blocks, pc_values)
        self.hit_count += int(hits.sum())
        return hits

    def _native_feed(self, blocks: np.ndarray, pc_values: np.ndarray) -> np.ndarray:
        spec = self.spec
        block_ids = self._block_ids.map(blocks)
        pc_ids = self._pc_id_map.map(pc_values)
        self._predictor = grow_to(
            self._predictor, len(self._pc_id_map), spec.midpoint
        )
        self._last_access = grow_to(self._last_access, len(self._block_ids), -1)
        self._last_pc = grow_to(self._last_pc, len(self._block_ids), 0)
        hits = kernels.hawkeye_feed(
            blocks,
            block_ids,
            pc_ids,
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
        if hits is None:
            raise RuntimeError(
                "compiled Hawkeye kernel disappeared mid-stream; "
                "construct HawkeyeStream with use_native=False"
            )
        return hits

    def _numpy_feed(self, blocks: np.ndarray, pc_values: np.ndarray) -> np.ndarray:
        spec = self.spec
        num_sets, ways = self.num_sets, self.ways
        max_rrpv = spec.max_rrpv
        sample_period = spec.sample_period
        predictor_max = spec.predictor_max
        midpoint = spec.midpoint
        history = self._history
        predictor = self._predictor_dict
        samplers = self._samplers
        tags, rrpv = self.tags, self.rrpv
        friendly, line_pc = self._friendly, self._line_pc
        n = int(blocks.shape[0])
        hits = np.zeros(n, dtype=bool)
        set_ids = blocks & (num_sets - 1)
        prev = previous_occurrence_indices(set_ids)

        def train(pc: int, positive: bool) -> None:
            value = predictor.get(pc, midpoint)
            predictor[pc] = (
                min(predictor_max, value + 1) if positive else max(0, value - 1)
            )

        def observe(set_index: int, block: int, pc: int) -> None:
            sampler = samplers.get(set_index)
            if sampler is None:
                sampler = _OptGen(ways, history)
                samplers[set_index] = sampler
            training_pc, opt_hit = sampler.access(block, pc)
            if training_pc is not None:
                train(training_pc, opt_hit)

        position = 0
        while position < n:
            end = _chunk_end(prev, position, n)
            sets = set_ids[position:end]
            chunk_blocks = blocks[position:end]

            match = tags[sets] == chunk_blocks[:, None]
            is_hit = match.any(axis=1)
            hits[position:end] = is_hit
            hit_way = match.argmax(axis=1)
            # Victim preselection is predictor-independent (RRPVs only) and a
            # chunk's other accesses cannot touch this set's RRPVs, so it
            # batches; the no-saturated-line fallback must detrain during the
            # walk below.
            empty = tags[sets] == -1
            has_empty = empty.any(axis=1)
            empty_way = empty.argmax(axis=1)
            saturated = rrpv[sets] >= max_rrpv
            has_saturated = saturated.any(axis=1)
            saturated_way = saturated.argmax(axis=1)
            oldest_way = rrpv[sets].argmax(axis=1)

            sets_list = sets.tolist()
            blocks_list = chunk_blocks.tolist()
            pcs_list = pc_values[position:end].tolist()
            for k, (set_index, block, pc) in enumerate(
                zip(sets_list, blocks_list, pcs_list)
            ):
                sampled = set_index % sample_period == 0
                if is_hit[k]:
                    way = int(hit_way[k])
                    if sampled:
                        observe(set_index, block, pc)
                    is_friendly = predictor.get(pc, midpoint) >= midpoint
                    friendly[set_index][way] = is_friendly
                    line_pc[set_index][way] = pc
                    rrpv[set_index, way] = 0 if is_friendly else max_rrpv
                    continue
                if has_empty[k]:
                    way = int(empty_way[k])
                elif has_saturated[k]:
                    way = int(saturated_way[k])
                else:
                    way = int(oldest_way[k])
                    if friendly[set_index][way]:
                        train(line_pc[set_index][way], positive=False)
                if sampled:
                    observe(set_index, block, pc)
                is_friendly = predictor.get(pc, midpoint) >= midpoint
                if is_friendly:
                    # Age everyone else so older friendly lines eventually
                    # age out.
                    row = rrpv[set_index]
                    ageable = row < max_rrpv - 1
                    ageable[way] = False
                    row[ageable] += 1
                friendly[set_index][way] = is_friendly
                line_pc[set_index][way] = pc
                rrpv[set_index, way] = 0 if is_friendly else max_rrpv
                tags[set_index, way] = block
            position = end

        self.misses_per_set += np.bincount(set_ids[~hits], minlength=num_sets)
        return hits
