"""Exact vectorized replay for Leeway (live-distance dead-block prediction).

:class:`~repro.cache.policies.leeway.LeewayPolicy` keeps a true LRU recency
stack per set plus per-line observed live distances, and one global
per-signature (PC) predictor updated on evictions with reuse-oriented bias.
The per-set state vectorizes with the RRIP engine's chunking: recency stacks
become a ``(num_sets, ways)`` *position* matrix (0 = MRU), so within a chunk
— where every set appears at most once — all hit bookkeeping (observed
live-distance maxima, move-to-MRU rotations) is batched array arithmetic.

The predictor is global: a victim's eviction may update the very signature a
later miss in another set consults, so victim selection and prediction
updates advance in trace order over the chunk's *misses only* (hits never
touch the predictor — the batched phase handles them entirely).  Victim
choice per miss is two array reductions on the set's position row: the
deepest predicted-dead line, else plain LRU.  PC signatures are densified
through a grow-only :class:`~repro.fastsim.stackdist.DenseIdMap` so the
predictor is flat arrays rather than dicts.

:class:`LeewayStream` is the engine: it advances its state through the
compiled kernel (:func:`repro.fastsim.kernels.leeway_feed`) when one is
available and through the NumPy sweeps otherwise; both are exact, including
the final predicted live distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.leeway import LeewayPolicy
from repro.fastsim import kernels
from repro.fastsim.rrip import _chunk_end
from repro.fastsim.stackdist import (
    DenseIdMap,
    grow_to,
    previous_occurrence_indices,
)


@dataclass(frozen=True)
class LeewaySpec:
    """Array-form description of one :class:`LeewayPolicy` instance."""

    decay_period: int


def leeway_spec(policy: ReplacementPolicy) -> Optional[LeewaySpec]:
    """Snapshot a policy into a :class:`LeewaySpec`, or ``None`` if ineligible.

    Restricted to the exact type :class:`LeewayPolicy` — a subclass could
    override any hook and silently diverge.
    """
    if type(policy) is not LeewayPolicy:
        return None
    return LeewaySpec(decay_period=policy.decay_period)


def _pc_array(pcs: Optional[np.ndarray], n: int) -> np.ndarray:
    """Normalise an optional PC stream to ``n`` values (0 when absent)."""
    if pcs is None:
        return np.zeros(n, dtype=np.int64)
    values = np.asarray(pcs, dtype=np.int64)
    if values.shape[0] != n:
        raise ValueError(f"pc stream length {values.shape[0]} != trace length {n}")
    return values


class LeewayStream:
    """Resumable exact Leeway replay: feed a block/PC stream in chunks.

    Carries tags, recency positions, observed live distances, per-line
    signatures and the global per-PC predictor across :meth:`feed` calls;
    chunked replay is bit-identical to one replay over the concatenation.
    PCs are densified incrementally (grow-only first-appearance ids), and
    the predictor/vote arrays grow with the id space.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        spec: LeewaySpec,
        use_native: Optional[bool] = None,
    ) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.spec = spec
        self._use_native = (
            kernels.available() if use_native is None else bool(use_native)
        )
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        # positions[s, w] is way w's depth in set s's recency stack (0 = MRU);
        # each row is a permutation of 0..ways-1, mirroring the scalar
        # policy's bind-time stack [0, 1, ..., ways-1].  int32 to match the
        # compiled kernel; the NumPy path shares the array.
        self.positions = np.tile(np.arange(ways, dtype=np.int32), (num_sets, 1))
        self.observed = np.zeros((num_sets, ways), dtype=np.int32)
        # Line signatures as dense PC ids; the initial value is never
        # consulted (victim search only runs on full sets, whose lines were
        # all inserted).
        self.line_sig = np.zeros((num_sets, ways), dtype=np.int64)
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self._pc_ids = DenseIdMap()
        self._predicted = np.empty(0, dtype=np.int64)
        self._votes = np.empty(0, dtype=np.int64)
        self.hit_count = 0

    @property
    def miss_count(self) -> int:
        """Total number of misses fed so far."""
        return int(self.misses_per_set.sum())

    @property
    def evictions(self) -> int:
        """Total evictions so far (Leeway never bypasses)."""
        return int(np.maximum(0, self.misses_per_set - self.ways).sum())

    @property
    def predicted_live_distances(self) -> Dict[int, int]:
        """Current predictor as ``{pc: live distance}`` over trained PCs."""
        return {
            int(pc): int(value)
            for pc, value in zip(
                self._pc_ids.keys_in_id_order(), self._predicted.tolist()
            )
            if value
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
        pc_ids = self._pc_ids.map(pc_values)
        self._predicted = grow_to(self._predicted, len(self._pc_ids), 0)
        self._votes = grow_to(self._votes, len(self._pc_ids), 0)
        hits = None
        if self._use_native:
            hits = kernels.leeway_feed(
                blocks,
                pc_ids,
                self.num_sets,
                self.ways,
                self.spec.decay_period,
                self.tags,
                self.positions,
                self.line_sig,
                self.observed,
                self._predicted,
                self._votes,
                self.misses_per_set,
            )
        if hits is None:
            hits = self._numpy_feed(blocks, pc_ids)
        self.hit_count += int(hits.sum())
        return hits

    def _numpy_feed(self, blocks: np.ndarray, pc_ids: np.ndarray) -> np.ndarray:
        num_sets = self.num_sets
        decay_period = self.spec.decay_period
        tags, positions = self.tags, self.positions
        observed, line_sig = self.observed, self.line_sig
        predicted, votes = self._predicted, self._votes
        n = int(blocks.shape[0])
        hits = np.zeros(n, dtype=bool)
        set_ids = blocks & (num_sets - 1)
        prev = previous_occurrence_indices(set_ids)

        position = 0
        while position < n:
            end = _chunk_end(prev, position, n)
            sets = set_ids[position:end]
            chunk_blocks = blocks[position:end]
            chunk_pcs = pc_ids[position:end]

            match = tags[sets] == chunk_blocks[:, None]
            is_hit = match.any(axis=1)
            hits[position:end] = is_hit

            if is_hit.any():
                # Batched hit phase (hits never touch the global predictor):
                # record live-distance maxima, then rotate each hit line to
                # MRU.
                hit_sets = sets[is_hit]
                hit_ways = match[is_hit].argmax(axis=1)
                rows = positions[hit_sets]
                depth = rows[np.arange(rows.shape[0]), hit_ways]
                observed[hit_sets, hit_ways] = np.maximum(
                    observed[hit_sets, hit_ways], depth
                )
                rows += rows < depth[:, None]
                rows[np.arange(rows.shape[0]), hit_ways] = 0
                positions[hit_sets] = rows

            if not is_hit.all():
                # Trace-order miss walk: victim selection reads the predictor
                # that earlier evictions (possibly in other sets) just
                # updated.
                miss = ~is_hit
                for pos_in_chunk in np.flatnonzero(miss).tolist():
                    set_index = int(sets[pos_in_chunk])
                    tag_row = tags[set_index]
                    empty = np.flatnonzero(tag_row == -1)
                    if empty.size:
                        way = int(empty[0])
                    else:
                        pos_row = positions[set_index]
                        sig_row = line_sig[set_index]
                        dead = pos_row > predicted[sig_row]
                        if dead.any():
                            # Deepest predicted-dead line == first dead line
                            # on the scalar LRU-to-MRU walk (positions are
                            # unique).
                            way = int(np.where(dead, pos_row, -1).argmax())
                        else:
                            way = int(pos_row.argmax())
                        # Eviction: reuse-oriented predictor update (grow
                        # fast, shrink only after decay_period consecutive
                        # votes).
                        signature = int(sig_row[way])
                        observation = int(observed[set_index, way])
                        prediction = int(predicted[signature])
                        if observation > prediction:
                            predicted[signature] = observation
                            votes[signature] = 0
                        elif observation < prediction:
                            votes[signature] += 1
                            if votes[signature] >= decay_period:
                                predicted[signature] = prediction - 1
                                votes[signature] = 0
                    tag_row[way] = chunk_blocks[pos_in_chunk]
                    line_sig[set_index, way] = chunk_pcs[pos_in_chunk]
                    observed[set_index, way] = 0
                    pos_row = positions[set_index]
                    pos_row += pos_row < pos_row[way]
                    pos_row[way] = 0
            position = end

        self.misses_per_set += np.bincount(set_ids[~hits], minlength=num_sets)
        return hits
