"""Exact replay for Leeway (live-distance dead-block prediction).

:class:`~repro.cache.policies.leeway.LeewayPolicy` keeps a true LRU recency
stack per set plus per-line observed live distances, and one global
per-signature (PC) predictor updated on evictions with reuse-oriented bias.
:class:`LeewayStream` holds the recency stacks as a ``(num_sets, ways)``
*position* matrix (0 = MRU) next to the tags, observed live distances and
line signatures, and the compiled kernel
(:func:`repro.fastsim.kernels.leeway_feed`) advances them in trace order:
hits record live-distance maxima and rotate the line to MRU, and each miss
evicts the deepest predicted-dead line, else plain LRU, updating the
victim signature's prediction.  PC signatures are densified through a
grow-only :class:`~repro.fastsim.stackdist.DenseIdMap` so the predictor is
flat arrays rather than dicts.

The replay is exact, including the final predicted live distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.leeway import LeewayPolicy
from repro.fastsim import kernels
from repro.fastsim.kernels.fused import OUT_LLC_HIT
from repro.fastsim.stackdist import DenseIdMap, grow_to, outcome_vector


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
    the predictor/vote arrays grow with the id space.  Building a stream on
    a host without the kernel library raises :class:`RuntimeError`.
    """

    def __init__(self, num_sets: int, ways: int, spec: LeewaySpec) -> None:
        kernels.lookup("leeway_replay")
        self.num_sets = num_sets
        self.ways = ways
        self.spec = spec
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        # positions[s, w] is way w's depth in set s's recency stack (0 = MRU);
        # each row is a permutation of 0..ways-1, mirroring the scalar
        # policy's bind-time stack [0, 1, ..., ways-1].  int32 to match the
        # compiled kernel.
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
        self,
        block_addresses: np.ndarray,
        pcs: Optional[np.ndarray] = None,
        outcomes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Replay one chunk; returns its LLC hit mask and advances the state.

        With ``outcomes`` (see :func:`~repro.fastsim.stackdist.outcome_vector`)
        only the accesses marked 2 replay, and their codes are written into
        it in place.  Every access of the chunk gets a PC id, but only the
        replayed ones train the predictor.
        """
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        n = int(blocks.shape[0])
        pc_values = _pc_array(pcs, n)
        out = outcome_vector(outcomes, n)
        if n == 0:
            return np.zeros(0, dtype=bool)
        pc_ids = self._pc_ids.map(pc_values)
        self._predicted = grow_to(self._predicted, len(self._pc_ids), 0)
        self._votes = grow_to(self._votes, len(self._pc_ids), 0)
        kernels.leeway_feed(
            blocks,
            pc_ids,
            out,
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
        hits = out == OUT_LLC_HIT
        self.hit_count += int(np.count_nonzero(hits))
        return hits
