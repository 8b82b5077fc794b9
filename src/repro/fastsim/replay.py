"""LLC replay dispatch for the schemes the fast engines cover.

Every replacement scheme of the paper's evaluation has one exact stream
engine: :class:`~repro.fastsim.stackdist.LRUStream` for plain LRU,
:class:`~repro.fastsim.rrip.RRIPStream` for SRRIP/BRRIP/DRRIP/GRASP, and
the SHiP-MEM, Hawkeye, Leeway, PIN-X and Belady-OPT streams of
:mod:`repro.fastsim.ship`, :mod:`~repro.fastsim.hawkeye`,
:mod:`~repro.fastsim.leeway`, :mod:`~repro.fastsim.pin` and
:mod:`~repro.fastsim.opt`.  A one-shot replay is one ``feed`` on a fresh
stream.  Only the GRASP ablation variants — subclasses that override hooks
the array specs cannot express — remain scalar-only.

:func:`_family` resolves a policy to its engine family for every fast path,
:func:`supports_vector_replay` is the dispatch predicate the planner
(:mod:`repro.fastsim.plan`) routes on, and
:class:`PolicyReplayStream` wraps a family's engine with the per-region
statistics of Fig. 2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.policies import LRUPolicy
from repro.cache.policies.opt import BeladyOptimal
from repro.cache.stats import CacheStats
from repro.fastsim.hawkeye import HawkeyeStream, hawkeye_spec
from repro.fastsim.leeway import LeewayStream, leeway_spec
from repro.fastsim.opt import OptStream, next_use_indices
from repro.fastsim.pin import PinStream, pin_spec
from repro.fastsim.rrip import RRIPStream, rrip_spec
from repro.fastsim.ship import ShipStream, ship_spec
from repro.fastsim.stackdist import LRUStream

#: Spec-driven engine families -> (spec snapshot, stream engine), in the
#: order :func:`_family` probes them.
_SPEC_FAMILIES = {
    "rrip": (rrip_spec, RRIPStream),
    "pin": (pin_spec, PinStream),
    "ship": (ship_spec, ShipStream),
    "hawkeye": (hawkeye_spec, HawkeyeStream),
    "leeway": (leeway_spec, LeewayStream),
}


def _family(policy) -> Optional[str]:
    """The engine family that replays ``policy`` exactly, ``None`` if none.

    The one resolver every fast path shares (replay, fused pipeline,
    planner).  Belady's OPT is offline and has no online family.
    """
    if type(policy) is LRUPolicy:
        return "lru"
    for family, (spec, _) in _SPEC_FAMILIES.items():
        if spec(policy) is not None:
            return family
    return None


def supports_vector_replay(policy) -> bool:
    """Whether a fast engine reproduces this policy exactly.

    Restricted to exact policy types — :class:`LRUPolicy`, the four
    RRIP-family policies :func:`repro.fastsim.rrip.rrip_spec` recognises
    (SRRIP/BRRIP/DRRIP/GRASP), :class:`~repro.cache.policies.ship.ShipMemPolicy`,
    :class:`~repro.cache.policies.hawkeye.HawkeyePolicy`,
    :class:`~repro.cache.policies.leeway.LeewayPolicy`,
    :class:`~repro.cache.policies.pin.PinningPolicy` and the offline
    :class:`~repro.cache.policies.opt.BeladyOptimal` wrapper.  A subclass
    could override any hook and silently diverge, so anything else falls
    back to the scalar simulator.
    """
    return type(policy) is BeladyOptimal or _family(policy) is not None


def _region_breakdown(hits: np.ndarray, regions: Optional[np.ndarray]):
    """Per-region access/miss counts (Fig. 2) from a replay's hit mask."""
    if regions is None or not len(regions):
        return None, None
    labels = np.asarray(regions, dtype=np.int64)
    access_counts = np.bincount(labels)
    miss_counts = np.bincount(labels[~hits], minlength=access_counts.shape[0])
    region_accesses = {
        region: int(count) for region, count in enumerate(access_counts) if count
    }
    region_misses = {
        region: int(count) for region, count in enumerate(miss_counts) if count
    }
    return region_accesses, region_misses


def vector_opt_replay(
    block_addresses: np.ndarray, llc_config: CacheConfig
) -> CacheStats:
    """Belady's OPT statistics for an LLC trace via the vectorized engine.

    One :class:`~repro.fastsim.opt.OptStream` feed of the whole trace with
    its next-use links.  Mirrors
    :func:`repro.cache.policies.opt.simulate_opt_misses` (including the
    ``-OPT`` stats name); the scalar reference records no per-region
    breakdown, so neither does this path.
    """
    blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
    engine = OptStream(llc_config.num_sets, llc_config.ways)
    engine.feed(blocks, next_use_indices(blocks))
    return CacheStats.from_counts(
        name=f"{llc_config.name}-OPT",
        hits=engine.hit_count,
        misses=engine.miss_count,
        evictions=engine.evictions,
    )


class PolicyReplayStream:
    """Resumable LLC replay under any policy :func:`supports_vector_replay`
    accepts, except the offline :class:`BeladyOptimal` (OPT over a chunk
    stream is two-pass: :func:`~repro.fastsim.opt.resolve_chunk_next_use`
    backwards, then an :class:`~repro.fastsim.opt.OptStream` forwards).

    Feed aligned (blocks, hints, regions, pcs) chunks, then read
    :meth:`stats`.  Chunked replay is bit-identical to one feed of the
    concatenation, including the final policy state, which is exposed via
    the underlying ``engine`` attribute (the family's ``*Stream`` object
    carrying PSEL, SHCT, predictor tables, pinned populations, ...).
    """

    def __init__(self, policy, llc_config: CacheConfig, use_native=None) -> None:
        if type(policy) is BeladyOptimal:
            raise ValueError(
                "BeladyOptimal has no online stream; replay it through OptStream"
            )
        family = _family(policy)
        if family is None:
            raise ValueError(
                f"policy {policy!r} has no vectorized replay engine; "
                "use supports_vector_replay() before dispatching"
            )
        self.llc_config = llc_config
        self.family = family
        num_sets, ways = llc_config.num_sets, llc_config.ways
        if family == "lru":
            self.engine = LRUStream(num_sets, ways, use_native=use_native)
        else:
            spec, engine = _SPEC_FAMILIES[family]
            self.engine = engine(num_sets, ways, spec(policy), use_native=use_native)
        self._region_accesses: dict = {}
        self._region_misses: dict = {}

    def feed(
        self,
        block_addresses: np.ndarray,
        hints: Optional[np.ndarray] = None,
        regions: Optional[np.ndarray] = None,
        pcs: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Replay one chunk; returns its hit mask and advances the state."""
        if self.family in ("rrip", "pin"):
            hits = self.engine.feed(block_addresses, hints)
        elif self.family in ("hawkeye", "leeway"):
            hits = self.engine.feed(block_addresses, pcs)
        else:
            hits = self.engine.feed(block_addresses)
        region_accesses, region_misses = _region_breakdown(hits, regions)
        if region_accesses is not None:
            for region, count in region_accesses.items():
                self._region_accesses[region] = (
                    self._region_accesses.get(region, 0) + count
                )
            for region, count in region_misses.items():
                self._region_misses[region] = self._region_misses.get(region, 0) + count
        return hits

    def stats(self) -> CacheStats:
        """Aggregate :class:`CacheStats` over everything fed so far."""
        bypasses = self.engine.bypass_count if self.family == "pin" else 0
        return CacheStats.from_counts(
            name=self.llc_config.name,
            hits=self.engine.hit_count,
            misses=self.engine.miss_count,
            evictions=self.engine.evictions,
            bypasses=bypasses,
            region_accesses=self._region_accesses or None,
            region_misses=self._region_misses or None,
        )

    def finish(self) -> CacheStats:
        """Alias of :meth:`stats`, closing the begin/feed/finish cycle."""
        return self.stats()


def vector_policy_replay(
    policy,
    block_addresses: np.ndarray,
    llc_config: CacheConfig,
    hints: Optional[np.ndarray] = None,
    regions: Optional[np.ndarray] = None,
    pcs: Optional[np.ndarray] = None,
) -> CacheStats:
    """Replay an LLC trace under any policy :func:`supports_vector_replay` accepts.

    One :class:`PolicyReplayStream` feed of the whole trace (Belady's OPT
    goes to :func:`vector_opt_replay`).  ``hints`` is the 2-bit GRASP
    reuse-hint stream aligned with ``block_addresses`` (``None`` replays
    hint-blind, like the scalar simulator with ``use_hints=False``); GRASP's
    tables and PIN's pinning decisions consult it.  ``regions`` (when given)
    produces the per-region access/miss breakdown the scalar simulator
    records for Fig. 2.  ``pcs`` is the synthetic program-counter stream the
    PC-indexed schemes (Hawkeye, Leeway) train on (``None`` replays with a
    constant PC, like the scalar simulator's default).
    """
    if type(policy) is BeladyOptimal:
        return vector_opt_replay(block_addresses, llc_config)
    stream = PolicyReplayStream(policy, llc_config)
    stream.feed(block_addresses, hints=hints, regions=regions, pcs=pcs)
    return stream.stats()
