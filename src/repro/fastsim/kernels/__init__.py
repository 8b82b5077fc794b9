"""Native kernel registry and engine-family kernel modules.

Importing this package registers every engine family's
:class:`~repro.fastsim.kernels.registry.KernelSpec` (registration is pure
bookkeeping — see :mod:`repro.fastsim.kernels.registry`; nothing compiles
until the first lookup).  Import order matters: ``core`` defines the shared
``static inline`` C steps, the family fragments build on them, and ``fused``
(last) adds the L1/L2 filter that feeds their outcome vectors.
"""

from __future__ import annotations

from repro.fastsim.kernels.registry import (
    BASE_CFLAGS,
    CC_ENV_VAR,
    KernelSpec,
    available,
    build_key,
    capabilities,
    has_capability,
    lookup,
    register_kernel,
    registered,
    reset,
    resolved,
)

from repro.fastsim.kernels import core as _core  # noqa: F401  (registers "core")
from repro.fastsim.kernels.lru import lru_feed
from repro.fastsim.kernels.rrip import rrip_feed
from repro.fastsim.kernels.pin import pin_feed
from repro.fastsim.kernels.opt import opt_feed, opt_next_use
from repro.fastsim.kernels.ship import ship_feed
from repro.fastsim.kernels.leeway import leeway_feed
from repro.fastsim.kernels.hawkeye import hawkeye_feed
from repro.fastsim.kernels.fused import FilterState, RegionTable, fused_filter_feed

__all__ = [
    "BASE_CFLAGS",
    "CC_ENV_VAR",
    "FilterState",
    "KernelSpec",
    "RegionTable",
    "available",
    "build_key",
    "capabilities",
    "fused_filter_feed",
    "has_capability",
    "hawkeye_feed",
    "leeway_feed",
    "lookup",
    "lru_feed",
    "opt_feed",
    "opt_next_use",
    "pin_feed",
    "register_kernel",
    "registered",
    "reset",
    "resolved",
    "rrip_feed",
    "ship_feed",
]
