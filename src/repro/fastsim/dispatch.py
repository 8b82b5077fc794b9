"""Backend selection for the cache-simulation fast path.

Three backends exist:

``vector``
    The fast engines — one ``*Stream`` per policy family, each running its
    compiled kernel (:mod:`repro.fastsim.kernels`).  The default.
``scalar``
    The original per-access reference simulator
    (:class:`repro.cache.cache.SetAssociativeCache`).
``verify``
    Equivalence-guard mode: run both paths and raise
    :class:`repro.fastsim.filter.FastSimMismatchError` unless every
    hit/miss/eviction count is identical, then return the vector result.

Resolution order for any simulation call: the explicit ``backend=`` argument,
else the process-wide default installed with :func:`set_default_backend`,
else the ``REPRO_SIM_BACKEND`` environment variable, else ``vector``.  On a
host where the kernel library cannot be built (no C compiler, or a broken
``REPRO_CC``), :func:`resolve_backend` turns ``vector`` and ``verify`` into
``scalar``: the numbers are the same, only slower.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.fastsim import kernels

SCALAR = "scalar"
VECTOR = "vector"
VERIFY = "verify"
BACKENDS = (SCALAR, VECTOR, VERIFY)

#: Environment variable overriding the default backend.
BACKEND_ENV_VAR = "REPRO_SIM_BACKEND"

_default_backend: Optional[str] = None


def _validate(name: str, source: Optional[str] = None) -> str:
    if name not in BACKENDS:
        origin = f" (from {source})" if source else ""
        raise ValueError(
            f"unknown simulation backend {name!r}{origin}; expected one of {BACKENDS}"
        )
    return name


def set_default_backend(name: Optional[str]) -> None:
    """Install a process-wide default backend (``None`` restores env/default).

    Accepts the same spellings as ``REPRO_SIM_BACKEND``: surrounding
    whitespace and case are normalized before validation.
    """
    global _default_backend
    _default_backend = (
        _validate(name.strip().lower()) if name is not None else None
    )


def default_backend() -> str:
    """The backend used when a call does not specify one."""
    if _default_backend is not None:
        return _default_backend
    env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if env:
        return _validate(env, source=BACKEND_ENV_VAR)
    return VECTOR


def resolve_backend(backend: Optional[str], native: Optional[bool] = None) -> str:
    """Resolve an optional per-call backend to the backend that will run.

    ``vector`` and ``verify`` need the compiled kernel library; when it is
    unavailable (``native`` false, or ``None`` and
    :func:`repro.fastsim.kernels.available` false) both resolve to
    ``scalar``, the per-access reference.
    """
    name = default_backend() if backend is None else _validate(backend)
    if name == SCALAR:
        return name
    if native is None:
        native = kernels.available()
    return name if native else SCALAR
