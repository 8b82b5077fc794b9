"""Backend selection for the cache-simulation fast path.

Three backends exist:

``vector``
    The batched fast engines — one ``*Stream`` per policy family, running
    the compiled kernels (:mod:`repro.fastsim.kernels`) when available and
    NumPy otherwise.  The default.
``scalar``
    The original per-access reference simulator
    (:class:`repro.cache.cache.SetAssociativeCache`).
``verify``
    Equivalence-guard mode: run both paths and raise
    :class:`repro.fastsim.filter.FastSimMismatchError` unless every
    hit/miss/eviction count is identical, then return the vector result.

Resolution order for any simulation call: the explicit ``backend=`` argument,
else the process-wide default installed with :func:`set_default_backend`,
else the ``REPRO_SIM_BACKEND`` environment variable, else ``vector``.
"""

from __future__ import annotations

import os
from typing import Optional

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


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve an optional per-call backend to a concrete backend name."""
    if backend is None:
        return default_backend()
    return _validate(backend)
