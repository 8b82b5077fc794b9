"""Kernel registry: lazy, capability-probed native compilation.

Engine-family modules (``kernels/lru.py``, ``kernels/rrip.py``, ...) each
declare a :class:`KernelSpec` — a C source fragment, the symbols it exports
with their ctypes signatures, and the capability names it provides — and
register it with :func:`register_kernel` at import time.  Registration is
pure bookkeeping: **nothing is compiled until the first kernel lookup**, so
importing the engines (``import repro.fastsim.plan`` imports every one)
stays cheap even on hosts with a C toolchain.

On first use the registry concatenates every registered fragment, in
registration order, into one translation unit and compiles it with the
system C compiler into a single shared object cached under the user cache
directory.  The cache key hashes the *composed source, the compiler flags
and the compiler itself*, so editing a fragment, changing flags, or
switching compilers forces a rebuild instead of silently loading a stale
kernel.  Failure at any point (no compiler, sandboxed exec, bad flags)
degrades to "no native kernels": :func:`lookup` returns ``None`` and every
engine falls back to its NumPy path.

Environment knobs:

``REPRO_NATIVE=0``
    Disable native kernels entirely (never compile, never load).
``REPRO_CC``
    C compiler executable (default ``cc``).  Pointing it at a missing or
    broken binary exercises the NumPy degradation path.
``REPRO_THREADS``
    Worker-thread count for the fused pipeline's filter phase
    (:func:`thread_count`); unset or ``1`` means single-threaded.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

#: Set to ``0`` to disable the native kernels entirely.
NATIVE_ENV_VAR = "REPRO_NATIVE"

#: C compiler used to build the kernel library (default ``cc``).
CC_ENV_VAR = "REPRO_CC"

#: Thread count for the fused pipeline's sharded filter phase.
THREADS_ENV_VAR = "REPRO_THREADS"

#: Base compiler flags; ``-pthread`` is appended when a threaded spec is in
#: the build (see :func:`_compose`).
BASE_CFLAGS: Tuple[str, ...] = ("-O3", "-shared", "-fPIC")

_HEADER = "#include <stdint.h>\n#include <stddef.h>\n"

# ctypes signature atoms used by KernelSpec.functions.
p_i64 = ctypes.POINTER(ctypes.c_int64)
p_i32 = ctypes.POINTER(ctypes.c_int32)
p_u8 = ctypes.POINTER(ctypes.c_uint8)
i64 = ctypes.c_int64
i32 = ctypes.c_int32


@dataclass(frozen=True)
class KernelSpec:
    """One engine family's native fragment.

    name:
        Unique registry key (e.g. ``"rrip"``).
    source:
        C fragment appended to the composed translation unit.  Fragments may
        reference ``static`` helpers from fragments registered *earlier*.
    functions:
        Exported symbol -> ctypes argtype list.  All kernels return void.
    capabilities:
        Names answerable through :func:`has_capability` (e.g.
        ``"replay:rrip"``, ``"fused:rrip"``).
    threaded:
        Fragment needs pthreads.  Threaded fragments are compiled with
        ``-pthread`` and dropped from a fallback single-thread build if the
        threaded build fails, so a toolchain without pthread support still
        gets the per-stage kernels.
    """

    name: str
    source: str
    functions: Dict[str, List[object]] = field(default_factory=dict)
    capabilities: Tuple[str, ...] = ()
    threaded: bool = False


_SPECS: "Dict[str, KernelSpec]" = {}

# Lazy resolution state: None = not attempted yet.
_RESOLVED: Optional[bool] = None
_LIB: Optional[ctypes.CDLL] = None
_FUNCTIONS: Dict[str, object] = {}
_CAPABILITIES: FrozenSet[str] = frozenset()


def register_kernel(spec: KernelSpec) -> None:
    """Register a family's kernel fragment (no compilation happens here)."""
    if spec.name in _SPECS:
        raise ValueError(f"kernel spec {spec.name!r} registered twice")
    if _RESOLVED is not None:
        raise RuntimeError(
            f"kernel spec {spec.name!r} registered after the library was resolved; "
            "call repro.fastsim.kernels.registry.reset() first"
        )
    _SPECS[spec.name] = spec


def registered() -> Tuple[str, ...]:
    """Names of all registered specs, in registration order."""
    return tuple(_SPECS)


def reset() -> None:
    """Forget any resolved library so the next lookup re-resolves (tests)."""
    global _RESOLVED, _LIB, _FUNCTIONS, _CAPABILITIES
    _RESOLVED = None
    _LIB = None
    _FUNCTIONS = {}
    _CAPABILITIES = frozenset()


def resolved() -> bool:
    """Whether resolution (compile/load) has been *attempted* yet."""
    return _RESOLVED is not None


def _compiler() -> str:
    return os.environ.get(CC_ENV_VAR, "").strip() or "cc"


def _compose(specs: Sequence[KernelSpec]) -> Tuple[str, Tuple[str, ...]]:
    """Concatenate fragments into one translation unit plus its flags."""
    flags = BASE_CFLAGS + (("-pthread",) if any(s.threaded for s in specs) else ())
    parts = [_HEADER]
    for spec in specs:
        parts.append(f"/* ---- kernel fragment: {spec.name} ---- */\n")
        parts.append(spec.source)
    return "".join(parts), flags


def build_key(source: str, flags: Sequence[str], compiler: str) -> str:
    """Cache key for a compiled artifact: source + flags + compiler."""
    blob = "\x00".join([compiler, " ".join(flags), source]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _build_dir(key: str) -> Path:
    name = f"repro_fastsim_{key}_py{sys.version_info[0]}{sys.version_info[1]}_{sys.platform}"
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    target = root / "repro-fastsim" / name
    try:
        target.mkdir(parents=True, exist_ok=True)
        target.chmod(0o700)
        return target
    except OSError:
        fallback = Path(tempfile.gettempdir()) / name
        fallback.mkdir(parents=True, exist_ok=True)
        return fallback


def _compile(source: str, flags: Sequence[str], compiler: str) -> Optional[Path]:
    """Compile the composed source, returning the cached ``.so`` path."""
    directory = _build_dir(build_key(source, flags, compiler))
    artifact = directory / "kernels.so"
    if artifact.exists():
        return artifact
    source_path = directory / "kernels.c"
    source_path.write_text(source)
    scratch = directory / f"kernels.{os.getpid()}.tmp.so"
    cmd = [compiler, *flags, "-o", str(scratch), str(source_path)]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0 or not scratch.exists():
        return None
    os.replace(scratch, artifact)  # atomic under concurrent builders
    return artifact


def _bind(lib: ctypes.CDLL, specs: Sequence[KernelSpec]) -> Optional[Dict[str, object]]:
    functions: Dict[str, object] = {}
    for spec in specs:
        for symbol, argtypes in spec.functions.items():
            try:
                fn = getattr(lib, symbol)
            except AttributeError:
                return None
            fn.argtypes = argtypes
            fn.restype = None
            functions[symbol] = fn
    return functions


def _try_build(specs: Sequence[KernelSpec]) -> Optional[Tuple[ctypes.CDLL, Dict[str, object]]]:
    if not specs:
        return None
    source, flags = _compose(specs)
    artifact = _compile(source, flags, _compiler())
    if artifact is None:
        return None
    try:
        lib = ctypes.CDLL(str(artifact))
    except OSError:
        return None
    functions = _bind(lib, specs)
    if functions is None:
        return None
    return lib, functions


def _resolve() -> bool:
    global _RESOLVED, _LIB, _FUNCTIONS, _CAPABILITIES
    if _RESOLVED is not None:
        return _RESOLVED
    if os.environ.get(NATIVE_ENV_VAR, "").strip() == "0" or not _SPECS:
        _RESOLVED = False
        return False
    specs = list(_SPECS.values())
    built = _try_build(specs)
    if built is None and any(s.threaded for s in specs):
        # pthread-less toolchain: retry without the threaded fragments so
        # the per-stage kernels still work.
        specs = [s for s in specs if not s.threaded]
        built = _try_build(specs)
    if built is None:
        _RESOLVED = False
        return False
    _LIB, _FUNCTIONS = built
    _CAPABILITIES = frozenset(cap for s in specs for cap in s.capabilities)
    _RESOLVED = True
    return True


def available() -> bool:
    """Whether the native kernel library is usable (compiles on first call)."""
    return _resolve()


def lookup(symbol: str):
    """The bound native function for ``symbol``, or ``None`` if unavailable."""
    if not _resolve():
        return None
    return _FUNCTIONS.get(symbol)


def capabilities() -> FrozenSet[str]:
    """Capability names provided by the resolved library (empty if none)."""
    _resolve()
    return _CAPABILITIES


def has_capability(name: str) -> bool:
    """Whether the resolved native library provides ``name``."""
    return name in capabilities()


def thread_count() -> int:
    """Requested fused-pipeline thread count (``REPRO_THREADS``, min 1)."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    return max(1, value)


# ---------------------------------------------------------------------------
# ctypes argument helpers shared by the family wrapper modules.


def as_i64(array) -> "ctypes.POINTER":
    return array.ctypes.data_as(p_i64)


def as_i32(array) -> "ctypes.POINTER":
    return array.ctypes.data_as(p_i32)


def as_u8(array) -> "ctypes.POINTER":
    return array.ctypes.data_as(p_u8)


__all__ = [
    "BASE_CFLAGS",
    "CC_ENV_VAR",
    "KernelSpec",
    "NATIVE_ENV_VAR",
    "THREADS_ENV_VAR",
    "available",
    "build_key",
    "capabilities",
    "has_capability",
    "lookup",
    "register_kernel",
    "registered",
    "reset",
    "resolved",
    "thread_count",
    "as_i64",
    "as_i32",
    "as_u8",
    "p_i64",
    "p_i32",
    "p_u8",
    "i64",
    "i32",
]
