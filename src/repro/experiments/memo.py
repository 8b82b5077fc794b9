"""On-disk memoisation of workloads, filtered streams and policy runs.

The in-memory memo tables in :mod:`repro.experiments.runner` only live for
one process; this module persists the same artifacts so that separate
invocations (each figure/table benchmark, every worker of a sweep) reuse
each other's work.  There are five kinds, one directory each:

``<root>/v4/workload/<sha256>.pkl``
    Built :class:`~repro.experiments.runner.Workload` objects, keyed by the
    in-memory workload memo key (app, dataset, reorder, scale, seed, merged).
``<root>/v4/llcchunk/<sha256>.pkl``
    One L1/L2-filtered :class:`~repro.experiments.runner.LLCTrace` chunk of
    a scope's stream, keyed by the stream's manifest key plus the chunk
    index.  The ROI is a one-chunk stream; the full execution has one chunk
    per chunk budget's worth of raw trace.
``<root>/v4/llcstream/<sha256>.pkl``
    Two entries per stream, both holding the chunk count and the aggregate
    L1/L2 filter counters.  The *manifest*, keyed by the workload key plus
    the cache hierarchy, the scope and the chunk budget (``None`` for the
    ROI), is written once every chunk has been persisted; a later replay
    serves the whole stream from disk without re-filtering.  The
    budget-less *summary* feeds the cycle model, and fused passes write it
    without storing any chunk.
``<root>/v4/policystream/<sha256>.pkl``
    Per-scheme :class:`~repro.cache.stats.CacheStats` of one scope, keyed
    by the trace key plus the scheme name and the scope (chunk budgets do
    not affect results, so they are not part of the key).
``<root>/v4/corun/<sha256>.pkl``
    Per-scheme :class:`~repro.cache.stats.CacheStats` (with per-stream
    counters) of an interleaved co-run replay, keyed by the app/dataset
    pairs, the interleaving schedule parameters and the way-partition
    shares (see :func:`repro.experiments.runner.corun_memo_key`).

Every filtered-stream and per-scheme key ends with its scope, ``"roi"`` or
``"execution"``.  Kinds are just directory names, so adding or retiring a
kind needs no ``MEMO_VERSION`` bump: v4 stores written before the ROI became
a one-chunk stream keep their ``llctrace/``, ``roisummary/`` and ``policy/``
directories, which nothing reads any more (delete them to reclaim the
space), and every other entry stays valid.

:class:`ChunkSpill` is the unkeyed sibling of the chunk store: a scratch
directory for out-of-core intermediates that are only meaningful within one
computation (e.g. streaming OPT's per-chunk block and next-use arrays
between its reverse and forward passes).

Keys are hashed from their ``repr`` — every component is a primitive or a
frozen dataclass with a deterministic ``repr``.  Writes go through a
temporary file and ``os.replace`` so concurrent writers (a sweep's worker
processes) can never expose a partially-written entry; a corrupt or
unreadable entry is treated as a miss and recomputed.

Entry layout (v4)
-----------------
Each entry is a pickle-protocol-5 stream with its array buffers kept out of
band::

    magic (8 bytes) | pickle length (u64) | buffer count (u64)
    | buffer lengths (u64 each) | pickle stream | raw buffers

All integers are little-endian.  An entry is well-formed only when the
header's sizes add up to the file size exactly and the stream consumes every
buffer it declares; anything else (truncation, bad magic, a plain pickle
left over from an older layout) reads as a miss.

:meth:`DiskMemo.get` reads every buffer into memory it owns, so returned
arrays are writable and never backed by a file mapping — a file truncated
in place under a caller cannot SIGBUS it.  :meth:`DiskMemo.contains` runs
the same checks and the same ``pickle.loads`` over zero-copy views of a
read-only ``mmap`` instead: it still proves the entry loads, object
construction included, but never reads the array bytes, so probing a
multi-megabyte trace costs about as much as probing a tiny entry.

The store is enabled by passing a ``cache_dir`` to
:func:`~repro.experiments.service.run_sweep` (which requires one) or by
setting the ``REPRO_CACHE_DIR`` environment variable, in which case the
serial runner uses it too.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import pickle
import shutil
import struct
import tempfile
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

#: Environment variable naming the on-disk memo root directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Layout version; bump when any persisted type changes incompatibly *or*
#: when a simulation-semantics fix invalidates previously computed results
#: (v1 -> v2: the PIN policy-state bugfix — pinned insertions now feed the
#: DRRIP set duel and pin-on-hit refreshes the RRPV — changed PIN-X stats,
#: which v1 stores would otherwise keep serving; v2 -> v3: the trace
#: generator's np.insert tie-ordering fix — per-vertex property updates now
#: precede the next vertex's Vertex-Array load — changed every generated
#: trace and therefore every downstream llctrace/policy result; v3 -> v4:
#: the entry file format itself — a plain pickle became the header +
#: pickle-5 stream + out-of-band buffers layout above, so ``contains`` can
#: prove an entry loads without reading its arrays; v3 files are not
#: readable as v4 entries).
MEMO_VERSION = 4

#: First bytes of every v4 entry.
_MAGIC = b"REPROMv4"
#: Fixed part of an entry header: magic, pickle length, buffer count.
_HEAD = struct.Struct("<8sQQ")


def default_cache_dir() -> Optional[Path]:
    """Cache root from ``REPRO_CACHE_DIR``, or ``None`` when unset."""
    value = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    return Path(value) if value else None


def key_digest(key: Any) -> str:
    """Content digest of a memo key — the entry's filename stem.

    The sweep service (:mod:`repro.experiments.service`) reuses these digests
    as task ids, so "is this task done" and "does this memo entry exist" are
    literally the same question.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def _encode(value: Any) -> List[Any]:
    """An entry's byte chunks in file order: header, pickle stream, buffers."""
    buffers: List[pickle.PickleBuffer] = []
    stream = pickle.dumps(value, protocol=5, buffer_callback=buffers.append)
    raws = [buffer.raw() for buffer in buffers]
    header = _HEAD.pack(_MAGIC, len(stream), len(raws)) + struct.pack(
        f"<{len(raws)}Q", *(raw.nbytes for raw in raws)
    )
    return [header, stream, *raws]


def _read_header(
    read: Callable[[int], bytes], size: int
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """``(pickle length, buffer lengths)`` from the header ``read`` yields.

    ``None`` unless the header starts with the v4 magic and its sizes add
    up to exactly ``size``, the entry's file size.
    """
    fixed = read(_HEAD.size)
    if len(fixed) != _HEAD.size:
        return None
    magic, stream_length, count = _HEAD.unpack(fixed)
    table_length = 8 * count
    if magic != _MAGIC or _HEAD.size + table_length > size:
        return None
    lengths = struct.unpack(f"<{count}Q", read(table_length))
    if _HEAD.size + table_length + stream_length + sum(lengths) != size:
        return None
    return stream_length, lengths


def _loads(stream: Any, buffers: Sequence[Any]) -> Any:
    """Unpickle ``stream`` over ``buffers``, which it must consume exactly."""
    remaining = iter(buffers)
    value = pickle.loads(stream, buffers=remaining)
    if next(remaining, None) is not None:
        raise pickle.UnpicklingError("entry declares buffers its stream never uses")
    return value


def _probe(mapped: mmap.mmap, size: int) -> bool:
    """Whether the mapped entry loads, unpickled over views of the mapping."""
    layout = _read_header(mapped.read, size)
    if layout is None:
        return False
    stream_length, lengths = layout
    view = memoryview(mapped)
    start = mapped.tell()
    offset = start + stream_length
    stream = view[start:offset]
    buffers = []
    for length in lengths:
        buffers.append(view[offset:offset + length])
        offset += length
    _loads(stream, buffers)
    return True


class DiskMemo:
    """A pickle-per-entry store keyed by (kind, memo key)."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root) / f"v{MEMO_VERSION}"

    def path_for(self, kind: str, key: Any) -> Path:
        """File that does (or would) hold the entry for ``key``."""
        return self.root / kind / f"{key_digest(key)}.pkl"

    def contains(self, kind: str, key: Any) -> bool:
        """Whether a *readable* entry exists (corrupt entries count as absent).

        This deliberately unpickles the entry rather than testing the path:
        a truncated or bit-flipped file must look like a miss to schedulers
        and resume logic exactly as it does to :meth:`get`.  The unpickling
        runs over zero-copy views of a read-only mapping, so the array bytes
        are never read.
        """
        path = self.path_for(kind, key)
        try:
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                mapped = mmap.mmap(handle.fileno(), size, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return False  # missing, unreadable or empty (mmap rejects length 0)
        try:
            return _probe(mapped, size)
        except Exception:
            return False
        finally:
            try:
                mapped.close()
            except BufferError:
                pass  # a reference cycle still holds a view; GC unmaps it

    def get(self, kind: str, key: Any) -> Optional[Any]:
        """Load an entry, or ``None`` on a miss or an unreadable file.

        Array buffers are read into memory the caller owns (writable, never
        a file mapping).
        """
        path = self.path_for(kind, key)
        try:
            with open(path, "rb") as handle:
                layout = _read_header(handle.read, os.fstat(handle.fileno()).st_size)
                if layout is None:
                    return None
                stream_length, lengths = layout
                stream = handle.read(stream_length)
                buffers = []
                for length in lengths:
                    buffer = np.empty(length, dtype=np.uint8)
                    if handle.readinto(buffer) != length:
                        return None  # the file shrank under us
                    buffers.append(buffer)
            return _loads(stream, buffers)
        except Exception:
            # Missing, corrupt, truncated or stale entry (including pickles
            # that reference since-renamed classes): treat as a miss and let
            # the caller recompute and overwrite it.
            return None

    def put(self, kind: str, key: Any, value: Any) -> None:
        """Store an entry atomically.

        The value is serialized before any file is created, so an
        unpicklable value raises and leaves nothing behind; IO errors are
        swallowed (best effort).
        """
        chunks = _encode(value)
        path = self.path_for(kind, key)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def entry_count(self, kind: Optional[str] = None) -> int:
        """Number of persisted entries (of one kind, or overall)."""
        base = self.root / kind if kind else self.root
        if not base.exists():
            return 0
        return sum(1 for _ in base.rglob("*.pkl"))


class ChunkSpill:
    """Scratch store for per-chunk arrays of one out-of-core computation.

    Streaming consumers that need more than one pass over a chunk stream
    (e.g. OPT's reverse next-use pass followed by its forward replay) spill
    each chunk here instead of holding the stream in memory.  Entries are
    ``.npy`` files under a private temporary directory that is removed by
    :meth:`close` (or context-manager exit); unlike :class:`DiskMemo` there
    is no content key — the store is scoped to a single computation.
    """

    def __init__(self, directory: Optional[Path | str] = None) -> None:
        self._owned = directory is None
        self.root = Path(
            tempfile.mkdtemp(prefix="repro-spill-") if directory is None else directory
        )
        self.root.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, index: int, array: np.ndarray) -> None:
        """Persist one chunk array under (name, index)."""
        np.save(self.root / f"{name}.{index}.npy", np.asarray(array))

    def get(self, name: str, index: int) -> np.ndarray:
        """Load the chunk array stored under (name, index)."""
        return np.load(self.root / f"{name}.{index}.npy")

    def close(self) -> None:
        """Delete the spill directory (if owned by this instance)."""
        if self._owned:
            shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "ChunkSpill":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
