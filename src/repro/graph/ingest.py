"""Out-of-core ingestion of real-world graphs.

Every result so far runs on the synthetic stand-ins of
:mod:`repro.graph.datasets`; this module is the bridge to the graphs the
paper actually cites (twitter, kron, web crawls).  It provides three layers:

**Chunked parsers** for the standard interchange formats — whitespace
edge lists (including SNAP's ``# Nodes: N Edges: M`` headers) and
Matrix-Market coordinate files — with transparent gzip decompression.
Parsing is ``np.loadtxt``-free: lines are gathered in multi-megabyte blocks,
validated with a single compiled regex over the block (so a malformed line is
a loud :class:`~repro.graph.csr.GraphError`, never silent mis-pairing), and
converted to NumPy arrays in one vectorized pass per block.

**A binary-CSR on-disk cache** (:class:`CSRBinaryCache`) keyed by the content
digest of the source file plus the parse options, version-stamped like
``DiskMemo`` (:data:`CSR_CACHE_VERSION`) and torn-write-safe: entries are
built in a temporary directory and published with a single ``os.replace``, so
a crashed or concurrent writer can never expose a partial entry, and a
corrupt entry reads as a miss and is rebuilt.

**An out-of-core CSR builder** that never holds the edge list in memory:
pass A streams parsed chunks to a binary spill while accumulating degree
counts, pass B scatters each chunk into ``np.memmap``-backed adjacency
arrays with a counting-sort cursor, and pass C sorts each vertex's neighbour
run in bounded blocks.  The result is bit-identical to
:func:`repro.graph.builder.build_csr` on the same edges, so an
:class:`~repro.graph.csr.MmapCSRGraph` loaded from the cache replays through
the trace pipeline with exactly the CacheStats of the in-RAM path.

Dataset download/verify tooling (:func:`fetch_dataset`, :func:`verify_file`)
rounds the module out: known SNAP datasets, streaming sha256 checksums, and
a trust-on-first-use ``CHECKSUMS.sha256`` lockfile.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import re
import shutil
import tempfile
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.graph.builder import _build_csr, _check_vertex_count, _order_edges
from repro.graph.csr import (
    INDEX_DTYPE,
    VERTEX_DTYPE,
    WEIGHT_DTYPE,
    CSRGraph,
    GraphError,
    MmapCSRGraph,
)

PathLike = Union[str, Path]

#: Version stamp of the binary-CSR cache layout.  Bump when the entry format
#: or the parse/build semantics change; old entries then read as misses.
CSR_CACHE_VERSION = 1

#: Environment variable naming the binary-CSR cache root.
GRAPH_CACHE_ENV_VAR = "REPRO_GRAPH_CACHE"

#: Fallback cache root relative to the working directory (mirrors the sweep
#: CLI's ``.repro-cache`` default).
DEFAULT_GRAPH_CACHE_DIR = ".repro-cache/graphs"

#: Edges per parsed chunk (the out-of-core builder's working-set unit).
DEFAULT_CHUNK_EDGES = 1 << 20

#: ``mmap="auto"`` ingests through the cache once the *source file* exceeds
#: this size; smaller graphs parse straight to RAM.
AUTO_MMAP_MIN_BYTES = 64 << 20

#: Characters starting a comment line in edge-list files.
COMMENT_CHARS = ("#", "%")

_NUMBER_RE = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"

#: SNAP-style header: ``# Nodes: 875713 Edges: 5105039``.
_SNAP_NODES_RE = re.compile(r"nodes[:=]\s*(\d+)", re.IGNORECASE)
#: repro's own header: ``# vertices=N edges=M``.
_VERTICES_RE = re.compile(r"vertices=(\d+)")


def _row_pattern(ncols: int) -> "re.Pattern[str]":
    """Compiled multiline pattern matching exactly one ``ncols``-token row."""
    row = rf"{_NUMBER_RE}(?:[ \t,]+{_NUMBER_RE}){{{ncols - 1}}}"
    return re.compile(rf"^[ \t]*{row}[ \t]*\r?$", re.MULTILINE)


# ---------------------------------------------------------------------------
# low-level file access
# ---------------------------------------------------------------------------


def _is_gzip(path: Path) -> bool:
    try:
        with open(path, "rb") as handle:
            return handle.read(2) == b"\x1f\x8b"
    except OSError as error:
        raise GraphError(f"cannot read {path}: {error}") from error


def open_text(path: PathLike):
    """Open a (possibly gzip-compressed) text file for reading.

    Compression is detected from the magic bytes, not the extension, so a
    mislabelled ``.txt`` that is really gzip still opens.
    """
    path = Path(path)
    if not path.exists():
        raise GraphError(f"no such graph file: {path}")
    if _is_gzip(path):
        return gzip.open(path, "rt", encoding="utf-8", errors="strict")
    return open(path, "r", encoding="utf-8", errors="strict")


def sha256_file(path: PathLike, block_bytes: int = 1 << 20) -> str:
    """Streaming sha256 of a file's raw bytes (compressed files hash as-is)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(block_bytes)
            if not block:
                return digest.hexdigest()
            digest.update(block)


#: stat-keyed digests so memo-key construction does not rehash per call.
_DIGEST_CACHE: Dict[Tuple[str, int, int], str] = {}


def file_digest(path: PathLike) -> str:
    """sha256 of a file, cached in-process by ``(realpath, size, mtime)``."""
    real = os.path.realpath(str(path))
    try:
        stat = os.stat(real)
    except OSError as error:
        raise GraphError(f"cannot stat graph file {path}: {error}") from error
    cache_key = (real, stat.st_size, stat.st_mtime_ns)
    digest = _DIGEST_CACHE.get(cache_key)
    if digest is None:
        digest = sha256_file(real)
        _DIGEST_CACHE[cache_key] = digest
    return digest


# ---------------------------------------------------------------------------
# chunked parsing
# ---------------------------------------------------------------------------


@dataclass
class EdgeChunk:
    """One parsed slice of an edge stream (parallel arrays)."""

    src: np.ndarray
    dst: np.ndarray
    weights: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.src.shape[0])


def _find_bad_line(lines, ncols: int, pattern) -> str:
    """Slow path after block validation fails: name the offending line."""
    for line in lines:
        if not pattern.match(line.strip()) or len(line.split()) != ncols:
            return line.strip()
    return lines[0].strip() if lines else "<empty>"


def _parse_block(lines, ncols: int, row_pattern, full_pattern, where: str):
    """Vectorized numeric parse of one block of data lines."""
    block = "".join(lines)
    if len(full_pattern.findall(block)) != len(lines):
        bad = _find_bad_line(lines, ncols, row_pattern)
        raise GraphError(f"malformed line in {where}: {bad!r} (expected {ncols} numeric columns)")
    values = np.array(block.split(), dtype=np.float64)
    return values.reshape(-1, ncols)


def _require_integer_ids(columns: np.ndarray, where: str) -> np.ndarray:
    ids = columns[:, :2]
    if not np.array_equal(ids, np.floor(ids)):
        raise GraphError(f"non-integer vertex IDs in {where}")
    if ids.size and ids.min() < 0:
        raise GraphError(f"negative vertex IDs in {where}")
    return ids.astype(VERTEX_DTYPE)


class EdgeListReader:
    """Chunked reader for whitespace edge lists (SNAP / ``save_edge_list``).

    Attributes populated while streaming:

    ``declared_vertices``
        Vertex count from a ``# vertices=N`` or SNAP ``# Nodes: N`` header,
        or ``None`` when the file declares nothing.
    ``weighted``
        Whether a third (weight) column is present — decided by the first
        data line and enforced for every later line.
    """

    format = "edgelist"

    def __init__(self, path: PathLike, chunk_edges: int = DEFAULT_CHUNK_EDGES) -> None:
        self.path = Path(path)
        self.chunk_edges = max(1, int(chunk_edges))
        self.declared_vertices: Optional[int] = None
        self.weighted = False
        self.ncols: Optional[int] = None

    def _scan_header_comment(self, line: str) -> None:
        match = _VERTICES_RE.search(line) or _SNAP_NODES_RE.search(line)
        if match and self.declared_vertices is None:
            self.declared_vertices = int(match.group(1))

    def chunks(self) -> Iterator[EdgeChunk]:
        """Yield :class:`EdgeChunk` objects of at most ``chunk_edges`` edges."""
        row_pattern = full_pattern = None
        where = str(self.path)
        # ~64 bytes/line keeps block size near the chunk budget.
        block_hint = self.chunk_edges * 64
        try:
            with open_text(self.path) as handle:
                while True:
                    raw = handle.readlines(block_hint)
                    if not raw:
                        return
                    data = []
                    for line in raw:
                        stripped = line.strip()
                        if not stripped:
                            continue
                        if stripped.startswith(COMMENT_CHARS):
                            self._scan_header_comment(stripped)
                            continue
                        data.append(line)
                    if not data:
                        continue
                    if self.ncols is None:
                        self.ncols = len(data[0].split())
                        if self.ncols not in (2, 3):
                            raise GraphError(
                                f"edge list {where} has {self.ncols} columns; "
                                "expected 'src dst' or 'src dst weight'"
                            )
                        self.weighted = self.ncols == 3
                        row_pattern = re.compile(
                            rf"{_NUMBER_RE}(?:[ \t,]+{_NUMBER_RE}){{{self.ncols - 1}}}\Z"
                        )
                        full_pattern = _row_pattern(self.ncols)
                    columns = _parse_block(data, self.ncols, row_pattern, full_pattern, where)
                    for start in range(0, columns.shape[0], self.chunk_edges):
                        part = columns[start : start + self.chunk_edges]
                        ids = _require_integer_ids(part, where)
                        weights = part[:, 2].astype(WEIGHT_DTYPE) if self.weighted else None
                        yield EdgeChunk(ids[:, 0], ids[:, 1], weights)
        except (EOFError, gzip.BadGzipFile) as error:
            raise GraphError(f"truncated or corrupt gzip stream in {where}: {error}") from error
        except UnicodeDecodeError as error:
            raise GraphError(f"{where} is not a text edge list: {error}") from error


class MatrixMarketReader:
    """Chunked reader for Matrix-Market ``coordinate`` files.

    Supports ``pattern`` / ``real`` / ``integer`` fields and ``general`` /
    ``symmetric`` symmetry (symmetric entries are mirrored, the diagonal
    once).  Indices are 1-based per the format and are rebased to 0.
    """

    format = "mtx"

    def __init__(self, path: PathLike, chunk_edges: int = DEFAULT_CHUNK_EDGES) -> None:
        self.path = Path(path)
        self.chunk_edges = max(1, int(chunk_edges))
        self.declared_vertices: Optional[int] = None
        self.declared_entries: Optional[int] = None
        self.weighted = False
        self.symmetric = False

    def _parse_header(self, line: str, where: str) -> None:
        tokens = line.strip().lower().split()
        if len(tokens) < 5 or tokens[0] != "%%matrixmarket":
            raise GraphError(f"{where} is not a Matrix-Market file (bad banner: {line.strip()!r})")
        _, obj, fmt, field_kind, symmetry = tokens[:5]
        if obj != "matrix" or fmt != "coordinate":
            raise GraphError(f"{where}: only 'matrix coordinate' files are supported")
        if field_kind not in ("pattern", "real", "integer"):
            raise GraphError(f"{where}: unsupported Matrix-Market field {field_kind!r}")
        if symmetry not in ("general", "symmetric"):
            raise GraphError(f"{where}: unsupported Matrix-Market symmetry {symmetry!r}")
        self.weighted = field_kind != "pattern"
        self.symmetric = symmetry == "symmetric"

    def chunks(self) -> Iterator[EdgeChunk]:
        where = str(self.path)
        ncols = None
        row_pattern = full_pattern = None
        seen = 0
        block_hint = self.chunk_edges * 64
        try:
            with open_text(self.path) as handle:
                banner = handle.readline()
                if not banner:
                    raise GraphError(f"{where} is empty")
                self._parse_header(banner, where)
                size_line = None
                while size_line is None:
                    line = handle.readline()
                    if not line:
                        raise GraphError(f"{where}: missing Matrix-Market size line")
                    stripped = line.strip()
                    if not stripped or stripped.startswith("%"):
                        continue
                    size_line = stripped
                parts = size_line.split()
                if len(parts) != 3:
                    raise GraphError(f"{where}: malformed size line {size_line!r}")
                try:
                    rows, cols, entries = (int(p) for p in parts)
                except ValueError as error:
                    raise GraphError(f"{where}: malformed size line {size_line!r}") from error
                if rows != cols:
                    raise GraphError(
                        f"{where}: adjacency matrix must be square, got {rows}x{cols}"
                    )
                self.declared_vertices = rows
                self.declared_entries = entries
                ncols = 3 if self.weighted else 2
                row_pattern = re.compile(
                    rf"{_NUMBER_RE}(?:[ \t,]+{_NUMBER_RE}){{{ncols - 1}}}\Z"
                )
                full_pattern = _row_pattern(ncols)
                while True:
                    raw = handle.readlines(block_hint)
                    if not raw:
                        break
                    data = [
                        line for line in raw
                        if line.strip() and not line.lstrip().startswith("%")
                    ]
                    if not data:
                        continue
                    columns = _parse_block(data, ncols, row_pattern, full_pattern, where)
                    seen += columns.shape[0]
                    if seen > entries:
                        raise GraphError(
                            f"{where}: more than the declared {entries} entries"
                        )
                    for start in range(0, columns.shape[0], self.chunk_edges):
                        part = columns[start : start + self.chunk_edges]
                        ids = _require_integer_ids(part, where)
                        if ids.size and (ids.min() < 1 or ids.max() > rows):
                            raise GraphError(
                                f"{where}: 1-based index out of range [1, {rows}]"
                            )
                        src = ids[:, 0] - 1
                        dst = ids[:, 1] - 1
                        weights = part[:, 2].astype(WEIGHT_DTYPE) if self.weighted else None
                        yield EdgeChunk(src, dst, weights)
                        if self.symmetric:
                            off = src != dst
                            if off.any():
                                mirrored_w = weights[off] if weights is not None else None
                                yield EdgeChunk(dst[off], src[off], mirrored_w)
        except (EOFError, gzip.BadGzipFile) as error:
            raise GraphError(f"truncated or corrupt gzip stream in {where}: {error}") from error
        except UnicodeDecodeError as error:
            raise GraphError(f"{where} is not a text Matrix-Market file: {error}") from error
        if seen != entries:
            raise GraphError(
                f"{where}: truncated Matrix-Market file — "
                f"declared {entries} entries, found {seen}"
            )


def detect_format(path: PathLike) -> str:
    """Sniff a file's graph format: ``"mtx"`` or ``"edgelist"``."""
    path = Path(path)
    suffixes = [s.lower() for s in path.suffixes]
    if ".mtx" in suffixes:
        return "mtx"
    try:
        with open_text(path) as handle:
            first = handle.readline()
    except (EOFError, gzip.BadGzipFile) as error:
        raise GraphError(f"truncated or corrupt gzip stream in {path}: {error}") from error
    except UnicodeDecodeError as error:
        raise GraphError(f"{path} is not a recognised text graph format: {error}") from error
    if first.lstrip().lower().startswith("%%matrixmarket"):
        return "mtx"
    return "edgelist"


def make_reader(path: PathLike, fmt: Optional[str] = None,
                chunk_edges: int = DEFAULT_CHUNK_EDGES):
    """Instantiate the chunked reader for a file (format sniffed if needed)."""
    fmt = fmt or detect_format(path)
    if fmt in ("edgelist", "snap", "el"):
        return EdgeListReader(path, chunk_edges=chunk_edges)
    if fmt == "mtx":
        return MatrixMarketReader(path, chunk_edges=chunk_edges)
    raise GraphError(f"unknown graph format {fmt!r}; expected 'edgelist', 'snap' or 'mtx'")


# ---------------------------------------------------------------------------
# parse options and in-RAM assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParseOptions:
    """Options that change the parsed graph (and therefore the cache key)."""

    fmt: Optional[str] = None
    num_vertices: Optional[int] = None
    densify: bool = False
    remove_self_loops: bool = False

    def cache_key(self, digest: str) -> tuple:
        return (
            CSR_CACHE_VERSION, digest, self.fmt,
            self.num_vertices, self.densify, self.remove_self_loops,
        )


def _resolve_num_vertices(options: ParseOptions, reader, max_id: int) -> int:
    inferred = max_id + 1
    declared = options.num_vertices
    if declared is None:
        declared = reader.declared_vertices
    if declared is None:
        return inferred
    if declared < inferred:
        raise GraphError(
            f"{reader.path}: declared {declared} vertices but edges reference ID {max_id}"
        )
    return int(declared)


def parse_graph(path: PathLike, options: ParseOptions = ParseOptions(),
                name: Optional[str] = None,
                chunk_edges: int = DEFAULT_CHUNK_EDGES) -> CSRGraph:
    """Parse a graph file fully into RAM (the small-graph path).

    The result is produced by the same parser as the out-of-core path and
    assembled with :func:`repro.graph.builder.build_csr`, so both paths are
    bit-identical on the same file.
    """
    reader = make_reader(path, options.fmt, chunk_edges=chunk_edges)
    srcs, dsts, wts = [], [], []
    for chunk in reader.chunks():
        srcs.append(chunk.src)
        dsts.append(chunk.dst)
        if chunk.weights is not None:
            wts.append(chunk.weights)
    if srcs:
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
    else:
        src = np.empty(0, dtype=VERTEX_DTYPE)
        dst = np.empty(0, dtype=VERTEX_DTYPE)
    weights = np.concatenate(wts) if wts else None
    if weights is not None and weights.shape[0] != src.shape[0]:
        raise GraphError(f"{path}: some edges have weights and some do not")
    max_id = int(max(src.max(initial=-1), dst.max(initial=-1)))
    num_vertices = _resolve_num_vertices(options, reader, max_id)
    if options.densify and src.size:
        unique = np.unique(np.concatenate([src, dst]))
        src = np.searchsorted(unique, src).astype(VERTEX_DTYPE)
        dst = np.searchsorted(unique, dst).astype(VERTEX_DTYPE)
        num_vertices = int(unique.shape[0])
    return _build_csr(
        num_vertices, src, dst, weights=weights,
        remove_self_loops=options.remove_self_loops,
        name=name or graph_name_for(path),
    )


def graph_name_for(path: PathLike) -> str:
    """Human-readable graph name from a file path (strips .gz/.txt/.mtx...)."""
    name = Path(path).name
    for suffix in (".gz", ".txt", ".el", ".edges", ".mtx"):
        if name.lower().endswith(suffix):
            name = name[: -len(suffix)]
    return name or "graph"


# ---------------------------------------------------------------------------
# out-of-core CSR construction
# ---------------------------------------------------------------------------


def _stable_scatter(cursor: np.ndarray, key: np.ndarray, other: np.ndarray,
                    adjacency: np.ndarray, weights_in: Optional[np.ndarray],
                    weights_out: Optional[np.ndarray]) -> None:
    """Counting-sort one chunk into its CSR slots, preserving input order.

    ``cursor[v]`` is the next free slot of vertex ``v``'s neighbour run;
    a stable argsort of the chunk's grouping key plus per-run offsets turns
    the chunk into one vectorized fancy-index store.
    """
    order = np.argsort(key, kind="stable")
    ks = key[order]
    seg_starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    seg_ids = ks[seg_starts]
    seg_lengths = np.diff(np.r_[seg_starts, ks.shape[0]])
    within = np.arange(ks.shape[0], dtype=INDEX_DTYPE) - np.repeat(seg_starts, seg_lengths)
    positions = cursor[ks] + within
    adjacency[positions] = other[order]
    if weights_in is not None:
        weights_out[positions] = weights_in[order]
    cursor[seg_ids] += seg_lengths


def _sort_neighbour_runs(index: np.ndarray, adjacency: np.ndarray,
                         weights: Optional[np.ndarray], block_edges: int) -> None:
    """Sort each vertex's neighbour run (stable), in bounded edge blocks.

    Each block sorts on the in-RAM builder's edge key
    (:func:`repro.graph.builder._order_edges`); since the scatter kept input
    order within each run, the result equals ``_build_csr``'s global order.
    """
    num_vertices = index.shape[0] - 1
    v0 = 0
    while v0 < num_vertices:
        lo = int(index[v0])
        v1 = int(np.searchsorted(index, lo + block_edges, side="left"))
        v1 = min(max(v1, v0 + 1), num_vertices)
        hi = int(index[v1])
        if hi > lo:
            counts = np.diff(index[v0 : v1 + 1])
            owners = np.repeat(np.arange(v0, v1, dtype=INDEX_DTYPE), counts)
            block_weights = None if weights is None else weights[lo:hi]
            _, neighbours, block_weights = _order_edges(
                num_vertices, owners, adjacency[lo:hi], block_weights
            )
            adjacency[lo:hi] = neighbours
            if weights is not None:
                weights[lo:hi] = block_weights
        v0 = v1


def _spill_chunks(reader, spill_dir: Path, remove_self_loops: bool):
    """Pass A: stream parsed chunks to binary spill files; gather totals."""
    num_chunks = 0
    num_edges = 0
    max_id = -1
    weighted = None
    degree_bins = 0
    out_counts = np.zeros(0, dtype=INDEX_DTYPE)
    in_counts = np.zeros(0, dtype=INDEX_DTYPE)
    for chunk in reader.chunks():
        src, dst, weights = chunk.src, chunk.dst, chunk.weights
        if remove_self_loops and src.size:
            keep = src != dst
            src, dst = src[keep], dst[keep]
            if weights is not None:
                weights = weights[keep]
        if weighted is None:
            weighted = weights is not None
        elif weighted != (weights is not None):
            raise GraphError(f"{reader.path}: some edges have weights and some do not")
        if not src.size:
            continue
        chunk_max = int(max(src.max(), dst.max()))
        max_id = max(max_id, chunk_max)
        if chunk_max >= degree_bins:
            degree_bins = chunk_max + 1
            out_counts = np.concatenate(
                [out_counts, np.zeros(degree_bins - out_counts.shape[0], dtype=INDEX_DTYPE)]
            )
            in_counts = np.concatenate(
                [in_counts, np.zeros(degree_bins - in_counts.shape[0], dtype=INDEX_DTYPE)]
            )
        out_counts[:degree_bins] += np.bincount(src, minlength=degree_bins).astype(INDEX_DTYPE)
        in_counts[:degree_bins] += np.bincount(dst, minlength=degree_bins).astype(INDEX_DTYPE)
        np.save(spill_dir / f"src.{num_chunks}.npy", src)
        np.save(spill_dir / f"dst.{num_chunks}.npy", dst)
        if weights is not None:
            np.save(spill_dir / f"w.{num_chunks}.npy", weights)
        num_chunks += 1
        num_edges += src.shape[0]
    return num_chunks, num_edges, max_id, bool(weighted), out_counts, in_counts


def build_csr_cache_entry(path: PathLike, entry_dir: Path,
                          options: ParseOptions = ParseOptions(),
                          name: Optional[str] = None,
                          chunk_edges: int = DEFAULT_CHUNK_EDGES,
                          digest: Optional[str] = None) -> None:
    """Build one binary-CSR cache entry out-of-core into ``entry_dir``.

    ``entry_dir`` must not be published (renamed into the cache) until this
    returns — the caller owns torn-write safety.  Peak memory is
    O(num_vertices + chunk_edges); the edge list itself only ever exists in
    the spill files and the memmapped outputs.
    """
    entry_dir = Path(entry_dir)
    entry_dir.mkdir(parents=True, exist_ok=True)
    reader = make_reader(path, options.fmt, chunk_edges=chunk_edges)
    with tempfile.TemporaryDirectory(prefix="repro-ingest-", dir=str(entry_dir)) as spill:
        spill_dir = Path(spill)
        (num_chunks, num_edges, max_id, weighted,
         out_counts, in_counts) = _spill_chunks(reader, spill_dir, options.remove_self_loops)

        num_vertices = _resolve_num_vertices(options, reader, max_id)
        id_map = None
        if options.densify and num_edges:
            id_map = np.union1d(np.flatnonzero(out_counts), np.flatnonzero(in_counts))

            def remap_counts(counts: np.ndarray) -> np.ndarray:
                dense = np.zeros(id_map.shape[0], dtype=INDEX_DTYPE)
                nonzero = np.flatnonzero(counts)
                dense[np.searchsorted(id_map, nonzero)] = counts[nonzero]
                return dense

            out_counts = remap_counts(out_counts)
            in_counts = remap_counts(in_counts)
            num_vertices = int(id_map.shape[0])
        _check_vertex_count(num_vertices)

        def full_counts(counts: np.ndarray) -> np.ndarray:
            if counts.shape[0] < num_vertices:
                return np.concatenate(
                    [counts, np.zeros(num_vertices - counts.shape[0], dtype=INDEX_DTYPE)]
                )
            return counts[:num_vertices]

        out_index = np.concatenate(
            [[0], np.cumsum(full_counts(out_counts))]
        ).astype(INDEX_DTYPE)
        in_index = np.concatenate(
            [[0], np.cumsum(full_counts(in_counts))]
        ).astype(INDEX_DTYPE)

        def out_memmap(filename: str, dtype, length: int) -> np.ndarray:
            return np.lib.format.open_memmap(
                entry_dir / filename, mode="w+", dtype=dtype, shape=(max(length, 0),)
            )

        out_targets = out_memmap("out_targets.npy", VERTEX_DTYPE, num_edges)
        in_sources = out_memmap("in_sources.npy", VERTEX_DTYPE, num_edges)
        out_weights = out_memmap("out_weights.npy", WEIGHT_DTYPE, num_edges) if weighted else None
        in_weights = out_memmap("in_weights.npy", WEIGHT_DTYPE, num_edges) if weighted else None

        # Pass B: counting-sort scatter, chunk by chunk, both directions.
        out_cursor = out_index[:-1].copy()
        in_cursor = in_index[:-1].copy()
        for index in range(num_chunks):
            src = np.load(spill_dir / f"src.{index}.npy")
            dst = np.load(spill_dir / f"dst.{index}.npy")
            weights = np.load(spill_dir / f"w.{index}.npy") if weighted else None
            if id_map is not None:
                src = np.searchsorted(id_map, src).astype(VERTEX_DTYPE)
                dst = np.searchsorted(id_map, dst).astype(VERTEX_DTYPE)
            _stable_scatter(out_cursor, src, dst, out_targets, weights, out_weights)
            _stable_scatter(in_cursor, dst, src, in_sources, weights, in_weights)

        # Pass C: per-vertex neighbour sort in bounded blocks.
        _sort_neighbour_runs(out_index, out_targets, out_weights, chunk_edges)
        _sort_neighbour_runs(in_index, in_sources, in_weights, chunk_edges)

        np.save(entry_dir / "out_index.npy", out_index)
        np.save(entry_dir / "in_index.npy", in_index)
        for array in (out_targets, in_sources, out_weights, in_weights):
            if array is not None:
                array.flush()
                del array

    meta = {
        "version": CSR_CACHE_VERSION,
        "name": name or graph_name_for(path),
        "source": str(path),
        "source_sha256": digest or file_digest(path),
        "format": reader.format,
        "num_vertices": int(num_vertices),
        "num_edges": int(num_edges),
        "weighted": bool(weighted),
        "options": {
            "fmt": options.fmt,
            "num_vertices": options.num_vertices,
            "densify": options.densify,
            "remove_self_loops": options.remove_self_loops,
        },
        "validated": True,
    }
    tmp_meta = entry_dir / f"meta.json.tmp.{os.getpid()}"
    tmp_meta.write_text(json.dumps(meta, indent=2), encoding="utf-8")
    os.replace(tmp_meta, entry_dir / "meta.json")


# ---------------------------------------------------------------------------
# the binary-CSR cache
# ---------------------------------------------------------------------------


def default_graph_cache_root() -> Path:
    """Cache root: ``REPRO_GRAPH_CACHE``, else ``<REPRO_CACHE_DIR>/graphs``,
    else ``.repro-cache/graphs``."""
    value = os.environ.get(GRAPH_CACHE_ENV_VAR, "").strip()
    if value:
        return Path(value)
    memo_root = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if memo_root:
        return Path(memo_root) / "graphs"
    return Path(DEFAULT_GRAPH_CACHE_DIR)


class CSRBinaryCache:
    """Digest-keyed directory store of binary CSR graphs.

    Layout (all arrays are plain ``.npy`` files, memmap-openable)::

        <root>/csr-v1/<sha256-of-(digest, options)>/
            meta.json        # version stamp, source digest, shapes, options
            out_index.npy  out_targets.npy  in_index.npy  in_sources.npy
            [out_weights.npy  in_weights.npy]

    Entries are built in a sibling temporary directory and published with one
    ``os.replace`` (atomic on POSIX), so readers never observe partial
    entries; anything unreadable — missing array, bad JSON, wrong version or
    shape — is treated as a miss and rebuilt from the source file.
    """

    def __init__(self, root: Optional[PathLike] = None) -> None:
        base = Path(root) if root is not None else default_graph_cache_root()
        self.root = base / f"csr-v{CSR_CACHE_VERSION}"

    def entry_key(self, path: PathLike, options: ParseOptions = ParseOptions()) -> str:
        """Content digest identifying one (file, parse options) entry."""
        key = options.cache_key(file_digest(path))
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()

    def entry_dir(self, entry_key: str) -> Path:
        return self.root / entry_key

    def load(self, entry_key: str, name: Optional[str] = None) -> Optional[MmapCSRGraph]:
        """Open an entry as an :class:`MmapCSRGraph`, or ``None`` on a miss.

        A corrupt entry (torn meta, truncated array, version skew) is a miss.
        """
        directory = self.entry_dir(entry_key)
        try:
            meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
            if meta.get("version") != CSR_CACHE_VERSION:
                return None
            num_vertices = int(meta["num_vertices"])
            num_edges = int(meta["num_edges"])
            arrays = {}
            names = ["out_index", "out_targets", "in_index", "in_sources"]
            if meta.get("weighted"):
                names += ["out_weights", "in_weights"]
            for array_name in names:
                arrays[array_name] = np.load(
                    directory / f"{array_name}.npy", mmap_mode="r", allow_pickle=False
                )
            if arrays["out_index"].shape[0] != num_vertices + 1:
                return None
            if arrays["out_targets"].shape[0] != num_edges:
                return None
            if arrays["in_index"].shape[0] != num_vertices + 1:
                return None
            if arrays["in_sources"].shape[0] != num_edges:
                return None
            return MmapCSRGraph(
                out_index=arrays["out_index"],
                out_targets=arrays["out_targets"],
                in_index=arrays["in_index"],
                in_sources=arrays["in_sources"],
                out_weights=arrays.get("out_weights"),
                in_weights=arrays.get("in_weights"),
                name=name or meta.get("name", "graph"),
                validate_edges=False,
                backing_dir=directory,
            )
        except (OSError, ValueError, KeyError, json.JSONDecodeError, GraphError):
            return None

    def store(self, path: PathLike, options: ParseOptions = ParseOptions(),
              name: Optional[str] = None,
              chunk_edges: int = DEFAULT_CHUNK_EDGES) -> str:
        """Ingest ``path`` into the cache (idempotent); return the entry key."""
        entry_key = self.entry_key(path, options)
        if self.load(entry_key) is not None:
            return entry_key
        self.root.mkdir(parents=True, exist_ok=True)
        final = self.entry_dir(entry_key)
        tmp = Path(
            tempfile.mkdtemp(prefix=f"{entry_key[:16]}.tmp.", dir=str(self.root))
        )
        try:
            build_csr_cache_entry(
                path, tmp, options=options, name=name, chunk_edges=chunk_edges,
                digest=file_digest(path),
            )
            if final.exists():
                # A previous (corrupt, or concurrently rebuilt) entry is in
                # the way; keep a valid one, retire a corrupt one.
                if self.load(entry_key) is not None:
                    return entry_key
                shutil.rmtree(final, ignore_errors=True)
            os.replace(tmp, final)
        except OSError:
            # Lost a publish race (ENOTEMPTY) or disk trouble: fine as long
            # as *someone's* valid entry is in place.
            if self.load(entry_key) is None:
                raise
        finally:
            if tmp.exists():
                shutil.rmtree(tmp, ignore_errors=True)
        return entry_key

    def entry_count(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for child in self.root.iterdir()
                   if child.is_dir() and (child / "meta.json").exists())


def ingest_graph(path: PathLike, *,
                 fmt: Optional[str] = None,
                 mmap: Union[bool, str] = "auto",
                 cache_root: Optional[PathLike] = None,
                 name: Optional[str] = None,
                 num_vertices: Optional[int] = None,
                 densify: bool = False,
                 remove_self_loops: bool = False,
                 chunk_edges: int = DEFAULT_CHUNK_EDGES) -> CSRGraph:
    """Load a real-world graph file; the top-level ingestion entry point.

    ``mmap=True`` ingests through the binary-CSR cache and returns an
    :class:`~repro.graph.csr.MmapCSRGraph` whose arrays stream from disk;
    ``mmap=False`` parses straight to RAM; ``"auto"`` (default) picks the
    cache path when an entry already exists or the source file exceeds
    :data:`AUTO_MMAP_MIN_BYTES`.
    """
    options = ParseOptions(
        fmt=fmt, num_vertices=num_vertices,
        densify=densify, remove_self_loops=remove_self_loops,
    )
    if mmap not in (True, False, "auto"):
        raise GraphError(f"mmap must be True, False or 'auto', got {mmap!r}")
    use_mmap = mmap
    if use_mmap == "auto":
        cache = CSRBinaryCache(cache_root)
        entry_key = cache.entry_key(path, options)
        if cache.load(entry_key) is not None:
            use_mmap = True
        else:
            use_mmap = Path(path).stat().st_size > AUTO_MMAP_MIN_BYTES
    if not use_mmap:
        return parse_graph(path, options, name=name, chunk_edges=chunk_edges)
    cache = CSRBinaryCache(cache_root)
    entry_key = cache.store(path, options, name=name, chunk_edges=chunk_edges)
    graph = cache.load(entry_key, name=name)
    if graph is None:  # pragma: no cover - disk failure between store and load
        raise GraphError(f"binary-CSR cache entry for {path} vanished after ingest")
    return graph


# ---------------------------------------------------------------------------
# Matrix-Market writer (round-trip support)
# ---------------------------------------------------------------------------


def save_matrix_market(graph: CSRGraph, path: PathLike) -> None:
    """Write a graph as a Matrix-Market ``coordinate`` file (1-based)."""
    from repro.graph.io import _format_edge_block

    path = Path(path)
    field_kind = "real" if graph.is_weighted else "pattern"
    sources, targets = graph.edge_arrays()
    with path.open("wb") as handle:
        handle.write(f"%%MatrixMarket matrix coordinate {field_kind} general\n".encode())
        handle.write(f"% repro graph: {graph.name}\n".encode())
        handle.write(
            f"{graph.num_vertices} {graph.num_vertices} {graph.num_edges}\n".encode()
        )
        for start in range(0, sources.shape[0], DEFAULT_CHUNK_EDGES):
            stop = start + DEFAULT_CHUNK_EDGES
            weights = graph.out_weights[start:stop] if graph.is_weighted else None
            handle.write(
                _format_edge_block(sources[start:stop] + 1, targets[start:stop] + 1, weights)
            )


# ---------------------------------------------------------------------------
# dataset download / verification tooling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemoteDataset:
    """One known downloadable dataset (URL plus optional pinned checksum)."""

    name: str
    url: str
    description: str
    sha256: Optional[str] = None


#: Real datasets the paper evaluates on (SNAP mirrors).  SNAP publishes no
#: checksums, so entries pin nothing; :func:`fetch_dataset` records the
#: digest on first download (trust-on-first-use) and verifies thereafter.
KNOWN_DATASETS: Dict[str, RemoteDataset] = {
    dataset.name: dataset
    for dataset in (
        RemoteDataset(
            "web-google",
            "https://snap.stanford.edu/data/web-Google.txt.gz",
            "Google web graph (875K vertices, 5.1M edges)",
        ),
        RemoteDataset(
            "soc-livejournal",
            "https://snap.stanford.edu/data/soc-LiveJournal1.txt.gz",
            "LiveJournal social network (4.8M vertices, 69M edges) — the paper's lj",
        ),
        RemoteDataset(
            "soc-pokec",
            "https://snap.stanford.edu/data/soc-pokec-relationships.txt.gz",
            "Pokec social network (1.6M vertices, 30.6M edges)",
        ),
        RemoteDataset(
            "wiki-talk",
            "https://snap.stanford.edu/data/wiki-Talk.txt.gz",
            "Wikipedia talk network (2.4M vertices, 5.0M edges)",
        ),
    )
}

#: Filename of the checksum lockfile kept next to downloaded datasets.
CHECKSUM_FILE = "CHECKSUMS.sha256"


def load_checksums(directory: PathLike) -> Dict[str, str]:
    """Read a ``sha256sum``-format lockfile: ``{filename: hexdigest}``."""
    lockfile = Path(directory) / CHECKSUM_FILE
    checksums: Dict[str, str] = {}
    if not lockfile.exists():
        return checksums
    for line in lockfile.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) >= 2:
            digest, filename = parts[0], parts[-1].lstrip("*")
            checksums[filename] = digest.lower()
    return checksums


def record_checksum(directory: PathLike, filename: str, digest: str) -> None:
    """Append/update one entry of the ``sha256sum``-format lockfile."""
    directory = Path(directory)
    checksums = load_checksums(directory)
    checksums[filename] = digest.lower()
    lines = [f"{checksums[key]}  {key}" for key in sorted(checksums)]
    tmp = directory / f"{CHECKSUM_FILE}.tmp.{os.getpid()}"
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, directory / CHECKSUM_FILE)


def verify_file(path: PathLike, sha256: str) -> None:
    """Raise :class:`GraphError` unless the file's sha256 matches."""
    actual = sha256_file(path)
    if actual != sha256.lower():
        raise GraphError(
            f"checksum mismatch for {path}: expected {sha256.lower()}, got {actual}"
        )


def fetch_dataset(name_or_url: str, dest_dir: PathLike, *,
                  sha256: Optional[str] = None,
                  force: bool = False) -> Path:
    """Download a known dataset (or any URL) with checksum verification.

    The expected digest comes from, in priority order: the explicit
    ``sha256`` argument, the :data:`KNOWN_DATASETS` pin, the lockfile in
    ``dest_dir``.  When none exists the digest of the fresh download is
    recorded in the lockfile so later fetches (and :func:`verify_file` runs)
    catch silent upstream changes or corruption.
    """
    dataset = KNOWN_DATASETS.get(name_or_url)
    url = dataset.url if dataset else name_or_url
    if "://" not in url:
        raise GraphError(
            f"unknown dataset {name_or_url!r}; known: {', '.join(sorted(KNOWN_DATASETS))} "
            "(or pass a full URL)"
        )
    dest_dir = Path(dest_dir)
    dest_dir.mkdir(parents=True, exist_ok=True)
    filename = url.rstrip("/").rsplit("/", 1)[-1]
    dest = dest_dir / filename
    expected = sha256 or (dataset.sha256 if dataset else None) \
        or load_checksums(dest_dir).get(filename)

    if dest.exists() and not force:
        if expected:
            verify_file(dest, expected)
        return dest

    tmp = dest.with_name(f"{dest.name}.tmp.{os.getpid()}")
    try:
        with urllib.request.urlopen(url) as response, open(tmp, "wb") as handle:
            shutil.copyfileobj(response, handle, length=1 << 20)
        if expected:
            verify_file(tmp, expected)
        digest = sha256_file(tmp)
        os.replace(tmp, dest)
    except GraphError:
        tmp.unlink(missing_ok=True)
        raise
    except OSError as error:
        tmp.unlink(missing_ok=True)
        raise GraphError(f"download of {url} failed: {error}") from error
    record_checksum(dest_dir, filename, digest)
    return dest
