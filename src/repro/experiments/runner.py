"""Workload construction and trace-driven simulation.

The pipeline per (application, dataset, reordering) triple mirrors the
paper's methodology (Sec. IV):

1. generate the synthetic dataset and apply the software reordering;
2. run the application to obtain per-iteration frontiers;
3. pick the region of interest — the busiest iteration in the application's
   dominant traversal direction;
4. lay the graph's arrays out in memory and generate the reference stream;
5. filter the stream through the L1-D and L2 caches (these levels always use
   LRU and are therefore independent of the LLC policy under study);
6. replay the surviving LLC accesses under each replacement policy, tagging
   every access with GRASP's reuse hint derived from the Address Bound
   Registers.

Workloads, filtered streams and per-policy results are memoised so that
figures sharing the same runs (e.g. Figs. 5 and 6) do not recompute them.

Two scopes, one pipeline
------------------------
Stages 4-6 run over one of two scopes, chosen by the ``streaming`` flag of
every entry point (:func:`compare_policies`, :func:`simulate_scheme`,
:func:`simulate_policy`, :func:`stream_summary`, :func:`workload_cycles`):
the ROI iteration (``streaming=False``, the paper's methodology) or the
application's *full execution* (``streaming=True``: every iteration's
direction and frontier, generated, filtered and replayed chunk by chunk, so
peak memory is bounded by the chunk budget).  Each stage is written once,
over a stream of :class:`LLCTrace` chunks, and :func:`llc_chunks` is the
only producer of those chunks: one :class:`~repro.fastsim.filter.FilterStream`
filters the scope's raw pieces, which are ``(roi_trace(w),)`` for the ROI
(a one-chunk stream) and the execution's trace chunks otherwise.  Both
scopes store their results in the same memo kinds (``llcchunk`` /
``llcstream`` / ``policystream``), and every key ends with its scope,
``"roi"`` or ``"execution"``.  The scopes differ only in where the raw
trace comes from and where the filtered stream is kept: the ROI's one chunk
in memory and in the disk memo; the execution's chunks in the disk memo's
chunk store or, while no disk memo is installed, in the spill its last
single-scheme fused pass left behind (one execution held at a time), so
single-scheme calls on one execution generate and filter it once between
them.

Fast-path dispatch
------------------
Stages 5 and 6 exist in two implementations.  The default ``vector`` backend
(:mod:`repro.fastsim`) replays the always-LRU L1-D/L2 filters, and the LLC
whenever the scheme under study has an engine, through compiled kernels —
plain LRU, the whole RRIP family (SRRIP/BRRIP/DRRIP/GRASP, with exact PSEL
set dueling and per-access reuse hints), and the full comparison matrix:
SHiP-MEM, Hawkeye, Leeway, the PIN-X pinning configurations (including
BYPASS accounting) and Belady's OPT.  Only the GRASP ablation subclasses
fall back to the scalar per-access simulator, which also remains
selectable as a whole via ``backend="scalar"`` (per call),
:attr:`ExperimentConfig.backend` (per experiment) or the
``REPRO_SIM_BACKEND`` environment variable (process-wide), and which every
simulation runs on a host where the kernels cannot be compiled.
The ``verify`` backend runs both paths and raises
:class:`~repro.fastsim.filter.FastSimMismatchError` unless their
hit/miss/eviction counts are identical.  Backends are bit-equivalent by
construction, so memo keys deliberately exclude the backend.  Every
routing decision is an :class:`~repro.fastsim.plan.ExecutionPlan` from
:mod:`repro.fastsim.plan`, made once for all the schemes a call simulates
on one scope: the fused pass (stages 4-6 in one pass over the raw trace
for every scheme, Belady's OPT included), staged replay of a stored
filtered stream, or the scalar reference.

On-disk memoisation
-------------------
The in-memory memo tables (workloads, the ROI's filtered chunk, per-scheme
stats, stream summaries) can additionally be backed by a persistent store
shared across processes and invocations — see :mod:`repro.experiments.memo`
for the ``<cache_dir>/v4/<kind>/<sha256-of-key>.pkl`` layout
(header, pickle stream, out-of-band array buffers: reads copy the buffers
into owned memory, existence probes unpickle over a read-only mapping).
The store is off unless ``REPRO_CACHE_DIR`` is set or
:func:`set_disk_memo` is called; the sweep service
(:func:`repro.experiments.service.run_sweep`) installs it in every worker so
its tasks and later invocations (Figs. 5-11, Tables 1-7) reuse each other's
runs.  Every key is built from the experiment parameters alone, so a
comparison whose results are stored (a warm or resumed sweep, a figure
driver over ``REPRO_CACHE_DIR``, the parent of a process-pool sweep) reads
only ``policystream`` entries and budget-less ``llcstream`` summaries,
never a ``workload`` entry.
:func:`clear_caches` drops only the in-memory tables, never the disk store.
"""

from __future__ import annotations

import atexit
import functools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analytics import get_application
from repro.analytics.base import AppResult, IterationRecord
from repro.cache import CacheConfig, SetAssociativeCache
from repro.cache.config import HierarchyConfig
from repro.cache.partition import WayPartition
from repro.cache.policies import BeladyOptimal, simulate_opt_misses
from repro.cache.policies.base import ReplacementPolicy
from repro.cache.stats import CacheStats
from repro.core import AddressBoundRegisterFile, GraspClassifier
from repro.experiments.config import ExperimentConfig
from repro.experiments.memo import ChunkSpill, DiskMemo, default_cache_dir
from repro.fastsim.dispatch import VECTOR, VERIFY, resolve_backend
from repro.fastsim.plan import (
    PLANNER,
    ROUTE_FUSED,
    ROUTE_SCALAR,
    STAGE_CORUN,
    STAGE_ONESHOT,
    STAGE_ROI,
    STAGE_STREAMING,
    CorunReplayStream,
    ExecutionPlan,
    FilterStream,
    FusedPipeline,
    LLCAccesses,
    NextUseTable,
    OptStream,
    PolicyReplayStream,
    SimRequest,
    assert_stats_equal,
    resolve_chunk_next_use,
)
# The span tracer of benchmarks/suite wraps these three module globals; the
# runner itself filters and replays through the streams.
from repro.fastsim.plan import run_filter, vector_opt_replay, vector_policy_replay  # noqa: F401
from repro.experiments.schemes import scheme_policy
from repro.graph.csr import CSRGraph
from repro.graph.csr import GraphError
from repro.graph.source import canonical_spec, load_for_experiment
from repro.perf.timing import LevelCounts
from repro.reorder import get_technique
from repro.trace import (
    InterleavedTraceStream,
    MemoryLayout,
    Trace,
    TraceChunk,
    generate_execution_trace,
    generate_iteration_trace,
    iter_execution_trace,
    iter_trace_slices,
)


@dataclass
class Workload:
    """Everything needed to simulate one (app, dataset, reordering) triple."""

    app_name: str
    dataset_name: str
    reorder_name: str
    graph: CSRGraph
    app_result: AppResult
    roi: IterationRecord
    layout: MemoryLayout
    reorder_operations: float
    dominant_direction: str

    @property
    def key(self) -> Tuple[str, str, str]:
        """Identifier used in reports."""
        return (self.app_name, self.dataset_name, self.reorder_name)

    @property
    def total_edges_traversed(self) -> int:
        """Edges traversed across the whole application run (all iterations)."""
        return sum(record.edges_traversed for record in self.app_result.iterations)


@dataclass
class LLCTrace:
    """The post-L1/L2 access stream seen by the LLC (or one chunk of it)."""

    byte_addresses: np.ndarray
    block_addresses: np.ndarray
    pcs: np.ndarray
    regions: np.ndarray
    hints: np.ndarray
    upstream_l1_hits: int
    upstream_l2_hits: int
    total_references: int

    def __len__(self) -> int:
        return int(self.block_addresses.shape[0])


@dataclass
class DataPoint:
    """Result of simulating one scheme on one workload."""

    app_name: str
    dataset_name: str
    scheme: str
    stats: CacheStats
    cycles: float
    miss_reduction_pct: float = 0.0
    speedup_pct: float = 0.0


# ---------------------------------------------------------------------------
# memoisation
# ---------------------------------------------------------------------------

# The two scopes share every table: their keys never collide, because each
# ends with its scope ("roi" or "execution").  ``_LLC_TRACES`` holds only the
# ROI's one filtered chunk, under its stream key; the execution's chunks are
# never held in memory, only spilled (``_HELD``, below ``llc_chunks``).
_WORKLOADS: Dict[tuple, Workload] = {}
_LLC_TRACES: Dict[tuple, LLCTrace] = {}
_POLICY_RUNS: Dict[tuple, CacheStats] = {}
_CORUN_RUNS: Dict[tuple, CacheStats] = {}
_SUMMARIES: Dict[tuple, dict] = {}

# Optional persistent layer underneath the tables above.  ``None`` plus an
# unresolved flag means "look at REPRO_CACHE_DIR on first use".
_DISK_MEMO: Optional[DiskMemo] = None
_DISK_MEMO_RESOLVED = False


def set_disk_memo(memo: Optional[DiskMemo]) -> None:
    """Install (or, with ``None``, disable) the on-disk memo store."""
    global _DISK_MEMO, _DISK_MEMO_RESOLVED
    _DISK_MEMO = memo
    _DISK_MEMO_RESOLVED = True


def active_disk_memo() -> Optional[DiskMemo]:
    """The on-disk memo store in effect, resolving ``REPRO_CACHE_DIR`` lazily."""
    global _DISK_MEMO, _DISK_MEMO_RESOLVED
    if not _DISK_MEMO_RESOLVED:
        root = default_cache_dir()
        _DISK_MEMO = DiskMemo(root) if root is not None else None
        _DISK_MEMO_RESOLVED = True
    return _DISK_MEMO


def _recall(table: Dict[tuple, object], kind: str, key: tuple):
    """``key``'s value from memory, then from disk; ``None`` when neither has it."""
    if key in table:
        return table[key]
    memo = active_disk_memo()
    if memo is not None:
        value = memo.get(kind, key)
        if value is not None:
            table[key] = value
            return value
    return None


def _remember(table: Dict[tuple, object], kind: str, key: tuple, value):
    """Store ``value`` under ``key`` in memory and on disk; returns it."""
    table[key] = value
    memo = active_disk_memo()
    if memo is not None:
        memo.put(kind, key, value)
    return value


def _memoised(table: Dict[tuple, object], kind: str, key: tuple, compute):
    """Look ``key`` up in memory, then on disk, computing (and storing) last."""
    value = _recall(table, kind, key)
    return value if value is not None else _remember(table, kind, key, compute())


def clear_caches() -> None:
    """Drop the in-memory memo tables and the held execution stream (the
    on-disk store, if any, persists)."""
    for table in (_WORKLOADS, _LLC_TRACES, _POLICY_RUNS, _CORUN_RUNS, _SUMMARIES):
        table.clear()
    _drop_held()


# ---------------------------------------------------------------------------
# memo keys
# ---------------------------------------------------------------------------
#
# Every persisted artifact is addressed by a deterministic tuple built from
# nothing but the experiment parameters, so keys (and therefore the
# content-addressed task ids of :mod:`repro.experiments.service`) can be
# computed *before* any simulation runs.  The builders below are the single
# source of truth for those tuples: the memoised pipeline stages and the
# sweep service both go through them, which is what guarantees that a task
# scheduled remotely lands on exactly the entry the serial runner would read.


def _resolve_merged(config: ExperimentConfig, merged: Optional[bool]) -> bool:
    return config.merged_properties if merged is None else merged


def canonical_dataset(dataset_name: str) -> str:
    """Memo-key form of a dataset entry (name or ``repro.graph.load`` spec).

    Synthetic specs ("lj", "rmat:scale=18,seed=7") canonicalize to
    themselves, so every pre-existing memo key is byte-identical and
    MEMO_VERSION does not move; file specs canonicalize to their
    content-addressed form so a memo entry tracks the file's *bytes*, not
    its path.  Unknown names pass through untouched — they fail loudly at
    load time instead of at key-construction time.
    """
    try:
        return canonical_spec(dataset_name)
    except GraphError:
        return dataset_name


def workload_memo_key(
    app_name: str,
    dataset_name: str,
    reorder: str,
    config: ExperimentConfig,
    merged: Optional[bool] = None,
) -> tuple:
    """Memo key of a built :class:`Workload` (kind ``workload``)."""
    return (
        app_name, canonical_dataset(dataset_name), reorder,
        config.scale, config.seed, _resolve_merged(config, merged),
    )


def _scope(streaming: bool) -> str:
    """The scope tag that ends every filtered-stream and per-scheme key."""
    return "execution" if streaming else "roi"


def llcstream_summary_memo_key(
    app_name: str,
    dataset_name: str,
    reorder: str,
    config: ExperimentConfig,
    merged: Optional[bool] = None,
    *,
    streaming: bool,
) -> tuple:
    """Budget-independent key of one scope's L1/L2 counters (kind ``llcstream``)."""
    return (
        (app_name, canonical_dataset(dataset_name), reorder),
        config.scale, config.seed, config.hierarchy,
        _resolve_merged(config, merged),
        _scope(streaming),
    )


def llcstream_memo_key(
    app_name: str,
    dataset_name: str,
    reorder: str,
    config: ExperimentConfig,
    merged: Optional[bool] = None,
    *,
    streaming: bool,
    max_chunk_accesses: Optional[int] = None,
) -> tuple:
    """Key of one scope's stored filtered stream: its manifest (kind
    ``llcstream``), which chunk ``i`` (kind ``llcchunk``) extends by ``(i,)``.

    The summary key plus the chunk budget for the execution, whose chunk
    boundaries depend on it, or plus ``None`` for the one-chunk ROI.  It
    never equals the summary key, which fused passes write without storing
    any chunk.
    """
    budget = _chunk_budget(config, max_chunk_accesses) if streaming else None
    return llcstream_summary_memo_key(
        app_name, dataset_name, reorder, config, merged, streaming=streaming
    ) + (budget,)


def policystream_memo_key(
    app_name: str,
    dataset_name: str,
    reorder: str,
    scheme: str,
    config: ExperimentConfig,
    merged: Optional[bool] = None,
    *,
    streaming: bool,
) -> tuple:
    """Memo key of one scheme's stats on one scope (kind ``policystream``)."""
    return (
        (app_name, canonical_dataset(dataset_name), reorder),
        scheme, config.scale, config.seed, config.hierarchy,
        _resolve_merged(config, merged),
        _scope(streaming),
    )


@dataclass(frozen=True)
class CorunSpec:
    """One multi-programmed (co-run) experiment: who runs, and how they meet.

    ``pairs`` lists the co-running applications in stream order — stream ``k``
    is ``pairs[k]`` — as ``(app_name, dataset_name)`` tuples.  The schedule
    parameters select how the per-app LLC streams interleave (see
    :class:`~repro.trace.interleave.InterleavedTraceStream`) and ``partition``
    optionally confines each stream to its own LLC ways
    (:class:`~repro.cache.partition.WayPartition`, one share per stream;
    ``None`` is the free-for-all contention regime).
    """

    pairs: Tuple[Tuple[str, str], ...]
    schedule: str = "round_robin"
    quantum: int = 64
    seed: int = 0
    partition: Optional[WayPartition] = None

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a co-run needs at least one application")
        if self.partition is not None and self.partition.num_streams != len(self.pairs):
            raise ValueError(
                f"partition {self.partition} provisions "
                f"{self.partition.num_streams} streams but the co-run has "
                f"{len(self.pairs)}"
            )

    @property
    def num_streams(self) -> int:
        return len(self.pairs)


def corun_memo_key(
    spec: CorunSpec,
    reorder: str,
    scheme: str,
    config: ExperimentConfig,
    merged: Optional[bool] = None,
) -> tuple:
    """Memo key of one scheme's co-run replay stats (kind ``corun``).

    Results are chunk-budget- and backend-invariant like the single-app
    keys; the schedule parameters and the partition shares are load-bearing
    (they change the merged access order / victim domains).
    """
    return (
        tuple((app, canonical_dataset(dataset)) for app, dataset in spec.pairs),
        reorder, scheme,
        spec.schedule, spec.quantum, spec.seed,
        spec.partition.counts if spec.partition is not None else None,
        config.scale, config.seed, config.hierarchy,
        _resolve_merged(config, merged),
        "corun",
    )


# ---------------------------------------------------------------------------
# workload construction
# ---------------------------------------------------------------------------

def build_workload(
    app_name: str,
    dataset_name: str,
    reorder: str = "dbg",
    config: Optional[ExperimentConfig] = None,
    merged_properties: Optional[bool] = None,
) -> Workload:
    """Build (and memoise) one workload."""
    config = config or ExperimentConfig.default()
    merged = config.merged_properties if merged_properties is None else merged_properties
    key = workload_memo_key(app_name, dataset_name, reorder, config, merged)

    def compute() -> Workload:
        app = get_application(app_name, merged_properties=merged)
        weighted = app_name == "SSSP"
        graph = load_for_experiment(
            dataset_name, scale=config.scale, seed=config.seed,
            weighted=weighted, cache_root=config.graph_cache_dir,
        )

        degree_source = "in" if app.dominant_direction == "push" else "out"
        technique = get_technique(reorder, degree_source=degree_source)
        reorder_result = technique.apply(graph)
        reordered = reorder_result.graph

        root = int(np.argmax(reordered.out_degrees))
        app_result = app.run(reordered, root=root)

        candidates = app_result.iterations_in_direction(app.dominant_direction) or app_result.iterations
        roi = max(candidates, key=lambda record: record.active_vertices)

        layout = MemoryLayout(reordered, app.access_profile())
        return Workload(
            app_name=app_name,
            dataset_name=dataset_name,
            reorder_name=reorder,
            graph=reordered,
            app_result=app_result,
            roi=roi,
            layout=layout,
            reorder_operations=reorder_result.operations,
            dominant_direction=app.dominant_direction,
        )

    return _memoised(_WORKLOADS, "workload", key, compute)


def roi_trace(workload: Workload) -> Trace:
    """Reference stream of the workload's region-of-interest iteration."""
    return generate_iteration_trace(
        workload.graph,
        workload.layout,
        workload.dominant_direction,
        frontier=workload.roi.frontier,
    )


# ---------------------------------------------------------------------------
# L1/L2 filtering and hint classification
# ---------------------------------------------------------------------------

def _filter_piece(
    filter_stream: FilterStream, trace: Trace, classifier: GraspClassifier
) -> LLCTrace:
    """Feed one raw trace piece through ``filter_stream``; its LLC-bound chunk.

    The chunk's upstream counters are the hits this piece added, and under
    ``verify`` the stream cross-checks the backends' L1/L2 counters so far.
    """
    l1_before, l2_before = filter_stream.upstream_hit_counts()
    keep = filter_stream.feed(trace)
    l1_after, l2_after = filter_stream.upstream_hit_counts()
    if filter_stream.mode == VERIFY:
        filter_stream.level_stats()
    byte_addresses = trace.addresses[keep]
    return LLCTrace(
        byte_addresses=byte_addresses,
        block_addresses=byte_addresses >> filter_stream.hierarchy.llc.block_offset_bits,
        pcs=trace.pcs[keep],
        regions=trace.regions[keep],
        hints=classifier.classify_array(byte_addresses),
        upstream_l1_hits=l1_after - l1_before,
        upstream_l2_hits=l2_after - l2_before,
        total_references=len(trace),
    )


def filter_trace(
    trace: Trace,
    hierarchy: HierarchyConfig,
    layout: Optional[MemoryLayout] = None,
    backend: Optional[str] = None,
) -> LLCTrace:
    """Run the L1-D/L2 filters over a trace and return the LLC-bound accesses.

    One piece through a fresh :class:`~repro.fastsim.filter.FilterStream`.
    ``backend`` selects the implementation (``vector``/``scalar``/``verify``);
    ``None`` defers to :func:`repro.fastsim.dispatch.default_backend`.  Both backends
    produce identical traces.
    """
    return _filter_piece(
        FilterStream(hierarchy, backend=backend), trace, _hint_classifier(layout, hierarchy.llc)
    )


def _hint_classifier(
    layout: Optional[MemoryLayout], llc_config: CacheConfig
) -> GraspClassifier:
    """GRASP classifier configured with the workload's Address Bound Registers."""
    abrs = AddressBoundRegisterFile(capacity=8)
    if layout is not None:
        for start, end in layout.property_array_bounds():
            abrs.configure(start, end)
    return GraspClassifier(abrs, llc_size_bytes=llc_config.size_bytes)


def llc_trace_for(workload: Workload, config: ExperimentConfig) -> LLCTrace:
    """Memoised L1/L2-filtered LLC trace of the workload's ROI.

    The ROI stream's one chunk (:func:`llc_chunks`); unpacking it drains the
    stream, so its manifest is written.
    """
    (chunk,) = llc_chunks(workload, config)
    return chunk


# ---------------------------------------------------------------------------
# the filtered stream of either scope
# ---------------------------------------------------------------------------

#: Default access budget per streamed trace chunk (a few tens of MB of
#: working set); override per config (`ExperimentConfig.chunk_accesses`) or
#: per call.  The budget only bounds peak memory — results are bit-identical
#: for every value.
DEFAULT_CHUNK_ACCESSES = 1 << 20


def execution_trace(workload: Workload) -> Trace:
    """One-shot reference stream of the workload's *full* execution.

    Every iteration of the application run contributes its direction and
    frontier (warmup, push/pull switches, frontier evolution), unlike
    :func:`roi_trace`, which materializes only the busiest iteration.  Large
    executions should use :func:`iter_execution_chunks` instead — this
    function holds the whole stream in memory and exists for small workloads
    and the streaming-equivalence tests.
    """
    return generate_execution_trace(
        workload.graph, workload.layout, workload.app_result.iterations
    )


def iter_execution_chunks(
    workload: Workload, max_chunk_accesses: Optional[int] = None
) -> Iterator[TraceChunk]:
    """Stream the workload's full execution as bounded trace chunks."""
    return iter_execution_trace(
        workload.graph,
        workload.layout,
        workload.app_result.iterations,
        max_chunk_accesses=max_chunk_accesses,
    )


def _chunk_budget(config: ExperimentConfig, max_chunk_accesses: Optional[int]) -> int:
    if max_chunk_accesses is not None:
        return max_chunk_accesses
    if config.chunk_accesses is not None:
        return config.chunk_accesses
    return DEFAULT_CHUNK_ACCESSES


def _summary_key(workload: Workload, config: ExperimentConfig, streaming: bool) -> tuple:
    """Budget-independent key of one scope's aggregate L1/L2 counters."""
    return llcstream_summary_memo_key(
        *workload.key, config, workload.layout.profile.merged, streaming=streaming
    )


def _stream_key(
    workload: Workload,
    config: ExperimentConfig,
    streaming: bool,
    max_chunk_accesses: Optional[int] = None,
) -> tuple:
    """Key of one scope's stored filtered stream (its manifest)."""
    return llcstream_memo_key(
        *workload.key, config, workload.layout.profile.merged,
        streaming=streaming, max_chunk_accesses=max_chunk_accesses,
    )


class _HeldStream:
    """The filtered execution stream one fused pass gathered, spilled.

    Per chunk, :meth:`put` keeps the LLC-bound accesses' byte addresses,
    kernel-written GRASP hints, regions and PCs in a
    :class:`~repro.experiments.memo.ChunkSpill`, and the chunk's L1/L2 hits
    and raw reference count in memory; iterating yields the
    :class:`LLCTrace` chunks :func:`llc_chunks` would filter afresh.
    """

    def __init__(self, key: tuple, block_offset_bits: int) -> None:
        self.key = key
        self.owner = os.getpid()
        self._offset_bits = block_offset_bits
        self._spill = ChunkSpill()
        self._counts: List[Tuple[int, int, int]] = []
        self._upstream = (0, 0)

    def put(self, chunk: LLCAccesses, upstream: Tuple[int, int], references: int) -> None:
        """Keep one gathered chunk; ``upstream`` is the pass's (L1, L2) hits so far."""
        index = len(self._counts)
        for name in ("addresses", "hints", "regions", "pcs"):
            self._spill.put(name, index, getattr(chunk, name))
        (l1_hits, l2_hits), (l1_before, l2_before) = upstream, self._upstream
        self._counts.append((l1_hits - l1_before, l2_hits - l2_before, references))
        self._upstream = upstream

    def __iter__(self) -> Iterator[LLCTrace]:
        spill = self._spill
        for index, (l1_hits, l2_hits, references) in enumerate(self._counts):
            addresses = spill.get("addresses", index)
            yield LLCTrace(
                byte_addresses=addresses,
                block_addresses=addresses >> self._offset_bits,
                pcs=spill.get("pcs", index),
                regions=spill.get("regions", index),
                hints=spill.get("hints", index),
                upstream_l1_hits=l1_hits,
                upstream_l2_hits=l2_hits,
                total_references=references,
            )

    def close(self) -> None:
        self._spill.close()


# The execution stream the last single-scheme execution-scope fused pass
# gathered while no disk memo was installed, under its stream key (a
# multi-scheme pass holds nothing).  One is held at a time: the next such
# pass replaces it, and clear_caches(), a pass that raises and
# interpreter exit remove it.  With a disk memo installed it is never served,
# so the memo's chunk store stays the only store.  Only ``vector`` requests
# replay it, since the vector filter kernel produced it: ``scalar`` and
# ``verify`` filter the execution themselves.  A forked child inherits it
# but never reads it, since the two processes' file offsets are shared.
_HELD: Optional[_HeldStream] = None


def _drop_held() -> None:
    """Remove the held execution stream, if any."""
    global _HELD
    held, _HELD = _HELD, None
    if held is not None:
        held.close()


atexit.register(_drop_held)


def _held(key: tuple, backend: Optional[str]) -> Optional[_HeldStream]:
    """The held execution stream if its key is ``key``, ``backend`` resolves
    to ``vector``, no disk memo is installed and this process gathered it;
    else ``None``."""
    if (
        _HELD is not None
        and _HELD.key == key
        and _HELD.owner == os.getpid()
        and active_disk_memo() is None
        and resolve_backend(backend) == VECTOR
    ):
        return _HELD
    return None


def llc_chunks(
    workload: Workload,
    config: ExperimentConfig,
    streaming: bool = False,
    max_chunk_accesses: Optional[int] = None,
    backend: Optional[str] = None,
) -> Iterator[LLCTrace]:
    """One scope's filtered LLC stream, as :class:`LLCTrace` chunks.

    The only producer of filtered chunks, for both scopes.  The raw pieces
    are ``(roi_trace(workload),)`` for the ROI, a one-chunk stream, or the
    full execution's trace chunks under the chunk budget.  One
    :class:`~repro.fastsim.filter.FilterStream` filters them, its L1/L2 state
    carried across pieces, and every kept access is tagged with its GRASP
    reuse hint, so the chunks concatenate to exactly the filtered
    materialized trace.

    When the stream completes, its counters are published under the
    budget-less summary key (for :func:`stream_summary`).  With the on-disk
    memo, every chunk is persisted (``llcchunk``) and the manifest and the
    summary (both ``llcstream``) are written after the last one; the ROI's
    chunk is also held in memory.  Later calls serve the stored stream from
    memory or, one chunk at a time, from disk, so peak memory stays O(chunk)
    on the memo-hit path too; serving a stored manifest also writes the
    summary back when the store lost it.  Without a disk memo, the
    execution stream the last single-scheme fused pass held (under the same
    key, so at the same chunk budget) is served the same way, to the
    ``vector`` backend only.  A missing or corrupt persisted chunk
    falls back to regeneration mid-stream: the already-served prefix is
    re-filtered to rebuild the L1/L2 state but not yielded again, and the
    broken tail is persisted anew.
    """
    key = _stream_key(workload, config, streaming, max_chunk_accesses)
    backend = backend if backend is not None else config.backend
    if key in _LLC_TRACES:
        yield _LLC_TRACES[key]
        return
    held = _held(key, backend)
    if held is not None:
        yield from held
        return
    summary_key = _summary_key(workload, config, streaming)
    memo = active_disk_memo()
    served = 0
    if memo is not None:
        manifest = memo.get("llcstream", key)
        if manifest is not None:
            _SUMMARIES.setdefault(summary_key, manifest)
            if not memo.contains("llcstream", summary_key):
                # A store that lost the summary gets it back, so the next
                # comparison reads it by key again.
                memo.put("llcstream", summary_key, manifest)
            while served < manifest["chunks"]:
                llc_chunk = memo.get("llcchunk", key + (served,))
                if llc_chunk is None:
                    break
                yield llc_chunk
                served += 1
            if served == manifest["chunks"]:
                if not streaming:
                    _LLC_TRACES[key] = llc_chunk
                return
    if streaming:
        budget = _chunk_budget(config, max_chunk_accesses)
        pieces = (chunk.trace for chunk in iter_execution_chunks(workload, budget))
    else:
        pieces = (roi_trace(workload),)
    filter_stream = FilterStream(config.hierarchy, backend=backend)
    classifier = _hint_classifier(workload.layout, config.hierarchy.llc)
    count = 0
    for piece in pieces:
        llc_chunk = _filter_piece(filter_stream, piece, classifier)
        if memo is not None and count >= served:
            # Chunks before `served` were just read back from disk intact;
            # only the broken/missing tail needs (re)persisting.
            memo.put("llcchunk", key + (count,), llc_chunk)
        count += 1
        if count > served:
            yield llc_chunk
    l1_hits, l2_hits = filter_stream.upstream_hit_counts()
    summary = {
        "chunks": count,
        "l1_hits": l1_hits,
        "l2_hits": l2_hits,
        "total_references": filter_stream.total_references,
    }
    # The manifest serves the chunk store; the budget-less summary lets
    # stream_summary reuse the counters (identical for every budget).
    _SUMMARIES[summary_key] = summary
    if not streaming:
        _LLC_TRACES[key] = llc_chunk
    if memo is not None:
        memo.put("llcstream", key, summary)
        memo.put("llcstream", summary_key, summary)


def _stream_stored(key: tuple, backend: Optional[str]) -> bool:
    """Whether the filtered stream whose manifest key is ``key`` is stored
    for a ``backend`` request: the ROI's chunk in memory, the held execution
    stream (:func:`_held`), or either scope's manifest on disk."""
    memo = active_disk_memo()
    return (
        key in _LLC_TRACES
        or _held(key, backend) is not None
        or (memo is not None and memo.contains("llcstream", key))
    )


def stream_summary(
    workload: Workload,
    config: ExperimentConfig,
    streaming: bool = False,
    max_chunk_accesses: Optional[int] = None,
) -> dict:
    """Aggregate L1/L2 filter counters of one scope's stream.

    Served from the in-memory/on-disk budget-less summary when there is
    one: the fused routes and the filtered stream both leave one behind,
    and the counters are identical for every chunk budget.  Otherwise
    drains the scope's filtered stream (:func:`llc_chunks`) once, which
    publishes them — so timing never forces the filtered stream back into
    existence when a fused run already produced them.
    """
    key = _summary_key(workload, config, streaming)
    summary = _recall(_SUMMARIES, "llcstream", key)
    if summary is None:
        for _ in llc_chunks(workload, config, streaming, max_chunk_accesses):
            pass
        summary = _SUMMARIES[key]
    return summary


def workload_cycles(
    workload: Workload,
    stats: CacheStats,
    config: ExperimentConfig,
    streaming: bool = False,
) -> float:
    """Execution cycles of one scope of the workload under an LLC outcome:
    the cycle model over the scope's :func:`stream_summary`.  The
    comparisons hand the model a summary read by key instead, with no
    workload."""
    return _scope_cycles(stream_summary(workload, config, streaming), stats, config)


def _scope_cycles(summary: dict, stats: CacheStats, config: ExperimentConfig) -> float:
    """Execution cycles of one scope from its L1/L2 ``summary`` and an LLC outcome."""
    # Bypassed accesses are already counted as misses by the cache, so the
    # hit/miss split fully describes where every LLC access was served.
    counts = LevelCounts(
        l1_hits=summary["l1_hits"],
        l2_hits=summary["l2_hits"],
        llc_hits=stats.hits,
        memory_accesses=stats.misses,
    )
    return config.timing.cycles(counts)


# ---------------------------------------------------------------------------
# LLC replay over a chunk stream
# ---------------------------------------------------------------------------

class _ScalarLLCStream:
    """Scalar LLC reference: one live cache fed chunk by chunk.

    Co-run chunks carry ``stream_ids``; the cache then keeps per-stream
    counters (``track_streams``) and honours an optional way partition.
    """

    def __init__(
        self,
        policy: ReplacementPolicy,
        llc_config: CacheConfig,
        partition: Optional[WayPartition] = None,
        track_streams: bool = False,
    ) -> None:
        self._cache = SetAssociativeCache(
            llc_config, policy, partition=partition, track_streams=track_streams
        )

    def feed(self, chunk, use_hints: bool = True) -> None:
        access = self._cache.access_block
        blocks = chunk.block_addresses.tolist()
        pcs = chunk.pcs.tolist()
        regions = chunk.regions.tolist()
        hints = chunk.hints.tolist() if use_hints else [0] * len(blocks)
        stream_ids = getattr(chunk, "stream_ids", None)
        streams = stream_ids.tolist() if stream_ids is not None else [0] * len(blocks)
        for block, pc, hint, region, stream in zip(blocks, pcs, hints, regions, streams):
            access(block, pc, hint, region, stream)

    def stats(self) -> CacheStats:
        return self._cache.stats


class _StagedReplay:
    """One policy's LLC replay over a stream of filtered chunks, under any
    backend.

    ``vector`` feeds a :class:`~repro.fastsim.replay.PolicyReplayStream`,
    ``scalar`` keeps the reference cache alive across chunks, and
    ``verify`` runs both and raises
    :class:`~repro.fastsim.filter.FastSimMismatchError` unless their
    statistics are identical.  The plan's ``reference`` schemes (a scalar
    route's every scheme, or the members without a compiled engine) replay
    through the reference alone.  A co-run's merged, stream-tagged
    chunks (``corun`` is its spec) replay through a
    :class:`~repro.fastsim.corun.CorunReplayStream` and a stream-tracking
    reference cache under the spec's partition, so the cross-check covers
    every per-stream counter.
    """

    def __init__(
        self,
        scheme: str,
        policy,
        llc_config: CacheConfig,
        plan: ExecutionPlan,
        corun: Optional[CorunSpec] = None,
    ) -> None:
        self.name = policy.name
        self.corun = corun
        partition = corun.partition if corun is not None else None
        self.vector = None
        if scheme not in plan.reference:
            self.vector = (
                PolicyReplayStream(policy, llc_config)
                if corun is None
                else CorunReplayStream(
                    policy, llc_config, corun.num_streams, partition=partition
                )
            )
        self.scalar = None
        if self.vector is None or plan.verify:
            self.scalar = _ScalarLLCStream(
                policy, llc_config, partition=partition, track_streams=corun is not None
            )

    def feed(self, chunk, use_hints: bool) -> None:
        hints = chunk.hints if use_hints else None
        if self.corun is not None and self.vector is not None:
            self.vector.feed(
                chunk.block_addresses, chunk.stream_ids, hints, chunk.regions, chunk.pcs
            )
        elif self.vector is not None:
            self.vector.feed(
                chunk.block_addresses, hints=hints, regions=chunk.regions, pcs=chunk.pcs
            )
        if self.scalar is not None:
            self.scalar.feed(chunk, use_hints)

    def stats(self) -> CacheStats:
        if self.vector is None:
            return self.scalar.stats().validate()
        if self.scalar is not None:
            assert_stats_equal(
                self.scalar.stats().validate(), self.vector.stats(), f"LLC {self.name} replay"
            )
        return self.vector.stats()

    def close(self) -> None:
        """Nothing to release: the replay holds no chunk."""


class _HeldChunks:
    """:class:`~repro.experiments.memo.ChunkSpill`'s interface over memory."""

    def __init__(self) -> None:
        self._arrays: Dict[tuple, np.ndarray] = {}

    def put(self, name: str, index: int, array: np.ndarray) -> None:
        self._arrays[name, index] = array

    def get(self, name: str, index: int) -> np.ndarray:
        return self._arrays[name, index]

    def close(self) -> None:
        self._arrays.clear()


class _OptReplay:
    """Belady's OPT lower bound over a stream of LLC chunks, in two passes.

    OPT needs the future, so it cannot replay as the chunks arrive.
    :meth:`put` keeps each chunk's LLC-bound blocks: in memory for a
    one-shot trace or the ROI, spilled to disk
    (:class:`~repro.experiments.memo.ChunkSpill`) for the full execution, so
    peak memory stays bounded by the chunk budget plus the reverse pass's
    :class:`~repro.fastsim.opt.NextUseTable` (one int64 per distinct block
    and its id map's key table).  Both the staged path (through
    :meth:`feed`) and the fused pass hand it the blocks.  :meth:`stats` then
    runs the two passes: a reverse sweep resolves globally consistent
    per-chunk next-use indices
    (:func:`~repro.fastsim.opt.resolve_chunk_next_use`), and a forward sweep
    feeds an :class:`~repro.fastsim.opt.OptStream`.

    The scalar reference (:func:`simulate_opt_misses`) is inherently
    one-shot, so ``scalar`` and the ``verify`` cross-check materialize the
    filtered stream — use them at test scales only.
    """

    def __init__(self, llc_config: CacheConfig, plan: ExecutionPlan) -> None:
        self.llc_config = llc_config
        self.plan = plan
        self._store = ChunkSpill() if plan.stage == STAGE_STREAMING else _HeldChunks()
        self._starts: List[int] = []
        self._length = 0

    def put(self, blocks: np.ndarray) -> None:
        """Keep one chunk's LLC-bound blocks for the passes after the stream."""
        self._store.put("blocks", len(self._starts), blocks)
        self._starts.append(self._length)
        self._length += len(blocks)

    def feed(self, chunk, use_hints: bool) -> None:
        self.put(chunk.block_addresses)

    def _materialized(self) -> np.ndarray:
        if not self._starts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [self._store.get("blocks", index) for index in range(len(self._starts))]
        )

    def stats(self) -> CacheStats:
        store, starts, llc_config = self._store, self._starts, self.llc_config
        if self.plan.route == ROUTE_SCALAR:
            return simulate_opt_misses(self._materialized(), llc_config)
        table = NextUseTable()
        for index in reversed(range(len(starts))):
            store.put(
                "next",
                index,
                resolve_chunk_next_use(store.get("blocks", index), starts[index], table),
            )
        engine = OptStream(llc_config.num_sets, llc_config.ways)
        for index in range(len(starts)):
            engine.feed(store.get("blocks", index), store.get("next", index))
        stats = CacheStats.from_counts(
            name=f"{llc_config.name}-OPT",
            hits=engine.hit_count,
            misses=engine.miss_count,
            evictions=engine.evictions,
        )
        if self.plan.verify:
            scalar_stats = simulate_opt_misses(self._materialized(), llc_config)
            assert_stats_equal(scalar_stats, stats, "LLC OPT replay")
        return stats

    def close(self) -> None:
        self._store.close()


def _replay_llc(
    chunks: Iterable[LLCTrace],
    policies: Sequence,
    llc_config: CacheConfig,
    use_hints: bool,
    plan: ExecutionPlan,
    corun: Optional[CorunSpec] = None,
) -> List[CacheStats]:
    """Replay every policy over one stream of LLC chunks, under any backend.

    The stream is read once: each chunk feeds every policy's replay in turn
    (:class:`_StagedReplay`, or :class:`_OptReplay` for Belady's OPT).
    ``policies`` align with ``plan.schemes``.  Returns the policies'
    statistics in order.
    """
    replays: list = []
    try:
        for scheme, policy in zip(plan.schemes, policies):
            replays.append(
                _OptReplay(llc_config, plan)
                if type(policy) is BeladyOptimal
                else _StagedReplay(scheme, policy, llc_config, plan, corun)
            )
        for chunk in chunks:
            for replay in replays:
                replay.feed(chunk, use_hints)
        return [replay.stats() for replay in replays]
    finally:
        for replay in replays:
            replay.close()


def _policy_label(policy) -> str:
    """Scheme label used when planning from a bare policy object."""
    return getattr(policy, "name", type(policy).__name__)


def simulate_llc_policy(
    llc_trace: LLCTrace,
    policy,
    llc_config: CacheConfig,
    use_hints: bool = True,
    backend: Optional[str] = None,
) -> CacheStats:
    """Replay one materialized LLC trace under one policy (a one-chunk stream).

    Routing goes through :class:`repro.fastsim.plan.RoutePlanner`: schemes
    with a vectorized engine (plain LRU, the RRIP family with the trace's
    reuse-hint stream wired through, SHiP-MEM, Hawkeye, Leeway and PIN-X
    with hint and PC streams wired through, and Belady's OPT) replay
    through :mod:`repro.fastsim`; only the GRASP ablation subclasses use the
    scalar simulator regardless of the backend.
    """
    plan = PLANNER.plan(
        SimRequest(
            schemes=(_policy_label(policy),),
            policies=(policy,),
            backend=backend,
            stage=STAGE_ONESHOT,
        )
    )
    (stats,) = _replay_llc((llc_trace,), (policy,), llc_config, use_hints, plan)
    return stats


def simulate_opt(
    llc_trace: LLCTrace, llc_config: CacheConfig, backend: Optional[str] = None
) -> CacheStats:
    """Belady's OPT lower bound on misses for an LLC trace.

    Dispatches like :func:`simulate_llc_policy`: the ``vector`` backend uses
    the batched next-use engine (:mod:`repro.fastsim.opt`), ``scalar`` the
    offline reference loop, and ``verify`` runs both and asserts identical
    counts.
    """
    return simulate_llc_policy(llc_trace, BeladyOptimal(llc_config), llc_config, backend=backend)


# ---------------------------------------------------------------------------
# workload-level simulation (both scopes)
# ---------------------------------------------------------------------------

def _policy_for(scheme: str, config: ExperimentConfig):
    """The live policy object behind a scheme name (OPT included)."""
    if scheme == "OPT":
        return BeladyOptimal(config.hierarchy.llc)
    return scheme_policy(scheme)


def _plan(
    schemes: Sequence[str],
    policies: Sequence,
    config: ExperimentConfig,
    streaming: bool,
    backend: Optional[str] = None,
    have_stream: bool = False,
) -> ExecutionPlan:
    """Plan schemes over one scope of a workload, as one unit."""
    return PLANNER.plan(
        SimRequest(
            schemes=tuple(schemes),
            policies=tuple(policies),
            backend=backend if backend is not None else config.backend,
            stage=STAGE_STREAMING if streaming else STAGE_ROI,
            have_stream=have_stream,
        )
    )


def _fused_replay(
    pieces: Iterable[Trace],
    hierarchy: HierarchyConfig,
    classifier: GraspClassifier,
    policies: Sequence,
    use_hints: bool,
    plan: ExecutionPlan,
    held: Optional[_HeldStream] = None,
):
    """Feed raw trace pieces once through one
    :class:`~repro.fastsim.pipeline.FusedPipeline` for every policy.

    The online policies replay inside the pipeline; each piece's LLC-bound
    blocks go to Belady's OPT (:class:`_OptReplay`), whose two passes run
    after this one, and with ``held`` each piece's gathered chunk is kept
    there too.  No filtered stream is materialized in memory.  Returns the
    policies' statistics in order, the pipeline (for its L1/L2 counters)
    and the number of pieces fed.
    """
    opts: dict = {}
    try:
        for index, policy in enumerate(policies):
            if type(policy) is BeladyOptimal:
                opts[index] = _OptReplay(hierarchy.llc, plan)
        pipeline = FusedPipeline(
            hierarchy,
            [policy for index, policy in enumerate(policies) if index not in opts],
            classifier=classifier,
            use_hints=use_hints,
        )
        count = 0
        for piece in pieces:
            chunk = pipeline.feed(piece)
            for opt in opts.values():
                opt.put(chunk.blocks)
            if held is not None:
                held.put(chunk, pipeline.upstream_hit_counts(), len(piece))
            count += 1
        online = iter(pipeline.stats())
        stats = [
            opts[index].stats() if index in opts else next(online)
            for index in range(len(policies))
        ]
        return stats, pipeline, count
    finally:
        for opt in opts.values():
            opt.close()


def _fused_pass(
    workload: Workload,
    config: ExperimentConfig,
    streaming: bool,
    budget: int,
    policies: Sequence,
    use_hints: bool,
    plan: ExecutionPlan,
) -> List[CacheStats]:
    """One scope's raw trace, ``budget`` accesses at a time, through one
    fused pass for every policy (:func:`_fused_replay`).

    The aggregate L1/L2 counters the pass produced are published under the
    scope's budget-less summary key (for :func:`stream_summary`), unless
    already stored — but *not* under the scope's manifest key, which
    promises ``llcchunk`` entries that this pass never writes.  While no
    disk memo is installed, a single-scheme execution pass replaces the held
    stream with the one it gathers (:class:`_HeldStream`), so the next
    single-scheme call on the same stream replays it.  A multi-scheme pass
    leaves the held stream as it found it: its caller (a comparison, a
    one-stream co-run) already simulates every scheme it wants.  Returns the
    policies' statistics in order.
    """
    global _HELD
    held = None
    if streaming:
        pieces = (chunk.trace for chunk in iter_execution_chunks(workload, budget))
        if len(policies) == 1 and active_disk_memo() is None:
            _drop_held()
            held = _HeldStream(
                _stream_key(workload, config, streaming, budget),
                config.hierarchy.llc.block_offset_bits,
            )
    else:
        pieces = iter_trace_slices(roi_trace(workload), budget)
    try:
        stats, pipeline, chunks = _fused_replay(
            pieces, config.hierarchy, _hint_classifier(workload.layout, config.hierarchy.llc),
            policies, use_hints, plan, held,
        )
    except BaseException:
        if held is not None:
            held.close()
        raise
    if held is not None:
        _HELD = held
    l1_hits, l2_hits = pipeline.upstream_hit_counts()
    key = _summary_key(workload, config, streaming)
    summary = {
        "chunks": chunks,
        "l1_hits": int(l1_hits),
        "l2_hits": int(l2_hits),
        "total_references": int(pipeline.total_references),
    }
    _SUMMARIES.setdefault(key, summary)
    memo = active_disk_memo()
    if memo is not None and not memo.contains("llcstream", key):
        memo.put("llcstream", key, summary)
    return stats


def _simulate(
    workload: Workload,
    schemes: Sequence[str],
    policies: Sequence,
    config: ExperimentConfig,
    streaming: bool,
    use_hints: bool = True,
    backend: Optional[str] = None,
    max_chunk_accesses: Optional[int] = None,
) -> List[CacheStats]:
    """Replay one scope of a workload under several policies, as one plan.

    The ``fused`` plan makes one pass over the raw trace for all of them
    (:func:`_fused_pass`); every other plan replays the scope's filtered
    stream (:func:`llc_chunks`), read once for all of them, through
    ``vector``, ``scalar`` or the ``verify`` cross-check.  Returns the
    policies' statistics in order.
    """
    backend = backend if backend is not None else config.backend
    plan = _plan(
        schemes,
        policies,
        config,
        streaming,
        backend=backend,
        have_stream=_stream_stored(
            _stream_key(workload, config, streaming, max_chunk_accesses), backend
        ),
    )
    if plan.route == ROUTE_FUSED:
        budget = _chunk_budget(config, max_chunk_accesses)
        return _fused_pass(workload, config, streaming, budget, policies, use_hints, plan)
    chunks = llc_chunks(workload, config, streaming, max_chunk_accesses, backend)
    return _replay_llc(chunks, policies, config.hierarchy.llc, use_hints, plan)


def simulate_policy(
    workload: Workload,
    policy,
    config: Optional[ExperimentConfig] = None,
    *,
    streaming: bool = False,
    use_hints: bool = True,
    backend: Optional[str] = None,
    max_chunk_accesses: Optional[int] = None,
) -> CacheStats:
    """Replay one scope of a workload under one policy object.

    ``streaming`` picks the scope: the ROI iteration, or the full execution
    with trace generation, L1/L2 filtering and the LLC replay all running
    chunk by chunk with resumable state, so peak memory is bounded by the
    chunk budget regardless of how many iterations the application
    executed.  Results are bit-identical for every chunk budget and backend.

    Under the ``vector`` backend every policy, Belady's OPT included, takes
    the fused pass (:class:`~repro.fastsim.pipeline.FusedPipeline`): each raw
    trace piece runs through the L1/L2 filter kernel and its LLC-bound
    accesses through the policy family's replay kernel, with no filtered
    stream materialized in memory.  The fused pass is skipped when the
    scope's filtered stream is already stored, since replaying it is
    cheaper than regenerating the raw trace: the ROI's chunk, the disk
    memo's chunk store, or, while no disk memo is installed, the execution
    stream the last single-scheme fused pass spilled (served at that
    pass's chunk budget and to ``vector`` only).  Every other plan replays the filtered stream
    (:func:`llc_chunks`) through ``vector``, ``scalar`` or the ``verify``
    cross-check.
    """
    config = config or ExperimentConfig.default()
    (stats,) = _simulate(
        workload, (_policy_label(policy),), (policy,), config, streaming,
        use_hints=use_hints, backend=backend, max_chunk_accesses=max_chunk_accesses,
    )
    return stats


def _policy_key(
    workload: Workload, scheme: str, config: ExperimentConfig, streaming: bool
) -> tuple:
    """Memo key of one scheme's stats on one scope (kind ``policystream``)."""
    return policystream_memo_key(
        *workload.key, scheme, config, workload.layout.profile.merged, streaming=streaming
    )


def simulate_schemes(
    workload: Workload,
    schemes: Sequence[str],
    config: ExperimentConfig,
    *,
    streaming: bool = False,
) -> Dict[str, CacheStats]:
    """Memoised simulation of several schemes on one scope of a workload.

    Kind ``policystream``, keyed by the scope; results are chunk-budget-
    and backend-invariant, so the key carries neither.  Each scheme's entry
    is read once, from memory or the disk memo, and the schemes still
    missing run as one plan: one fused pass over the raw trace feeds all of
    them, OPT included, or one filtered stream is replayed for each.
    Returns the stats keyed by scheme.
    """
    return _stored_or_simulated(
        schemes, config, streaming,
        lambda scheme: _policy_key(workload, scheme, config, streaming),
        lambda: workload,
    )


def _stored_or_simulated(
    schemes: Sequence[str], config: ExperimentConfig, streaming: bool, key_of, workload_of
) -> Dict[str, CacheStats]:
    """Each scheme's stats under ``key_of(scheme)``, from memory, then disk;
    the schemes that have none run as one plan on ``workload_of()``, which
    is called only then, and are stored under their keys."""
    results: Dict[str, CacheStats] = {}
    missing: List[str] = []
    for scheme in dict.fromkeys(schemes):
        stats = _recall(_POLICY_RUNS, "policystream", key_of(scheme))
        if stats is None:
            missing.append(scheme)
        else:
            results[scheme] = stats
    if missing:
        policies = [_policy_for(scheme, config) for scheme in missing]
        simulated = _simulate(workload_of(), missing, policies, config, streaming)
        for scheme, stats in zip(missing, simulated):
            results[scheme] = _remember(_POLICY_RUNS, "policystream", key_of(scheme), stats)
    return results


def simulate_scheme(
    workload: Workload,
    scheme: str,
    config: ExperimentConfig,
    *,
    streaming: bool = False,
) -> CacheStats:
    """Memoised simulation of one scheme on one scope of a workload: the
    single-scheme case of :func:`simulate_schemes`."""
    return simulate_schemes(workload, (scheme,), config, streaming=streaming)[scheme]


# ---------------------------------------------------------------------------
# a comparison's results, read by key
# ---------------------------------------------------------------------------
#
# A comparison needs per pair only each scheme's stats and the scope's L1/L2
# summary, and the key builders above give both from the experiment
# parameters: ``config.merged_properties`` is what ``build_workload`` merges
# by, so it equals the built workload's ``layout.profile.merged``.  The
# workload is built only when one of them is missing.


def _pair_stats(
    app_name: str,
    dataset_name: str,
    reorder: str,
    schemes: Sequence[str],
    config: ExperimentConfig,
    streaming: bool,
) -> Dict[str, CacheStats]:
    """Each scheme's stats on one scope of one (app, dataset) pair.

    Read from memory, then disk; only when some scheme has none is the
    workload built, and only those schemes run, as one plan.
    """
    return _stored_or_simulated(
        schemes, config, streaming,
        lambda scheme: policystream_memo_key(
            app_name, dataset_name, reorder, scheme, config, streaming=streaming
        ),
        lambda: build_workload(app_name, dataset_name, reorder=reorder, config=config),
    )


def _pair_summary(
    app_name: str,
    dataset_name: str,
    reorder: str,
    config: ExperimentConfig,
    streaming: bool,
) -> dict:
    """One (app, dataset) pair's budget-less L1/L2 summary on one scope.

    Read from memory, then disk; only when it is missing is the workload
    built and its :func:`stream_summary` computed.
    """
    summary = _recall(
        _SUMMARIES, "llcstream",
        llcstream_summary_memo_key(app_name, dataset_name, reorder, config, streaming=streaming),
    )
    if summary is None:
        workload = build_workload(app_name, dataset_name, reorder=reorder, config=config)
        summary = stream_summary(workload, config, streaming)
    return summary


def _pair_points(
    app_name: str,
    dataset_name: str,
    schemes: Sequence[str],
    stats: Dict[str, CacheStats],
    baseline: str,
    summary: dict,
    config: ExperimentConfig,
) -> List[DataPoint]:
    """One pair's (or co-run stream's) data points in ``schemes`` order:
    cycles from the scope's L1/L2 ``summary``, and miss reduction and
    speed-up over ``baseline``'s stats."""
    timing = config.timing
    baseline_misses = stats[baseline].misses
    baseline_cycles = _scope_cycles(summary, stats[baseline], config)
    points = []
    for scheme in schemes:
        cycles = _scope_cycles(summary, stats[scheme], config)
        points.append(DataPoint(
            app_name, dataset_name, scheme, stats[scheme], cycles,
            timing.miss_reduction_percent(baseline_misses, stats[scheme].misses),
            timing.speedup_percent(baseline_cycles, cycles),
        ))
    return points


# ---------------------------------------------------------------------------
# multi-scheme comparison (shared by Figs. 5-9)
# ---------------------------------------------------------------------------

def compare_policies(
    app_names: Sequence[str],
    dataset_names: Sequence[str],
    schemes: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    reorder: Optional[str] = None,
    baseline: str = "RRIP",
    streaming: bool = False,
) -> List[DataPoint]:
    """Simulate ``schemes`` (plus the baseline) on every (app, dataset) pair.

    Returns one :class:`DataPoint` per (app, dataset, scheme) with miss
    reduction and speed-up computed against the baseline scheme, exactly as
    the paper's figures report them.  ``streaming`` simulates the full
    execution (all iterations, streamed with bounded memory) instead of the
    ROI iteration.  Per pair, every scheme's ``policystream`` entry and the
    scope's L1/L2 summary are read once by key, from memory or the disk
    memo, and the cycle model reads that summary.  The workload is built
    only when one of them is missing: the missing schemes then run as one
    plan, so the pair's raw trace is generated and filtered once for all of
    them, OPT included.  A comparison whose results are all stored reads no
    ``workload`` entry.
    """
    config = config or ExperimentConfig.default()
    reorder = reorder or config.reorder
    points: List[DataPoint] = []
    for dataset_name in dataset_names:
        for app_name in app_names:
            stats = _pair_stats(
                app_name, dataset_name, reorder, (baseline, *schemes), config, streaming
            )
            summary = _pair_summary(app_name, dataset_name, reorder, config, streaming)
            points.extend(
                _pair_points(app_name, dataset_name, schemes, stats, baseline, summary, config)
            )
    return points


# ---------------------------------------------------------------------------
# multi-programmed (co-run) simulation
# ---------------------------------------------------------------------------

def _single_app_pair(spec: CorunSpec, scheme: str) -> Optional[Tuple[str, str]]:
    """The (app, dataset) pair a degenerate co-run is, else ``None``.

    One stream with no partition *is* the single-app full execution, so
    :func:`simulate_corun` runs it, and :func:`plan_corun_task` plans it, as
    that: the same plan, stats and memo entries.  OPT is never rewritten,
    so the planner rejects it as a co-run at every K.
    """
    if spec.num_streams == 1 and spec.partition is None and scheme != "OPT":
        return spec.pairs[0]
    return None


def simulate_corun(
    spec: CorunSpec,
    scheme: str,
    config: Optional[ExperimentConfig] = None,
    reorder: Optional[str] = None,
    max_chunk_accesses: Optional[int] = None,
) -> CacheStats:
    """Replay N co-running applications through one shared LLC, streaming.

    Each application's post-L1/L2 stream is produced exactly as in the
    single-programmed path (:func:`llc_chunks` — private L1/L2 filters
    per app, per-app reuse hints), merged under the spec's arrival schedule
    with per-stream address-space remapping, and replayed through one shared
    LLC.  The returned :class:`CacheStats` carries per-stream counters that
    sum exactly to the aggregates.

    Degenerate co-run is a strict generalization: a 1-app spec with
    ``partition=None`` is the single-app full-execution
    :func:`simulate_scheme`, so it returns bit-identical stats *and* hits
    the same memo entries as the single-app path.

    The merged stream replays through the one LLC replay driver, so backend
    semantics match the single-app streaming path: ``vector`` uses
    :class:`~repro.fastsim.corun.CorunReplayStream` when
    :func:`~repro.fastsim.corun.supports_vector_corun` accepts the configuration
    (per-stream engines under a partition, shared engine plus ``bincount``
    attribution without), ``scalar`` replays through a stream-tracking
    :class:`~repro.cache.SetAssociativeCache`, and ``verify`` runs both and
    compares every counter including the per-stream breakdowns.  ``OPT`` has
    no online co-run analogue (offline Belady needs the future of the merged
    stream) and is rejected.  Results are memoised under the ``corun`` kind.
    """
    config = config or ExperimentConfig.default()
    reorder = reorder or config.reorder
    pair = _single_app_pair(spec, scheme)
    if pair is not None:
        return _pair_stats(*pair, reorder, (scheme,), config, streaming=True)[scheme]
    # The planner rejects OPT and picks the vector co-run engine or the
    # scalar reference (an unpartitioned PIN co-run).
    plan = plan_corun_task(spec, scheme, config, reorder)
    key = corun_memo_key(spec, reorder, scheme, config)

    def compute() -> CacheStats:
        workloads = [
            build_workload(app_name, dataset_name, reorder=reorder, config=config)
            for app_name, dataset_name in spec.pairs
        ]
        merged = InterleavedTraceStream(
            [
                llc_chunks(workload, config, True, max_chunk_accesses)
                for workload in workloads
            ],
            schedule=spec.schedule,
            quantum=spec.quantum,
            seed=spec.seed,
            chunk_accesses=_chunk_budget(config, max_chunk_accesses),
        )
        (stats,) = _replay_llc(
            merged, (scheme_policy(scheme),), config.hierarchy.llc, True, plan, corun=spec
        )
        return stats

    return _memoised(_CORUN_RUNS, "corun", key, compute)


def compare_policies_corun(
    spec: CorunSpec,
    schemes: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    reorder: Optional[str] = None,
    baseline: str = "RRIP",
) -> List[DataPoint]:
    """Co-run counterpart of the full-execution :func:`compare_policies`.

    Simulates every scheme on the interleaved co-run and reports **one data
    point per co-running application per scheme**, built from that stream's
    own counters (:meth:`CacheStats.stream_view`): per-app cycles combine the
    app's private L1/L2 filter counters with its share of the shared-LLC
    hits and misses (the full-execution cycle model of
    :func:`workload_cycles`), and miss-reduction / speed-up compare the same
    stream under the baseline scheme — i.e. how much each app gains or loses
    from the policy change *under interference*.  A degenerate co-run (one
    stream, no partition) is the single-app full execution, so its schemes
    are read, and the missing ones run, as :func:`compare_policies` does
    for one pair: one pass over the execution for all of them.  Each
    stream's execution summary is read by key as well, so a comparison
    whose results are all stored builds no workload.  OPT is rejected, as
    :func:`simulate_corun` rejects it.
    """
    config = config or ExperimentConfig.default()
    reorder = reorder or config.reorder
    ordered = tuple(dict.fromkeys((baseline, *schemes)))
    if all(_single_app_pair(spec, scheme) is not None for scheme in ordered):
        results = _pair_stats(*spec.pairs[0], reorder, ordered, config, streaming=True)
    else:
        results = {
            scheme: simulate_corun(spec, scheme, config, reorder=reorder)
            for scheme in ordered
        }

    def view(stats: CacheStats, stream: int) -> CacheStats:
        if spec.num_streams == 1 and not stats.stream_accesses:
            # The degenerate path delegates to the single-app simulation,
            # whose aggregates *are* stream 0's counters.
            return stats
        return stats.stream_view(stream)

    duplicated = len(set(spec.pairs)) != len(spec.pairs)
    per_stream = [
        _pair_points(
            f"{app_name}#{stream}" if duplicated else app_name, dataset_name, schemes,
            {scheme: view(results[scheme], stream) for scheme in ordered}, baseline,
            _pair_summary(app_name, dataset_name, reorder, config, streaming=True), config,
        )
        for stream, (app_name, dataset_name) in enumerate(spec.pairs)
    ]
    # Scheme by scheme, each stream's point in stream order.
    return [point for column in zip(*per_stream) for point in column]


# ---------------------------------------------------------------------------
# pair planning (sweep manifests, `repro plan explain`)
# ---------------------------------------------------------------------------

def plan_scheme_task(
    app_name: str,
    dataset_name: str,
    reorder: str,
    scheme: str,
    config: ExperimentConfig,
    streaming: bool = False,
) -> ExecutionPlan:
    """Plan one scheme on one (app, dataset) pair without building its
    workload: the single-scheme case of :func:`plan_pair_tasks`."""
    return plan_pair_tasks(app_name, dataset_name, reorder, (scheme,), config, streaming)


def plan_pair_tasks(
    app_name: str,
    dataset_name: str,
    reorder: str,
    schemes: Sequence[str],
    config: ExperimentConfig,
    streaming: bool = False,
) -> ExecutionPlan:
    """Plan one (app, dataset) pair's schemes as one unit, the way its sweep
    task runs them when none is stored.

    Memo keys are computable from the experiment parameters alone, so
    whether the scope's filtered stream is already stored (its manifest
    key, :func:`llcstream_memo_key`) is probed directly from the memo — the
    sweep service embeds these plans in run manifests and ``repro plan
    explain`` answers before any simulation runs.  The returned plan is
    exactly the one :func:`simulate_schemes` over the same schemes would
    execute under the same memo state.
    """
    schemes = tuple(dict.fromkeys(schemes))
    return _plan(
        schemes, [_policy_for(scheme, config) for scheme in schemes], config, streaming,
        have_stream=_stream_stored(
            llcstream_memo_key(
                app_name, dataset_name, reorder, config, config.merged_properties,
                streaming=streaming,
            ),
            config.backend,
        ),
    )


def plan_corun_task(
    spec: CorunSpec,
    scheme: str,
    config: ExperimentConfig,
    reorder: Optional[str] = None,
) -> ExecutionPlan:
    """Plan one co-run task (the co-run analogue of :func:`plan_scheme_task`).

    A degenerate co-run plans as the single-app full-execution task it runs
    as, so its plan probes the memo for that task's chunk store: hence the
    task's ``reorder`` (``None`` means the config's, as in
    :func:`simulate_corun`).  Raises :class:`ValueError` for OPT, exactly as
    :func:`simulate_corun` would.
    """
    pair = _single_app_pair(spec, scheme)
    if pair is not None:
        return plan_scheme_task(
            *pair, reorder or config.reorder, scheme, config, streaming=True
        )
    return PLANNER.plan(
        SimRequest(
            schemes=(scheme,),
            policies=(_policy_for(scheme, config),),
            backend=config.backend,
            stage=STAGE_CORUN,
            partition=spec.partition,
        )
    )


def geometric_mean_speedup(points: Sequence[DataPoint]) -> float:
    """Geometric-mean speed-up (%) across data points, as the paper's GM bars."""
    if not points:
        return 0.0
    ratios = np.array([1.0 + point.speedup_pct / 100.0 for point in points])
    return float((np.exp(np.log(ratios).mean()) - 1.0) * 100.0)


def average_miss_reduction(points: Sequence[DataPoint]) -> float:
    """Arithmetic-mean miss reduction (%) across data points."""
    if not points:
        return 0.0
    return float(np.mean([point.miss_reduction_pct for point in points]))


# Single-scope names the repository benchmark (benchmarks/suite/workloads.py)
# still calls; each is the merged function with its scope fixed.
simulate_scheme_streaming = functools.partial(simulate_scheme, streaming=True)
execution_cycles = functools.partial(workload_cycles, streaming=True)
execution_stream_summary = functools.partial(stream_summary, streaming=True)
roi_stream_summary = functools.partial(stream_summary, streaming=False)
