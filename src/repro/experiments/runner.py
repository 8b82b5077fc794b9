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
in memory and in the disk memo, the execution's chunk store on disk only.

Fast-path dispatch
------------------
Stages 5 and 6 exist in two implementations.  The default ``vector`` backend
(:mod:`repro.fastsim`) replays the always-LRU L1-D/L2 filters as batched
NumPy stack-distance computations, and the LLC whenever the scheme under
study has a vectorized engine — plain LRU (stack-distance), the whole RRIP
family (SRRIP/BRRIP/DRRIP/GRASP, batched set-parallel sweeps with exact PSEL
set dueling and per-access reuse hints), and the full comparison matrix:
SHiP-MEM, Hawkeye, Leeway, the PIN-X pinning configurations (including
BYPASS accounting) and Belady's OPT.  Only the GRASP ablation subclasses
fall back to the scalar per-access simulator, which also remains
selectable as a whole via ``backend="scalar"`` (per call),
:attr:`ExperimentConfig.backend` (per experiment) or the
``REPRO_SIM_BACKEND`` environment variable (process-wide).
The ``verify`` backend runs both paths and raises
:class:`~repro.fastsim.filter.FastSimMismatchError` unless their
hit/miss/eviction counts are identical.  Backends are bit-equivalent by
construction, so memo keys deliberately exclude the backend.  Every
routing decision (fused single pass, fused multi-scheme pass, staged
replay, scalar reference, OPT) is an :class:`~repro.fastsim.plan.ExecutionPlan`
from :mod:`repro.fastsim.plan`.

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
runs.
:func:`clear_caches` drops only the in-memory tables, never the disk store.
"""

from __future__ import annotations

import functools
import itertools
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
from repro.fastsim.dispatch import VERIFY
from repro.fastsim.plan import (
    PLANNER,
    ROUTE_FUSED,
    ROUTE_FUSED_MULTI,
    ROUTE_SCALAR,
    ROUTE_VECTOR,
    STAGE_CORUN,
    STAGE_ONESHOT,
    STAGE_ROI,
    STAGE_STREAMING,
    CorunReplayStream,
    ExecutionPlan,
    FilterStream,
    FusedPipeline,
    MultiFusedPipeline,
    NextUseTable,
    OptStream,
    PolicyReplayStream,
    SimRequest,
    assert_stats_equal,
    resolve_chunk_next_use,
    supports_vector_replay,
)
# The span tracer of benchmarks/suite wraps these three module globals; the
# runner itself filters and replays through the streams.
from repro.fastsim.plan import run_filter, vector_opt_replay, vector_policy_replay  # noqa: F401
from repro.experiments.schemes import scheme_policy
from repro.graph.csr import CSRGraph
from repro.graph.csr import GraphError
from repro.graph.source import canonical_spec, load_for_experiment
from repro.perf.timing import LevelCounts, TimingModel
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
# never held in memory.
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


def _memoised(table: Dict[tuple, object], kind: str, key: tuple, compute):
    """Look ``key`` up in memory, then on disk, computing (and storing) last."""
    if key in table:
        return table[key]
    memo = active_disk_memo()
    if memo is not None:
        value = memo.get(kind, key)
        if value is not None:
            table[key] = value
            return value
    value = compute()
    table[key] = value
    if memo is not None:
        memo.put(kind, key, value)
    return value


def clear_caches() -> None:
    """Drop the in-memory memo tables (the on-disk store, if any, persists)."""
    for table in (_WORKLOADS, _LLC_TRACES, _POLICY_RUNS, _CORUN_RUNS, _SUMMARIES):
        table.clear()


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
    on the memo-hit path too.  A missing or corrupt persisted chunk falls
    back to regeneration mid-stream: the already-served prefix is
    re-filtered to rebuild the L1/L2 state but not yielded again, and the
    broken tail is persisted anew.
    """
    key = _stream_key(workload, config, streaming, max_chunk_accesses)
    if key in _LLC_TRACES:
        yield _LLC_TRACES[key]
        return
    summary_key = _summary_key(workload, config, streaming)
    memo = active_disk_memo()
    served = 0
    if memo is not None:
        manifest = memo.get("llcstream", key)
        if manifest is not None:
            _SUMMARIES.setdefault(summary_key, manifest)
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
    filter_stream = FilterStream(
        config.hierarchy, backend=backend if backend is not None else config.backend
    )
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


def _stream_stored(key: tuple) -> bool:
    """Whether the filtered stream whose manifest key is ``key`` is stored:
    the ROI's chunk in memory, or either scope's manifest on disk."""
    memo = active_disk_memo()
    return key in _LLC_TRACES or (memo is not None and memo.contains("llcstream", key))


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
    if key not in _SUMMARIES:
        memo = active_disk_memo()
        summary = memo.get("llcstream", key) if memo is not None else None
        if summary is not None:
            _SUMMARIES[key] = summary
        else:
            for _ in llc_chunks(workload, config, streaming, max_chunk_accesses):
                pass
    return _SUMMARIES[key]


def workload_cycles(
    workload: Workload,
    stats: CacheStats,
    config: ExperimentConfig,
    streaming: bool = False,
) -> float:
    """Execution cycles of one scope of the workload under an LLC outcome."""
    summary = stream_summary(workload, config, streaming)
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


def _replay_llc(
    chunks: Iterable[LLCTrace],
    policy,
    llc_config: CacheConfig,
    use_hints: bool,
    plan: ExecutionPlan,
    corun: Optional[CorunSpec] = None,
) -> CacheStats:
    """Replay one policy over a stream of LLC chunks, under any backend.

    ``vector`` feeds a :class:`~repro.fastsim.replay.PolicyReplayStream`, ``scalar``
    keeps the reference cache alive across chunks, and ``verify`` runs both
    and raises :class:`~repro.fastsim.filter.FastSimMismatchError` unless their
    statistics are identical.  A co-run's merged, stream-tagged chunks
    (``corun`` is its spec) replay through a
    :class:`~repro.fastsim.corun.CorunReplayStream` and a stream-tracking
    reference cache under the spec's partition, so the cross-check covers
    every per-stream counter.  Belady's OPT goes to :func:`_replay_opt`.
    """
    if type(policy) is BeladyOptimal:
        return _replay_opt(chunks, llc_config, plan)
    partition = corun.partition if corun is not None else None
    vector = None
    if plan.route == ROUTE_VECTOR:
        vector = (
            PolicyReplayStream(policy, llc_config)
            if corun is None
            else CorunReplayStream(policy, llc_config, corun.num_streams, partition=partition)
        )
    scalar = None
    if vector is None or plan.verify:
        scalar = _ScalarLLCStream(
            policy, llc_config, partition=partition, track_streams=corun is not None
        )
    for chunk in chunks:
        hints = chunk.hints if use_hints else None
        if corun is not None and vector is not None:
            vector.feed(
                chunk.block_addresses, chunk.stream_ids, hints, chunk.regions, chunk.pcs
            )
        elif vector is not None:
            vector.feed(chunk.block_addresses, hints=hints, regions=chunk.regions, pcs=chunk.pcs)
        if scalar is not None:
            scalar.feed(chunk, use_hints)
    if vector is None:
        return scalar.stats().validate()
    if scalar is not None:
        assert_stats_equal(
            scalar.stats().validate(), vector.stats(), f"LLC {policy.name} replay"
        )
    return vector.stats()


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


def _replay_opt(
    chunks: Iterable[LLCTrace], llc_config: CacheConfig, plan: ExecutionPlan
) -> CacheStats:
    """Belady's OPT lower bound over a stream of LLC chunks.

    OPT needs the future, so the stream is processed in two passes instead
    of one resumable pass: a reverse sweep resolves globally consistent
    per-chunk next-use indices (:func:`~repro.fastsim.opt.resolve_chunk_next_use`),
    then a forward sweep feeds an :class:`~repro.fastsim.opt.OptStream`.  A
    stream of several chunks is spilled to disk between the passes
    (:class:`~repro.experiments.memo.ChunkSpill`), so peak memory stays
    bounded by the chunk budget plus the reverse pass's
    :class:`~repro.fastsim.opt.NextUseTable` (one int64 per distinct block and
    its id map's key table); a one-chunk stream (the ROI) stays in memory.

    The scalar reference (:func:`simulate_opt_misses`) is inherently
    one-shot, so ``scalar`` and the ``verify`` cross-check materialize the
    filtered stream — use them at test scales only.
    """
    chunks = iter(chunks)
    head = list(itertools.islice(chunks, 2))
    store = ChunkSpill() if len(head) > 1 else _HeldChunks()
    try:
        starts: List[int] = []
        offset = 0
        for index, chunk in enumerate(itertools.chain(head, chunks)):
            store.put("blocks", index, chunk.block_addresses)
            starts.append(offset)
            offset += len(chunk)

        def materialized() -> np.ndarray:
            if not starts:
                return np.empty(0, dtype=np.int64)
            return np.concatenate(
                [store.get("blocks", index) for index in range(len(starts))]
            )

        if plan.route == ROUTE_SCALAR:
            return simulate_opt_misses(materialized(), llc_config)
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
        if plan.verify:
            scalar_stats = simulate_opt_misses(materialized(), llc_config)
            assert_stats_equal(scalar_stats, stats, "LLC OPT replay")
        return stats
    finally:
        store.close()


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
    return _replay_llc((llc_trace,), policy, llc_config, use_hints, plan)


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
    consumers: Optional[int] = None,
    have_stream: bool = False,
) -> ExecutionPlan:
    """Plan a request on one scope of a workload."""
    return PLANNER.plan(
        SimRequest(
            schemes=tuple(schemes),
            policies=tuple(policies),
            backend=backend if backend is not None else config.backend,
            stage=STAGE_STREAMING if streaming else STAGE_ROI,
            consumers=consumers,
            hierarchy=config.hierarchy,
            have_memo=active_disk_memo() is not None,
            have_stream=have_stream,
        )
    )


def _fused_pass(
    workload: Workload,
    config: ExperimentConfig,
    streaming: bool,
    budget: int,
    pipeline,
):
    """Feed one scope's raw trace through a fused pipeline, ``budget``
    accesses at a time.

    No filtered stream is ever materialized.  The aggregate L1/L2 counters
    the pass produced are published under the scope's budget-less summary
    key (for :func:`stream_summary`), unless already stored — but *not*
    under the scope's manifest key, which promises ``llcchunk`` entries
    that this pass never writes.
    """
    if streaming:
        pieces = (chunk.trace for chunk in iter_execution_chunks(workload, budget))
    else:
        pieces = iter_trace_slices(roi_trace(workload), budget)
    chunks = 0
    for piece in pieces:
        pipeline.feed(piece)
        chunks += 1
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
    return pipeline


def simulate_policy(
    workload: Workload,
    policy,
    config: Optional[ExperimentConfig] = None,
    *,
    streaming: bool = False,
    shared: bool = False,
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

    Under the ``vector`` backend, policies with a fused kernel take the
    single-pass route (:class:`~repro.fastsim.pipeline.FusedPipeline`): each raw
    trace piece runs through the L1/L2 filter and the LLC engine in one
    native call, with no filtered stream materialized.  The fused route is
    skipped when replaying the scope's stored filtered stream is cheaper
    than regenerating the raw trace — either it is already stored, or
    ``shared`` declares that other schemes will replay the same stream and
    the scope can keep it (the ROI always can, in memory; the full
    execution only with a disk memo).  The staged path then stores the
    filtered stream once, on the first scheme that actually computes.
    Every other plan replays the filtered stream (:func:`llc_chunks`)
    through the one LLC replay path: ``vector``, ``scalar`` or the
    ``verify`` cross-check, in two passes for Belady's OPT.
    """
    config = config or ExperimentConfig.default()
    backend = backend if backend is not None else config.backend
    budget = _chunk_budget(config, max_chunk_accesses)
    plan = _plan(
        (_policy_label(policy),),
        (policy,),
        config,
        streaming,
        backend=backend,
        consumers=2 if shared else 1,
        have_stream=_stream_stored(
            _stream_key(workload, config, streaming, max_chunk_accesses)
        ),
    )
    if plan.route == ROUTE_FUSED:
        fused = FusedPipeline(
            config.hierarchy,
            policy,
            classifier=_hint_classifier(workload.layout, config.hierarchy.llc),
            use_hints=use_hints,
        )
        return _fused_pass(workload, config, streaming, budget, fused).stats().llc_stats
    chunks = llc_chunks(workload, config, streaming, max_chunk_accesses, backend)
    return _replay_llc(chunks, policy, config.hierarchy.llc, use_hints, plan)


def _policy_key(
    workload: Workload, scheme: str, config: ExperimentConfig, streaming: bool
) -> tuple:
    """Memo key of one scheme's stats on one scope (kind ``policystream``)."""
    return policystream_memo_key(
        *workload.key, scheme, config, workload.layout.profile.merged, streaming=streaming
    )


def simulate_scheme(
    workload: Workload,
    scheme: str,
    config: ExperimentConfig,
    *,
    streaming: bool = False,
    shared: bool = False,
) -> CacheStats:
    """Memoised simulation of one scheme on one scope of a workload.

    Kind ``policystream``, keyed by the scope; results are chunk-budget-
    and backend-invariant, so the key carries neither.  ``shared`` declares
    that other schemes will replay the same filtered stream (see
    :func:`simulate_policy`).
    """
    return _memoised(
        _POLICY_RUNS,
        "policystream",
        _policy_key(workload, scheme, config, streaming),
        lambda: simulate_policy(
            workload, _policy_for(scheme, config), config,
            streaming=streaming, shared=shared,
        ),
    )


def _maybe_fused_multi(
    workload: Workload,
    schemes: Sequence[str],
    config: ExperimentConfig,
    streaming: bool = False,
) -> None:
    """Opportunistic fused multi-scheme pass over one scope.

    When the planner picks the ``fused-multi`` route, every eligible
    uncached scheme replays from one shared (natively threaded) filter
    phase — the raw trace is generated and filtered once for all of them —
    and the per-scheme stats land in the scope's memo kind, so the
    per-scheme :func:`simulate_scheme` calls that follow are pure memo hits.
    Any other plan returns without side effects and the staged
    store-once path runs exactly as before.
    """
    memo = active_disk_memo()
    # Eligible: unique schemes not yet memoised, except OPT (offline) and
    # the ablation subclasses (no vector engine).
    targets: List[str] = []
    policies: List[ReplacementPolicy] = []
    for scheme in dict.fromkeys(schemes):
        if scheme == "OPT":
            continue
        key = _policy_key(workload, scheme, config, streaming)
        if key in _POLICY_RUNS or (memo is not None and memo.contains("policystream", key)):
            continue
        policy = scheme_policy(scheme)
        if supports_vector_replay(policy):
            targets.append(scheme)
            policies.append(policy)
    if len(targets) < 2:
        return
    plan = _plan(
        targets,
        policies,
        config,
        streaming,
        have_stream=_stream_stored(_stream_key(workload, config, streaming)),
    )
    if plan.route != ROUTE_FUSED_MULTI:
        return
    multi = MultiFusedPipeline(
        config.hierarchy,
        policies,
        classifier=_hint_classifier(workload.layout, config.hierarchy.llc),
    )
    _fused_pass(workload, config, streaming, _chunk_budget(config, None), multi)
    for scheme, stats in zip(targets, multi.stats()):
        key = _policy_key(workload, scheme, config, streaming)
        _POLICY_RUNS[key] = stats
        if memo is not None:
            memo.put("policystream", key, stats)


def _data_point(
    app_name: str,
    dataset_name: str,
    scheme: str,
    stats: CacheStats,
    cycles: float,
    baseline_stats: CacheStats,
    baseline_cycles: float,
    timing: TimingModel,
) -> DataPoint:
    """One scheme's result, with miss reduction and speed-up over the baseline."""
    return DataPoint(
        app_name=app_name,
        dataset_name=dataset_name,
        scheme=scheme,
        stats=stats,
        cycles=cycles,
        miss_reduction_pct=timing.miss_reduction_percent(baseline_stats.misses, stats.misses),
        speedup_pct=timing.speedup_percent(baseline_cycles, cycles),
    )


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
    ROI iteration.
    """
    config = config or ExperimentConfig.default()
    reorder = reorder or config.reorder
    # With several distinct schemes replaying one workload, the planner
    # first tries the fused multi-scheme route (one shared filter phase, N
    # replays, nothing materialized); otherwise the staged path stores the
    # filtered stream once and replays every scheme from it — the
    # per-scheme fused route would regenerate the raw trace for each.
    shared = len({baseline, *schemes}) > 1
    points: List[DataPoint] = []
    for dataset_name in dataset_names:
        for app_name in app_names:
            workload = build_workload(app_name, dataset_name, reorder=reorder, config=config)
            _maybe_fused_multi(workload, (baseline, *schemes), config, streaming)
            baseline_stats = simulate_scheme(
                workload, baseline, config, streaming=streaming, shared=shared
            )
            baseline_cycles = workload_cycles(workload, baseline_stats, config, streaming)
            for scheme in schemes:
                stats = (
                    baseline_stats
                    if scheme == baseline
                    else simulate_scheme(
                        workload, scheme, config, streaming=streaming, shared=shared
                    )
                )
                points.append(
                    _data_point(
                        app_name, dataset_name, scheme, stats,
                        workload_cycles(workload, stats, config, streaming),
                        baseline_stats, baseline_cycles, config.timing,
                    )
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
        workload = build_workload(*pair, reorder=reorder, config=config)
        return simulate_scheme(workload, scheme, config, streaming=True)
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
        return _replay_llc(
            merged, scheme_policy(scheme), config.hierarchy.llc, True, plan, corun=spec
        )

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
    from the policy change *under interference*.
    """
    config = config or ExperimentConfig.default()
    reorder = reorder or config.reorder
    workloads = [
        build_workload(app_name, dataset_name, reorder=reorder, config=config)
        for app_name, dataset_name in spec.pairs
    ]
    duplicated = len(set(spec.pairs)) != len(spec.pairs)

    def views(stats: CacheStats) -> List[CacheStats]:
        if spec.num_streams == 1 and not stats.stream_accesses:
            # The degenerate path delegates to the single-app simulation,
            # whose aggregates *are* stream 0's counters.
            return [stats]
        return [stats.stream_view(stream) for stream in range(spec.num_streams)]

    baseline_views = views(simulate_corun(spec, baseline, config, reorder=reorder))
    baseline_cycles = [
        workload_cycles(workload, view, config, streaming=True)
        for workload, view in zip(workloads, baseline_views)
    ]
    points: List[DataPoint] = []
    for scheme in schemes:
        scheme_views = (
            baseline_views
            if scheme == baseline
            else views(simulate_corun(spec, scheme, config, reorder=reorder))
        )
        for stream, (workload, view) in enumerate(zip(workloads, scheme_views)):
            app_name, dataset_name = spec.pairs[stream]
            points.append(
                _data_point(
                    f"{app_name}#{stream}" if duplicated else app_name,
                    dataset_name, scheme, view,
                    workload_cycles(workload, view, config, streaming=True),
                    baseline_views[stream], baseline_cycles[stream], config.timing,
                )
            )
    return points


# ---------------------------------------------------------------------------
# task planning (sweep manifests, `repro plan explain`)
# ---------------------------------------------------------------------------

def plan_scheme_task(
    app_name: str,
    dataset_name: str,
    reorder: str,
    scheme: str,
    config: ExperimentConfig,
    streaming: bool = False,
) -> ExecutionPlan:
    """Plan one (app, dataset, scheme) task without building its workload.

    The single-scheme case of :func:`plan_pair_tasks`.
    """
    return plan_pair_tasks(
        app_name, dataset_name, reorder, (scheme,), config, streaming
    )[scheme]


def plan_pair_tasks(
    app_name: str,
    dataset_name: str,
    reorder: str,
    schemes: Sequence[str],
    config: ExperimentConfig,
    streaming: bool = False,
) -> Dict[str, ExecutionPlan]:
    """Plan every scheme task of one (app, dataset) pair, keyed by scheme.

    Memo keys are computable from the experiment parameters alone, so
    whether the scope's filtered stream is already stored (its manifest
    key, :func:`llcstream_memo_key`) is probed directly from the memo — the
    sweep service embeds these plans in run manifests and ``repro plan
    explain`` answers before any simulation runs.  That flag belongs to
    the pair, not the scheme, so the store is probed once per call.  Each
    returned plan is exactly the one the corresponding
    :func:`simulate_scheme` call would execute under the same memo state.
    """
    have_stream = _stream_stored(
        llcstream_memo_key(
            app_name, dataset_name, reorder, config, config.merged_properties,
            streaming=streaming,
        )
    )
    return {
        scheme: _plan(
            (scheme,), (_policy_for(scheme, config),), config, streaming,
            have_stream=have_stream,
        )
        for scheme in schemes
    }


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
            hierarchy=config.hierarchy,
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
