"""Workload construction and trace-driven simulation.

The pipeline per (application, dataset, reordering) triple mirrors the
paper's methodology (Sec. IV):

1. generate the synthetic dataset and apply the software reordering;
2. run the application to obtain per-iteration frontiers;
3. pick the region of interest — the busiest iteration in the application's
   dominant traversal direction;
4. lay the graph's arrays out in memory and generate the ROI's reference
   stream;
5. filter the stream through the L1-D and L2 caches (these levels always use
   LRU and are therefore independent of the LLC policy under study);
6. replay the surviving LLC accesses under each replacement policy, tagging
   every access with GRASP's reuse hint derived from the Address Bound
   Registers.

Workloads, filtered traces and per-policy results are memoised so that
figures sharing the same runs (e.g. Figs. 5 and 6) do not recompute them.

Fast-path dispatch
------------------
Stages 5 and 6 exist in two implementations.  The default ``vector`` backend
(:mod:`repro.fastsim`) replays the always-LRU L1-D/L2 filters as batched
NumPy stack-distance computations, and the LLC whenever the scheme under
study has a vectorized engine — plain LRU (stack-distance), the whole RRIP
family (SRRIP/BRRIP/DRRIP/GRASP, batched set-parallel sweeps with exact PSEL
set dueling and per-access reuse hints), and since PR 4 the full comparison
matrix: SHiP-MEM, Hawkeye, Leeway, the PIN-X pinning configurations
(including BYPASS accounting) and Belady's OPT.  Only the GRASP ablation
subclasses fall back to the scalar per-access simulator, which also remains
selectable as a whole via ``backend="scalar"`` (per call),
:attr:`ExperimentConfig.backend` (per experiment) or the
``REPRO_SIM_BACKEND`` environment variable (process-wide).
The ``verify`` backend runs both paths and raises
:class:`~repro.fastsim.filter.FastSimMismatchError` unless their
hit/miss/eviction counts are identical.  Backends are bit-equivalent by
construction, so memo keys deliberately exclude the backend.

On-disk memoisation
-------------------
The three in-memory memo tables (workloads, filtered LLC traces, per-scheme
stats) can additionally be backed by a persistent store shared across
processes and invocations — see :mod:`repro.experiments.memo` for the
``<cache_dir>/v4/{workload,llctrace,policy}/<sha256-of-key>.pkl`` layout
(header, pickle stream, out-of-band array buffers: reads copy the buffers
into owned memory, existence probes unpickle over a read-only mapping).
The store is off unless ``REPRO_CACHE_DIR`` is set or
:func:`set_disk_memo` is called; the parallel runner
(:mod:`repro.experiments.parallel`) installs it in every worker so shards
and later invocations (Figs. 5-11, Tables 1-7) reuse each other's runs.
:func:`clear_caches` drops only the in-memory tables, never the disk store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
    ROUTE_CORUN_DELEGATE,
    ROUTE_CORUN_VECTOR,
    ROUTE_FUSED,
    ROUTE_FUSED_MULTI,
    ROUTE_OPT_SCALAR,
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
    OptStream,
    PolicyReplayStream,
    SimRequest,
    assert_stats_equal,
    resolve_chunk_next_use,
    run_filter,
    supports_vector_replay,
    vector_opt_replay,
    vector_policy_replay,
)
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
    """The post-L1/L2 access stream seen by the LLC."""

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

    def level_counts(self, llc_hits: int, llc_misses: int) -> LevelCounts:
        """Per-level reference counts for the timing model."""
        return LevelCounts(
            l1_hits=self.upstream_l1_hits,
            l2_hits=self.upstream_l2_hits,
            llc_hits=llc_hits,
            memory_accesses=llc_misses,
        )


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

_WORKLOADS: Dict[tuple, Workload] = {}
_LLC_TRACES: Dict[tuple, LLCTrace] = {}
_POLICY_RUNS: Dict[tuple, CacheStats] = {}
_POLICY_STREAM_RUNS: Dict[tuple, CacheStats] = {}
_CORUN_RUNS: Dict[tuple, CacheStats] = {}
_STREAM_SUMMARIES: Dict[tuple, dict] = {}
_ROI_SUMMARIES: Dict[tuple, dict] = {}

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
    _WORKLOADS.clear()
    _LLC_TRACES.clear()
    _POLICY_RUNS.clear()
    _POLICY_STREAM_RUNS.clear()
    _CORUN_RUNS.clear()
    _STREAM_SUMMARIES.clear()
    _ROI_SUMMARIES.clear()


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


def llctrace_memo_key(
    app_name: str,
    dataset_name: str,
    reorder: str,
    config: ExperimentConfig,
    merged: Optional[bool] = None,
) -> tuple:
    """Memo key of the one-shot filtered ROI trace (kind ``llctrace``)."""
    return (
        (app_name, canonical_dataset(dataset_name), reorder),
        config.scale, config.seed, config.hierarchy, _resolve_merged(config, merged),
    )


def policy_memo_key(
    app_name: str,
    dataset_name: str,
    reorder: str,
    scheme: str,
    config: ExperimentConfig,
    merged: Optional[bool] = None,
) -> tuple:
    """Memo key of one scheme's ROI replay stats (kind ``policy``)."""
    return (
        (app_name, canonical_dataset(dataset_name), reorder),
        scheme, config.scale, config.seed, config.hierarchy,
        _resolve_merged(config, merged),
    )


def llcstream_summary_memo_key(
    app_name: str,
    dataset_name: str,
    reorder: str,
    config: ExperimentConfig,
    merged: Optional[bool] = None,
) -> tuple:
    """Budget-independent key of a full-execution stream (kind ``llcstream``)."""
    return (
        (app_name, canonical_dataset(dataset_name), reorder),
        config.scale, config.seed, config.hierarchy,
        _resolve_merged(config, merged),
        "execution",
    )


def policystream_memo_key(
    app_name: str,
    dataset_name: str,
    reorder: str,
    scheme: str,
    config: ExperimentConfig,
    merged: Optional[bool] = None,
) -> tuple:
    """Memo key of one scheme's full-execution stats (kind ``policystream``)."""
    return (
        (app_name, canonical_dataset(dataset_name), reorder),
        scheme, config.scale, config.seed, config.hierarchy,
        _resolve_merged(config, merged),
        "execution",
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

def filter_trace(
    trace: Trace,
    hierarchy: HierarchyConfig,
    layout: Optional[MemoryLayout] = None,
    backend: Optional[str] = None,
) -> LLCTrace:
    """Run the L1-D/L2 filters over a trace and return the LLC-bound accesses.

    ``backend`` selects the implementation (``vector``/``scalar``/``verify``);
    ``None`` defers to :func:`repro.fastsim.default_backend`.  Both backends
    produce identical traces.
    """
    result = run_filter(trace, hierarchy, backend=backend)
    keep = result.keep
    byte_addresses = trace.addresses[keep]
    block_addresses = byte_addresses >> hierarchy.llc.block_offset_bits
    hints = _classify_hints(byte_addresses, layout, hierarchy.llc)
    return LLCTrace(
        byte_addresses=byte_addresses,
        block_addresses=block_addresses,
        pcs=trace.pcs[keep],
        regions=trace.regions[keep],
        hints=hints,
        upstream_l1_hits=int(result.l1_stats.hits),
        upstream_l2_hits=int(result.l2_stats.hits),
        total_references=len(trace),
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


def _classify_hints(
    byte_addresses: np.ndarray,
    layout: Optional[MemoryLayout],
    llc_config: CacheConfig,
) -> np.ndarray:
    """Tag LLC accesses with GRASP reuse hints from the workload's ABRs."""
    return _hint_classifier(layout, llc_config).classify_array(byte_addresses)


def llc_trace_for(workload: Workload, config: ExperimentConfig) -> LLCTrace:
    """Memoised L1/L2-filtered LLC trace for a workload."""
    key = llctrace_memo_key(*workload.key, config, workload.layout.profile.merged)
    return _memoised(
        _LLC_TRACES,
        "llctrace",
        key,
        lambda: filter_trace(
            roi_trace(workload), config.hierarchy, workload.layout, backend=config.backend
        ),
    )


# ---------------------------------------------------------------------------
# LLC simulation
# ---------------------------------------------------------------------------

def _policy_label(policy: ReplacementPolicy) -> str:
    """Scheme label used when planning from a bare policy object."""
    return getattr(policy, "name", type(policy).__name__)


def _plan_replay(
    policy: ReplacementPolicy,
    backend: Optional[str],
    stage: str = STAGE_ONESHOT,
    **kwargs,
) -> ExecutionPlan:
    """Plan a single-policy request (one-shot/ROI/streaming stages)."""
    return PLANNER.plan(
        SimRequest(
            schemes=(_policy_label(policy),),
            policies=(policy,),
            backend=backend,
            stage=stage,
            **kwargs,
        )
    )


def simulate_llc_policy(
    llc_trace: LLCTrace,
    policy: ReplacementPolicy,
    llc_config: CacheConfig,
    use_hints: bool = True,
    backend: Optional[str] = None,
) -> CacheStats:
    """Replay an LLC trace under one replacement policy.

    Routing goes through :class:`repro.fastsim.plan.RoutePlanner`: schemes
    with a vectorized engine — plain LRU, the exact RRIP-family policies
    (SRRIP/BRRIP/DRRIP/GRASP, with the trace's reuse-hint stream wired
    through) and the PR 4 engines for SHiP-MEM, Hawkeye, Leeway and PIN-X
    (hint and PC streams wired through) — dispatch to
    :func:`repro.fastsim.vector_policy_replay`; only the GRASP ablation
    subclasses use the scalar simulator regardless of the backend.
    """
    if type(policy) is BeladyOptimal:
        # OPT cannot run online through SetAssociativeCache: its "scalar"
        # reference is the offline loop, which simulate_opt dispatches to
        # (with the same vector/scalar/verify semantics as every policy).
        return simulate_opt(llc_trace, llc_config, backend=backend)
    plan = _plan_replay(policy, backend)
    if plan.route == ROUTE_SCALAR:
        return _scalar_llc_replay(llc_trace, policy, llc_config, use_hints)
    vector_stats = vector_policy_replay(
        policy,
        llc_trace.block_addresses,
        llc_config,
        hints=llc_trace.hints if use_hints else None,
        regions=llc_trace.regions,
        pcs=llc_trace.pcs,
    )
    if plan.verify:
        scalar_stats = _scalar_llc_replay(llc_trace, policy, llc_config, use_hints)
        assert_stats_equal(scalar_stats, vector_stats, f"LLC {policy.name} replay")
    return vector_stats


def _scalar_llc_replay(
    llc_trace: LLCTrace,
    policy: ReplacementPolicy,
    llc_config: CacheConfig,
    use_hints: bool,
) -> CacheStats:
    """Reference LLC replay: one :meth:`access_block` call per access."""
    stream = _ScalarLLCStream(policy, llc_config)
    stream.feed(llc_trace, use_hints)
    return stream.stats()


def simulate_opt(
    llc_trace: LLCTrace, llc_config: CacheConfig, backend: Optional[str] = None
) -> CacheStats:
    """Belady's OPT lower bound on misses for an LLC trace.

    Dispatches like :func:`simulate_llc_policy`: the ``vector`` backend uses
    the batched next-use engine (:mod:`repro.fastsim.opt`), ``scalar`` the
    offline reference loop, and ``verify`` runs both and asserts identical
    counts.
    """
    plan = PLANNER.plan(SimRequest(schemes=("OPT",), backend=backend))
    if plan.route == ROUTE_OPT_SCALAR:
        return simulate_opt_misses(llc_trace.block_addresses, llc_config)
    vector_stats = vector_opt_replay(llc_trace.block_addresses, llc_config)
    if plan.verify:
        scalar_stats = simulate_opt_misses(llc_trace.block_addresses, llc_config)
        assert_stats_equal(scalar_stats, vector_stats, "LLC OPT replay")
    return vector_stats


# ---------------------------------------------------------------------------
# streaming full-execution pipeline
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


def _summary_key(workload: Workload, config: ExperimentConfig) -> tuple:
    """Budget-independent key for the aggregate L1/L2 stream counters."""
    return llcstream_summary_memo_key(*workload.key, config, workload.layout.profile.merged)


def _stream_key(workload: Workload, config: ExperimentConfig, budget: int) -> tuple:
    """Key for the chunked stream itself — chunk boundaries depend on the budget."""
    return _summary_key(workload, config) + (budget,)


def iter_llc_chunks(
    workload: Workload,
    config: ExperimentConfig,
    max_chunk_accesses: Optional[int] = None,
    backend: Optional[str] = None,
) -> Iterator[LLCTrace]:
    """Stream the full execution's post-L1/L2 LLC accesses, chunk by chunk.

    The streaming analogue of :func:`llc_trace_for`: each generated trace
    chunk runs through one persistent :class:`~repro.fastsim.FilterStream`
    (whose L1/L2 state carries across chunks) and is tagged with GRASP reuse
    hints, yielding per-chunk :class:`LLCTrace` pieces whose concatenation is
    bit-identical to filtering the materialized execution trace.

    With the on-disk memo enabled, every filtered chunk is persisted
    (``llcchunk``) and a manifest (``llcstream``) is written once the stream
    completes; later iterations — other policies replaying the same
    workload, other processes — serve the stream from disk one chunk at a
    time (peak memory stays O(chunk) on the memo-hit path too) without
    regenerating or re-filtering anything.  A missing or corrupt persisted
    chunk falls back to regeneration mid-stream: the already-served prefix
    is re-filtered to rebuild the L1/L2 state but not yielded again.
    """
    budget = _chunk_budget(config, max_chunk_accesses)
    key = _stream_key(workload, config, budget)
    summary_key = _summary_key(workload, config)
    memo = active_disk_memo()
    served = 0
    if memo is not None:
        manifest = memo.get("llcstream", key)
        if manifest is not None:
            _STREAM_SUMMARIES.setdefault(key, manifest)
            _STREAM_SUMMARIES.setdefault(summary_key, manifest)
            while served < manifest["chunks"]:
                llc_chunk = memo.get("llcchunk", key + (served,))
                if llc_chunk is None:
                    break
                yield llc_chunk
                served += 1
            if served == manifest["chunks"]:
                return
    filter_stream = FilterStream(
        config.hierarchy, backend=backend if backend is not None else config.backend
    )
    classifier = _hint_classifier(workload.layout, config.hierarchy.llc)
    offset_bits = config.hierarchy.llc.block_offset_bits
    count = 0
    for chunk in iter_execution_chunks(workload, budget):
        l1_before, l2_before = filter_stream.upstream_hit_counts()
        keep = filter_stream.feed(chunk.trace)
        l1_after, l2_after = filter_stream.upstream_hit_counts()
        byte_addresses = chunk.trace.addresses[keep]
        llc_chunk = LLCTrace(
            byte_addresses=byte_addresses,
            block_addresses=byte_addresses >> offset_bits,
            pcs=chunk.trace.pcs[keep],
            regions=chunk.trace.regions[keep],
            hints=classifier.classify_array(byte_addresses),
            upstream_l1_hits=l1_after - l1_before,
            upstream_l2_hits=l2_after - l2_before,
            total_references=len(chunk.trace),
        )
        if memo is not None and count >= served:
            # Chunks before `served` were just read back from disk intact;
            # only the broken/missing tail needs (re)persisting.
            memo.put("llcchunk", key + (count,), llc_chunk)
        count += 1
        if count > served:
            yield llc_chunk
    l1_hits, l2_hits = filter_stream.upstream_hit_counts()
    if filter_stream.mode == VERIFY:
        filter_stream.level_stats()  # cross-check the backends' counters
    summary = {
        "chunks": count,
        "l1_hits": l1_hits,
        "l2_hits": l2_hits,
        "total_references": filter_stream.total_references,
    }
    # The budget-keyed entry is the manifest the chunk store is served by;
    # the budget-less entry lets execution_stream_summary reuse the counters
    # (identical for every budget) from runs with other chunk budgets.
    _STREAM_SUMMARIES[key] = summary
    _STREAM_SUMMARIES[summary_key] = summary
    if memo is not None:
        memo.put("llcstream", key, summary)
        memo.put("llcstream", summary_key, summary)


def execution_stream_summary(
    workload: Workload,
    config: ExperimentConfig,
    max_chunk_accesses: Optional[int] = None,
) -> dict:
    """Aggregate L1/L2 filter counters of the full-execution stream.

    Served from the in-memory/on-disk manifests when available — the
    counters are budget-invariant, so a manifest written by a run with any
    chunk budget qualifies; otherwise drains :func:`iter_llc_chunks` once
    (which writes them).
    """
    budget = _chunk_budget(config, max_chunk_accesses)
    memo = active_disk_memo()
    for key in (_stream_key(workload, config, budget), _summary_key(workload, config)):
        summary = _STREAM_SUMMARIES.get(key)
        if summary is not None:
            return summary
        if memo is not None:
            summary = memo.get("llcstream", key)
            if summary is not None:
                _STREAM_SUMMARIES[key] = summary
                return summary
    for _ in iter_llc_chunks(workload, config, budget):
        pass
    return _STREAM_SUMMARIES[_summary_key(workload, config)]


class _ScalarLLCStream:
    """Streaming scalar LLC reference: one live cache fed chunk by chunk."""

    def __init__(self, policy: ReplacementPolicy, llc_config: CacheConfig) -> None:
        self._cache = SetAssociativeCache(llc_config, policy)

    def feed(self, chunk: LLCTrace, use_hints: bool) -> None:
        access = self._cache.access_block
        blocks = chunk.block_addresses.tolist()
        pcs = chunk.pcs.tolist()
        regions = chunk.regions.tolist()
        hints = chunk.hints.tolist() if use_hints else [0] * len(blocks)
        for block, pc, hint, region in zip(blocks, pcs, hints, regions):
            access(block, pc, hint, region)

    def stats(self) -> CacheStats:
        return self._cache.stats


def _simulate_fused_streaming(
    workload: Workload,
    policy: ReplacementPolicy,
    config: ExperimentConfig,
    use_hints: bool,
    budget: int,
) -> CacheStats:
    """Full-execution replay through the fused single-pass pipeline.

    Generates raw trace chunks and pushes each through one native call
    (threaded L1/L2 filter + LLC engine, see
    :mod:`repro.fastsim.kernels.fused`); no filtered LLC trace is ever
    materialized.  The aggregate L1/L2 counters it produces are identical to
    the staged stream's, so they are published under the budget-less
    ``llcstream`` summary key for :func:`execution_stream_summary` — but
    *not* under the budget-keyed manifest, which promises per-chunk entries
    in the ``llcchunk`` store that this path never writes.
    """
    classifier = _hint_classifier(workload.layout, config.hierarchy.llc)
    fused = FusedPipeline(
        config.hierarchy, policy, classifier=classifier, use_hints=use_hints
    )
    count = 0
    for chunk in iter_execution_chunks(workload, budget):
        fused.feed(chunk.trace)
        count += 1
    results = fused.stats()
    summary = {
        "chunks": count,
        "l1_hits": int(results.l1_stats.hits),
        "l2_hits": int(results.l2_stats.hits),
        "total_references": fused.total_references,
    }
    summary_key = _summary_key(workload, config)
    _STREAM_SUMMARIES.setdefault(summary_key, summary)
    memo = active_disk_memo()
    if memo is not None and not memo.contains("llcstream", summary_key):
        memo.put("llcstream", summary_key, summary)
    return results.llc_stats


def simulate_llc_policy_streaming(
    workload: Workload,
    policy: ReplacementPolicy,
    config: Optional[ExperimentConfig] = None,
    use_hints: bool = True,
    backend: Optional[str] = None,
    max_chunk_accesses: Optional[int] = None,
    shared_stream: bool = False,
) -> CacheStats:
    """Replay the workload's *full execution* under one policy, streaming.

    The multi-iteration counterpart of :func:`simulate_llc_policy`: trace
    generation, L1/L2 filtering and the LLC replay all run chunk by chunk
    with resumable state, so peak memory is bounded by the chunk budget
    regardless of how many iterations the application executed.  Backend
    semantics match the one-shot path — ``vector`` feeds a
    :class:`~repro.fastsim.PolicyReplayStream` (scalar fallback for policies
    without a fast engine), ``scalar`` keeps the reference cache alive
    across chunks, and ``verify`` runs both and raises
    :class:`~repro.fastsim.FastSimMismatchError` unless their statistics are
    identical.  Results are bit-identical to replaying the materialized
    execution trace one-shot, for every chunk budget.

    Under the ``vector`` backend, policies with a fused kernel take the
    single-pass route (:class:`~repro.fastsim.FusedPipeline`): each raw
    trace chunk runs through the L1/L2 filter and the LLC engine in one
    native call, with no intermediate LLC-trace materialization.  The fused
    route is skipped when replaying the persisted chunk store is cheaper
    than regenerating the trace — either the store already sits on disk, or
    ``shared_stream`` declares that other schemes will replay the same
    stream and a memo is active to hold it (the staged path then
    materializes and persists the stream once, on the first scheme that
    actually computes).
    """
    config = config or ExperimentConfig.default()
    if type(policy) is BeladyOptimal:
        return simulate_opt_streaming(
            workload, config, backend=backend, max_chunk_accesses=max_chunk_accesses
        )
    budget = _chunk_budget(config, max_chunk_accesses)
    memo = active_disk_memo()
    plan = _plan_replay(
        policy,
        backend if backend is not None else config.backend,
        stage=STAGE_STREAMING,
        hierarchy=config.hierarchy,
        consumers=2 if shared_stream else 1,
        have_memo=memo is not None,
        have_chunk_store=memo is not None
        and memo.contains("llcstream", _stream_key(workload, config, budget)),
    )
    if plan.route == ROUTE_FUSED:
        return _simulate_fused_streaming(workload, policy, config, use_hints, budget)
    llc_config = config.hierarchy.llc
    vector_stream = None
    scalar_stream = None
    if plan.route == ROUTE_VECTOR:
        vector_stream = PolicyReplayStream(policy, llc_config)
    if vector_stream is None or plan.verify:
        scalar_stream = _ScalarLLCStream(policy, llc_config)
    for chunk in iter_llc_chunks(
        workload, config, max_chunk_accesses, backend=backend
    ):
        if vector_stream is not None:
            vector_stream.feed(
                chunk.block_addresses,
                hints=chunk.hints if use_hints else None,
                regions=chunk.regions,
                pcs=chunk.pcs,
            )
        if scalar_stream is not None:
            scalar_stream.feed(chunk, use_hints)
    if vector_stream is not None and scalar_stream is not None:
        assert_stats_equal(
            scalar_stream.stats(),
            vector_stream.stats(),
            f"streaming LLC {policy.name} replay",
        )
    if vector_stream is not None:
        return vector_stream.stats()
    return scalar_stream.stats()


def simulate_opt_streaming(
    workload: Workload,
    config: Optional[ExperimentConfig] = None,
    backend: Optional[str] = None,
    max_chunk_accesses: Optional[int] = None,
) -> CacheStats:
    """Belady's OPT over the full execution's LLC stream, out of core.

    OPT needs the future, so the stream is processed in two passes with a
    disk spill (:class:`~repro.experiments.memo.ChunkSpill`) instead of one
    resumable pass: the filtered chunks are spilled while a reverse sweep
    resolves globally consistent per-chunk next-use indices
    (:func:`~repro.fastsim.resolve_chunk_next_use`), then a forward sweep
    feeds an :class:`~repro.fastsim.OptStream`.  Peak memory stays bounded
    by the chunk budget plus one entry per distinct block.

    The scalar reference (:func:`simulate_opt_misses`) is inherently
    one-shot, so ``scalar`` and the ``verify`` cross-check materialize the
    filtered stream — use them at test scales only.
    """
    config = config or ExperimentConfig.default()
    plan = PLANNER.plan(
        SimRequest(
            schemes=("OPT",),
            backend=backend if backend is not None else config.backend,
            stage=STAGE_STREAMING,
            hierarchy=config.hierarchy,
        )
    )
    llc_config = config.hierarchy.llc
    with ChunkSpill() as spill:
        starts: List[int] = []
        offset = 0
        count = 0
        for chunk in iter_llc_chunks(
            workload, config, max_chunk_accesses, backend=backend
        ):
            spill.put("blocks", count, chunk.block_addresses)
            starts.append(offset)
            offset += len(chunk)
            count += 1

        def materialized() -> np.ndarray:
            if not count:
                return np.empty(0, dtype=np.int64)
            return np.concatenate(
                [spill.get("blocks", index) for index in range(count)]
            )

        if plan.route == ROUTE_OPT_SCALAR:
            return simulate_opt_misses(materialized(), llc_config)
        next_seen: dict = {}
        for index in reversed(range(count)):
            spill.put(
                "next",
                index,
                resolve_chunk_next_use(
                    spill.get("blocks", index), starts[index], next_seen
                ),
            )
        stream = OptStream(llc_config.num_sets, llc_config.ways)
        for index in range(count):
            stream.feed(spill.get("blocks", index), spill.get("next", index))
        stats = CacheStats.from_counts(
            name=f"{llc_config.name}-OPT",
            hits=stream.hit_count,
            misses=stream.miss_count,
            evictions=stream.evictions,
        )
        if plan.verify:
            scalar_stats = simulate_opt_misses(materialized(), llc_config)
            assert_stats_equal(scalar_stats, stats, "streaming LLC OPT replay")
        return stats


def simulate_scheme_streaming(
    workload: Workload, scheme: str, config: ExperimentConfig,
    shared_stream: bool = False,
) -> CacheStats:
    """Memoised full-execution streaming simulation of one scheme.

    The streaming analogue of :func:`simulate_scheme`: results are
    chunk-budget-invariant, so the memo key carries only the workload,
    scheme and hierarchy (kind ``policystream``).  ``shared_stream``
    declares that other schemes will replay the same filtered stream (see
    :func:`simulate_llc_policy_streaming`).
    """
    key = policystream_memo_key(*workload.key, scheme, config, workload.layout.profile.merged)

    def compute() -> CacheStats:
        if scheme == "OPT":
            return simulate_opt_streaming(workload, config, backend=config.backend)
        return simulate_llc_policy_streaming(
            workload, scheme_policy(scheme), config, backend=config.backend,
            shared_stream=shared_stream,
        )

    return _memoised(_POLICY_STREAM_RUNS, "policystream", key, compute)


def _fused_multi_targets(schemes, is_cached):
    """Ordered unique schemes eligible for one shared fused-multi pass.

    Filters out already-memoised schemes (nothing to compute), OPT
    (offline) and ablation subclasses (no vector engine); returns the
    surviving schemes with their live policy objects, aligned.
    """
    targets: List[str] = []
    policies: List[ReplacementPolicy] = []
    for scheme in dict.fromkeys(schemes):
        if scheme == "OPT" or is_cached(scheme):
            continue
        policy = scheme_policy(scheme)
        if not supports_vector_replay(policy):
            continue
        targets.append(scheme)
        policies.append(policy)
    return targets, policies


def _maybe_fused_multi_streaming(
    workload: Workload, schemes: Sequence[str], config: ExperimentConfig
) -> None:
    """Opportunistic fused multi-scheme full-execution pass.

    When the planner picks the ``fused-multi`` route, every eligible
    uncached scheme replays from one shared (natively threaded) filter
    phase — the raw trace is generated and filtered once for all of them —
    and the per-scheme stats land in the ``policystream`` memo, so the
    per-scheme :func:`simulate_scheme_streaming` calls that follow are
    pure memo hits.  Any other plan returns without side effects and the
    staged materialize-once path runs exactly as before.
    """
    memo = active_disk_memo()
    merged = workload.layout.profile.merged

    def cached(scheme: str) -> bool:
        key = policystream_memo_key(*workload.key, scheme, config, merged)
        return key in _POLICY_STREAM_RUNS or (
            memo is not None and memo.contains("policystream", key)
        )

    targets, policies = _fused_multi_targets(schemes, cached)
    if len(targets) < 2:
        return
    budget = _chunk_budget(config, None)
    plan = PLANNER.plan(
        SimRequest(
            schemes=tuple(targets),
            policies=tuple(policies),
            backend=config.backend,
            stage=STAGE_STREAMING,
            hierarchy=config.hierarchy,
            have_memo=memo is not None,
            have_chunk_store=memo is not None
            and memo.contains("llcstream", _stream_key(workload, config, budget)),
        )
    )
    if plan.route != ROUTE_FUSED_MULTI:
        return
    classifier = _hint_classifier(workload.layout, config.hierarchy.llc)
    multi = MultiFusedPipeline(config.hierarchy, policies, classifier=classifier)
    count = 0
    for chunk in iter_execution_chunks(workload, budget):
        multi.feed(chunk.trace)
        count += 1
    l1_hits, l2_hits = multi.upstream_hit_counts()
    summary = {
        "chunks": count,
        "l1_hits": int(l1_hits),
        "l2_hits": int(l2_hits),
        "total_references": multi.total_references,
    }
    # Budget-less summary only — the budget-keyed manifest promises
    # per-chunk ``llcchunk`` entries this path never writes (see
    # _simulate_fused_streaming).
    summary_key = _summary_key(workload, config)
    _STREAM_SUMMARIES.setdefault(summary_key, summary)
    if memo is not None and not memo.contains("llcstream", summary_key):
        memo.put("llcstream", summary_key, summary)
    for scheme, stats in zip(targets, multi.stats()):
        key = policystream_memo_key(*workload.key, scheme, config, merged)
        _POLICY_STREAM_RUNS[key] = stats
        if memo is not None:
            memo.put("policystream", key, stats)


def execution_cycles(
    workload: Workload, stats: CacheStats, config: ExperimentConfig
) -> float:
    """Execution cycles of the *full* application run under an LLC outcome."""
    summary = execution_stream_summary(workload, config)
    counts = LevelCounts(
        l1_hits=summary["l1_hits"],
        l2_hits=summary["l2_hits"],
        llc_hits=stats.hits,
        memory_accesses=stats.misses,
    )
    return config.timing.cycles(counts)


def compare_policies_streaming(
    app_names: Sequence[str],
    dataset_names: Sequence[str],
    schemes: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    reorder: Optional[str] = None,
    baseline: str = "RRIP",
) -> List[DataPoint]:
    """Full-execution counterpart of :func:`compare_policies`.

    Simulates every scheme over the complete application run (all
    iterations, streamed with bounded memory) instead of the single ROI
    iteration, reporting miss reductions and speed-ups against the baseline
    exactly like the one-shot comparison.
    """
    config = config or ExperimentConfig.default()
    reorder = reorder or config.reorder
    timing: TimingModel = config.timing
    # Mirror compare_policies: when several schemes will replay the same
    # stream, the planner first tries the fused multi-scheme route (one
    # shared filter phase, N replays); when that is off the table the
    # staged persist-once path materializes the filtered chunks for every
    # scheme to replay (the per-scheme fused gate checks for the active
    # memo itself).
    shared = len({baseline, *schemes}) > 1
    points: List[DataPoint] = []
    for dataset_name in dataset_names:
        for app_name in app_names:
            workload = build_workload(app_name, dataset_name, reorder=reorder, config=config)
            _maybe_fused_multi_streaming(workload, (baseline, *schemes), config)
            baseline_stats = simulate_scheme_streaming(
                workload, baseline, config, shared_stream=shared
            )
            baseline_cycles = execution_cycles(workload, baseline_stats, config)
            for scheme in schemes:
                stats = (
                    baseline_stats
                    if scheme == baseline
                    else simulate_scheme_streaming(
                        workload, scheme, config, shared_stream=shared
                    )
                )
                cycles = execution_cycles(workload, stats, config)
                points.append(
                    DataPoint(
                        app_name=app_name,
                        dataset_name=dataset_name,
                        scheme=scheme,
                        stats=stats,
                        cycles=cycles,
                        miss_reduction_pct=timing.miss_reduction_percent(
                            baseline_stats.misses, stats.misses
                        ),
                        speedup_pct=timing.speedup_percent(baseline_cycles, cycles),
                    )
                )
    return points


# ---------------------------------------------------------------------------
# multi-programmed (co-run) simulation
# ---------------------------------------------------------------------------


class _ScalarCorunStream:
    """Scalar co-run reference: one stream-tracking cache fed merged chunks."""

    def __init__(self, policy: ReplacementPolicy, llc_config: CacheConfig, partition) -> None:
        self._cache = SetAssociativeCache(
            llc_config, policy, partition=partition, track_streams=True
        )

    def feed(self, chunk) -> None:
        access = self._cache.access_block
        blocks = chunk.block_addresses.tolist()
        pcs = chunk.pcs.tolist()
        hints = chunk.hints.tolist()
        regions = chunk.regions.tolist()
        streams = chunk.stream_ids.tolist()
        for block, pc, hint, region, stream in zip(blocks, pcs, hints, regions, streams):
            access(block, pc, hint, region, stream)

    def stats(self) -> CacheStats:
        return self._cache.stats


def simulate_corun(
    spec: CorunSpec,
    scheme: str,
    config: Optional[ExperimentConfig] = None,
    reorder: Optional[str] = None,
    max_chunk_accesses: Optional[int] = None,
) -> CacheStats:
    """Replay N co-running applications through one shared LLC, streaming.

    Each application's post-L1/L2 stream is produced exactly as in the
    single-programmed path (:func:`iter_llc_chunks` — private L1/L2 filters
    per app, per-app reuse hints), merged under the spec's arrival schedule
    with per-stream address-space remapping, and replayed through one shared
    LLC.  The returned :class:`CacheStats` carries per-stream counters that
    sum exactly to the aggregates.

    Degenerate co-run is a strict generalization: a 1-app spec with
    ``partition=None`` delegates to :func:`simulate_scheme_streaming`, so it
    returns bit-identical stats *and* hits the same memo entries as the
    single-app path.

    Backend semantics match the single-app streaming path: ``vector`` uses
    :class:`~repro.fastsim.CorunReplayStream` when
    :func:`~repro.fastsim.supports_vector_corun` accepts the configuration
    (per-stream engines under a partition, shared engine plus ``bincount``
    attribution without), ``scalar`` replays through a stream-tracking
    :class:`~repro.cache.SetAssociativeCache`, and ``verify`` runs both and
    compares every counter including the per-stream breakdowns.  ``OPT`` has
    no online co-run analogue (offline Belady needs the future of the merged
    stream) and is rejected.

    Results are memoised under the new ``corun`` kind — a fresh directory in
    the on-disk store, so ``MEMO_VERSION`` is unaffected.
    """
    config = config or ExperimentConfig.default()
    reorder = reorder or config.reorder
    # The planner rejects OPT (offline, no co-run analogue) and owns the
    # delegate / vector / PIN-fallback decisions.
    plan = PLANNER.plan(
        SimRequest(
            schemes=(scheme,),
            policies=(scheme_policy(scheme),) if scheme != "OPT" else (),
            backend=config.backend,
            stage=STAGE_CORUN,
            hierarchy=config.hierarchy,
            partition=spec.partition,
            num_streams=spec.num_streams,
        )
    )
    if plan.route == ROUTE_CORUN_DELEGATE:
        app_name, dataset_name = spec.pairs[0]
        workload = build_workload(app_name, dataset_name, reorder=reorder, config=config)
        return simulate_scheme_streaming(workload, scheme, config)
    key = corun_memo_key(spec, reorder, scheme, config)

    def compute() -> CacheStats:
        workloads = [
            build_workload(app_name, dataset_name, reorder=reorder, config=config)
            for app_name, dataset_name in spec.pairs
        ]
        merged = InterleavedTraceStream(
            [
                iter_llc_chunks(workload, config, max_chunk_accesses)
                for workload in workloads
            ],
            schedule=spec.schedule,
            quantum=spec.quantum,
            seed=spec.seed,
            chunk_accesses=_chunk_budget(config, max_chunk_accesses),
        )
        llc_config = config.hierarchy.llc
        policy = scheme_policy(scheme)
        vector_stream = None
        scalar_stream = None
        if plan.route == ROUTE_CORUN_VECTOR:
            vector_stream = CorunReplayStream(
                policy, llc_config, spec.num_streams, partition=spec.partition
            )
        if vector_stream is None or plan.verify:
            scalar_stream = _ScalarCorunStream(
                scheme_policy(scheme) if vector_stream is not None else policy,
                llc_config,
                spec.partition,
            )
        for chunk in merged:
            if vector_stream is not None:
                vector_stream.feed(
                    chunk.block_addresses, chunk.stream_ids,
                    chunk.hints, chunk.regions, chunk.pcs,
                )
            if scalar_stream is not None:
                scalar_stream.feed(chunk)
        if vector_stream is not None and scalar_stream is not None:
            assert_stats_equal(
                scalar_stream.stats().validate(),
                vector_stream.stats(),
                f"co-run LLC {policy.name} replay",
            )
        if vector_stream is not None:
            return vector_stream.stats()
        return scalar_stream.stats().validate()

    return _memoised(_CORUN_RUNS, "corun", key, compute)


def compare_policies_corun(
    spec: CorunSpec,
    schemes: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    reorder: Optional[str] = None,
    baseline: str = "RRIP",
) -> List[DataPoint]:
    """Co-run counterpart of :func:`compare_policies_streaming`.

    Simulates every scheme on the interleaved co-run and reports **one data
    point per co-running application per scheme**, built from that stream's
    own counters (:meth:`CacheStats.stream_view`): per-app cycles combine the
    app's private L1/L2 filter counters with its share of the shared-LLC
    hits and misses, and miss-reduction / speed-up compare the same stream
    under the baseline scheme — i.e. how much each app gains or loses from
    the policy change *under interference*.
    """
    config = config or ExperimentConfig.default()
    reorder = reorder or config.reorder
    timing: TimingModel = config.timing
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

    def cycles_for(workload: Workload, view: CacheStats) -> float:
        summary = execution_stream_summary(workload, config)
        counts = LevelCounts(
            l1_hits=summary["l1_hits"],
            l2_hits=summary["l2_hits"],
            llc_hits=view.hits,
            memory_accesses=view.misses,
        )
        return config.timing.cycles(counts)

    baseline_stats = simulate_corun(spec, baseline, config, reorder=reorder)
    baseline_views = views(baseline_stats)
    baseline_cycles = [
        cycles_for(workload, view) for workload, view in zip(workloads, baseline_views)
    ]
    points: List[DataPoint] = []
    for scheme in schemes:
        stats = (
            baseline_stats
            if scheme == baseline
            else simulate_corun(spec, scheme, config, reorder=reorder)
        )
        for stream, (workload, view) in enumerate(zip(workloads, views(stats))):
            app_name, dataset_name = spec.pairs[stream]
            cycles = cycles_for(workload, view)
            points.append(
                DataPoint(
                    app_name=f"{app_name}#{stream}" if duplicated else app_name,
                    dataset_name=dataset_name,
                    scheme=scheme,
                    stats=view,
                    cycles=cycles,
                    miss_reduction_pct=timing.miss_reduction_percent(
                        baseline_views[stream].misses, view.misses
                    ),
                    speedup_pct=timing.speedup_percent(
                        baseline_cycles[stream], cycles
                    ),
                )
            )
    return points


def _roi_summary_key(workload: Workload, config: ExperimentConfig) -> tuple:
    """Key of the ROI stream's L1/L2 counters (kind ``roisummary``)."""
    return llctrace_memo_key(*workload.key, config, workload.layout.profile.merged)


def _store_roi_summary(workload: Workload, config: ExperimentConfig, summary: dict) -> None:
    key = _roi_summary_key(workload, config)
    _ROI_SUMMARIES.setdefault(key, summary)
    memo = active_disk_memo()
    if memo is not None and not memo.contains("roisummary", key):
        memo.put("roisummary", key, summary)


def roi_stream_summary(workload: Workload, config: ExperimentConfig) -> dict:
    """Aggregate L1/L2 filter counters of the workload's ROI stream.

    Resolution order: the in-memory/on-disk ``roisummary`` entries (written
    by the fused ROI path), then a cached ``llctrace`` (whose upstream
    counters carry the same numbers), then filtering the ROI trace — so
    timing never forces the materialized LLC trace back into existence when
    a fused run already produced the counters.
    """
    key = _roi_summary_key(workload, config)
    summary = _ROI_SUMMARIES.get(key)
    if summary is not None:
        return summary
    memo = active_disk_memo()
    if memo is not None:
        summary = memo.get("roisummary", key)
        if summary is not None:
            _ROI_SUMMARIES[key] = summary
            return summary
    llc_trace = _LLC_TRACES.get(key)
    if llc_trace is None and memo is not None:
        llc_trace = memo.get("llctrace", key)
    if llc_trace is None:
        llc_trace = llc_trace_for(workload, config)
    summary = {
        "l1_hits": int(llc_trace.upstream_l1_hits),
        "l2_hits": int(llc_trace.upstream_l2_hits),
        "total_references": int(llc_trace.total_references),
    }
    _store_roi_summary(workload, config, summary)
    return summary


def _simulate_fused_roi(
    workload: Workload, policy: ReplacementPolicy, config: ExperimentConfig
) -> CacheStats:
    """ROI replay through the fused single-pass pipeline.

    Skips :func:`llc_trace_for` entirely — no keep-mask, no compacted
    address/hint/PC arrays — and leaves a ``roisummary`` behind so
    :func:`workload_cycles` can price the outcome without materializing the
    LLC trace either.
    """
    classifier = _hint_classifier(workload.layout, config.hierarchy.llc)
    fused = FusedPipeline(config.hierarchy, policy, classifier=classifier)
    for piece in iter_trace_slices(roi_trace(workload), _chunk_budget(config, None)):
        fused.feed(piece)
    results = fused.stats()
    _store_roi_summary(
        workload,
        config,
        {
            "l1_hits": int(results.l1_stats.hits),
            "l2_hits": int(results.l2_stats.hits),
            "total_references": fused.total_references,
        },
    )
    return results.llc_stats


def simulate_scheme(
    workload: Workload, scheme: str, config: ExperimentConfig,
    shared_trace: bool = False,
) -> CacheStats:
    """Memoised ROI simulation of one scheme on one workload (kind ``policy``).

    Under the ``vector`` backend, schemes with a fused kernel replay through
    :class:`~repro.fastsim.FusedPipeline` when the filtered ROI trace is not
    already cached; otherwise (or for OPT and scalar/verify runs) the staged
    filter-then-replay pipeline runs as before.  Both routes produce
    bit-identical statistics.

    ``shared_trace`` declares that other schemes will replay the same
    workload: the fused route (which regenerates the raw trace per scheme)
    is then skipped in favour of the staged path, which materializes the
    filtered ROI trace once — on the first scheme that actually computes —
    and replays every scheme from that in-memory/on-disk copy.
    """
    key = policy_memo_key(*workload.key, scheme, config, workload.layout.profile.merged)

    def compute() -> CacheStats:
        policy = scheme_policy(scheme) if scheme != "OPT" else None
        trace_key = _roi_summary_key(workload, config)
        memo = active_disk_memo()
        plan = PLANNER.plan(
            SimRequest(
                schemes=(scheme,),
                policies=(policy,) if policy is not None else (),
                backend=config.backend,
                stage=STAGE_ROI,
                hierarchy=config.hierarchy,
                consumers=2 if shared_trace else 1,
                have_memo=memo is not None,
                have_trace_cache=trace_key in _LLC_TRACES
                or (memo is not None and memo.contains("llctrace", trace_key)),
            )
        )
        if plan.route == ROUTE_FUSED:
            return _simulate_fused_roi(workload, policy, config)
        llc_trace = llc_trace_for(workload, config)
        if scheme == "OPT":
            return simulate_opt(llc_trace, config.hierarchy.llc, backend=config.backend)
        return simulate_llc_policy(
            llc_trace, policy, config.hierarchy.llc, backend=config.backend
        )

    return _memoised(_POLICY_RUNS, "policy", key, compute)


def workload_cycles(workload: Workload, stats: CacheStats, config: ExperimentConfig) -> float:
    """Execution cycles of the workload's ROI under the given LLC outcome."""
    summary = roi_stream_summary(workload, config)
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
# multi-scheme comparison (shared by Figs. 5-9)
# ---------------------------------------------------------------------------

def _maybe_fused_multi_roi(
    workload: Workload, schemes: Sequence[str], config: ExperimentConfig
) -> None:
    """Opportunistic fused multi-scheme ROI pass.

    The ROI analogue of :func:`_maybe_fused_multi_streaming`: under the
    ``fused-multi`` plan, one shared filter pass over the ROI stream feeds
    every eligible uncached scheme's replay engine, stats land in the
    ``policy`` memo and the shared L1/L2 counters in ``roisummary`` — the
    filtered ROI trace is never materialized.  Any other plan leaves the
    staged materialize-once behaviour untouched.
    """
    memo = active_disk_memo()
    merged = workload.layout.profile.merged

    def cached(scheme: str) -> bool:
        key = policy_memo_key(*workload.key, scheme, config, merged)
        return key in _POLICY_RUNS or (
            memo is not None and memo.contains("policy", key)
        )

    targets, policies = _fused_multi_targets(schemes, cached)
    if len(targets) < 2:
        return
    trace_key = _roi_summary_key(workload, config)
    plan = PLANNER.plan(
        SimRequest(
            schemes=tuple(targets),
            policies=tuple(policies),
            backend=config.backend,
            stage=STAGE_ROI,
            hierarchy=config.hierarchy,
            have_memo=memo is not None,
            have_trace_cache=trace_key in _LLC_TRACES
            or (memo is not None and memo.contains("llctrace", trace_key)),
        )
    )
    if plan.route != ROUTE_FUSED_MULTI:
        return
    classifier = _hint_classifier(workload.layout, config.hierarchy.llc)
    multi = MultiFusedPipeline(config.hierarchy, policies, classifier=classifier)
    for piece in iter_trace_slices(roi_trace(workload), _chunk_budget(config, None)):
        multi.feed(piece)
    l1_hits, l2_hits = multi.upstream_hit_counts()
    _store_roi_summary(
        workload,
        config,
        {
            "l1_hits": int(l1_hits),
            "l2_hits": int(l2_hits),
            "total_references": multi.total_references,
        },
    )
    for scheme, stats in zip(targets, multi.stats()):
        key = policy_memo_key(*workload.key, scheme, config, merged)
        _POLICY_RUNS[key] = stats
        if memo is not None:
            memo.put("policy", key, stats)


def compare_policies(
    app_names: Sequence[str],
    dataset_names: Sequence[str],
    schemes: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    reorder: Optional[str] = None,
    baseline: str = "RRIP",
) -> List[DataPoint]:
    """Simulate ``schemes`` (plus the baseline) on every (app, dataset) pair.

    Returns one :class:`DataPoint` per (app, dataset, scheme) with miss
    reduction and speed-up computed against the baseline scheme, exactly as
    the paper's figures report them.
    """
    config = config or ExperimentConfig.default()
    reorder = reorder or config.reorder
    timing: TimingModel = config.timing
    # With several distinct schemes replaying one workload, the planner
    # first tries the fused multi-scheme route (one shared filter phase, N
    # replays, nothing materialized); otherwise the staged path
    # materializes the filtered ROI trace once and replays every scheme
    # from it — the per-scheme fused route would regenerate the raw trace
    # for each.
    shared = len({baseline, *schemes}) > 1
    points: List[DataPoint] = []
    for dataset_name in dataset_names:
        for app_name in app_names:
            workload = build_workload(app_name, dataset_name, reorder=reorder, config=config)
            _maybe_fused_multi_roi(workload, (baseline, *schemes), config)
            baseline_stats = simulate_scheme(workload, baseline, config, shared_trace=shared)
            baseline_cycles = workload_cycles(workload, baseline_stats, config)
            for scheme in schemes:
                stats = (
                    baseline_stats
                    if scheme == baseline
                    else simulate_scheme(workload, scheme, config, shared_trace=shared)
                )
                cycles = workload_cycles(workload, stats, config)
                points.append(
                    DataPoint(
                        app_name=app_name,
                        dataset_name=dataset_name,
                        scheme=scheme,
                        stats=stats,
                        cycles=cycles,
                        miss_reduction_pct=timing.miss_reduction_percent(
                            baseline_stats.misses, stats.misses
                        ),
                        speedup_pct=timing.speedup_percent(baseline_cycles, cycles),
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

    Memo keys are computable from the experiment parameters alone, so the
    memo-environment flags (cached ROI trace, persisted chunk store) are
    probed directly from the on-disk store — the sweep service embeds
    these plans in run manifests and ``repro plan explain`` answers before
    any simulation runs.  Those flags belong to the pair, not the scheme,
    so the store is probed once per call.  Each returned plan is exactly
    the one the corresponding :func:`simulate_scheme` /
    :func:`simulate_scheme_streaming` call would execute under the same
    memo state.
    """
    memo = active_disk_memo()
    merged = config.merged_properties
    if streaming:
        budget = _chunk_budget(config, None)
        stream_key = llcstream_summary_memo_key(
            app_name, dataset_name, reorder, config, merged
        ) + (budget,)
        have_chunk_store = memo is not None and memo.contains("llcstream", stream_key)
        have_trace_cache = False
        stage = STAGE_STREAMING
    else:
        trace_key = llctrace_memo_key(app_name, dataset_name, reorder, config, merged)
        have_trace_cache = trace_key in _LLC_TRACES or (
            memo is not None and memo.contains("llctrace", trace_key)
        )
        have_chunk_store = False
        stage = STAGE_ROI
    return {
        scheme: PLANNER.plan(
            SimRequest(
                schemes=(scheme,),
                policies=(scheme_policy(scheme),) if scheme != "OPT" else (),
                backend=config.backend,
                stage=stage,
                hierarchy=config.hierarchy,
                have_memo=memo is not None,
                have_chunk_store=have_chunk_store,
                have_trace_cache=have_trace_cache,
            )
        )
        for scheme in schemes
    }


def plan_corun_task(
    spec: CorunSpec, scheme: str, config: ExperimentConfig
) -> ExecutionPlan:
    """Plan one co-run task (the co-run analogue of :func:`plan_scheme_task`).

    Raises :class:`ValueError` for OPT, exactly as :func:`simulate_corun`
    would.
    """
    policies = (scheme_policy(scheme),) if scheme != "OPT" else ()
    return PLANNER.plan(
        SimRequest(
            schemes=(scheme,),
            policies=policies,
            backend=config.backend,
            stage=STAGE_CORUN,
            hierarchy=config.hierarchy,
            partition=spec.partition,
            num_streams=spec.num_streams,
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
