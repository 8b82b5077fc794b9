"""NumPy-vectorized fast path for the trace-driven cache simulation.

The scalar simulator (:mod:`repro.cache.cache`) replays one access at a time
through Python-level policy objects.  That is the reference implementation —
easy to audit against the paper, but it costs microseconds per access.  This
package reimplements the hot stages of the pipeline as batched computations
over whole traces:

Each policy family has exactly one engine, a resumable ``*Stream`` class
(``LRUStream``, ``RRIPStream``, ``PinStream``, ``ShipStream``,
``HawkeyeStream``, ``LeewayStream``, ``OptStream``): feed it a trace in
chunks, or replay a whole trace with one ``feed`` on a fresh stream.

``stackdist``
    The LRU engine.  Exploits the LRU *stack property*: a W-way set hits an
    access exactly when fewer than W distinct blocks of the same set were
    touched since the previous access to the same block.  Stack distances are
    computed for a whole trace at once with a vectorized merge-count, so no
    per-access Python loop remains.
``rrip``
    The RRIP-family engine (SRRIP, BRRIP, DRRIP and GRASP with per-access
    reuse hints) — the policies behind every headline result of the paper.
    Keeps the whole simulator state (tags, RRPV counters, the set-dueling
    PSEL counter) in NumPy arrays and replays the trace in batched
    set-parallel sweeps, reproducing the scalar policies bit-exactly
    including the global duel state.
``ship`` / ``hawkeye`` / ``leeway`` / ``pin`` / ``opt``
    The remaining schemes of the paper's comparison matrix (Figs. 5-11):
    SHiP-MEM, Hawkeye, Leeway, the PIN-X pinning configurations (including
    BYPASS when a set is fully pinned) and Belady's OPT.  Per-set state
    (tags, RRPVs, pinned masks, recency positions, next-use values) batches
    under the same set-parallel chunking as ``rrip``; globally shared
    learning state (SHiP's SHCT, Leeway's and Hawkeye's PC predictors) is
    advanced in exact trace order over each chunk's sparse events, the same
    way the RRIP engine walks PSEL updates.
``kernels``
    Optional accelerator: tiny C kernels compiled on demand (plain ``cc``,
    no third-party packages) for every engine, an order of magnitude faster
    than NumPy.  Kernels live in a registry package — one module per engine
    family, a shared ``register_kernel``/capability-probe API, and a single
    lazily-compiled translation unit (nothing compiles at import time).  The
    ``*Stream`` engines use them automatically through the ``*_feed``
    wrappers; set ``REPRO_NATIVE=0`` or remove the compiler and everything
    transparently stays on NumPy.
``pipeline``
    The fused single-pass pipeline: L1/L2 filtering and the LLC replay of
    one policy run in a single native call per trace chunk, threaded across
    set-group shards (``REPRO_THREADS``), bit-identical to the staged
    engines at any thread count.  :class:`MultiFusedPipeline` is the
    multi-scheme variant: one shared filter phase feeding N policies'
    replay engines.
``plan``
    Capability-driven execution planning: :class:`~repro.fastsim.plan.RoutePlanner`
    maps a :class:`~repro.fastsim.plan.SimRequest` to an explicit, serializable
    :class:`~repro.fastsim.plan.ExecutionPlan` naming the route, engine,
    kernel tier, backend and every fallback reason.  The experiment runner
    routes all simulation through plans, and imports its engines through
    this module's execution-surface re-exports.
``filter``
    The L1-D/L2 filter of pipeline stage 5 (both levels are always LRU, see
    Sec. IV of the paper), with a scalar reference path and an equivalence
    guard used by the ``verify`` backend.
``replay``
    LLC replay dispatch for stage 6 — every scheme of the paper's matrix,
    including the per-region statistics breakdown of Fig. 2.  One family
    resolver maps a policy to its engine for every fast path, and
    :func:`supports_vector_replay` is the predicate deciding which policies
    qualify (exact policy types only; subclasses fall back to scalar).
``dispatch``
    Backend selection: ``vector`` (default), ``scalar`` (reference) or
    ``verify`` (run both, assert identical counts).  The process-wide default
    can be overridden with the ``REPRO_SIM_BACKEND`` environment variable or
    per-call/per-config.

Only the GRASP ablation variants (RRIP+Hints, insertion-only GRASP) still
use the scalar simulator regardless of the selected backend — they subclass
DRRIP/GRASP and override hooks the array-form specs cannot express.
"""

from repro.fastsim.corun import CorunReplayStream, supports_vector_corun
from repro.fastsim.dispatch import (
    BACKEND_ENV_VAR,
    BACKENDS,
    SCALAR,
    VECTOR,
    VERIFY,
    default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.fastsim.filter import (
    FastSimMismatchError,
    FilterResult,
    FilterStream,
    run_filter,
    scalar_filter,
    vector_filter,
)
from repro.fastsim.hawkeye import (
    HawkeyeSpec,
    HawkeyeStream,
    hawkeye_spec,
)
from repro.fastsim.leeway import (
    LeewaySpec,
    LeewayStream,
    leeway_spec,
)
from repro.fastsim.opt import (
    NextUseTable,
    OptStream,
    next_use_indices,
    resolve_chunk_next_use,
)
from repro.fastsim.pin import (
    PinSpec,
    PinStream,
    pin_spec,
)
from repro.fastsim.pipeline import (
    FusedPipeline,
    FusedStats,
    MultiFusedPipeline,
    effective_threads,
    fused_native_supported,
    fused_supported,
)
from repro.fastsim.plan import (
    ENGINE_CAPABILITIES,
    EngineCapabilities,
    ExecutionPlan,
    PLANNER,
    RoutePlanner,
    SimRequest,
    capabilities_for,
    plan_request,
)
from repro.fastsim.replay import (
    PolicyReplayStream,
    supports_vector_replay,
    vector_opt_replay,
    vector_policy_replay,
)
from repro.fastsim.rrip import (
    RRIPSpec,
    RRIPStream,
    rrip_spec,
)
from repro.fastsim.ship import (
    ShipSpec,
    ShipStream,
    ship_spec,
)
from repro.fastsim.stackdist import (
    DenseIdMap,
    LRUStream,
    numpy_lru_replay,
    occurrence_order,
    previous_occurrence_indices,
    prior_leq_counts,
    substream_previous_indices,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "CorunReplayStream",
    "ENGINE_CAPABILITIES",
    "EngineCapabilities",
    "ExecutionPlan",
    "PLANNER",
    "RoutePlanner",
    "SCALAR",
    "SimRequest",
    "VECTOR",
    "VERIFY",
    "DenseIdMap",
    "FastSimMismatchError",
    "FilterResult",
    "FilterStream",
    "FusedPipeline",
    "FusedStats",
    "MultiFusedPipeline",
    "HawkeyeSpec",
    "HawkeyeStream",
    "LRUStream",
    "LeewaySpec",
    "LeewayStream",
    "NextUseTable",
    "OptStream",
    "PinSpec",
    "PinStream",
    "PolicyReplayStream",
    "RRIPSpec",
    "RRIPStream",
    "ShipSpec",
    "ShipStream",
    "capabilities_for",
    "default_backend",
    "effective_threads",
    "fused_native_supported",
    "fused_supported",
    "hawkeye_spec",
    "leeway_spec",
    "next_use_indices",
    "numpy_lru_replay",
    "occurrence_order",
    "pin_spec",
    "plan_request",
    "previous_occurrence_indices",
    "prior_leq_counts",
    "resolve_chunk_next_use",
    "resolve_backend",
    "rrip_spec",
    "run_filter",
    "scalar_filter",
    "set_default_backend",
    "ship_spec",
    "substream_previous_indices",
    "supports_vector_corun",
    "supports_vector_replay",
    "vector_filter",
    "vector_opt_replay",
    "vector_policy_replay",
]
