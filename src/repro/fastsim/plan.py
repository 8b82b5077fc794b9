"""Capability-driven execution planning for the simulation pipeline.

Every simulation entry point in :mod:`repro.experiments.runner` used to
hand-roll its own routing — backend resolution, fused-vs-staged, streaming,
partition and fallback decisions scattered across ten call sites.  This
module collapses that sprawl into one explainable layer:

``EngineCapabilities``
    One declarative record per engine family (vector support, the kernel
    capability the native fused route needs, plus the family's known
    fallbacks in prose).  The table below is the single place a new engine
    announces what it can do.
``SimRequest``
    Everything a routing decision depends on: the scheme(s) and live
    policy object(s), the requested backend, the pipeline stage (one-shot
    replay, the ROI or full-execution scope, co-run), the consumer count
    (how many distinct schemes share one filtered stream), the partition,
    the thread count and the memo/kernel environment.  Requests are cheap
    to build — no workload needs to exist.
``ExecutionPlan``
    The planner's explicit answer: the route, engine family, kernel tier
    and backend that will run, whether a verify dual-run is attached, and
    *every* fallback reason collected on the way there.  Plans are
    JSON-serializable (sweep run manifests embed them) and
    self-explaining (``repro plan explain`` prints them).
``RoutePlanner``
    The decision procedure.  The fused-route consumer-count rule, the
    co-run PIN fallback, the verify-mode dual-run and the NumPy
    degradation logic each live exactly once, here.

The runner imports its engines *through this module* (see the re-exports
at the bottom): a CI lint leg enforces that ``experiments/runner.py``
never imports an engine module directly, so routing cannot silently
re-sprawl into the call sites.

Plans never change results — every route is bit-identical by construction
(the route-matrix suite in ``tests/test_route_matrix.py`` pins this), so
planning decisions are free to chase wall-clock only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.cache.config import HierarchyConfig
from repro.cache.partition import WayPartition
from repro.cache.policies.opt import BeladyOptimal
from repro.fastsim import kernels
from repro.fastsim.corun import CorunReplayStream, supports_vector_corun
from repro.fastsim.dispatch import SCALAR, VECTOR, VERIFY, resolve_backend
from repro.fastsim.filter import FilterStream, assert_stats_equal, run_filter
from repro.fastsim.hawkeye import hawkeye_spec
from repro.fastsim.opt import OptStream, resolve_chunk_next_use
from repro.fastsim.pipeline import (
    FusedPipeline,
    MultiFusedPipeline,
    fused_native_supported,
)
from repro.fastsim.replay import (
    PolicyReplayStream,
    _family,
    supports_vector_replay,
    vector_opt_replay,
    vector_policy_replay,
)

# ---------------------------------------------------------------------------
# capability table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineCapabilities:
    """What one engine family can do, and which kernels it needs for it.

    ``fused_kernel`` names the registry capability
    (:func:`repro.fastsim.kernels.has_capability`) the native single-pass
    route requires; ``None`` means the family has no fused kernel.
    ``fallbacks`` documents the family's known degradations in prose —
    the planner quotes them verbatim in plan explanations.
    """

    family: str
    vector_replay: bool
    fused_kernel: Optional[str]
    fallbacks: Tuple[str, ...] = ()


#: Declarative capability records, one per engine family.  ``scalar`` is the
#: pseudo-family of policies without an array-form spec (the GRASP ablation
#: subclasses): the reference simulator covers them on every route.
ENGINE_CAPABILITIES: Dict[str, EngineCapabilities] = {
    "lru": EngineCapabilities(
        family="lru", vector_replay=True, fused_kernel="fused:lru",
    ),
    "rrip": EngineCapabilities(
        family="rrip", vector_replay=True, fused_kernel="fused:rrip",
    ),
    "pin": EngineCapabilities(
        family="pin", vector_replay=True, fused_kernel="fused:pin",
        fallbacks=(
            "unpartitioned co-run (K>=2) falls back to the scalar reference: "
            "per-stream bypass attribution needs per-stream engines, which "
            "only a way partition provides",
        ),
    ),
    "ship": EngineCapabilities(
        family="ship", vector_replay=True, fused_kernel="fused:ship",
    ),
    "hawkeye": EngineCapabilities(
        family="hawkeye", vector_replay=True, fused_kernel="fused:hawkeye",
        fallbacks=(
            "a zero-length OPTgen history window (history_factor * ways == 0) "
            "disables the native kernels; the NumPy engine runs instead",
        ),
    ),
    "leeway": EngineCapabilities(
        family="leeway", vector_replay=True, fused_kernel="fused:leeway",
    ),
    "opt": EngineCapabilities(
        family="opt", vector_replay=True, fused_kernel=None,
        fallbacks=(
            "OPT needs future next-use indices: streaming resolves them in a "
            "two-pass reverse sweep over a disk spill",
            "OPT is offline and has no co-run analogue",
        ),
    ),
    "scalar": EngineCapabilities(
        family="scalar", vector_replay=False, fused_kernel=None,
        fallbacks=(
            "policies without an exact array-form spec (the GRASP ablation "
            "subclasses) replay through the per-access reference simulator "
            "on every backend",
        ),
    ),
}


def capabilities_for(policy) -> EngineCapabilities:
    """The capability record governing one live policy object."""
    if type(policy) is BeladyOptimal:
        return ENGINE_CAPABILITIES["opt"]
    return ENGINE_CAPABILITIES[_family(policy) or "scalar"]


# ---------------------------------------------------------------------------
# request / plan
# ---------------------------------------------------------------------------

#: Pipeline stages a request can name.
STAGE_ONESHOT = "oneshot"     # replay of an already-materialized LLC trace
STAGE_ROI = "roi"             # ROI scope, from the raw reference stream
STAGE_STREAMING = "streaming"  # full-execution scope, streamed chunk by chunk
STAGE_CORUN = "corun"         # multi-programmed shared-LLC replay

#: Where each scope keeps its filtered stream once stored.
_STORED_STREAM = {
    STAGE_ROI: ("filtered ROI trace already cached", "in memory"),
    STAGE_STREAMING: ("persisted chunk store already on disk", "in the disk memo"),
}

#: Route names an :class:`ExecutionPlan` can carry.
ROUTE_VECTOR = "vector"            # staged vector replay (batched engines)
ROUTE_SCALAR = "scalar"            # per-access reference simulator
ROUTE_FUSED = "fused"              # single-pass native filter+LLC pipeline
ROUTE_FUSED_MULTI = "fused-multi"  # one filter phase, N policy replays
ROUTE_OPT_VECTOR = "opt-vector"    # batched next-use OPT engine, two passes
ROUTE_OPT_SCALAR = "opt-scalar"    # offline reference OPT loop
ROUTE_CORUN_VECTOR = "corun-vector"
ROUTE_CORUN_SCALAR = "corun-scalar"
ROUTE_CORUN_DELEGATE = "corun-delegate-single"  # K=1 unpartitioned co-run

#: Kernel tiers a plan can name.
KERNEL_NATIVE_FUSED = "native-fused"  # one C call per chunk, threaded filter
KERNEL_NATIVE = "native"              # per-family compiled replay kernels
KERNEL_NUMPY = "numpy"                # batched NumPy engines
KERNEL_PYTHON = "python"              # per-access reference simulator


@dataclass(frozen=True)
class SimRequest:
    """Everything one routing decision depends on.

    ``schemes``/``policies`` are aligned; single-scheme requests carry one
    entry.  ``consumers`` is the number of *distinct* schemes that will
    replay the same filtered stream (the fused-route consumer-count rule);
    it defaults to ``len(set(schemes))``.  The ``have_*`` flags describe
    the memo environment: ``have_stream`` says the scope's filtered stream
    is already stored (the ROI trace in memory or on disk, the execution's
    chunk store on disk), which makes replaying it cheaper than
    regenerating the raw trace.
    ``native_override`` pins kernel availability for testing; ``None``
    probes the live registry.
    """

    schemes: Tuple[str, ...]
    policies: Tuple[Any, ...] = ()
    backend: Optional[str] = None
    stage: str = STAGE_ONESHOT
    consumers: Optional[int] = None
    hierarchy: Optional[HierarchyConfig] = None
    partition: Optional[WayPartition] = None
    num_streams: int = 1
    threads: Optional[int] = None
    use_hints: bool = True
    have_memo: bool = False
    have_stream: bool = False
    native_override: Optional[bool] = None

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("a SimRequest names at least one scheme")
        if self.policies and len(self.policies) != len(self.schemes):
            raise ValueError(
                f"{len(self.schemes)} scheme(s) but {len(self.policies)} "
                "policy object(s)"
            )

    @property
    def scheme(self) -> str:
        return self.schemes[0]

    @property
    def policy(self):
        return self.policies[0] if self.policies else None

    def consumer_count(self) -> int:
        if self.consumers is not None:
            return self.consumers
        return len(set(self.schemes))

    def native_available(self) -> bool:
        if self.native_override is not None:
            return self.native_override
        return kernels.available()

    def has_kernel(self, capability: str) -> bool:
        if self.native_override is False:
            return False
        if self.native_override is True and kernels.available() is False:
            # An override can only *disable* kernels; it cannot conjure a
            # compiler into a NumPy-only environment.
            return False
        return kernels.has_capability(capability)


@dataclass(frozen=True)
class ExecutionPlan:
    """The planner's explicit, serializable routing decision."""

    route: str
    stage: str
    scheme: str
    engine: str
    kernel: str
    backend: str
    verify: bool = False
    fallbacks: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = ()
    threads: int = 1

    def to_json(self) -> Dict[str, Any]:
        """Manifest-ready form (plain JSON types only)."""
        return {
            "route": self.route,
            "stage": self.stage,
            "scheme": self.scheme,
            "schemes": list(self.schemes or (self.scheme,)),
            "engine": self.engine,
            "kernel": self.kernel,
            "backend": self.backend,
            "verify": self.verify,
            "threads": self.threads,
            "fallbacks": list(self.fallbacks),
        }

    def explain(self) -> str:
        """Human-readable account of the decision, one fact per line."""
        lines = [
            f"scheme   : {', '.join(self.schemes or (self.scheme,))}",
            f"stage    : {self.stage}",
            f"route    : {self.route}",
            f"engine   : {self.engine}",
            f"kernel   : {self.kernel}",
            f"backend  : {self.backend}"
            + (" (dual-run: vector + scalar cross-check)" if self.verify else ""),
        ]
        if self.threads > 1:
            lines.append(f"threads  : {self.threads}")
        if self.fallbacks:
            lines.append("because  :")
            lines.extend(f"  - {reason}" for reason in self.fallbacks)
        else:
            lines.append("because  : preferred route; no fallbacks applied")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------


class RoutePlanner:
    """Map a :class:`SimRequest` to an explicit :class:`ExecutionPlan`.

    Stateless; one module-level instance (:data:`PLANNER`) serves every
    call site.  All methods collect fallback reasons instead of silently
    branching, so a plan always says *why* it is not the fastest route.
    """

    def plan(self, request: SimRequest) -> ExecutionPlan:
        mode = resolve_backend(request.backend)
        if request.stage == STAGE_CORUN:
            return self._plan_corun(request, mode)
        if self._is_opt(request):
            return self._plan_opt(request, mode)
        if len(request.schemes) > 1 and request.stage in (STAGE_ROI, STAGE_STREAMING):
            return self._plan_multi(request, mode)
        return self._plan_single(request, mode)

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _is_opt(request: SimRequest) -> bool:
        if request.policies:
            return type(request.policy) is BeladyOptimal
        return request.scheme == "OPT"

    @staticmethod
    def _engine_name(policy) -> str:
        return _family(policy) or "scalar"

    def _vector_kernel(self, request: SimRequest, policy) -> str:
        """Kernel tier of the staged vector engines for this policy."""
        if not request.native_available():
            return KERNEL_NUMPY
        if (
            _family(policy) == "hawkeye"
            and request.hierarchy is not None
            and hawkeye_spec(policy).history_factor * request.hierarchy.llc.ways <= 0
        ):
            return KERNEL_NUMPY
        return KERNEL_NATIVE

    def _effective_threads(self, request: SimRequest) -> int:
        from repro.fastsim.pipeline import effective_threads

        requested = kernels.thread_count() if request.threads is None else request.threads
        if request.hierarchy is None:
            return max(1, requested)
        return effective_threads(requested, request.hierarchy)

    # -- single-policy plans ----------------------------------------------

    def _plan_single(self, request: SimRequest, mode: str) -> ExecutionPlan:
        policy = request.policy
        fallbacks = []
        caps = capabilities_for(policy)
        engine = self._engine_name(policy)

        if mode == SCALAR:
            fallbacks.append("backend=scalar requested: reference simulator")
            return self._scalar_plan(request, mode, engine="scalar", fallbacks=fallbacks)
        if not caps.vector_replay:
            fallbacks.extend(caps.fallbacks)
            return self._scalar_plan(request, mode, engine="scalar", fallbacks=fallbacks)

        verify = mode == VERIFY
        if verify:
            fallbacks.append(
                "backend=verify: vector route runs with a scalar dual-run cross-check"
            )

        # Fused single-pass route: either scope under the pure vector
        # backend, when the native fused kernel covers the policy and
        # replaying a stored filtered stream would not be cheaper.
        if request.stage in (STAGE_ROI, STAGE_STREAMING) and mode == VECTOR:
            fused_ok, fused_reasons = self._fused_eligible(request, policy)
            if fused_ok:
                return ExecutionPlan(
                    route=ROUTE_FUSED,
                    stage=request.stage,
                    scheme=request.scheme,
                    engine=engine,
                    kernel=KERNEL_NATIVE_FUSED,
                    backend=mode,
                    fallbacks=tuple(fallbacks),
                    schemes=request.schemes,
                    threads=self._effective_threads(request),
                )
            fallbacks.extend(fused_reasons)
        elif request.stage in (STAGE_ROI, STAGE_STREAMING) and verify:
            fallbacks.append(
                "fused route skipped: verify needs the staged scalar stream alongside"
            )

        return ExecutionPlan(
            route=ROUTE_VECTOR,
            stage=request.stage,
            scheme=request.scheme,
            engine=engine,
            kernel=self._vector_kernel(request, policy),
            backend=mode,
            verify=verify,
            fallbacks=tuple(fallbacks),
            schemes=request.schemes,
        )

    def _fused_eligible(self, request: SimRequest, policy) -> Tuple[bool, Tuple[str, ...]]:
        """Whether the fused single-pass route applies; reasons when not."""
        reasons = []
        caps = capabilities_for(policy)
        if caps.fused_kernel is None:
            reasons.append(f"engine family {caps.family!r} has no fused kernel")
            return False, tuple(reasons)
        native = (
            request.native_override
            if request.native_override is not None
            else (
                request.hierarchy is not None
                and fused_native_supported(policy, request.hierarchy)
            )
        )
        if not native:
            if not request.has_kernel(caps.fused_kernel):
                reasons.append(
                    f"fused kernel {caps.fused_kernel!r} unavailable "
                    "(no compiler, REPRO_NATIVE=0, or unsupported configuration): "
                    "staged NumPy engines run instead"
                )
            else:
                reasons.extend(caps.fallbacks)
            return False, tuple(reasons)
        if request.have_stream:
            return False, (self._stored_reason(request),)
        # Several consumers replay one stored stream when the scope can keep
        # it: the ROI always can (in memory), the full execution only with a
        # disk memo.
        if request.consumer_count() > 1 and (
            request.stage == STAGE_ROI or request.have_memo
        ):
            where = _STORED_STREAM[request.stage][1]
            return False, (
                f"{request.consumer_count()} consumers share this stream: the "
                f"staged path stores the filtered stream once ({where}) for "
                "all of them",
            )
        return True, ()

    @staticmethod
    def _stored_reason(request: SimRequest) -> str:
        return (
            f"{_STORED_STREAM[request.stage][0]}: replaying it beats "
            "regenerating the raw trace"
        )

    def _scalar_plan(
        self, request: SimRequest, mode: str, engine: str, fallbacks
    ) -> ExecutionPlan:
        return ExecutionPlan(
            route=ROUTE_SCALAR,
            stage=request.stage,
            scheme=request.scheme,
            engine=engine,
            kernel=KERNEL_PYTHON,
            backend=mode,
            fallbacks=tuple(fallbacks),
            schemes=request.schemes,
        )

    # -- OPT plans --------------------------------------------------------

    def _plan_opt(self, request: SimRequest, mode: str) -> ExecutionPlan:
        caps = ENGINE_CAPABILITIES["opt"]
        fallbacks = []
        streaming = request.stage == STAGE_STREAMING
        if mode == SCALAR:
            fallbacks.append("backend=scalar requested: offline reference OPT loop")
            if streaming:
                fallbacks.append(
                    "the offline reference is one-shot: the filtered stream is "
                    "materialized in memory"
                )
            return ExecutionPlan(
                route=ROUTE_OPT_SCALAR,
                stage=request.stage,
                scheme=request.scheme,
                engine="opt",
                kernel=KERNEL_PYTHON,
                backend=mode,
                fallbacks=tuple(fallbacks),
                schemes=request.schemes,
            )
        verify = mode == VERIFY
        if verify:
            fallbacks.append(
                "backend=verify: OPT dual-run materializes the stream for the "
                "offline reference cross-check"
            )
        if streaming:
            fallbacks.append(caps.fallbacks[0])
        kernel = KERNEL_NATIVE if request.native_available() else KERNEL_NUMPY
        return ExecutionPlan(
            route=ROUTE_OPT_VECTOR,
            stage=request.stage,
            scheme=request.scheme,
            engine="opt",
            kernel=kernel,
            backend=mode,
            verify=verify,
            fallbacks=tuple(fallbacks),
            schemes=request.schemes,
        )

    # -- multi-scheme (shared-stream) plans --------------------------------

    def _plan_multi(self, request: SimRequest, mode: str) -> ExecutionPlan:
        """Consumer-count rule: N>1 schemes replaying one filtered stream.

        The preferred route is ``fused-multi``: one (natively threaded)
        filter phase feeds every scheme's replay engine, so the raw trace
        is generated and filtered exactly once with nothing materialized.
        It needs the ``fused:filter`` kernel and a vector engine for every
        scheme; otherwise the staged materialize-once path runs as before.
        """
        fallbacks = []
        if mode == VECTOR and request.policies:
            ok, reasons = self._multi_eligible(request)
            if ok:
                return ExecutionPlan(
                    route=ROUTE_FUSED_MULTI,
                    stage=request.stage,
                    scheme="+".join(dict.fromkeys(request.schemes)),
                    engine="multi",
                    kernel=KERNEL_NATIVE_FUSED,
                    backend=mode,
                    fallbacks=(),
                    schemes=request.schemes,
                    threads=self._effective_threads(request),
                )
            fallbacks.extend(reasons)
        elif mode != VECTOR:
            fallbacks.append(
                f"backend={mode}: the fused multi-scheme route only runs under "
                "the pure vector backend"
            )
        fallbacks.append(
            f"{request.consumer_count()} consumers share one stream: the staged "
            "path materializes the filtered trace once and replays each scheme "
            "from it"
        )
        return ExecutionPlan(
            route=ROUTE_VECTOR if mode != SCALAR else ROUTE_SCALAR,
            stage=request.stage,
            scheme="+".join(dict.fromkeys(request.schemes)),
            engine="staged",
            kernel=(
                KERNEL_PYTHON
                if mode == SCALAR
                else (KERNEL_NATIVE if request.native_available() else KERNEL_NUMPY)
            ),
            backend=mode,
            verify=mode == VERIFY,
            fallbacks=tuple(fallbacks),
            schemes=request.schemes,
        )

    def _multi_eligible(self, request: SimRequest) -> Tuple[bool, Tuple[str, ...]]:
        reasons = []
        if not request.has_kernel("fused:filter"):
            reasons.append(
                "fused filter kernel unavailable (no compiler or REPRO_NATIVE=0): "
                "the shared filter phase would not beat the staged path"
            )
            return False, tuple(reasons)
        for scheme, policy in zip(request.schemes, request.policies):
            if type(policy) is BeladyOptimal:
                reasons.append(
                    f"scheme {scheme!r} is offline OPT: it cannot join a "
                    "single-pass multi-scheme replay"
                )
                return False, tuple(reasons)
            if not supports_vector_replay(policy):
                reasons.append(
                    f"scheme {scheme!r} has no vector engine (ablation subclass): "
                    "it needs the scalar reference, so the shared pass is off"
                )
                return False, tuple(reasons)
        if request.have_stream:
            reasons.append(self._stored_reason(request))
            return False, tuple(reasons)
        return True, ()

    # -- co-run plans ------------------------------------------------------

    def _plan_corun(self, request: SimRequest, mode: str) -> ExecutionPlan:
        policy = request.policy
        if self._is_opt(request):
            raise ValueError("OPT is offline and has no co-run analogue")
        fallbacks = []
        if request.num_streams == 1 and request.partition is None:
            fallbacks.append(
                "degenerate co-run (one stream, no partition): delegates to the "
                "single-app streaming path and its memo entries"
            )
            return ExecutionPlan(
                route=ROUTE_CORUN_DELEGATE,
                stage=request.stage,
                scheme=request.scheme,
                engine=self._engine_name(policy),
                kernel=self._vector_kernel(request, policy) if mode != SCALAR else KERNEL_PYTHON,
                backend=mode,
                verify=mode == VERIFY,
                fallbacks=tuple(fallbacks),
                schemes=request.schemes,
            )
        caps = capabilities_for(policy)
        verify = mode == VERIFY
        if mode != SCALAR and supports_vector_corun(policy, request.partition):
            if verify:
                fallbacks.append(
                    "backend=verify: vector co-run runs with a scalar dual-run "
                    "cross-check of every per-stream counter"
                )
            return ExecutionPlan(
                route=ROUTE_CORUN_VECTOR,
                stage=request.stage,
                scheme=request.scheme,
                engine=self._engine_name(policy),
                kernel=self._vector_kernel(request, policy),
                backend=mode,
                verify=verify,
                fallbacks=tuple(fallbacks),
                schemes=request.schemes,
            )
        if mode == SCALAR:
            fallbacks.append("backend=scalar requested: reference simulator")
        elif not caps.vector_replay:
            fallbacks.extend(caps.fallbacks)
        elif request.partition is None and caps.family == "pin":
            fallbacks.extend(ENGINE_CAPABILITIES["pin"].fallbacks)
        return ExecutionPlan(
            route=ROUTE_CORUN_SCALAR,
            stage=request.stage,
            scheme=request.scheme,
            engine="scalar",
            kernel=KERNEL_PYTHON,
            backend=mode,
            fallbacks=tuple(fallbacks),
            schemes=request.schemes,
        )


#: Shared stateless planner instance.
PLANNER = RoutePlanner()


def plan_request(request: SimRequest) -> ExecutionPlan:
    """Convenience wrapper over :data:`PLANNER`."""
    return PLANNER.plan(request)


# ---------------------------------------------------------------------------
# execution surface
# ---------------------------------------------------------------------------
# The runner executes plans through the symbols below instead of importing
# engine modules itself (enforced by the CI route-guard lint).  Keeping the
# execution surface next to the planner means a new route lands in one
# module: declare its capability, plan it, export what runs it.

__all__ = [
    "ENGINE_CAPABILITIES",
    "EngineCapabilities",
    "ExecutionPlan",
    "KERNEL_NATIVE",
    "KERNEL_NATIVE_FUSED",
    "KERNEL_NUMPY",
    "KERNEL_PYTHON",
    "PLANNER",
    "ROUTE_CORUN_DELEGATE",
    "ROUTE_CORUN_SCALAR",
    "ROUTE_CORUN_VECTOR",
    "ROUTE_FUSED",
    "ROUTE_FUSED_MULTI",
    "ROUTE_OPT_SCALAR",
    "ROUTE_OPT_VECTOR",
    "ROUTE_SCALAR",
    "ROUTE_VECTOR",
    "RoutePlanner",
    "STAGE_CORUN",
    "STAGE_ONESHOT",
    "STAGE_ROI",
    "STAGE_STREAMING",
    "SimRequest",
    "capabilities_for",
    "plan_request",
    # execution surface re-exports
    "CorunReplayStream",
    "FilterStream",
    "FusedPipeline",
    "MultiFusedPipeline",
    "OptStream",
    "PolicyReplayStream",
    "assert_stats_equal",
    "resolve_chunk_next_use",
    "run_filter",
    "supports_vector_corun",
    "supports_vector_replay",
    "vector_opt_replay",
    "vector_policy_replay",
]
