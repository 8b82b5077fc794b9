"""Capability-driven execution planning for the simulation pipeline.

Every simulation entry point in :mod:`repro.experiments.runner` used to
hand-roll its own routing — backend resolution, fused-vs-staged, streaming,
partition and fallback decisions scattered across ten call sites.  This
module collapses that sprawl into one explainable layer:

``EngineCapabilities``
    One declarative record per engine family (vector support, plus the
    family's known fallbacks in prose).  The table below is the single
    place a new engine announces what it can do; every online family
    fuses once the ``fused:filter`` kernel is present.
``SimRequest``
    Everything a routing decision depends on: the scheme(s) and live
    policy object(s) that replay one stream, the requested backend, the
    pipeline stage (one-shot replay, the ROI or full-execution scope,
    co-run), the partition and the memo/kernel environment.  Requests are
    cheap to build — no workload needs to exist.
``ExecutionPlan``
    The planner's explicit answer: the route, engine family, kernel tier
    and backend that will run, whether a verify dual-run is attached, and
    *every* fallback reason collected on the way there.  The route names
    one of three code paths — ``fused`` (one native filter pass per chunk
    feeding every scheme's replay kernel, with OPT's two offline passes
    over the blocks it hands on), ``vector`` (the staged engines over a
    filtered stream) and ``scalar`` (the per-access reference) — while
    ``engine`` (``opt``, a family, ``multi`` for several schemes, or
    ``scalar``) and ``stage`` (``oneshot``, ``roi``, ``streaming`` or
    ``corun``) say what runs on it: OPT and co-run replays take these
    paths like every other engine.  ``reference`` names the schemes the
    per-access reference replays: all of them on ``scalar``, and on
    ``vector`` the members without a vector engine.  Plans are
    JSON-serializable (sweep run manifests embed them) and self-explaining
    (``repro plan explain`` prints them).
``RoutePlanner``
    The decision procedure.  The fused-pass eligibility rules, the
    schemes the scalar reference replays, the co-run fallback to
    ``scalar`` (an unpartitioned PIN co-run, whose bypasses the vector
    co-run engine cannot attribute per stream), the verify-mode dual-run
    and the degradation to ``scalar`` on a host without the kernel library
    each live exactly once, here.

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

from repro.cache.partition import WayPartition
from repro.cache.policies.opt import BeladyOptimal
from repro.fastsim import kernels
from repro.fastsim.corun import CorunReplayStream, supports_vector_corun
from repro.fastsim.dispatch import SCALAR, VERIFY, resolve_backend
from repro.fastsim.filter import FilterStream, assert_stats_equal, run_filter
from repro.fastsim.opt import NextUseTable, OptStream, resolve_chunk_next_use
from repro.fastsim.pipeline import FusedPipeline, LLCAccesses
from repro.fastsim.replay import (
    PolicyReplayStream,
    _family,
    vector_opt_replay,
    vector_policy_replay,
)

# ---------------------------------------------------------------------------
# capability table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineCapabilities:
    """What one engine family can do.

    ``vector_replay`` says a compiled engine replays the family; every such
    family also rides the fused pass, whose only extra kernel is the shared
    L1/L2 filter (``fused:filter``) — OPT through its blocks, replayed
    offline after the pass.
    ``fallbacks`` documents the family's known degradations in prose —
    the planner quotes them verbatim in plan explanations.
    """

    family: str
    vector_replay: bool
    fallbacks: Tuple[str, ...] = ()


#: Declarative capability records, one per engine family.  ``scalar`` is the
#: pseudo-family of policies without an array-form spec (the GRASP ablation
#: subclasses, and a Hawkeye policy with no OPTgen window): the reference
#: simulator covers them on every route.
ENGINE_CAPABILITIES: Dict[str, EngineCapabilities] = {
    "lru": EngineCapabilities(family="lru", vector_replay=True),
    "rrip": EngineCapabilities(family="rrip", vector_replay=True),
    "pin": EngineCapabilities(
        family="pin", vector_replay=True,
        fallbacks=(
            "unpartitioned co-run (K>=2) falls back to the scalar reference: "
            "per-stream bypass attribution needs per-stream engines, which "
            "only a way partition provides",
        ),
    ),
    "ship": EngineCapabilities(family="ship", vector_replay=True),
    "hawkeye": EngineCapabilities(family="hawkeye", vector_replay=True),
    "leeway": EngineCapabilities(family="leeway", vector_replay=True),
    "opt": EngineCapabilities(
        family="opt", vector_replay=True,
        fallbacks=(
            "OPT needs future next-use indices: streaming resolves them in a "
            "two-pass reverse sweep over a disk spill",
            "OPT is offline and has no co-run analogue",
        ),
    ),
    "scalar": EngineCapabilities(
        family="scalar", vector_replay=False,
        fallbacks=(
            "policies without an exact array-form spec (the GRASP ablation "
            "subclasses, a Hawkeye policy with no OPTgen window) replay "
            "through the per-access reference simulator on every backend",
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

#: What each scope's stored filtered stream is.
_STORED_STREAM = {
    STAGE_ROI: "filtered ROI trace already cached",
    STAGE_STREAMING: (
        "filtered execution stream already stored (the disk memo's chunk "
        "store, or the spill of the last fused pass)"
    ),
}

#: Route names an :class:`ExecutionPlan` can carry: one per code path.
ROUTE_VECTOR = "vector"  # staged replay of a filtered stream (compiled engines)
ROUTE_SCALAR = "scalar"  # per-access reference simulator
ROUTE_FUSED = "fused"    # one native filter pass feeding every scheme

#: Kernel tiers a plan can name.
KERNEL_NATIVE_FUSED = "native-fused"  # the filter kernel feeding family kernels
KERNEL_NATIVE = "native"              # per-family compiled replay kernels
KERNEL_PYTHON = "python"              # per-access reference simulator

#: Why every plan on a host without the kernel library is a ``scalar`` one.
NO_KERNELS = (
    "native kernel library unavailable (no compiler, or a broken REPRO_CC): "
    "the per-access reference runs"
)


@dataclass(frozen=True)
class SimRequest:
    """Everything one routing decision depends on.

    ``schemes``/``policies`` are aligned: the schemes replay one stream
    and are planned as one unit; single-scheme requests carry one entry.
    ``have_stream`` says the scope's filtered stream is already stored (the
    ROI trace in memory or on disk; the execution's chunk store on disk or,
    without a disk memo, the stream the last execution fused pass spilled),
    which makes replaying it cheaper than regenerating the raw trace.
    ``partition`` is a co-run's way
    partition (``None``: the streams share every way).
    ``native_override`` pins kernel availability for testing; ``None``
    probes the live registry, and ``False`` plans like a host without the
    kernel library, where every route is ``scalar``.
    """

    schemes: Tuple[str, ...]
    policies: Tuple[Any, ...] = ()
    backend: Optional[str] = None
    stage: str = STAGE_ONESHOT
    partition: Optional[WayPartition] = None
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

    def native_available(self) -> bool:
        if self.native_override is not None:
            return self.native_override
        return kernels.available()

    def has_kernel(self, capability: str) -> bool:
        if self.native_override is False:
            return False
        if self.native_override is True and kernels.available() is False:
            # An override can only *disable* kernels; it cannot conjure a
            # compiler onto a host without one.
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
    reference: Tuple[str, ...] = ()

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
            "fallbacks": list(self.fallbacks),
            "reference": list(self.reference),
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
        """Plan the request's schemes over one stream as one unit.

        Either scope prefers the ``fused`` route: one native filter pass
        per chunk feeds every scheme's replay engine, and hands OPT its
        LLC-bound blocks for two offline passes afterwards.  Otherwise the
        staged path filters the stream once and replays each scheme from
        it (``vector``), or the per-access reference runs (``scalar``).  A
        scheme without a vector engine replays through the reference on
        every route, which keeps the fused pass off; when no scheme has
        one the plan is ``scalar``.  A co-run stage has no fused route and
        takes the scalar reference when the vector co-run engine cannot
        attribute it per stream.
        """
        requested = resolve_backend(request.backend, native=True)
        mode = resolve_backend(request.backend, native=request.native_available())
        fallbacks = [NO_KERNELS] if mode != requested else []
        caps = self._capabilities(request)
        several = len(set(request.schemes)) > 1
        engine = "multi" if several else caps[0].family
        opt = any(cap.family == "opt" for cap in caps)
        corun = request.stage == STAGE_CORUN
        if opt and corun:
            raise ValueError("OPT is offline and has no co-run analogue")

        if mode == SCALAR:
            if not fallbacks:
                fallbacks.append(
                    "backend=scalar requested: offline reference OPT loop"
                    if engine == "opt"
                    else "backend=scalar requested: reference simulator"
                )
            if opt and request.stage == STAGE_STREAMING:
                fallbacks.append(
                    "the offline reference is one-shot: the filtered stream is "
                    "materialized in memory"
                )
            scalar_engine = engine if engine in ("opt", "multi") else "scalar"
            return self._staged(request, ROUTE_SCALAR, scalar_engine, mode, fallbacks)
        scalar_only = tuple(dict.fromkeys(
            scheme for scheme, cap in zip(request.schemes, caps) if not cap.vector_replay
        ))
        if len(scalar_only) == len(set(request.schemes)) or (
            corun and not supports_vector_corun(request.policy, request.partition)
        ):
            fallbacks.extend(caps[0].fallbacks)
            scalar_engine = "multi" if several else "scalar"
            return self._staged(request, ROUTE_SCALAR, scalar_engine, mode, fallbacks)

        verify = mode == VERIFY
        if verify:
            if engine == "opt":
                note = (
                    "OPT dual-run materializes the stream for the offline "
                    "reference cross-check"
                )
            elif corun:
                note = (
                    "vector co-run runs with a scalar dual-run cross-check of "
                    "every per-stream counter"
                )
            else:
                note = "vector route runs with a scalar dual-run cross-check"
            fallbacks.append(f"backend=verify: {note}")
        if opt and request.stage == STAGE_STREAMING:
            fallbacks.append(ENGINE_CAPABILITIES["opt"].fallbacks[0])

        if request.stage in (STAGE_ROI, STAGE_STREAMING):
            if verify:
                fallbacks.append(
                    "fused route skipped: verify needs the staged scalar stream alongside"
                )
            else:
                blocker = self._fused_blocker(request, scalar_only)
                if blocker is None:
                    return ExecutionPlan(
                        route=ROUTE_FUSED,
                        stage=request.stage,
                        scheme=self._label(request),
                        engine=engine,
                        kernel=KERNEL_NATIVE_FUSED,
                        backend=mode,
                        fallbacks=tuple(fallbacks),
                        schemes=request.schemes,
                    )
                fallbacks.append(blocker)
        return self._staged(
            request, ROUTE_VECTOR, engine, mode, fallbacks, verify, scalar_only
        )

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _capabilities(request: SimRequest) -> Tuple[EngineCapabilities, ...]:
        """One capability record per scheme; a bare ``"OPT"`` needs no policy."""
        policies = request.policies or (None,) * len(request.schemes)
        return tuple(
            ENGINE_CAPABILITIES["opt"]
            if policy is None and scheme == "OPT"
            else capabilities_for(policy)
            for scheme, policy in zip(request.schemes, policies)
        )

    @staticmethod
    def _label(request: SimRequest) -> str:
        return "+".join(dict.fromkeys(request.schemes))

    @staticmethod
    def _fused_blocker(request: SimRequest, scalar_only) -> Optional[str]:
        """Why the fused pass cannot run the request, ``None`` when it can."""
        native = (
            request.native_override
            if request.native_override is not None
            else kernels.has_capability("fused:filter")
        )
        if not native:
            return "fused filter kernel unavailable: the staged engines run instead"
        if scalar_only:
            return (
                f"scheme {scalar_only[0]!r} has no vector engine (ablation "
                "subclass): it replays through the scalar reference, so the "
                "fused pass is off"
            )
        if request.have_stream:
            return (
                f"{_STORED_STREAM[request.stage]}: replaying it beats "
                "regenerating the raw trace"
            )
        return None

    def _staged(
        self, request: SimRequest, route: str, engine: str, mode: str, fallbacks,
        verify: bool = False, reference: Tuple[str, ...] = (),
    ) -> ExecutionPlan:
        """A plan that replays the filtered stream (``vector``, with the
        ``reference`` schemes on the per-access reference) or runs the
        per-access reference for every scheme (``scalar``)."""
        schemes = len(set(request.schemes))
        if schemes > 1:
            fallbacks.append(
                f"{schemes} schemes share one stream: the staged path "
                "materializes the filtered trace once and replays each scheme "
                "from it"
            )
        return ExecutionPlan(
            route=route,
            stage=request.stage,
            scheme=self._label(request),
            engine=engine,
            kernel=KERNEL_PYTHON if route == ROUTE_SCALAR else KERNEL_NATIVE,
            backend=mode,
            verify=verify,
            fallbacks=tuple(fallbacks),
            schemes=request.schemes,
            reference=request.schemes if route == ROUTE_SCALAR else reference,
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
    "KERNEL_PYTHON",
    "NO_KERNELS",
    "PLANNER",
    "ROUTE_FUSED",
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
    "LLCAccesses",
    "NextUseTable",
    "OptStream",
    "PolicyReplayStream",
    "assert_stats_equal",
    "resolve_chunk_next_use",
    "run_filter",
    "supports_vector_corun",
    "vector_opt_replay",
    "vector_policy_replay",
]
