"""Compiled fast path for the trace-driven cache simulation.

The scalar simulator (:mod:`repro.cache.cache`) replays one access at a time
through Python-level policy objects.  That is the reference implementation —
easy to audit against the paper, but it costs microseconds per access.  This
package runs the hot stages of the pipeline through small C kernels instead,
so every policy family has two implementations: the reference and its
kernel.

Each policy family has exactly one engine, a resumable ``*Stream`` class
(``LRUStream``, ``RRIPStream``, ``PinStream``, ``ShipStream``,
``HawkeyeStream``, ``LeewayStream``, ``OptStream``) over its kernel: feed it
a trace in chunks, or replay a whole trace with one ``feed`` on a fresh
stream.  On a host where the kernels cannot be built (no C compiler),
:func:`repro.fastsim.dispatch.resolve_backend` sends every simulation to
the scalar reference, with identical numbers.

The package itself re-exports nothing: import every name from the module
below that defines it (``from repro.fastsim.rrip import RRIPStream``).

``stackdist``
    The LRU engine, plus the dense-id and growable-table helpers the other
    engines share.
``rrip``
    The RRIP-family engine (SRRIP, BRRIP, DRRIP and GRASP with per-access
    reuse hints) — the policies behind every headline result of the paper.
    Keeps the whole simulator state (tags, RRPV counters, the set-dueling
    PSEL counter) in arrays the kernel advances, reproducing the scalar
    policies bit-exactly including the global duel state.
``ship`` / ``hawkeye`` / ``leeway`` / ``pin`` / ``opt``
    The remaining schemes of the paper's comparison matrix (Figs. 5-11):
    SHiP-MEM, Hawkeye, Leeway, the PIN-X pinning configurations (including
    BYPASS when a set is fully pinned) and Belady's OPT.  Per-set state
    (tags, RRPVs, pinned masks, recency positions, next-use values) and the
    globally shared learning state (SHiP's SHCT, Leeway's and Hawkeye's PC
    predictors) live in flat arrays, densified through grow-only id maps.
``kernels``
    Tiny C kernels compiled on demand (plain ``cc``, no third-party
    packages) for every engine.  Kernels live in a registry package — one
    module per engine family, a shared ``register_kernel``/capability-probe
    API, and a single lazily-compiled translation unit (nothing compiles at
    import time).  The ``*Stream`` engines call them through the ``*_feed``
    wrappers, which accept only arrays of exactly the kernel's types.
``pipeline``
    The fused pass over N schemes: per trace chunk, the L1/L2 filter
    kernel runs once and writes the GRASP hints, the LLC-bound accesses
    are gathered once, and each scheme's own replay kernel runs over them,
    bit-identical to the staged engines.  Belady's OPT rides the same
    pass: the runner keeps the LLC-bound blocks each chunk yields and runs
    OPT's two offline passes after it.
``plan``
    Capability-driven execution planning: :class:`~repro.fastsim.plan.RoutePlanner`
    maps a :class:`~repro.fastsim.plan.SimRequest` to an explicit, serializable
    :class:`~repro.fastsim.plan.ExecutionPlan` naming the route, engine,
    kernel tier, backend and every fallback reason.  The experiment runner
    routes all simulation through plans, and imports its engines through
    this module's execution-surface re-exports.
``filter``
    The L1-D/L2 filter of pipeline stage 5 (both levels are always LRU, see
    Sec. IV of the paper): one resumable engine, :class:`FilterStream`, with
    a scalar reference backend and an equivalence guard used by the
    ``verify`` backend.
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
