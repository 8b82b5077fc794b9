"""Route-matrix equivalence: every ExecutionPlan route vs the reference.

Plans never change results — each test first pins the route the planner
chooses for a scenario, then asserts the executed statistics are
bit-identical to the scalar reference simulator for that same scenario.
Together the scenarios cover each of the three routes (``fused``,
``vector``, ``scalar``) with every engine and stage that takes it — one
scheme or every family plus OPT on ``fused`` in both scopes (OPT's blocks
spilled across several execution chunks), a stored stream, the execution
stream a fused pass held for the calls after it, and a scheme set with an
ablation member (which the reference replays) on ``vector``,
a co-run on ``vector`` and on ``scalar``, and a K=1 co-run on the
single-app route it runs as — modulo kernel availability: without the
kernel library every route is ``scalar``, and the statistics still match.
"""

import pytest

from repro.cache.partition import WayPartition
from repro.experiments import ExperimentConfig, clear_caches, compare_policies
from repro.experiments import runner
from repro.experiments.memo import ChunkSpill, DiskMemo
from repro.experiments.runner import (
    CorunSpec,
    build_workload,
    llc_chunks,
    plan_corun_task,
    plan_scheme_task,
    set_disk_memo,
    simulate_corun,
    simulate_policy,
    simulate_scheme,
    simulate_schemes,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim import kernels
from repro.fastsim.plan import (
    ROUTE_FUSED,
    ROUTE_SCALAR,
    ROUTE_VECTOR,
    STAGE_CORUN,
    RoutePlanner,
)

VECTOR_CFG = ExperimentConfig.smoke()
SCALAR_CFG = VECTOR_CFG.with_overrides(backend="scalar")
STREAM_VECTOR_CFG = VECTOR_CFG.with_overrides(chunk_accesses=1 << 12)
STREAM_SCALAR_CFG = STREAM_VECTOR_CFG.with_overrides(backend="scalar")

#: The staged route on this host: ``vector`` over the compiled engines, or
#: the ``scalar`` reference where the kernel library cannot be built.
STAGED = ROUTE_VECTOR if kernels.available() else ROUTE_SCALAR
#: The route of a scope with no stored stream: the fused pass where the
#: filter kernel is built, the staged route otherwise.
FUSED = ROUTE_FUSED if kernels.has_capability("fused:filter") else STAGED

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    set_disk_memo(None)
    yield
    set_disk_memo(None)
    clear_caches()


def _assert_stats_equal(vector, scalar):
    assert vector.hits == scalar.hits
    assert vector.misses == scalar.misses
    assert vector.evictions == scalar.evictions


def _roi_stats(scheme, config):
    workload = build_workload("PR", "lj", config=config)
    return simulate_scheme(workload, scheme, config)


def _stream_stats(scheme, config):
    workload = build_workload("PR", "lj", config=config)
    return simulate_scheme(workload, scheme, config, streaming=True)


def _store_stream(config, streaming):
    """Filter the scope once, as a staged replay under the disk memo does,
    so it is stored."""
    workload = build_workload("PR", "lj", config=config)
    for _ in llc_chunks(workload, config, streaming):
        pass


class TestRoiRoutes:
    def test_fused_route_matches_reference(self):
        config = VECTOR_CFG.with_overrides(backend="vector")
        plan = plan_scheme_task("PR", "lj", config.reorder, "GRASP", config)
        assert plan.route == FUSED
        vector = _roi_stats("GRASP", config)
        clear_caches()
        _assert_stats_equal(vector, _roi_stats("GRASP", SCALAR_CFG))

    def test_staged_vector_route_matches_reference(self):
        """A stored filtered ROI trace is replayed on the staged route."""
        _store_stream(VECTOR_CFG, streaming=False)
        plan = plan_scheme_task("PR", "lj", VECTOR_CFG.reorder, "RRIP", VECTOR_CFG)
        assert plan.route == STAGED
        vector = _roi_stats("RRIP", VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector, _roi_stats("RRIP", SCALAR_CFG))

    def test_scalar_route_for_ablation_subclass(self):
        plan = plan_scheme_task(
            "PR", "lj", VECTOR_CFG.reorder, "RRIP+Hints", VECTOR_CFG
        )
        assert plan.route == ROUTE_SCALAR
        vector_cfg_run = _roi_stats("RRIP+Hints", VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector_cfg_run, _roi_stats("RRIP+Hints", SCALAR_CFG))

    def test_opt_route_matches_reference(self):
        config = VECTOR_CFG.with_overrides(backend="vector")
        plan = plan_scheme_task("PR", "lj", config.reorder, "OPT", config)
        assert (plan.route, plan.engine) == (FUSED, "opt")
        vector = _roi_stats("OPT", VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector, _roi_stats("OPT", SCALAR_CFG))


class TestStreamingRoutes:
    def test_fused_streaming_matches_reference(self):
        config = STREAM_VECTOR_CFG.with_overrides(backend="vector")
        plan = plan_scheme_task(
            "PR", "lj", config.reorder, "GRASP", config, streaming=True,
        )
        assert plan.route == FUSED
        vector = _stream_stats("GRASP", config)
        clear_caches()
        _assert_stats_equal(vector, _stream_stats("GRASP", STREAM_SCALAR_CFG))

    def test_staged_streaming_replays_persisted_chunk_store(self, tmp_path):
        set_disk_memo(DiskMemo(tmp_path))
        _store_stream(STREAM_VECTOR_CFG, streaming=True)
        plan = plan_scheme_task(
            "PR", "lj", STREAM_VECTOR_CFG.reorder, "RRIP", STREAM_VECTOR_CFG,
            streaming=True,
        )
        assert plan.route == STAGED  # chunk store now on disk
        vector = _stream_stats("RRIP", STREAM_VECTOR_CFG)
        clear_caches()
        set_disk_memo(None)
        _assert_stats_equal(vector, _stream_stats("RRIP", STREAM_SCALAR_CFG))

    def test_opt_two_pass_matches_reference(self):
        config = STREAM_VECTOR_CFG.with_overrides(backend="vector")
        plan = plan_scheme_task(
            "PR", "lj", config.reorder, "OPT", config, streaming=True,
        )
        assert (plan.route, plan.engine) == (FUSED, "opt")
        vector = _stream_stats("OPT", config)
        clear_caches()
        _assert_stats_equal(vector, _stream_stats("OPT", STREAM_SCALAR_CFG))


class TestMultiSchemeRoutes:
    """One plan over every engine family plus OPT: the fused pass where the
    filter kernel is built, the staged route otherwise — and every scheme's
    statistics equal the scalar reference either way."""

    SCHEMES = ("LRU", "RRIP", "GRASP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-100", "OPT")
    FIELDS = ("hits", "misses", "evictions", "bypasses", "region_accesses", "region_misses")

    @pytest.mark.parametrize("streaming", [False, True], ids=["roi", "execution"])
    def test_every_family_and_opt_match_scalar_reference(self, monkeypatch, streaming):
        config = (STREAM_VECTOR_CFG if streaming else VECTOR_CFG).with_overrides(
            backend="vector"
        )
        plans, spilled = [], []
        plan = RoutePlanner.plan

        def planned(self, request):
            plans.append(plan(self, request))
            return plans[-1]

        put = ChunkSpill.put

        def spill(self, name, index, array):
            spilled.append((name, index))
            put(self, name, index, array)

        monkeypatch.setattr(RoutePlanner, "plan", planned)
        monkeypatch.setattr(ChunkSpill, "put", spill)
        vector = compare_policies(
            ("PR",), ("lj",), self.SCHEMES, config=config, streaming=streaming
        )
        (multi,) = plans
        # compare_policies plans the baseline (RRIP) first, each scheme once.
        assert multi.schemes == tuple(dict.fromkeys(("RRIP", *self.SCHEMES)))
        assert multi.route == FUSED
        if streaming and FUSED == ROUTE_FUSED:
            # OPT's blocks went to disk, one spill entry per execution chunk.
            assert len([entry for entry in spilled if entry[0] == "blocks"]) > 1
        clear_caches()
        scalar = compare_policies(
            ("PR",), ("lj",), self.SCHEMES, streaming=streaming,
            config=(STREAM_SCALAR_CFG if streaming else SCALAR_CFG),
        )
        assert len(vector) == len(scalar) == len(self.SCHEMES)
        for v, s in zip(vector, scalar):
            assert (v.app_name, v.dataset_name, v.scheme) == (s.app_name, s.dataset_name, s.scheme)
            for field in self.FIELDS:
                assert getattr(v.stats, field) == getattr(s.stats, field), (v.scheme, field)

    def test_ablation_member_replays_on_the_reference(self, monkeypatch):
        """A member without a vector engine keeps the whole plan staged, and
        the plan names it as the one scheme the scalar reference replays."""
        config = VECTOR_CFG.with_overrides(backend="vector")
        plans = []
        plan = RoutePlanner.plan

        def planned(self, request):
            plans.append(plan(self, request))
            return plans[-1]

        monkeypatch.setattr(RoutePlanner, "plan", planned)
        schemes = ("GRASP", "RRIP+Hints")
        vector = compare_policies(("PR",), ("lj",), schemes, config=config)
        (multi,) = plans
        assert multi.route == STAGED
        if STAGED == ROUTE_VECTOR:
            assert multi.reference == ("RRIP+Hints",)
        else:
            assert multi.reference == multi.schemes
        clear_caches()
        scalar = compare_policies(("PR",), ("lj",), schemes, config=SCALAR_CFG)
        for v, s in zip(vector, scalar):
            assert v.scheme == s.scheme
            for field in self.FIELDS:
                assert getattr(v.stats, field) == getattr(s.stats, field), (v.scheme, field)


class TestChunkBudgetInvariance:
    """Both scopes slice by ``chunk_accesses``: the ROI's fused routes feed
    its raw trace in slices, the full execution is generated in chunks.
    Results must not depend on the budget, on any route, for any scheme:
    a fused pass per scheme, a stream stored on disk (``staged``), or the
    full execution's stream that the first single-scheme call's pass holds
    while no disk memo is installed (``held``)."""

    SCHEMES = ("RRIP", "GRASP", "SHiP-MEM", "PIN-100", "OPT")
    FIELDS = ("hits", "misses", "evictions", "bypasses", "region_accesses", "region_misses")

    #: Scalar reference stats per scope (budget-independent).
    _reference = {}

    def _scalar(self, streaming):
        if streaming not in self._reference:
            workload = build_workload("PR", "lj", config=SCALAR_CFG)
            self._reference[streaming] = simulate_schemes(
                workload, self.SCHEMES, SCALAR_CFG, streaming=streaming
            )
            clear_caches()
        return self._reference[streaming]

    def _assert_matches(self, stats, reference, path):
        for scheme in stats:
            for field in self.FIELDS:
                assert getattr(stats[scheme], field) == getattr(reference[scheme], field), (
                    path, scheme, field,
                )

    @pytest.mark.parametrize("chunk_accesses", [700, 4096, None])
    @pytest.mark.parametrize(
        "streaming,store",
        [(False, "fused"), (False, "staged"), (True, "fused"), (True, "staged"), (True, "held")],
        ids=["roi-fused", "roi-staged", "execution-fused", "execution-staged", "execution-held"],
    )
    def test_stats_match_scalar_for_every_budget(
        self, tmp_path, monkeypatch, streaming, store, chunk_accesses
    ):
        reference = self._scalar(streaming)
        config = VECTOR_CFG.with_overrides(backend="vector", chunk_accesses=chunk_accesses)
        workload = build_workload("PR", "lj", config=config)
        if store == "held":
            self._check_held_stream(monkeypatch, workload, config, reference)
            return
        # A disk memo keeps the full execution's stream once stored (staged).
        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        if store == "staged":
            _store_stream(config, streaming)
        stats = {
            scheme: simulate_scheme(workload, scheme, config, streaming=streaming)
            for scheme in self.SCHEMES
        }
        self._assert_matches(stats, reference, "single-scheme calls")
        stored = memo.entry_count("llcchunk")
        if store == "staged":
            assert stored > 0
        elif kernels.has_capability("fused:filter"):
            assert stored == 0

    def _check_held_stream(self, monkeypatch, workload, config, reference):
        """No disk memo: single-scheme calls in sequence, a stream held at
        one budget asked for at another, and one pass over every scheme."""
        budgets, routes = [], []
        generate, plan = runner.iter_execution_chunks, RoutePlanner.plan

        def counted(*args, **kwargs):
            budgets.append(args[1])
            return generate(*args, **kwargs)

        def planned(self, request):
            made = plan(self, request)
            routes.append(made.route)
            return made

        monkeypatch.setattr(runner, "iter_execution_chunks", counted)
        monkeypatch.setattr(RoutePlanner, "plan", planned)
        sequence = {
            scheme: simulate_scheme(workload, scheme, config, streaming=True)
            for scheme in self.SCHEMES
        }
        self._assert_matches(sequence, reference, "single-scheme calls")
        budget = runner._chunk_budget(config, None)
        if FUSED == ROUTE_FUSED:
            # The first call's pass held the stream; the other four replay it.
            assert routes == [ROUTE_FUSED] + [ROUTE_VECTOR] * 4
            assert budgets == [budget]
        else:
            assert routes == [STAGED] * 5 and budgets == [budget] * 5
        other = 4096 if budget == 700 else 700
        grasp = simulate_policy(
            workload, scheme_policy("GRASP"), config, streaming=True,
            max_chunk_accesses=other,
        )
        assert routes[-1] == FUSED and budgets[-1] == other
        self._assert_matches({"GRASP": grasp}, reference, f"GRASP at budget {other}")
        clear_caches()
        one_pass = simulate_schemes(workload, self.SCHEMES, config, streaming=True)
        assert routes[-1] == FUSED
        self._assert_matches(one_pass, reference, "one pass")


class TestCorunRoutes:
    PAIR_SPEC = CorunSpec(pairs=(("PR", "lj"), ("PR", "pl")))

    def _corun_stats(self, spec, scheme, config):
        return simulate_corun(spec, scheme, config=config)

    def test_corun_vector_matches_reference(self):
        plan = plan_corun_task(self.PAIR_SPEC, "RRIP", VECTOR_CFG)
        assert (plan.route, plan.stage) == (STAGED, STAGE_CORUN)
        vector = self._corun_stats(self.PAIR_SPEC, "RRIP", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(
            vector, self._corun_stats(self.PAIR_SPEC, "RRIP", STREAM_SCALAR_CFG)
        )

    def test_corun_partitioned_vector_matches_reference(self):
        spec = CorunSpec(
            pairs=self.PAIR_SPEC.pairs, partition=WayPartition.parse("8:8")
        )
        plan = plan_corun_task(spec, "GRASP", VECTOR_CFG)
        assert (plan.route, plan.stage) == (STAGED, STAGE_CORUN)
        vector = self._corun_stats(spec, "GRASP", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(
            vector, self._corun_stats(spec, "GRASP", STREAM_SCALAR_CFG)
        )

    def test_corun_scalar_pin_fallback(self):
        plan = plan_corun_task(self.PAIR_SPEC, "PIN-75", VECTOR_CFG)
        assert (plan.route, plan.stage) == (ROUTE_SCALAR, STAGE_CORUN)
        vector_cfg_run = self._corun_stats(self.PAIR_SPEC, "PIN-75", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(
            vector_cfg_run,
            self._corun_stats(self.PAIR_SPEC, "PIN-75", STREAM_SCALAR_CFG),
        )

    def test_corun_delegate_matches_reference(self):
        """A K=1 unpartitioned co-run is planned and run as the single-app
        full execution."""
        spec = CorunSpec(pairs=(("PR", "lj"),))
        plan = plan_corun_task(spec, "RRIP", VECTOR_CFG)
        assert plan == plan_scheme_task(
            "PR", "lj", VECTOR_CFG.reorder, "RRIP", VECTOR_CFG, streaming=True
        )
        vector = self._corun_stats(spec, "RRIP", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(
            vector, self._corun_stats(spec, "RRIP", STREAM_SCALAR_CFG)
        )
