"""Route-matrix equivalence: every ExecutionPlan route vs the reference.

Plans never change results — each test first pins the route the planner
chooses for a scenario, then asserts the executed statistics are
bit-identical to the scalar reference simulator for that same scenario.
Together the scenarios cover each of the four routes (``fused``,
``fused-multi``, ``vector``, ``scalar``) with every engine and stage that
takes it — OPT on ``vector`` in both scopes, a co-run on ``vector`` and
on ``scalar``, and a K=1 co-run on the single-app route it runs as —
modulo kernel availability, which only shifts the tier within the same
route.
"""

import pytest

from repro.cache.partition import WayPartition
from repro.experiments import ExperimentConfig, clear_caches, compare_policies
from repro.experiments.memo import DiskMemo
from repro.experiments.runner import (
    CorunSpec,
    build_workload,
    plan_corun_task,
    plan_scheme_task,
    set_disk_memo,
    simulate_corun,
    simulate_scheme,
)
from repro.fastsim import kernels
from repro.fastsim.plan import ROUTE_FUSED, ROUTE_SCALAR, ROUTE_VECTOR, STAGE_CORUN

VECTOR_CFG = ExperimentConfig.smoke()
SCALAR_CFG = VECTOR_CFG.with_overrides(backend="scalar")
STREAM_VECTOR_CFG = VECTOR_CFG.with_overrides(chunk_accesses=1 << 12)
STREAM_SCALAR_CFG = STREAM_VECTOR_CFG.with_overrides(backend="scalar")

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


def _roi_stats(scheme, config, shared=False):
    workload = build_workload("PR", "lj", config=config)
    return simulate_scheme(workload, scheme, config, shared=shared)


def _stream_stats(scheme, config, shared=False):
    workload = build_workload("PR", "lj", config=config)
    return simulate_scheme(workload, scheme, config, streaming=True, shared=shared)


class TestRoiRoutes:
    def test_fused_route_matches_reference(self):
        config = VECTOR_CFG.with_overrides(backend="vector")
        plan = plan_scheme_task("PR", "lj", config.reorder, "GRASP", config)
        expected = ROUTE_FUSED if kernels.has_capability("fused:rrip") else ROUTE_VECTOR
        assert plan.route == expected
        vector = _roi_stats("GRASP", config)
        clear_caches()
        _assert_stats_equal(vector, _roi_stats("GRASP", SCALAR_CFG))

    def test_staged_vector_route_matches_reference(self):
        """shared forces the staged materialize-once vector route."""
        vector = _roi_stats("RRIP", VECTOR_CFG, shared=True)
        clear_caches()
        _assert_stats_equal(vector, _roi_stats("RRIP", SCALAR_CFG, shared=True))

    def test_scalar_route_for_ablation_subclass(self):
        plan = plan_scheme_task(
            "PR", "lj", VECTOR_CFG.reorder, "RRIP+Hints", VECTOR_CFG
        )
        assert plan.route == ROUTE_SCALAR
        vector_cfg_run = _roi_stats("RRIP+Hints", VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector_cfg_run, _roi_stats("RRIP+Hints", SCALAR_CFG))

    def test_opt_vector_route_matches_reference(self):
        plan = plan_scheme_task("PR", "lj", VECTOR_CFG.reorder, "OPT", VECTOR_CFG)
        assert (plan.route, plan.engine) == (ROUTE_VECTOR, "opt")
        vector = _roi_stats("OPT", VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector, _roi_stats("OPT", SCALAR_CFG))


class TestStreamingRoutes:
    def test_fused_streaming_matches_reference(self):
        config = STREAM_VECTOR_CFG.with_overrides(backend="vector")
        plan = plan_scheme_task(
            "PR", "lj", config.reorder, "GRASP", config, streaming=True,
        )
        expected = ROUTE_FUSED if kernels.has_capability("fused:rrip") else ROUTE_VECTOR
        assert plan.route == expected
        vector = _stream_stats("GRASP", config)
        clear_caches()
        _assert_stats_equal(vector, _stream_stats("GRASP", STREAM_SCALAR_CFG))

    def test_staged_streaming_replays_persisted_chunk_store(self, tmp_path):
        set_disk_memo(DiskMemo(tmp_path))
        vector = _stream_stats("RRIP", STREAM_VECTOR_CFG, shared=True)
        plan = plan_scheme_task(
            "PR", "lj", STREAM_VECTOR_CFG.reorder, "RRIP", STREAM_VECTOR_CFG,
            streaming=True,
        )
        assert plan.route == ROUTE_VECTOR  # chunk store now on disk
        clear_caches()
        set_disk_memo(None)
        _assert_stats_equal(vector, _stream_stats("RRIP", STREAM_SCALAR_CFG))

    def test_opt_two_pass_matches_reference(self):
        plan = plan_scheme_task(
            "PR", "lj", STREAM_VECTOR_CFG.reorder, "OPT", STREAM_VECTOR_CFG,
            streaming=True,
        )
        assert (plan.route, plan.engine) == (ROUTE_VECTOR, "opt")
        vector = _stream_stats("OPT", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector, _stream_stats("OPT", STREAM_SCALAR_CFG))


class TestMultiSchemeRoutes:
    SCHEMES = ("GRASP", "LRU")

    def test_compare_policies_matches_scalar_reference(self):
        """Covers the fused-multi route when the filter kernel is compiled,
        the staged materialize-once path otherwise — identical either way."""
        vector = compare_policies(("PR",), ("lj",), self.SCHEMES, config=VECTOR_CFG)
        clear_caches()
        scalar = compare_policies(("PR",), ("lj",), self.SCHEMES, config=SCALAR_CFG)
        assert len(vector) == len(scalar)
        for v, s in zip(vector, scalar):
            assert (v.app_name, v.dataset_name, v.scheme) == (s.app_name, s.dataset_name, s.scheme)
            _assert_stats_equal(v.stats, s.stats)

    def test_compare_policies_streaming_matches_scalar_reference(self):
        vector = compare_policies(
            ("PR",), ("lj",), self.SCHEMES, config=STREAM_VECTOR_CFG, streaming=True
        )
        clear_caches()
        scalar = compare_policies(
            ("PR",), ("lj",), self.SCHEMES, config=STREAM_SCALAR_CFG, streaming=True
        )
        for v, s in zip(vector, scalar):
            _assert_stats_equal(v.stats, s.stats)


class TestChunkBudgetInvariance:
    """Both scopes slice by ``chunk_accesses``: the ROI's fused routes feed
    its raw trace in slices, the full execution is generated in chunks.
    Results must not depend on the budget, on either route."""

    #: Scalar reference stats per scope (budget-independent).
    _reference = {}

    def _scalar(self, streaming):
        if streaming not in self._reference:
            workload = build_workload("PR", "lj", config=SCALAR_CFG)
            self._reference[streaming] = simulate_scheme(
                workload, "GRASP", SCALAR_CFG, streaming=streaming
            )
            clear_caches()
        return self._reference[streaming]

    @pytest.mark.parametrize("chunk_accesses", [700, 4096, None])
    @pytest.mark.parametrize("shared", [False, True], ids=["fused", "staged"])
    @pytest.mark.parametrize("streaming", [False, True], ids=["roi", "execution"])
    def test_stats_match_scalar_for_every_budget(
        self, tmp_path, streaming, shared, chunk_accesses
    ):
        reference = self._scalar(streaming)
        config = VECTOR_CFG.with_overrides(backend="vector", chunk_accesses=chunk_accesses)
        # A disk memo lets the full execution keep a shared stream (staged).
        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        workload = build_workload("PR", "lj", config=config)
        stats = simulate_scheme(workload, "GRASP", config, streaming=streaming, shared=shared)
        _assert_stats_equal(stats, reference)
        assert stats.bypasses == reference.bypasses
        stored = memo.entry_count("llcchunk")
        if shared:
            assert stored > 0
        elif kernels.has_capability("fused:rrip"):
            assert stored == 0


class TestCorunRoutes:
    PAIR_SPEC = CorunSpec(pairs=(("PR", "lj"), ("PR", "pl")))

    def _corun_stats(self, spec, scheme, config):
        return simulate_corun(spec, scheme, config=config)

    def test_corun_vector_matches_reference(self):
        plan = plan_corun_task(self.PAIR_SPEC, "RRIP", VECTOR_CFG)
        assert (plan.route, plan.stage) == (ROUTE_VECTOR, STAGE_CORUN)
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
        assert (plan.route, plan.stage) == (ROUTE_VECTOR, STAGE_CORUN)
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
