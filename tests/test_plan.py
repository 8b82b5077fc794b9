"""Tests for the capability-driven execution planner (repro.fastsim.plan).

Three layers: planner unit tests over synthetic :class:`SimRequest` objects
(``native_override`` pins kernel availability so they are environment
independent), golden-plan snapshots pinning the (route, engine, kernel)
triple of every routing decision, and integration checks — plans embedded
in sweep run manifests, the ``repro plan explain`` CLI, and the backend
dispatch error paths the planner leans on.
"""

import json

import pytest

from repro.cache.partition import WayPartition
from repro.experiments import ExperimentConfig, clear_caches
from repro.experiments.cli import main as cli_main
from repro.experiments.memo import DiskMemo
from repro.experiments.runner import (
    CorunSpec,
    plan_corun_task,
    plan_scheme_task,
    set_disk_memo,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim import kernels
from repro.fastsim.dispatch import (
    BACKEND_ENV_VAR,
    default_backend,
    resolve_backend,
    set_default_backend,
)
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
    SimRequest,
    capabilities_for,
    plan_request,
)

HIERARCHY = ExperimentConfig.smoke().hierarchy


@pytest.fixture(autouse=True)
def _reset_backend_and_memo():
    set_default_backend(None)
    clear_caches()
    yield
    set_default_backend(None)
    set_disk_memo(None)
    clear_caches()


def _request(scheme="RRIP", *, native=True, **kwargs):
    policies = (scheme_policy(scheme),) if scheme != "OPT" else ()
    kwargs.setdefault("hierarchy", HIERARCHY)
    return SimRequest(
        schemes=(scheme,), policies=policies, native_override=native, **kwargs
    )


class TestSimRequest:
    def test_needs_a_scheme(self):
        with pytest.raises(ValueError, match="at least one scheme"):
            SimRequest(schemes=())

    def test_policies_must_align(self):
        with pytest.raises(ValueError, match="1 policy object"):
            SimRequest(schemes=("RRIP", "GRASP"), policies=(scheme_policy("RRIP"),))

    def test_consumer_count_defaults_to_distinct_schemes(self):
        request = SimRequest(schemes=("RRIP", "GRASP", "RRIP"))
        assert request.consumer_count() == 2
        assert SimRequest(schemes=("RRIP",), consumers=5).consumer_count() == 5

    def test_native_override_cannot_conjure_kernels(self, monkeypatch):
        monkeypatch.setattr(kernels, "available", lambda: False)
        request = SimRequest(schemes=("RRIP",), native_override=True)
        assert not request.has_kernel("fused:rrip")


class TestCapabilities:
    def test_every_family_is_declared(self):
        for scheme in ("LRU", "RRIP", "GRASP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-75"):
            caps = capabilities_for(scheme_policy(scheme))
            assert caps.vector_replay
            assert caps.fused_kernel is not None

    def test_ablations_are_scalar(self):
        caps = capabilities_for(scheme_policy("RRIP+Hints"))
        assert caps.family == "scalar"
        assert not caps.vector_replay


class TestSinglePolicyRouting:
    def test_roi_prefers_fused(self):
        plan = PLANNER.plan(_request(stage=STAGE_ROI, backend="vector"))
        assert plan.route == ROUTE_FUSED
        assert plan.kernel == "native-fused"
        assert plan.fallbacks == ()

    def test_no_kernels_degrades_to_numpy_with_reason(self):
        plan = PLANNER.plan(_request(stage=STAGE_ROI, native=False, backend="vector"))
        assert plan.route == ROUTE_VECTOR
        assert plan.kernel == "numpy"
        assert any("unavailable" in reason for reason in plan.fallbacks)

    def test_shared_roi_trace_skips_fused(self):
        plan = PLANNER.plan(_request(stage=STAGE_ROI, consumers=2, backend="vector"))
        assert plan.route == ROUTE_VECTOR
        assert any("2 consumers" in reason for reason in plan.fallbacks)

    def test_cached_roi_trace_skips_fused(self):
        plan = PLANNER.plan(_request(stage=STAGE_ROI, have_stream=True, backend="vector"))
        assert plan.route == ROUTE_VECTOR
        assert any("already cached" in reason for reason in plan.fallbacks)

    def test_streaming_chunk_store_skips_fused(self):
        plan = PLANNER.plan(
            _request(stage=STAGE_STREAMING, have_stream=True, backend="vector")
        )
        assert plan.route == ROUTE_VECTOR
        assert any("chunk store" in reason for reason in plan.fallbacks)

    def test_streaming_shared_consumers_need_a_memo_to_skip_fused(self):
        shared = _request(
            stage=STAGE_STREAMING, consumers=2, have_memo=True, backend="vector"
        )
        assert PLANNER.plan(shared).route == ROUTE_VECTOR
        memoless = _request(
            stage=STAGE_STREAMING, consumers=2, have_memo=False, backend="vector"
        )
        assert PLANNER.plan(memoless).route == ROUTE_FUSED

    def test_scalar_backend_is_the_reference(self):
        plan = PLANNER.plan(_request(stage=STAGE_ROI, backend="scalar"))
        assert plan.route == ROUTE_SCALAR
        assert plan.kernel == "python"

    def test_verify_rides_the_vector_route(self):
        plan = PLANNER.plan(_request(stage=STAGE_ROI, backend="verify"))
        assert plan.route == ROUTE_VECTOR
        assert plan.verify
        assert any("dual-run" in reason for reason in plan.fallbacks)

    def test_ablation_subclass_is_scalar_on_any_backend(self):
        plan = PLANNER.plan(_request("RRIP+Hints", stage=STAGE_ROI))
        assert plan.route == ROUTE_SCALAR
        assert plan.engine == "scalar"
        assert any("array-form" in reason for reason in plan.fallbacks)


class TestOptRouting:
    def test_oneshot_is_vector(self):
        plan = PLANNER.plan(_request("OPT", stage=STAGE_ONESHOT))
        assert (plan.route, plan.engine) == (ROUTE_VECTOR, "opt")
        assert plan.kernel == "native"

    def test_streaming_is_two_pass(self):
        plan = PLANNER.plan(_request("OPT", stage=STAGE_STREAMING))
        assert (plan.route, plan.engine) == (ROUTE_VECTOR, "opt")
        assert any("two-pass" in reason for reason in plan.fallbacks)

    def test_scalar_backend_is_offline_reference(self):
        plan = PLANNER.plan(_request("OPT", stage=STAGE_STREAMING, backend="scalar"))
        assert (plan.route, plan.engine) == (ROUTE_SCALAR, "opt")
        assert plan.kernel == "python"

    def test_corun_raises(self):
        with pytest.raises(ValueError, match="no co-run analogue"):
            PLANNER.plan(_request("OPT", stage=STAGE_CORUN))


class TestCorunRouting:
    def test_partitioned_is_vector(self):
        plan = PLANNER.plan(
            _request(stage=STAGE_CORUN, partition=WayPartition.parse("8:8"))
        )
        assert (plan.route, plan.stage) == (ROUTE_VECTOR, STAGE_CORUN)

    def test_unpartitioned_pin_falls_back_to_scalar(self):
        plan = PLANNER.plan(_request("PIN-75", stage=STAGE_CORUN))
        assert (plan.route, plan.stage) == (ROUTE_SCALAR, STAGE_CORUN)
        assert any("per-stream bypass" in reason for reason in plan.fallbacks)


class TestMultiSchemeRouting:
    def _multi(self, schemes, *, stage=STAGE_ROI, **kwargs):
        return SimRequest(
            schemes=tuple(schemes),
            policies=tuple(scheme_policy(s) for s in schemes),
            stage=stage,
            hierarchy=HIERARCHY,
            **kwargs,
        )

    @pytest.mark.skipif(
        not kernels.has_capability("fused:filter"), reason="no fused filter kernel"
    )
    def test_fused_multi_preferred(self):
        plan = PLANNER.plan(self._multi(("RRIP", "GRASP"), backend="vector"))
        assert plan.route == ROUTE_FUSED_MULTI
        assert plan.engine == "multi"
        assert plan.scheme == "RRIP+GRASP"
        assert plan.schemes == ("RRIP", "GRASP")

    def test_no_kernel_materializes_once(self):
        plan = PLANNER.plan(self._multi(("RRIP", "GRASP"), native_override=False))
        assert plan.route == ROUTE_VECTOR
        assert plan.engine == "staged"
        assert any("materializes the filtered trace once" in r for r in plan.fallbacks)

    def test_ablation_member_disables_shared_pass(self, monkeypatch):
        # Pin a host with the fused filter kernel: without one the kernel
        # rule decides first and the member rule is never reached.
        monkeypatch.setattr(kernels, "has_capability", lambda name: True)
        plan = PLANNER.plan(self._multi(("RRIP", "RRIP+Hints"), backend="vector"))
        assert plan.route == ROUTE_VECTOR
        assert any("'RRIP+Hints'" in reason for reason in plan.fallbacks)

    def test_cached_trace_disables_shared_pass(self):
        plan = PLANNER.plan(self._multi(("RRIP", "GRASP"), have_stream=True))
        assert plan.route == ROUTE_VECTOR

    def test_scalar_backend_stays_scalar(self):
        plan = PLANNER.plan(self._multi(("RRIP", "GRASP"), backend="scalar"))
        assert plan.route == ROUTE_SCALAR
        assert plan.kernel == "python"


#: Golden (route, engine, kernel) snapshots.  ``native_override`` pins the
#: kernel environment, so these hold on any machine.
GOLDEN_PLANS = [
    (dict(scheme="RRIP", stage=STAGE_ROI, native=True, backend="vector"),
     (ROUTE_FUSED, "rrip", "native-fused")),
    (dict(scheme="RRIP", stage=STAGE_ROI, native=False),
     (ROUTE_VECTOR, "rrip", "numpy")),
    (dict(scheme="RRIP", stage=STAGE_ROI, native=True, consumers=2),
     (ROUTE_VECTOR, "rrip", "native")),
    (dict(scheme="GRASP", stage=STAGE_STREAMING, native=True, backend="vector"),
     (ROUTE_FUSED, "rrip", "native-fused")),
    (dict(scheme="GRASP", stage=STAGE_STREAMING, native=True, have_stream=True),
     (ROUTE_VECTOR, "rrip", "native")),
    (dict(scheme="Hawkeye", stage=STAGE_ONESHOT, native=True),
     (ROUTE_VECTOR, "hawkeye", "native")),
    (dict(scheme="SHiP-MEM", stage=STAGE_ONESHOT, native=False),
     (ROUTE_VECTOR, "ship", "numpy")),
    (dict(scheme="RRIP+Hints", stage=STAGE_ROI, native=True),
     (ROUTE_SCALAR, "scalar", "python")),
    (dict(scheme="RRIP", stage=STAGE_ROI, native=True, backend="scalar"),
     (ROUTE_SCALAR, "scalar", "python")),
    (dict(scheme="OPT", stage=STAGE_ONESHOT, native=True),
     (ROUTE_VECTOR, "opt", "native")),
    (dict(scheme="OPT", stage=STAGE_ONESHOT, native=False),
     (ROUTE_VECTOR, "opt", "numpy")),
    (dict(scheme="OPT", stage=STAGE_STREAMING, native=True),
     (ROUTE_VECTOR, "opt", "native")),
    (dict(scheme="OPT", stage=STAGE_STREAMING, native=True, backend="scalar"),
     (ROUTE_SCALAR, "opt", "python")),
    (dict(scheme="PIN-75", stage=STAGE_CORUN, native=True),
     (ROUTE_SCALAR, "scalar", "python")),
]


@pytest.mark.parametrize("kwargs,expected", GOLDEN_PLANS)
def test_golden_plan(kwargs, expected):
    plan = plan_request(_request(**kwargs))
    assert (plan.route, plan.engine, plan.kernel) == expected


def test_plan_json_roundtrip():
    plan = PLANNER.plan(_request(stage=STAGE_ROI))
    payload = json.loads(json.dumps(plan.to_json()))
    assert payload["route"] == plan.route
    assert payload["schemes"] == list(plan.schemes)
    assert isinstance(payload["fallbacks"], list)
    assert set(payload) == {
        "route", "stage", "scheme", "schemes", "engine", "kernel",
        "backend", "verify", "threads", "fallbacks",
    }


def test_plan_explain_mentions_every_fallback():
    plan = PLANNER.plan(_request(stage=STAGE_ROI, native=False, backend="verify"))
    text = plan.explain()
    assert f"route    : {plan.route}" in text
    for reason in plan.fallbacks:
        assert reason in text


class TestDispatchErrors:
    def test_env_var_named_in_error(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp-drive")
        with pytest.raises(ValueError, match=r"from REPRO_SIM_BACKEND"):
            default_backend()

    def test_explicit_backend_error_has_no_env_blame(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_backend("warp-drive")
        assert BACKEND_ENV_VAR not in str(excinfo.value)

    def test_set_default_backend_normalizes_whitespace(self):
        set_default_backend("  Vector \n")
        assert default_backend() == "vector"

    def test_env_whitespace_normalized(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "  SCALAR ")
        assert default_backend() == "scalar"


class TestTaskPlanning:
    def test_plan_scheme_task_without_memo(self):
        config = ExperimentConfig.smoke()
        plan = plan_scheme_task("PR", "lj", config.reorder, "GRASP", config)
        assert plan.stage == STAGE_ROI
        assert plan.route in (ROUTE_FUSED, ROUTE_VECTOR)

    def test_plan_reflects_memo_state(self, tmp_path, monkeypatch):
        """Once a sweep persisted its chunk store, the next plan replays it."""
        from repro.experiments.runner import build_workload, simulate_policy

        config = ExperimentConfig.smoke().with_overrides(backend="vector")
        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        # Force the staged path (shared stream) so the chunk store persists.
        workload = build_workload("PR", "lj", config=config)
        simulate_policy(
            workload, scheme_policy("GRASP"), config, streaming=True, shared=True
        )
        # Pin a host with the fused kernels: without them the kernel rule
        # decides first and the chunk-store rule is never reached.
        monkeypatch.setattr(kernels, "has_capability", lambda name: True)
        plan = plan_scheme_task(
            "PR", "lj", config.reorder, "GRASP", config, streaming=True
        )
        assert plan.route == ROUTE_VECTOR
        assert any("chunk store" in reason for reason in plan.fallbacks)
        # A K=1 co-run is that task: it probes the same chunk store.
        spec = CorunSpec(pairs=(("PR", "lj"),))
        assert plan_corun_task(spec, "GRASP", config, config.reorder) == plan

    @pytest.mark.parametrize("backend", ["vector", "scalar", "verify"])
    @pytest.mark.parametrize("scheme", ["RRIP", "GRASP", "RRIP+Hints", "PIN-100"])
    def test_degenerate_corun_plans_the_single_app_task(self, scheme, backend):
        """A K=1 unpartitioned co-run runs as the single-app full execution,
        so its plan is that task's plan."""
        config = ExperimentConfig.smoke().with_overrides(backend=backend)
        spec = CorunSpec(pairs=(("PR", "lj"),))
        assert plan_corun_task(spec, scheme, config) == plan_scheme_task(
            "PR", "lj", config.reorder, scheme, config, streaming=True
        )

    def test_plan_corun_task_matches_runner(self):
        config = ExperimentConfig.smoke()
        spec = CorunSpec(pairs=(("PR", "lj"), ("CC", "lj")))
        plan = plan_corun_task(spec, "RRIP", config)
        assert plan.stage == STAGE_CORUN
        assert plan.route in (ROUTE_VECTOR, ROUTE_SCALAR)
        with pytest.raises(ValueError, match="no co-run analogue"):
            plan_corun_task(spec, "OPT", config)


class TestManifestPlans:
    def test_sweep_manifest_embeds_plans(self, tmp_path):
        from repro.experiments.service import SweepSpec, load_manifest, run_sweep

        config = ExperimentConfig.smoke()
        spec = SweepSpec(apps=("PR",), datasets=("lj",), schemes=("GRASP",))
        result = run_sweep(
            spec, config=config, cache_dir=tmp_path, worker_backend="inline"
        )
        manifest = load_manifest(tmp_path, result.run_id)
        plans = manifest["plans"]
        assert set(plans) == {"PR/lj/RRIP", "PR/lj/GRASP"}
        for plan in plans.values():
            assert plan["stage"] == STAGE_ROI
            assert plan["route"]
            assert plan["kernel"]

    def test_sweep_plans_probe_the_trace_cache_once_per_pair(self, tmp_path, monkeypatch):
        from repro.experiments.runner import llcstream_memo_key
        from repro.experiments.service import SweepSpec, sweep_plans

        config = ExperimentConfig.smoke()
        spec = SweepSpec(apps=("PR",), datasets=("lj", "kr"), schemes=("RRIP", "GRASP", "OPT"))
        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        # One pair with a stored ROI stream, one without: each pair's plans
        # must match per-scheme planning under that pair's memo state.
        memo.put("llcstream", llcstream_memo_key(
            "PR", "lj", config.reorder, config, config.merged_properties, streaming=False,
        ), {"stub": 1})
        probes = []
        contains = DiskMemo.contains

        def counting(self, kind, key):
            probes.append(kind)
            return contains(self, kind, key)

        monkeypatch.setattr(DiskMemo, "contains", counting)
        plans = sweep_plans(spec, config)
        assert probes.count("llcstream") == len(spec.apps) * len(spec.datasets)
        assert plans == {
            f"PR/{dataset}/{scheme}": plan_scheme_task(
                "PR", dataset, config.reorder, scheme, config).to_json()
            for dataset in spec.datasets
            for scheme in spec.all_schemes()
        }


class TestPlanExplainCli:
    def test_text_output(self, tmp_path, capsys):
        status = cli_main([
            "plan", "explain", "--apps", "PR", "--datasets", "lj",
            "--schemes", "RRIP,GRASP", "--preset", "smoke",
            "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "== PR/lj/RRIP ==" in out
        assert "== PR/lj/GRASP ==" in out
        assert "route    :" in out
        assert "because  :" in out

    def test_json_output_is_parseable(self, tmp_path, capsys):
        status = cli_main([
            "plan", "explain", "--apps", "PR", "--datasets", "lj",
            "--schemes", "GRASP", "--streaming", "--preset", "smoke",
            "--json", "--cache-dir", str(tmp_path),
        ])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"PR/lj/RRIP", "PR/lj/GRASP"}
        assert all(plan["stage"] == STAGE_STREAMING for plan in payload.values())

    def test_corun_opt_reports_error(self, tmp_path, capsys):
        status = cli_main([
            "plan", "explain", "--corun", "PR,CC", "--datasets", "lj",
            "--schemes", "RRIP,OPT", "--preset", "smoke",
            "--cache-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert "no co-run analogue" in captured.err
        assert "corun:PR/lj+CC/lj/RRIP" in captured.out
