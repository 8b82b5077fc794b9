"""A comparison over a store that holds its results reads them by key.

``compare_policies`` needs, per (app, dataset) pair, each scheme's
``policystream`` entry and the scope's budget-less ``llcstream`` summary,
and both keys come from the experiment parameters alone.  So a comparison
whose results are stored (a warm or resumed sweep, a figure driver over
``REPRO_CACHE_DIR``) reads no ``workload`` entry and loads no graph; it
builds a pair's workload only for a missing result, and then simulates only
the missing schemes.  These tests fill one store with a process-pool sweep
per scope, then check the reads of warm comparisons (single-app and
co-run) and of a second sweep, what a deleted entry costs, and that every
point equals the cold, memo-less run's, field for field and in order.
"""

import shutil
from collections import Counter

import pytest

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.memo import DiskMemo
from repro.experiments.runner import (
    CorunSpec,
    build_workload,
    clear_caches,
    compare_policies,
    compare_policies_corun,
    llcstream_memo_key,
    llcstream_summary_memo_key,
    policystream_memo_key,
    set_disk_memo,
)
from repro.experiments.queue import InlineBackend
from repro.experiments.service import SweepSpec, load_manifest, run_sweep

APPS = ("PR", "SSSP")
DATASETS = ("lj", "uni")
SCHEMES = ("RRIP", "GRASP", "SHiP-MEM", "PIN-100", "OPT")
CONFIG = ExperimentConfig.smoke().with_overrides(chunk_accesses=1 << 14)
SCOPES = pytest.mark.parametrize("streaming", [False, True], ids=["roi", "execution"])

#: One co-run of each shape: one stream (a single-app execution) and two.
CORUNS = {
    "K=1": CorunSpec(pairs=(("PR", "lj"),)),
    "K=2": CorunSpec(pairs=(("PR", "lj"), ("SSSP", "uni"))),
}
CORUN_SCHEMES = ("GRASP", "SHiP-MEM")

STAT_FIELDS = ("hits", "misses", "evictions", "bypasses", "region_accesses", "region_misses")


def _rows(points):
    """Every field a point carries, in order."""
    return [
        (p.app_name, p.dataset_name, p.scheme,
         *(getattr(p.stats, field) for field in STAT_FIELDS),
         p.cycles, p.miss_reduction_pct, p.speedup_pct)
        for p in points
    ]


def _fresh():
    """A new invocation: empty in-memory tables and no disk store."""
    clear_caches()
    set_disk_memo(None)


def _compare(streaming):
    return compare_policies(APPS, DATASETS, SCHEMES, config=CONFIG, streaming=streaming)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """(store root, cold points by scope, cold co-run points by shape).

    The cold points come from memo-less runs; the store from one
    process-pool sweep per scope, then one cold co-run comparison of each
    shape under the disk memo, whose points must equal the memo-less ones.
    """
    root = tmp_path_factory.mktemp("warm-store")
    cold, corun = {}, {}
    try:
        for streaming in (False, True):
            _fresh()
            cold[streaming] = _rows(_compare(streaming))
            _fresh()
            run_sweep(
                SweepSpec(apps=APPS, datasets=DATASETS, schemes=SCHEMES, streaming=streaming),
                CONFIG, cache_dir=root, worker_backend="process",
            )
        for shape, spec in CORUNS.items():
            _fresh()
            corun[shape] = _rows(compare_policies_corun(spec, CORUN_SCHEMES, config=CONFIG))
            _fresh()
            set_disk_memo(DiskMemo(root))
            assert _rows(compare_policies_corun(spec, CORUN_SCHEMES, config=CONFIG)) == corun[shape]
    finally:
        _fresh()
    return root, cold, corun


@pytest.fixture
def copy_of(store, tmp_path):
    """A private copy of the filled store, installed, for tests that delete entries."""
    root = tmp_path / "store"
    shutil.copytree(store[0], root)
    memo = DiskMemo(root)
    _fresh()
    set_disk_memo(memo)
    yield memo
    _fresh()


@pytest.fixture
def warm(store):
    """The filled store installed in a fresh invocation."""
    _fresh()
    set_disk_memo(DiskMemo(store[0]))
    yield store
    _fresh()


@pytest.fixture
def gets(monkeypatch):
    """Every ``DiskMemo.get`` as (kind, key), in order."""
    made = []
    get = DiskMemo.get

    def counted(self, kind, key):
        made.append((kind, key))
        return get(self, kind, key)

    monkeypatch.setattr(DiskMemo, "get", counted)
    return made


@pytest.fixture
def no_graph_loads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a warm read loaded a graph")

    monkeypatch.setattr(runner, "load_for_experiment", refuse)


def _kinds(gets):
    return Counter(kind for kind, _ in gets)


# ---------------------------------------------------------------------------
# warm reads
# ---------------------------------------------------------------------------


@SCOPES
def test_a_warm_comparison_reads_stats_and_summaries_only(
    warm, gets, no_graph_loads, planned, streaming
):
    _, cold, _ = warm
    assert _rows(_compare(streaming)) == cold[streaming]
    pairs = len(APPS) * len(DATASETS)
    assert _kinds(gets) == {"policystream": pairs * len(SCHEMES), "llcstream": pairs}
    assert planned == []


@SCOPES
def test_a_second_sweep_reads_no_workload(store, gets, no_graph_loads, streaming):
    root, cold, _ = store
    _fresh()
    try:
        result = run_sweep(
            SweepSpec(apps=APPS, datasets=DATASETS, schemes=SCHEMES, streaming=streaming),
            CONFIG, cache_dir=root, worker_backend="process",
        )
    finally:
        _fresh()
    assert result.report.executed == 0
    assert _rows(result.points) == cold[streaming]
    assert _kinds(gets)["workload"] == 0


@pytest.mark.parametrize("shape", sorted(CORUNS))
def test_a_warm_corun_comparison_reads_no_workload(warm, gets, no_graph_loads, shape):
    _, _, corun = warm
    points = compare_policies_corun(CORUNS[shape], CORUN_SCHEMES, config=CONFIG)
    assert _rows(points) == corun[shape]
    assert _kinds(gets)["workload"] == 0


# ---------------------------------------------------------------------------
# a missing entry builds its pair's workload, and only that
# ---------------------------------------------------------------------------


@SCOPES
def test_a_missing_scheme_builds_one_workload_and_plans_that_scheme(
    store, copy_of, gets, planned, streaming
):
    _, cold, _ = store
    key = policystream_memo_key("SSSP", "uni", CONFIG.reorder, "GRASP", CONFIG, streaming=streaming)
    copy_of.path_for("policystream", key).unlink()
    assert _rows(_compare(streaming)) == cold[streaming]
    workload_keys = [key for kind, key in gets if kind == "workload"]
    assert workload_keys == [runner.workload_memo_key("SSSP", "uni", CONFIG.reorder, CONFIG)]
    assert planned == [("GRASP",)]
    assert copy_of.contains("policystream", key)  # stored again


@pytest.mark.parametrize("manifest", ["kept", "deleted"])
@SCOPES
def test_a_missing_summary_is_recomputed_to_the_same_counters(
    store, copy_of, gets, planned, streaming, manifest
):
    """With the stream's manifest kept, the summary comes from draining the
    stored stream; with it deleted, from filtering the scope again.  Either
    way it is stored again."""
    _, cold, _ = store
    key = llcstream_summary_memo_key("PR", "lj", CONFIG.reorder, CONFIG, streaming=streaming)
    stream_key = llcstream_memo_key("PR", "lj", CONFIG.reorder, CONFIG, streaming=streaming)
    if manifest == "kept":
        # A fused sweep stores no stream; a staged replay's drain does.
        for _ in runner.llc_chunks(build_workload("PR", "lj", config=CONFIG), CONFIG, streaming):
            pass
        _fresh()
        set_disk_memo(copy_of)
    else:
        copy_of.path_for("llcstream", stream_key).unlink(missing_ok=True)
    stored = copy_of.get("llcstream", key)
    copy_of.path_for("llcstream", key).unlink()
    gets.clear()
    assert _rows(_compare(streaming)) == cold[streaming]
    recomputed = runner._SUMMARIES[key]
    for counter in ("l1_hits", "l2_hits", "total_references"):
        assert recomputed[counter] == stored[counter], counter
    assert _kinds(gets)["workload"] == 1
    assert planned == []
    assert copy_of.contains("llcstream", key)


def test_a_lost_summary_is_stored_again_and_the_sweep_resumes_as_cached(tmp_path, gets):
    """A scalar sweep replays each pair's stored stream, so its store keeps
    the stream manifests.  The first sweep after a summary is lost runs
    that pair's task alone, which writes the summary back from the
    manifest; after it, sweeps and comparisons read by key again."""
    config = CONFIG.with_overrides(backend="scalar")
    spec = SweepSpec(apps=("PR",), datasets=("lj", "uni"), schemes=("RRIP", "GRASP"))
    params = ("PR", "lj", config.reorder, config)
    memo = DiskMemo(tmp_path)
    try:
        _fresh()
        run_sweep(spec, config, cache_dir=tmp_path, worker_backend="inline")
        assert memo.contains("llcstream", llcstream_memo_key(*params, streaming=False))
        summary = memo.path_for("llcstream", llcstream_summary_memo_key(*params, streaming=False))
        summary.unlink()
        ran = []
        for _ in range(2):
            _fresh()
            result = run_sweep(spec, config, cache_dir=tmp_path, worker_backend=InlineBackend())
            tasks = load_manifest(tmp_path, result.run_id)["tasks"]
            ran.append([task["label"] for task in tasks if not task["cached"]])
        assert ran == [["PR/lj"], []]
        assert summary.exists()
        _fresh()
        set_disk_memo(DiskMemo(tmp_path))
        gets.clear()
        compare_policies(spec.apps, spec.datasets, spec.schemes, config=config)
        assert _kinds(gets)["workload"] == 0
    finally:
        _fresh()


# ---------------------------------------------------------------------------
# the keys
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("merged", [True, False], ids=["merged", "unmerged"])
@SCOPES
def test_keys_from_parameters_equal_keys_from_a_workload(memo_isolation, merged, streaming):
    config = CONFIG.with_overrides(merged_properties=merged)
    for app in APPS:
        workload = build_workload(app, "lj", config=config)
        assert workload.layout.profile.merged is merged
        params = (app, "lj", config.reorder)
        assert runner._policy_key(workload, "GRASP", config, streaming) == policystream_memo_key(
            *params, "GRASP", config, streaming=streaming
        )
        assert runner._summary_key(workload, config, streaming) == llcstream_summary_memo_key(
            *params, config, streaming=streaming
        )
        assert runner._stream_key(workload, config, streaming) == llcstream_memo_key(
            *params, config, streaming=streaming
        )
