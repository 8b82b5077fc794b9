"""Fused single-pass pipeline and kernel-registry suite (ISSUE 7).

Covers the two contracts the fused path must honour:

* **Bit-identity** — the fused pass (the L1/L2 filter kernel, then each
  scheme's own replay kernel over the chunk's LLC-bound accesses) must match
  the scalar reference pipeline access for access, for every policy family,
  alone or several in one pass, for any chunking of the input stream.
* **Registry hygiene** — kernels are registered declaratively and compiled
  lazily (importing ``repro`` must not touch a compiler), the build cache
  key covers source, flags and compiler, capability probes replace
  hard-coded symbol checks, kernel arguments of the wrong dtype or layout
  raise instead of reaching the kernel, and on a broken or missing
  compiler every plan runs the scalar reference with identical results
  while building an engine directly raises.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cache.config import HierarchyConfig
from repro.cache.policies import create_policy
from repro.core import AddressBoundRegisterFile, GraspClassifier
from repro.experiments.runner import LLCTrace, simulate_llc_policy
from repro.fastsim import kernels
from repro.fastsim.filter import run_filter
from repro.fastsim.kernels import registry
from repro.fastsim.pipeline import FusedPipeline
from repro.fastsim.replay import _family
from repro.fastsim.rrip import RRIPStream, rrip_spec
from repro.trace import Trace, iter_trace_slices

HIERARCHY = HierarchyConfig()
FAMILIES = ("lru", "srrip", "brrip", "drrip", "grasp", "ship-mem", "hawkeye", "leeway", "pin")
# The trace is fed in this many equal chunks: the stats must not depend on it.
CHUNK_COUNTS = (1, 2, 8)

needs_native = pytest.mark.skipif(
    not kernels.has_capability("fused"), reason="fused kernels unavailable"
)


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(20260807)
    n = 30000
    addresses = (rng.integers(0, 4000, n) * 8 + rng.integers(0, 8, n)).astype(np.int64)
    return Trace(
        addresses=addresses,
        pcs=rng.integers(0, 16, n).astype(np.int64),
        regions=rng.integers(0, 4, n).astype(np.int64),
    )


@pytest.fixture(scope="module")
def classifier():
    abrs = AddressBoundRegisterFile(capacity=8)
    abrs.configure(0, 9000)
    abrs.configure(16000, 24000)
    return GraspClassifier(abrs, llc_size_bytes=HIERARCHY.llc.size_bytes)


@pytest.fixture(scope="module")
def scalar_reference(trace, classifier):
    """Scalar filter + scalar LLC replay, computed once per policy family:
    its ``(l1_stats, l2_stats, llc_stats)``."""
    cache: dict = {}

    def compute(name: str):
        if name not in cache:
            policy = create_policy(name)
            result = run_filter(trace, HIERARCHY, backend="scalar")
            keep = result.keep
            byte_addresses = trace.addresses[keep]
            llc_trace = LLCTrace(
                byte_addresses=byte_addresses,
                block_addresses=byte_addresses >> HIERARCHY.llc.block_offset_bits,
                pcs=trace.pcs[keep],
                regions=trace.regions[keep],
                hints=classifier.classify_array(byte_addresses),
                upstream_l1_hits=int(result.l1_stats.hits),
                upstream_l2_hits=int(result.l2_stats.hits),
                total_references=len(trace),
            )
            llc_stats = simulate_llc_policy(
                llc_trace, policy, HIERARCHY.llc, backend="scalar"
            )
            cache[name] = (result.l1_stats, result.l2_stats, llc_stats)
        return cache[name]

    return compute


def run_fused(trace, policy, classifier, chunk=3333):
    fused = FusedPipeline(HIERARCHY, [policy], classifier=classifier)
    blocks = [fused.feed(piece).blocks for piece in iter_trace_slices(trace, chunk)]
    return fused, np.concatenate(blocks)


# ---------------------------------------------------------------------------
# bit-identity
# ---------------------------------------------------------------------------


@needs_native
@pytest.mark.parametrize("chunks", CHUNK_COUNTS)
@pytest.mark.parametrize("name", FAMILIES)
class TestFusedMatchesScalar:
    def test_stats(self, trace, classifier, scalar_reference, name, chunks):
        policy = create_policy(name)
        fused, _ = run_fused(trace, policy, classifier, chunk=-(-len(trace) // chunks))
        (got,) = fused.stats()
        want_l1, want_l2, want = scalar_reference(name)
        assert fused.level_stats() == (want_l1, want_l2)
        # Scalar replay names differ only by construction path; compare counts.
        for field in ("hits", "misses", "evictions", "bypasses",
                      "region_accesses", "region_misses"):
            assert getattr(got, field) == getattr(want, field), field


@needs_native
@pytest.mark.parametrize("name", FAMILIES)
class TestFusedInvariances:
    def test_chunked_equals_oneshot(self, trace, classifier, name):
        whole, oneshot = run_fused(trace, create_policy(name), classifier, chunk=10**9)
        for chunk in (17, 4096):
            fused, out = run_fused(trace, create_policy(name), classifier, chunk=chunk)
            np.testing.assert_array_equal(oneshot, out)
            assert fused.stats() == whole.stats()


class TestMultiSchemePass:
    """One pass over several schemes matches every per-policy reference."""

    NAMES = ("lru", "grasp", "ship-mem", "hawkeye", "leeway", "pin")

    def _run_multi(self, trace, classifier, names, chunk=3333):
        multi = FusedPipeline(
            HIERARCHY,
            [create_policy(name) for name in names],
            classifier=classifier,
        )
        for piece in iter_trace_slices(trace, chunk):
            multi.feed(piece)
        return multi

    @needs_native
    def test_matches_scalar_reference(self, trace, classifier, scalar_reference):
        multi = self._run_multi(trace, classifier, self.NAMES)
        l1, l2 = multi.level_stats()
        assert multi.total_references == len(trace)
        for name, got in zip(self.NAMES, multi.stats()):
            want_l1, want_l2, want = scalar_reference(name)
            assert (l1, l2) == (want_l1, want_l2)
            for field in ("hits", "misses", "evictions", "bypasses",
                          "region_accesses", "region_misses"):
                assert getattr(got, field) == getattr(want, field), (name, field)

    @needs_native
    def test_chunk_invariant(self, trace, classifier):
        base = self._run_multi(trace, classifier, self.NAMES)
        for chunk in (17, 10**9):
            other = self._run_multi(trace, classifier, self.NAMES, chunk)
            for a, b in zip(base.stats(), other.stats()):
                assert (a.hits, a.misses, a.evictions) == (b.hits, b.misses, b.evictions)

    def test_rejects_policies_without_an_online_engine(self):
        from repro.cache.policies import BeladyOptimal

        with pytest.raises(ValueError, match="no fused replay engine"):
            FusedPipeline(HIERARCHY, [create_policy("lru"), create_policy("random")])
        with pytest.raises(ValueError, match="no fused replay engine"):
            FusedPipeline(HIERARCHY, [BeladyOptimal(HIERARCHY.llc)])

    @needs_native
    def test_filter_only_pass_returns_the_llc_bound_blocks(self, trace):
        # With no engine the pass is the filter alone; the blocks it gathers
        # are the ones OPT replays.
        bare = FusedPipeline(HIERARCHY, [])
        blocks = np.concatenate(
            [bare.feed(piece).blocks for piece in iter_trace_slices(trace, 3333)]
        )
        reference = run_filter(trace, HIERARCHY, backend="scalar")
        np.testing.assert_array_equal(
            blocks, trace.addresses[reference.keep] >> HIERARCHY.llc.block_offset_bits
        )
        assert bare.level_stats() == (reference.l1_stats, reference.l2_stats)
        assert bare.stats() == []


class TestSupportPredicates:
    def test_fused_supported_matrix(self):
        # Every family has an online engine to ride the fused pass; random
        # has none, and the offline OPT rides it through its blocks instead.
        for name in FAMILIES:
            assert _family(create_policy(name)) is not None
        assert _family(create_policy("random")) is None
        from repro.cache.policies import BeladyOptimal

        assert _family(BeladyOptimal(HIERARCHY.llc)) is None

    def test_unsupported_policy_raises(self):
        with pytest.raises(ValueError):
            FusedPipeline(HIERARCHY, [create_policy("random")])


# ---------------------------------------------------------------------------
# kernel registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_build_key_covers_inputs(self):
        base = kernels.build_key("int x;", ("-O3",), "cc")
        assert base == kernels.build_key("int x;", ("-O3",), "cc")
        assert base != kernels.build_key("int y;", ("-O3",), "cc")
        assert base != kernels.build_key("int x;", ("-O2",), "cc")
        assert base != kernels.build_key("int x;", ("-O3",), "gcc")

    def test_registered_families(self):
        names = kernels.registered()
        for family in ("core", "lru", "rrip", "pin", "opt", "ship", "leeway",
                       "hawkeye", "fused"):
            assert family in names

    def test_capability_probes(self):
        if not kernels.available():
            pytest.skip("native kernels unavailable")
        for capability in ("replay:lru", "replay:rrip", "replay:pin", "replay:opt",
                           "replay:ship", "replay:leeway", "replay:hawkeye",
                           "fused", "fused:filter"):
            assert kernels.has_capability(capability), capability
        assert not kernels.has_capability("replay:nonesuch")
        # One kernel per family: the filter is the only fused entry.
        assert {c for c in kernels.capabilities() if c.startswith("fused")} == {
            "fused", "fused:filter"
        }

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            kernels.register_kernel(
                kernels.KernelSpec(name="lru", source="", functions={})
            )


class TestKernelArguments:
    """The ctypes boundary takes exactly the arrays the kernels read."""

    def test_pointers_need_exact_dtype_and_c_layout(self):
        assert registry.as_i64(np.zeros(3, dtype=np.int64)) is not None
        assert registry.as_i32(np.zeros((2, 2), dtype=np.int32)) is not None
        assert registry.as_u8(np.zeros(3, dtype=np.uint8)) is not None
        with pytest.raises(TypeError, match="int64"):
            registry.as_i64(np.zeros(3, dtype=np.int32))
        with pytest.raises(TypeError, match="C-contiguous"):
            registry.as_i64(np.arange(8, dtype=np.int64)[::2])
        with pytest.raises(TypeError):
            registry.as_i32(np.zeros(3, dtype=np.int64))
        with pytest.raises(TypeError):
            registry.as_u8(np.zeros(3, dtype=bool))
        with pytest.raises(TypeError):
            registry.as_i64([1, 2, 3])

    @needs_native
    def test_wrong_state_dtype_raises_before_the_kernel_runs(self):
        # The RRIP kernel writes int32 RRPVs: handed an int64 buffer it used
        # to scribble over it and return wrong hits silently.
        stream = RRIPStream(16, 4, rrip_spec(create_policy("grasp")))
        stream.rrpv = stream.rrpv.astype(np.int64)
        before = stream.rrpv.copy()
        with pytest.raises(TypeError, match="int32"):
            stream.feed(np.arange(64, dtype=np.int64))
        np.testing.assert_array_equal(stream.rrpv, before)
        assert stream.hit_count == 0
        assert stream.miss_count == 0


def _run_subprocess(code: str, env_overrides: dict) -> str:
    env = dict(os.environ)
    env.update(env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in (os.path.join(os.getcwd(), "src"),)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=180, check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


#: Schemes of the degraded-host run: the smoke comparison's baseline, one
#: scheme per kernel family it exercises, and the offline OPT.
DEGRADED_SCHEMES = ("RRIP", "GRASP", "Hawkeye", "PIN-100", "OPT")

#: Turns ``compare_policies`` points into JSON-ready rows; run in-process
#: and in the degraded subprocess so both sides compare the same fields.
POINT_ROWS = """
def point_rows(points):
    return [
        [p.app_name, p.dataset_name, p.scheme, p.stats.accesses, p.stats.hits,
         p.stats.misses, p.stats.evictions, p.stats.bypasses,
         sorted((p.stats.region_misses or {}).items()), p.cycles]
        for p in points
    ]
"""


def _point_rows(points):
    namespace: dict = {}
    exec(POINT_ROWS, namespace)
    return json.loads(json.dumps(namespace["point_rows"](points)))


class TestLazyCompilation:
    def test_import_does_not_compile(self, tmp_path):
        # Even with the compiler replaced by /usr/bin/false, importing every
        # engine and kernel module (the planner imports them all) must
        # succeed and must not attempt a build; only the first probe
        # resolves.
        out = _run_subprocess(
            "import repro, repro.fastsim.plan\n"
            "import repro.fastsim.kernels as k\n"
            "print(k.resolved())\n"
            "k.available()\n"
            "print(k.resolved())\n",
            {"REPRO_CC": "/usr/bin/false", "XDG_CACHE_HOME": str(tmp_path)},
        )
        assert out.splitlines() == ["False", "True"]

    @needs_native
    def test_broken_compiler_runs_the_scalar_reference(self, tmp_path, memo_isolation):
        # With no usable compiler every plan is a scalar one that says why,
        # the comparison comes out identical to the compiled run in both
        # scopes, and building an engine or a fused pipeline directly
        # raises instead of running something else.
        from repro.experiments import ExperimentConfig, compare_policies

        config = ExperimentConfig.smoke()
        expected = {
            str(streaming): _point_rows(
                compare_policies(
                    ["PR"], ["lj"], DEGRADED_SCHEMES, config, streaming=streaming
                )
            )
            for streaming in (False, True)
        }
        out = _run_subprocess(
            POINT_ROWS
            + "import json\n"
            "import pytest\n"
            "import repro.fastsim.kernels as k\n"
            "from repro.cache.config import HierarchyConfig\n"
            "from repro.cache.policies import create_policy\n"
            "from repro.core.grasp import GraspPolicy\n"
            "from repro.experiments import ExperimentConfig, compare_policies\n"
            "from repro.experiments.runner import plan_pair_tasks, set_disk_memo\n"
            "from repro.fastsim.pipeline import FusedPipeline\n"
            "from repro.fastsim.plan import NO_KERNELS\n"
            "from repro.fastsim.replay import PolicyReplayStream\n"
            "set_disk_memo(None)\n"
            f"expected = json.loads({json.dumps(expected)!r})\n"
            f"schemes = {DEGRADED_SCHEMES!r}\n"
            "config = ExperimentConfig.smoke()\n"
            "assert not k.available()\n"
            "for streaming in (False, True):\n"
            "    plan = plan_pair_tasks('PR', 'lj', config.reorder, schemes, config,\n"
            "                           streaming)\n"
            "    assert (plan.route, plan.kernel) == ('scalar', 'python'), plan\n"
            "    assert NO_KERNELS in plan.fallbacks, plan\n"
            "    points = compare_policies(['PR'], ['lj'], schemes, config,\n"
            "                              streaming=streaming)\n"
            "    got = json.loads(json.dumps(point_rows(points)))\n"
            "    assert got == expected[str(streaming)], (streaming, got)\n"
            "llc = HierarchyConfig().llc\n"
            "with pytest.raises(RuntimeError, match='rrip_replay'):\n"
            "    PolicyReplayStream(GraspPolicy(), llc)\n"
            "with pytest.raises(RuntimeError, match='fused_filter_only'):\n"
            "    FusedPipeline(HierarchyConfig(), [create_policy('grasp')])\n"
            "print('ok')\n",
            {
                "REPRO_CC": "/usr/bin/false",
                "REPRO_SIM_BACKEND": "vector",
                "XDG_CACHE_HOME": str(tmp_path),
            },
        )
        assert out == "ok"
