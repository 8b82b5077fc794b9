"""Fused single-pass pipeline and kernel-registry suite (ISSUE 7).

Covers the two contracts the fused path must honour:

* **Bit-identity** — the threaded fused pipeline (L1/L2 filter + LLC replay
  in one native call) must match the scalar reference pipeline access for
  access, for every policy family, at every thread count, for any chunking
  of the input stream; and the NumPy fallback must produce the same
  statistics as the native path.
* **Registry hygiene** — kernels are registered declaratively and compiled
  lazily (importing ``repro`` must not touch a compiler), the build cache
  key covers source, flags and compiler, capability probes replace
  hard-coded symbol checks, and a broken/missing compiler degrades to the
  NumPy engines with no error surfaced to callers.
"""

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
from repro.fastsim.pipeline import (
    FusedPipeline,
    FusedStats,
    MultiFusedPipeline,
    effective_threads,
    fused_native_supported,
    fused_supported,
)
from repro.trace import Trace, iter_trace_slices

HIERARCHY = HierarchyConfig()
FAMILIES = ("lru", "srrip", "brrip", "drrip", "grasp", "ship-mem", "hawkeye", "leeway", "pin")
THREAD_COUNTS = (1, 2, 8)

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
    """Scalar filter + scalar LLC replay, computed once per policy family."""
    cache: dict = {}

    def compute(name: str) -> FusedStats:
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
            cache[name] = FusedStats(
                l1_stats=result.l1_stats, l2_stats=result.l2_stats, llc_stats=llc_stats
            )
        return cache[name]

    return compute


def run_fused(trace, policy, classifier, threads, chunk=3333):
    fused = FusedPipeline(HIERARCHY, policy, classifier=classifier, threads=threads)
    outcomes = []
    for piece in iter_trace_slices(trace, chunk):
        out = fused.feed(piece)
        if out is not None:
            outcomes.append(out)
    return fused, (np.concatenate(outcomes) if outcomes else None)


# ---------------------------------------------------------------------------
# bit-identity
# ---------------------------------------------------------------------------


@needs_native
@pytest.mark.parametrize("threads", THREAD_COUNTS)
@pytest.mark.parametrize("name", FAMILIES)
class TestFusedMatchesScalar:
    def test_stats(self, trace, classifier, scalar_reference, name, threads):
        policy = create_policy(name)
        assert fused_native_supported(policy, HIERARCHY)
        fused, _ = run_fused(trace, policy, classifier, threads)
        assert fused.native
        got = fused.stats()
        want = scalar_reference(name)
        assert got.l1_stats == want.l1_stats
        assert got.l2_stats == want.l2_stats
        # Scalar replay names differ only by construction path; compare counts.
        for field in ("hits", "misses", "evictions", "bypasses",
                      "region_accesses", "region_misses"):
            assert getattr(got.llc_stats, field) == getattr(want.llc_stats, field), field


@needs_native
@pytest.mark.parametrize("name", FAMILIES)
class TestFusedInvariances:
    def test_outcomes_thread_invariant(self, trace, classifier, name):
        policy = create_policy(name)
        _, base = run_fused(trace, policy, classifier, threads=1)
        for threads in THREAD_COUNTS[1:]:
            _, out = run_fused(trace, create_policy(name), classifier, threads=threads)
            np.testing.assert_array_equal(base, out)

    def test_chunked_equals_oneshot(self, trace, classifier, name):
        policy = create_policy(name)
        _, oneshot = run_fused(trace, policy, classifier, threads=2, chunk=10**9)
        for chunk in (17, 4096):
            fused, out = run_fused(
                trace, create_policy(name), classifier, threads=2, chunk=chunk
            )
            np.testing.assert_array_equal(oneshot, out)

    def test_numpy_fallback_matches_native(self, trace, classifier, name, monkeypatch):
        policy = create_policy(name)
        native, _ = run_fused(trace, policy, classifier, threads=2)
        monkeypatch.setattr(
            "repro.fastsim.pipeline.fused_native_supported", lambda p, h: False
        )
        fallback, out = run_fused(trace, create_policy(name), classifier, threads=2)
        assert not fallback.native
        assert out is None
        got, want = fallback.stats(), native.stats()
        assert got.l1_stats == want.l1_stats
        assert got.l2_stats == want.l2_stats
        assert got.llc_stats == want.llc_stats
        assert fallback.total_references == native.total_references


class TestMultiFusedPipeline:
    """The multi-scheme shared-filter pipeline matches every per-policy
    reference, native or not (the phases differ only in where the filter
    runs; the replay engines are the same)."""

    NAMES = ("lru", "grasp", "ship-mem", "hawkeye")

    def _run_multi(self, trace, classifier, names, threads=2, chunk=3333):
        multi = MultiFusedPipeline(
            HIERARCHY,
            [create_policy(name) for name in names],
            classifier=classifier,
            threads=threads,
        )
        for piece in iter_trace_slices(trace, chunk):
            multi.feed(piece)
        return multi

    def test_matches_scalar_reference(self, trace, classifier, scalar_reference):
        multi = self._run_multi(trace, classifier, self.NAMES)
        l1, l2 = multi.level_stats()
        assert multi.total_references == len(trace)
        for name, got in zip(self.NAMES, multi.stats()):
            want = scalar_reference(name)
            assert l1 == want.l1_stats
            assert l2 == want.l2_stats
            for field in ("hits", "misses", "evictions", "bypasses",
                          "region_accesses", "region_misses"):
                assert getattr(got, field) == getattr(want.llc_stats, field), (name, field)

    @needs_native
    def test_thread_and_chunk_invariant(self, trace, classifier):
        base = self._run_multi(trace, classifier, self.NAMES, threads=1)
        for threads, chunk in ((2, 3333), (8, 17), (2, 10**9)):
            other = self._run_multi(trace, classifier, self.NAMES, threads, chunk)
            for a, b in zip(base.stats(), other.stats()):
                assert (a.hits, a.misses, a.evictions) == (b.hits, b.misses, b.evictions)

    @needs_native
    def test_filter_stream_fallback_matches_native(self, trace, classifier, monkeypatch):
        native = self._run_multi(trace, classifier, self.NAMES)
        assert native.native
        monkeypatch.setattr(
            "repro.fastsim.pipeline.kernels.has_capability", lambda cap: False
        )
        fallback = self._run_multi(trace, classifier, self.NAMES)
        assert not fallback.native
        assert fallback.level_stats() == native.level_stats()
        for a, b in zip(native.stats(), fallback.stats()):
            assert (a.hits, a.misses, a.evictions) == (b.hits, b.misses, b.evictions)

    def test_rejects_non_vector_policies(self):
        from repro.cache.policies import BeladyOptimal

        with pytest.raises(ValueError, match="no vector replay engine"):
            MultiFusedPipeline(HIERARCHY, [create_policy("random")])
        with pytest.raises(ValueError, match="no vector replay engine"):
            MultiFusedPipeline(HIERARCHY, [BeladyOptimal(HIERARCHY.llc)])
        with pytest.raises(ValueError, match="at least one policy"):
            MultiFusedPipeline(HIERARCHY, [])


class TestSupportPredicates:
    def test_fused_supported_matrix(self):
        for name in FAMILIES:
            assert fused_supported(create_policy(name))
        assert not fused_supported(create_policy("random"))
        from repro.cache.policies import BeladyOptimal

        assert not fused_supported(BeladyOptimal(HIERARCHY.llc))

    def test_unsupported_policy_raises(self):
        with pytest.raises(ValueError):
            FusedPipeline(HIERARCHY, create_policy("random"))

    def test_effective_threads_clamps_to_set_counts(self):
        # Default hierarchy: 4/8/16 sets -> at most 4 shards, powers of two.
        assert effective_threads(1, HIERARCHY) == 1
        assert effective_threads(2, HIERARCHY) == 2
        assert effective_threads(3, HIERARCHY) == 2
        assert effective_threads(8, HIERARCHY) == 4
        assert effective_threads(0, HIERARCHY) == 1
        big = HierarchyConfig().with_llc_size(1 << 20)
        assert effective_threads(64, big) <= min(
            big.l1.num_sets, big.l2.num_sets, big.llc.num_sets
        )


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
                           "fused", "fused:lru", "fused:rrip", "fused:pin",
                           "fused:ship", "fused:leeway", "fused:hawkeye"):
            assert kernels.has_capability(capability), capability
        assert not kernels.has_capability("replay:nonesuch")

    def test_thread_count_parsing(self, monkeypatch):
        monkeypatch.delenv(kernels.THREADS_ENV_VAR, raising=False)
        assert kernels.thread_count() == 1
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "6")
        assert kernels.thread_count() == 6
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "0")
        assert kernels.thread_count() == 1
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "soon")
        with pytest.raises(ValueError):
            kernels.thread_count()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            kernels.register_kernel(
                kernels.KernelSpec(name="lru", source="", functions={})
            )


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


class TestLazyCompilation:
    def test_import_does_not_compile(self, tmp_path):
        # Even with the compiler replaced by /usr/bin/false, importing every
        # engine and kernel module (the planner imports them all) must
        # succeed and must not attempt a build; only the first kernel lookup
        # resolves.
        out = _run_subprocess(
            "import repro, repro.fastsim.plan\n"
            "import repro.fastsim.kernels as k\n"
            "print(k.resolved())\n"
            "k.lookup('lru_replay')\n"
            "print(k.resolved())\n",
            {"REPRO_CC": "/usr/bin/false", "XDG_CACHE_HOME": str(tmp_path)},
        )
        assert out.splitlines() == ["False", "True"]

    def test_broken_compiler_degrades_to_numpy(self, tmp_path):
        # End to end under a toolchain that always fails: engines fall back
        # to NumPy, the fused pipeline falls back to the staged engines, and
        # results still come out (exercised via one policy replay).
        out = _run_subprocess(
            "import numpy as np\n"
            "import repro.fastsim.kernels as k\n"
            "from repro.cache.config import HierarchyConfig\n"
            "from repro.cache.policies import create_policy\n"
            "from repro.fastsim.pipeline import FusedPipeline, fused_native_supported\n"
            "from repro.trace import Trace\n"
            "hier = HierarchyConfig()\n"
            "policy = create_policy('grasp')\n"
            "assert not fused_native_supported(policy, hier)\n"
            "assert not k.available()\n"
            "assert k.lookup('lru_replay') is None\n"
            "rng = np.random.default_rng(3)\n"
            "n = 500\n"
            "trace = Trace(addresses=(rng.integers(0, 300, n) * 8).astype(np.int64),\n"
            "              pcs=np.zeros(n, dtype=np.int64),\n"
            "              regions=np.zeros(n, dtype=np.int64))\n"
            "fused = FusedPipeline(hier, policy)\n"
            "assert not fused.native\n"
            "assert fused.feed(trace) is None\n"
            "stats = fused.stats()\n"
            "assert stats.llc_stats.hits + stats.llc_stats.misses > 0\n"
            "print('ok')\n",
            {"REPRO_CC": "/usr/bin/false", "XDG_CACHE_HOME": str(tmp_path)},
        )
        assert out == "ok"

    def test_native_disable_env(self, tmp_path):
        out = _run_subprocess(
            "import repro.fastsim.kernels as k\n"
            "print(k.available(), k.lookup('lru_replay') is None)\n",
            {"REPRO_NATIVE": "0", "XDG_CACHE_HOME": str(tmp_path)},
        )
        assert out == "False True"
