"""The execution stream a fused pass leaves behind for the calls after it.

While no disk memo is installed, a single-scheme execution-scope fused
pass keeps the LLC-bound accesses it gathers in a process-private
:class:`~repro.experiments.memo.ChunkSpill`, so the next single-scheme call
on the same (workload, config, chunk budget) replays that stream instead of
generating and filtering the execution again.  A multi-scheme pass holds
nothing: its caller simulates every scheme it wants in that one pass.
These tests pin the spill's round trip, that held chunks equal freshly
filtered ones field for field, which passes hold and which calls are
served, and that no spill directory outlives the stream:
not after ``clear_caches()``, a replacing pass, a pass that raises, or the
process's exit.  Only ``vector`` requests in the process that gathered the
stream replay it: ``scalar`` and ``verify`` filter the execution
themselves, and a forked child neither reads nor removes it.

Without the fused filter kernel no fused pass runs, so nothing is held and
every call takes the staged or scalar route.
"""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.memo import ChunkSpill, DiskMemo
from repro.experiments.runner import (
    LLCTrace,
    build_workload,
    clear_caches,
    llc_chunks,
    set_disk_memo,
    simulate_policy,
    simulate_scheme,
    simulate_schemes,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim import kernels
from repro.fastsim.plan import ROUTE_FUSED, ROUTE_SCALAR, ROUTE_VECTOR, RoutePlanner

FUSED = kernels.has_capability("fused:filter")
needs_fused = pytest.mark.skipif(not FUSED, reason="no fused filter kernel")

CONFIG = ExperimentConfig.smoke().with_overrides(backend="vector", chunk_accesses=1 << 12)


@pytest.fixture
def spills(tmp_path, monkeypatch, memo_isolation):
    """Spill directories go to ``tmp_path``; returns a lister of them."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return lambda: sorted(path.name for path in tmp_path.glob("repro-spill-*"))


@pytest.fixture
def generations(monkeypatch):
    """Counts the executions generated through ``runner.iter_execution_chunks``."""
    calls = []
    generate = runner.iter_execution_chunks

    def counted(*args, **kwargs):
        calls.append(args[0].key)
        return generate(*args, **kwargs)

    monkeypatch.setattr(runner, "iter_execution_chunks", counted)
    return calls


@pytest.fixture
def routes(monkeypatch):
    """The route of every plan made, in order."""
    made = []
    plan = RoutePlanner.plan

    def planned(self, request):
        result = plan(self, request)
        made.append(result.route)
        return result

    monkeypatch.setattr(RoutePlanner, "plan", planned)
    return made


def _workload(app="PR"):
    return build_workload(app, "lj", config=CONFIG)


# ---------------------------------------------------------------------------
# ChunkSpill
# ---------------------------------------------------------------------------

#: One array of every dtype the runner spills: OPT's blocks and next-use
#: links, and the held stream's byte addresses, hints, regions and PCs.
RUNNER_ARRAYS = {
    "blocks": np.array([3, 2**40 + 1, -1], dtype=np.int64),
    "next": np.array([7, 2**62, 0], dtype=np.int64),
    "addresses": np.array([0, 64, 2**45 + 7], dtype=np.int64),
    "hints": np.array([0, 1, 2, 3], dtype=np.uint8),
    "regions": np.array([-1, 0, 3], dtype=np.int8),
    "pcs": np.array([0, -5, 32767], dtype=np.int16),
}


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_spill_round_trips_every_runner_dtype(spills):
    with ChunkSpill() as spill:
        assert spills() == [spill.root.name]
        for index in range(3):
            for name, array in RUNNER_ARRAYS.items():
                spill.put(name, index, array[: 3 - index])
        spill.put("strided", 0, np.arange(20, dtype=np.int64)[::3])
        for _ in range(2):  # every read returns the stored array again
            for index in range(3):
                for name, array in RUNNER_ARRAYS.items():
                    got = spill.get(name, index)
                    _same(got, array[: 3 - index])
                    assert got.flags.writeable
        _same(spill.get("strided", 0), np.arange(20, dtype=np.int64)[::3])
    assert spills() == []


def test_spill_round_trips_empty_arrays(spills):
    with ChunkSpill() as spill:
        for name, array in RUNNER_ARRAYS.items():
            spill.put(name, 0, array[:0])
            spill.put(name, 1, array)
        for name, array in RUNNER_ARRAYS.items():
            _same(spill.get(name, 0), array[:0])
            _same(spill.get(name, 1), array)


def test_spill_serves_out_of_order_puts(spills):
    """OPT's reverse pass puts ``next`` from the last chunk to the first."""
    chunks = [np.arange(start, start + size, dtype=np.int64)
              for start, size in ((0, 5), (100, 0), (7, 3), (50, 9))]
    with ChunkSpill() as spill:
        for index, chunk in enumerate(chunks):
            spill.put("blocks", index, chunk)
        for index in reversed(range(len(chunks))):
            spill.put("next", index, spill.get("blocks", index) * 2)
        for index, chunk in enumerate(chunks):
            _same(spill.get("next", index), chunk * 2)
            _same(spill.get("blocks", index), chunk)


# ---------------------------------------------------------------------------
# the held stream
# ---------------------------------------------------------------------------


def _assert_chunks_equal(held, fresh):
    assert len(held) == len(fresh) > 1
    for got, want in zip(held, fresh):
        for field in dataclasses.fields(LLCTrace):
            left, right = getattr(got, field.name), getattr(want, field.name)
            if isinstance(right, np.ndarray):
                _same(left, right)
            else:
                assert left == right, field.name


@needs_fused
def test_held_chunks_equal_freshly_filtered_ones(spills, generations):
    """The pass holds the kernel's hints even when its one scheme reads
    none and it replays hint-blind."""
    workload = _workload()
    simulate_policy(
        workload, scheme_policy("SHiP-MEM"), CONFIG, streaming=True, use_hints=False
    )
    assert len(generations) == 1 and len(spills()) == 1
    held = list(llc_chunks(workload, CONFIG, streaming=True))
    assert len(generations) == 1  # served from the spill
    runner._drop_held()
    fresh = list(llc_chunks(workload, CONFIG, streaming=True))
    assert len(generations) == 2
    _assert_chunks_equal(held, fresh)


def test_single_scheme_calls_generate_the_execution_once(spills, generations, routes):
    """The first call's fused pass holds the stream; the rest replay it.
    Without the fused kernel every call is staged and nothing is held."""
    workload = _workload()
    for scheme in ("RRIP", "GRASP", "SHiP-MEM", "PIN-100", "OPT"):
        simulate_scheme(workload, scheme, CONFIG, streaming=True)
    staged = ROUTE_VECTOR if kernels.available() else ROUTE_SCALAR
    if FUSED:
        assert routes == [ROUTE_FUSED] + [staged] * 4
        assert len(generations) == 1
        assert len(spills()) == 1
    else:
        assert routes == [staged] * 5
        assert runner._HELD is None and spills() == []


@needs_fused
@pytest.mark.parametrize("before", ["nothing", "another-stream"])
def test_a_multi_scheme_pass_holds_no_stream(spills, routes, monkeypatch, before):
    """Nothing replays a comparison's stream, so its one pass spills only
    OPT's own arrays, removes that spill when it ends and leaves ``_HELD``
    as it found it."""
    if before == "another-stream":
        simulate_scheme(_workload("PR"), "RRIP", CONFIG, streaming=True)
    held, held_spills = runner._HELD, spills()
    names = []
    put = ChunkSpill.put

    def recorded(self, name, index, array):
        names.append(name)
        return put(self, name, index, array)

    monkeypatch.setattr(ChunkSpill, "put", recorded)
    simulate_schemes(_workload("SSSP"), ("GRASP", "SHiP-MEM", "OPT"), CONFIG, streaming=True)
    assert routes[-1] == ROUTE_FUSED
    assert "blocks" in names and "addresses" not in names
    assert runner._HELD is held
    assert spills() == held_spills


@needs_fused
@pytest.mark.parametrize("backend", ["scalar", "verify"])
def test_only_vector_requests_replay_the_held_stream(spills, generations, backend):
    """The reference backends filter the execution themselves, so the
    ``verify`` cross-check never compares the kernel's output with itself."""
    workload = _workload()
    simulate_scheme(workload, "RRIP", CONFIG, streaming=True)  # held
    key = runner._HELD.key
    assert runner._stream_stored(key, "vector")
    assert not runner._stream_stored(key, backend)
    reference = simulate_policy(
        workload, scheme_policy("GRASP"), CONFIG, streaming=True, backend=backend
    )
    assert len(generations) == 2
    replayed = simulate_policy(
        workload, scheme_policy("GRASP"), CONFIG, streaming=True, backend="vector"
    )
    assert len(generations) == 2
    for field in ("hits", "misses", "evictions", "region_accesses", "region_misses"):
        assert getattr(replayed, field) == getattr(reference, field), field


@needs_fused
def test_a_disk_memo_stays_the_only_store(spills, generations, routes, tmp_path):
    """Nothing is held or served under a disk memo, and draining the
    stream still persists every chunk (a staged replay's chunk store)."""
    workload = _workload()
    simulate_scheme(workload, "RRIP", CONFIG, streaming=True)  # held
    memo = DiskMemo(tmp_path / "memo")
    set_disk_memo(memo)
    chunks = sum(1 for _ in llc_chunks(workload, CONFIG, streaming=True))
    assert memo.entry_count("llcchunk") == chunks > 1
    assert len(generations) == 2
    clear_caches()
    other = _workload("SSSP")
    simulate_scheme(other, "RRIP", CONFIG, streaming=True)
    simulate_scheme(other, "GRASP", CONFIG, streaming=True)
    assert routes[-2:] == [ROUTE_FUSED, ROUTE_FUSED]
    assert runner._HELD is None and spills() == []


# ---------------------------------------------------------------------------
# spill hygiene
# ---------------------------------------------------------------------------


@needs_fused
def test_clear_caches_removes_the_spill(spills):
    simulate_scheme(_workload(), "RRIP", CONFIG, streaming=True)
    assert len(spills()) == 1
    clear_caches()
    assert runner._HELD is None and spills() == []


@needs_fused
def test_the_next_pass_replaces_the_spill(spills):
    simulate_scheme(_workload("PR"), "RRIP", CONFIG, streaming=True)
    (first,) = spills()
    simulate_scheme(_workload("SSSP"), "RRIP", CONFIG, streaming=True)
    (second,) = spills()
    assert second != first
    assert runner._HELD.key[0][0] == "SSSP"


@needs_fused
def test_a_pass_that_raises_leaves_no_spill(spills, monkeypatch):
    simulate_scheme(_workload("PR"), "RRIP", CONFIG, streaming=True)
    assert len(spills()) == 1
    generate = runner.iter_execution_chunks

    def breaks_mid_stream(*args, **kwargs):
        for index, chunk in enumerate(generate(*args, **kwargs)):
            if index == 2:
                raise RuntimeError("trace generation failed")
            yield chunk

    monkeypatch.setattr(runner, "iter_execution_chunks", breaks_mid_stream)
    with pytest.raises(RuntimeError, match="trace generation failed"):
        simulate_scheme(_workload("SSSP"), "RRIP", CONFIG, streaming=True)
    assert runner._HELD is None and spills() == []


def test_no_spill_outlives_a_process_that_simulated_two_schemes(tmp_path):
    code = (
        "import glob, os\n"
        "from repro.experiments.config import ExperimentConfig\n"
        "from repro.experiments.runner import build_workload, simulate_scheme\n"
        "config = ExperimentConfig.smoke().with_overrides(\n"
        "    backend='vector', chunk_accesses=1 << 12)\n"
        "workload = build_workload('PR', 'lj', config=config)\n"
        "for scheme in ('RRIP', 'GRASP'):\n"
        "    simulate_scheme(workload, scheme, config, streaming=True)\n"
        "print(len(glob.glob(os.path.join(os.environ['TMPDIR'], 'repro-spill-*'))))\n"
    )
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.getcwd(), "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=180, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ("1" if FUSED else "0")  # held while it ran
    assert list(tmp_path.glob("repro-spill-*")) == []


def _in_child():
    """A forked child inherits the held stream but must not read it: its
    reads would move the file offsets it shares with the parent."""
    assert runner._HELD is not None
    assert not runner._stream_stored(runner._HELD.key, "vector")
    clear_caches()


@needs_fused
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
def test_a_forked_worker_never_reads_or_removes_the_parents_spill(
    spills, generations, routes
):
    workload = _workload()
    simulate_scheme(workload, "RRIP", CONFIG, streaming=True)
    held = spills()
    child = multiprocessing.get_context("fork").Process(target=_in_child)
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert spills() == held
    simulate_scheme(workload, "GRASP", CONFIG, streaming=True)
    assert routes[-1] == ROUTE_VECTOR and len(generations) == 1
