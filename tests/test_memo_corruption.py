"""Regression tests: corrupt or contended DiskMemo entries never poison a sweep.

The store is the service's single source of truth ("task done" == "memo entry
loads"), so a truncated, bit-flipped or garbage entry must read as a *miss* —
the scheduler recomputes exactly the damaged tasks and repairs the entries in
place, and the resulting DataPoints stay bit-identical.  The atomic
``os.replace`` write path must also hold up under concurrent writers: readers
see either nothing or a complete entry, never a torn one.
"""

import multiprocessing
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import assert_points_equal

from repro.experiments import (
    DiskMemo,
    ExperimentConfig,
    build_workload,
    clear_caches,
    compare_policies,
    set_disk_memo,
    simulate_policy,
)
from repro.experiments.queue import InlineBackend
from repro.experiments.schemes import scheme_policy
from repro.experiments.service import MemoTaskStore, SweepSpec, run_sweep, sweep_tasks
from repro.fastsim.pipeline import fused_native_supported

pytestmark = pytest.mark.usefixtures("memo_isolation")

APPS = ("PR",)
DATASETS = ("lj",)
SCHEMES = ("RRIP", "GRASP")

SPEC = SweepSpec(apps=APPS, datasets=DATASETS, schemes=SCHEMES)
STREAM_SPEC = SweepSpec(apps=APPS, datasets=DATASETS, schemes=SCHEMES, streaming=True)


def _task_paths(memo: DiskMemo, config, spec: SweepSpec = SPEC) -> dict:
    """label -> on-disk memo path for every task of the spec's DAG."""
    return {
        task.label: memo.path_for(task.kind, task.store_key)
        for task in sweep_tasks(spec, config, memo.root.parent)
    }


def _run(config, cache_dir, spec: SweepSpec = SPEC, **kwargs):
    return run_sweep(
        spec, config=config, cache_dir=cache_dir, workers=2,
        worker_backend=InlineBackend(), **kwargs,
    )


class TestCorruptEntriesAreMisses:
    def test_damaged_entries_are_recomputed_and_repaired(self, tmp_path):
        config = ExperimentConfig.smoke()
        serial = compare_policies(APPS, DATASETS, SCHEMES, config=config)
        clear_caches()
        set_disk_memo(None)

        first = _run(config, tmp_path)
        assert first.report.executed == 4  # workload, filter, 2 schemes
        memo = DiskMemo(tmp_path)
        paths = _task_paths(memo, config)

        # Three distinct damage modes across the three task kinds.
        truncated = paths["GRASP PR/lj"]
        truncated.write_bytes(truncated.read_bytes()[: truncated.stat().st_size // 2])
        flipped = paths["workload PR/lj"]
        blob = bytearray(flipped.read_bytes())
        blob[0] ^= 0xFF  # clobber the entry magic: guaranteed load failure
        flipped.write_bytes(bytes(blob))
        paths["filter PR/lj"].write_bytes(b"not a pickle at all")

        clear_caches()
        set_disk_memo(None)
        second = _run(config, tmp_path)
        # Exactly the three damaged tasks rerun; the intact scheme stays cached.
        assert second.report.executed == 3
        assert second.report.cached == 1
        assert_points_equal(serial, second.points)
        for path in paths.values():
            assert path.exists()
        for task in sweep_tasks(SPEC, config, tmp_path):
            # Repaired entries load cleanly again.
            assert memo.get(task.kind, task.store_key) is not None

    def test_missing_entry_is_a_miss(self, tmp_path):
        config = ExperimentConfig.smoke()
        _run(config, tmp_path)
        memo = DiskMemo(tmp_path)
        paths = _task_paths(memo, config)
        paths["RRIP PR/lj"].unlink()

        clear_caches()
        set_disk_memo(None)
        again = _run(config, tmp_path)
        assert again.report.executed == 1
        assert again.report.cached == 3

    def test_damaged_streaming_filter_entry_is_repaired_once(self, tmp_path):
        """The filter task's entry is the stream manifest it stores, so a
        damaged one is rewritten by the first rerun and cached after that."""
        config = ExperimentConfig.smoke().with_overrides(chunk_accesses=4096)
        _run(config, tmp_path, STREAM_SPEC)
        memo = DiskMemo(tmp_path)
        _task_paths(memo, config, STREAM_SPEC)["filter PR/lj"].write_bytes(b"not a pickle")
        executed = []
        for _ in range(2):
            clear_caches()
            set_disk_memo(None)
            executed.append(_run(config, tmp_path, STREAM_SPEC).report.executed)
        assert executed == [1, 0]

    @pytest.mark.parametrize("spec", [SPEC, STREAM_SPEC], ids=["roi", "execution"])
    def test_fused_pass_leaves_the_filter_task_undone(self, tmp_path, spec):
        """A fused pass writes the scope's counter summary but no chunk, so
        the filter task (keyed on the manifest) must still look undone."""
        config = ExperimentConfig.smoke().with_overrides(backend="vector")
        policy = scheme_policy("GRASP")
        if not fused_native_supported(policy, config.hierarchy):
            pytest.skip("no fused kernel available")
        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        workload = build_workload("PR", "lj", config=config)
        simulate_policy(workload, policy, config, streaming=spec.streaming)
        assert memo.entry_count("llcchunk") == 0
        assert memo.entry_count("llcstream") == 1
        store = MemoTaskStore(memo)
        (filter_task,) = [
            task for task in sweep_tasks(spec, config, tmp_path)
            if task.label == "filter PR/lj"
        ]
        assert not store.is_done(filter_task)

    def test_contains_rejects_corrupt_entries(self, tmp_path):
        memo = DiskMemo(tmp_path)
        memo.put("unit", ("k",), {"v": 1})
        assert memo.contains("unit", ("k",))
        memo.path_for("unit", ("k",)).write_bytes(b"\x80\x04garbage")
        assert not memo.contains("unit", ("k",))
        assert memo.get("unit", ("k",)) is None


# ---------------------------------------------------------------------------
# the v4 entry layout: header | pickle stream | out-of-band buffers
# ---------------------------------------------------------------------------

HEAD = struct.Struct("<8sQQ")  # magic, pickle length, buffer count
VALUE = {"ids": np.arange(1000, dtype=np.int64), "weights": np.linspace(0, 1, 500), "tag": "x"}


def _layout(blob: bytes):
    """(header length, pickle length, buffer lengths) of an entry's bytes."""
    _, stream_length, count = HEAD.unpack_from(blob)
    lengths = struct.unpack_from(f"<{count}Q", blob, HEAD.size)
    return HEAD.size + 8 * count, stream_length, lengths


def _declare_extra_buffer(blob: bytes) -> bytes:
    header, stream_length, lengths = _layout(blob)
    count = len(lengths) + 1
    table = struct.pack(f"<{count}Q", *lengths, 64)
    return HEAD.pack(blob[:8], stream_length, count) + table + blob[header:]


def _truncate_in_buffers(blob: bytes) -> bytes:
    header, stream_length, lengths = _layout(blob)
    return blob[: header + stream_length + lengths[0] // 2]


DAMAGE = {
    "truncated in fixed header": lambda blob: blob[: HEAD.size - 3],
    "truncated in length table": lambda blob: blob[: HEAD.size + 4],
    "truncated in buffer region": _truncate_in_buffers,
    "bad magic": lambda blob: b"NOTMEMO!" + blob[8:],
    "extra buffer declared": _declare_extra_buffer,
    # Sizes add up, but the stream never consumes the extra buffer.
    "extra buffer declared and present": lambda blob: _declare_extra_buffer(blob) + bytes(64),
    "legacy plain pickle": lambda blob: pickle.dumps(VALUE, protocol=pickle.HIGHEST_PROTOCOL),
    "empty file": lambda blob: b"",
}

ARRAYS = (
    "c_contiguous", "f_contiguous", "strided", "empty", "zero_d", "object", "read_only_memmap",
)


def _array(name: str, tmp_path):
    if name == "read_only_memmap":
        backing = tmp_path / "backing.bin"
        np.arange(24, dtype=np.int32).tofile(backing)
        return np.memmap(backing, dtype=np.int32, mode="r")
    return {
        "c_contiguous": np.arange(12.0).reshape(3, 4),
        "f_contiguous": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        "strided": np.arange(40)[::3],
        "empty": np.empty((0, 5)),
        "zero_d": np.array(7.5),
        "object": np.array([1, "two", None], dtype=object),
    }[name]


class TestEntryLayout:
    def test_intact_entry_round_trips(self, tmp_path):
        memo = DiskMemo(tmp_path)
        memo.put("unit", ("k",), VALUE)
        assert memo.contains("unit", ("k",))
        loaded = memo.get("unit", ("k",))
        assert loaded["tag"] == "x"
        np.testing.assert_array_equal(loaded["ids"], VALUE["ids"])
        np.testing.assert_array_equal(loaded["weights"], VALUE["weights"])

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_contains_and_get_agree_that_damage_is_a_miss(self, tmp_path, damage):
        memo = DiskMemo(tmp_path)
        memo.put("unit", ("k",), VALUE)
        path = memo.path_for("unit", ("k",))
        path.write_bytes(DAMAGE[damage](path.read_bytes()))
        assert memo.contains("unit", ("k",)) is False
        assert memo.get("unit", ("k",)) is None

    @pytest.mark.parametrize("name", ARRAYS)
    def test_arrays_round_trip_writable(self, tmp_path, name):
        array = _array(name, tmp_path)
        memo = DiskMemo(tmp_path / "memo")
        memo.put("unit", (name,), {"array": array})
        assert memo.contains("unit", (name,))
        loaded = memo.get("unit", (name,))["array"]
        assert loaded.shape == array.shape
        assert loaded.dtype == array.dtype
        np.testing.assert_array_equal(loaded, array)
        assert loaded.flags.writeable
        loaded[...] = loaded

    def test_contains_never_reads_the_array_bytes(self, tmp_path):
        memo = DiskMemo(tmp_path)
        memo.put("unit", ("big",), {"trace": np.ones(8 << 20)})  # 64 MB
        tracemalloc.start()
        try:
            assert memo.contains("unit", ("big",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unpicklable_value_raises_and_leaves_no_temp_file(self, tmp_path):
        memo = DiskMemo(tmp_path)
        memo.put("unit", ("ok",), 1)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            memo.put("unit", ("bad",), {"fn": lambda: None})
        assert list(memo.root.rglob("*.tmp.*")) == []
        assert not memo.contains("unit", ("bad",))


def _hammer_put(root: str, worker_id: int, rounds: int) -> None:
    memo = DiskMemo(root)
    payload = {"worker": worker_id, "blob": list(range(2000))}
    for _ in range(rounds):
        memo.put("race", ("shared-key",), payload)


class TestConcurrentWriters:
    def test_reader_never_sees_a_torn_entry(self, tmp_path):
        memo = DiskMemo(tmp_path)
        writers = [
            multiprocessing.Process(target=_hammer_put, args=(str(tmp_path), wid, 150))
            for wid in range(2)
        ]
        for proc in writers:
            proc.start()
        observed = set()
        try:
            while any(proc.is_alive() for proc in writers):
                value = memo.get("race", ("shared-key",))
                if value is not None:
                    # A torn read would fail here (get would raise or return junk).
                    assert value["blob"] == list(range(2000))
                    observed.add(value["worker"])
        finally:
            for proc in writers:
                proc.join(timeout=30)
        assert all(proc.exitcode == 0 for proc in writers)
        final = memo.get("race", ("shared-key",))
        assert final is not None and final["blob"] == list(range(2000))
        # os.replace cleaned up after itself: no temp files left behind.
        leftovers = [p for p in memo.root.rglob("*.tmp.*")]
        assert leftovers == []

    def test_sequential_second_client_dedups_everything(self, tmp_path):
        config = ExperimentConfig.smoke()
        first = _run(config, tmp_path)
        assert first.report.executed == 4
        clear_caches()
        set_disk_memo(None)
        second = _run(config, tmp_path)
        assert second.report.executed == 0
        assert second.report.cached == 4
        assert_points_equal(first.points, second.points)
