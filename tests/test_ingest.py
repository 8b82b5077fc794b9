"""Out-of-core ingestion suite (ISSUE 8).

Covers the chunked parsers (edge-list / SNAP / Matrix-Market, gzip
transparent), malformed-input handling (loud ``GraphError``s, never silent
corruption), the binary-CSR cache (hits, torn writes, corruption recovery),
the out-of-core builder's bit-identity with the in-RAM ``build_csr``, the
``MmapCSRGraph`` backing (including the acceptance criterion: bit-identical
CacheStats through the trace pipeline against the in-RAM load), the vendored
sample graphs, and the checksum download tooling (over ``file://`` URLs).
"""

import gzip
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.analytics import get_application
from repro.cache.config import HierarchyConfig
from repro.experiments.runner import filter_trace, simulate_llc_policy
from repro.experiments.schemes import scheme_policy
from repro.graph.csr import CSRGraph, GraphError, MmapCSRGraph
from repro.graph.generators import _chung_lu_graph, _uniform_random_graph
from repro.graph.ingest import (
    CSRBinaryCache,
    EdgeListReader,
    MatrixMarketReader,
    ParseOptions,
    build_csr_cache_entry,
    detect_format,
    fetch_dataset,
    file_digest,
    ingest_graph,
    load_checksums,
    parse_graph,
    record_checksum,
    save_matrix_market,
    sha256_file,
    verify_file,
)
from repro.graph.io import _format_edge_block, _save_edge_list
from repro.trace import MemoryLayout, generate_iteration_trace

SAMPLES = Path(__file__).resolve().parent.parent / "data" / "samples"


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def graphs_equal(a: CSRGraph, b: CSRGraph) -> bool:
    if not (
        np.array_equal(np.asarray(a.out_index), np.asarray(b.out_index))
        and np.array_equal(np.asarray(a.out_targets), np.asarray(b.out_targets))
        and np.array_equal(np.asarray(a.in_index), np.asarray(b.in_index))
        and np.array_equal(np.asarray(a.in_sources), np.asarray(b.in_sources))
    ):
        return False
    if (a.out_weights is None) != (b.out_weights is None):
        return False
    if a.out_weights is not None:
        return np.array_equal(
            np.asarray(a.out_weights), np.asarray(b.out_weights)
        ) and np.array_equal(np.asarray(a.in_weights), np.asarray(b.in_weights))
    return True


# ---------------------------------------------------------------------------
# parser round-trips
# ---------------------------------------------------------------------------


class TestEdgeListRoundTrip:
    def test_unweighted_round_trip(self, tmp_path):
        graph = _chung_lu_graph(150, 5.0, seed=3, name="rt")
        path = tmp_path / "g.txt"
        _save_edge_list(graph, path)
        loaded = parse_graph(path)
        assert graphs_equal(graph, loaded)

    def test_weighted_round_trip(self, tmp_path):
        graph = _uniform_random_graph(90, 4.0, seed=5).with_random_weights(seed=6)
        path = tmp_path / "g.txt"
        _save_edge_list(graph, path)
        loaded = parse_graph(path)
        assert loaded.is_weighted
        assert graphs_equal(graph, loaded)

    def test_gzip_transparent(self, tmp_path):
        graph = _chung_lu_graph(80, 4.0, seed=9, name="gz")
        plain = tmp_path / "g.txt"
        _save_edge_list(graph, plain)
        gz = tmp_path / "g.txt.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        assert graphs_equal(graph, parse_graph(gz))

    def test_gzip_magic_sniffed_despite_extension(self, tmp_path):
        graph = _chung_lu_graph(60, 3.0, seed=2)
        plain = tmp_path / "a.txt"
        _save_edge_list(graph, plain)
        mislabelled = tmp_path / "b.txt"  # gzip bytes, .txt name
        mislabelled.write_bytes(gzip.compress(plain.read_bytes()))
        assert graphs_equal(graph, parse_graph(mislabelled))

    def test_matrix_market_round_trip(self, tmp_path):
        graph = _chung_lu_graph(70, 4.0, seed=4).with_random_weights(seed=5)
        path = tmp_path / "g.mtx"
        save_matrix_market(graph, path)
        assert detect_format(path) == "mtx"
        loaded = parse_graph(path)
        assert graphs_equal(graph, loaded)

    def test_format_edge_block_non_integral_weights(self):
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 0])
        weights = np.array([0.5, 1.25, 3e-7])
        block = _format_edge_block(src, dst, weights).decode()
        expected = "".join(f"{s} {d} {w:g}\n" for s, d, w in zip(src, dst, weights))
        assert block == expected

    def test_format_edge_block_integral_weights_match_g_format(self):
        weights = np.array([1.0, 34.0, 63.0])
        block = _format_edge_block(np.array([0, 1, 2]), np.array([1, 2, 0]), weights)
        assert block.decode() == "0 1 1\n1 2 34\n2 0 63\n"


# ---------------------------------------------------------------------------
# malformed inputs: loud errors, never silent corruption
# ---------------------------------------------------------------------------


class TestMalformedInputs:
    def test_comment_lines_and_blank_lines_skipped(self, tmp_path):
        path = write(
            tmp_path / "g.txt",
            "# comment\n% other comment style\n\n0 1\n1 2\n# mid-file comment\n2 0\n",
        )
        graph = parse_graph(path)
        assert graph.num_edges == 3

    def test_malformed_line_raises(self, tmp_path):
        path = write(tmp_path / "g.txt", "0 1\n7\n1 2\n")
        with pytest.raises(GraphError, match="malformed line"):
            parse_graph(path)

    def test_token_conserving_corruption_raises(self, tmp_path):
        # One 1-token line plus one 3-token line conserve the token count of
        # two 2-token rows; a naive split-and-reshape would silently mis-pair.
        path = write(tmp_path / "g.txt", "0 1\n3\n4 5 6\n0 2\n")
        with pytest.raises(GraphError, match="malformed line"):
            parse_graph(path)

    def test_text_garbage_raises(self, tmp_path):
        path = write(tmp_path / "g.txt", "0 1\nnot an edge\n")
        with pytest.raises(GraphError, match="malformed line"):
            parse_graph(path)

    def test_non_integer_ids_raise(self, tmp_path):
        path = write(tmp_path / "g.txt", "0 1\n1.5 2\n")
        with pytest.raises(GraphError, match="non-integer vertex IDs"):
            parse_graph(path)

    def test_negative_ids_raise(self, tmp_path):
        path = write(tmp_path / "g.txt", "0 1\n-1 2\n")
        with pytest.raises(GraphError, match="malformed line|negative"):
            parse_graph(path)

    def test_mixed_column_counts_raise(self, tmp_path):
        path = write(tmp_path / "g.txt", "0 1 2.5\n1 2\n")
        with pytest.raises(GraphError, match="malformed line"):
            parse_graph(path)

    def test_truncated_gzip_raises(self, tmp_path):
        graph = _chung_lu_graph(120, 5.0, seed=7)
        plain = tmp_path / "g.txt"
        _save_edge_list(graph, plain)
        payload = gzip.compress(plain.read_bytes())
        truncated = tmp_path / "g.txt.gz"
        truncated.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(GraphError, match="gzip"):
            parse_graph(truncated)

    def test_declared_vertices_below_max_id_raises(self, tmp_path):
        path = write(tmp_path / "g.txt", "# vertices=2 edges=2\n0 1\n1 5\n")
        with pytest.raises(GraphError, match="declared 2 vertices"):
            parse_graph(path)

    def test_zero_degree_tail_from_header(self, tmp_path):
        path = write(tmp_path / "g.txt", "# vertices=10 edges=2\n0 1\n1 2\n")
        graph = parse_graph(path)
        assert graph.num_vertices == 10
        assert graph.out_degrees[3:].sum() == 0

    def test_snap_nodes_header_declares_vertices(self, tmp_path):
        path = write(tmp_path / "g.txt", "# Nodes: 9 Edges: 2\n0\t1\n1\t2\n")
        graph = parse_graph(path)
        assert graph.num_vertices == 9

    def test_self_loops_kept_by_default_and_removable(self, tmp_path):
        path = write(tmp_path / "g.txt", "0 0\n0 1\n1 1\n")
        assert parse_graph(path).num_edges == 3
        pruned = parse_graph(path, ParseOptions(remove_self_loops=True))
        assert pruned.num_edges == 1

    def test_duplicate_edges_preserved(self, tmp_path):
        path = write(tmp_path / "g.txt", "0 1\n0 1\n0 1\n")
        assert parse_graph(path).num_edges == 3

    def test_non_contiguous_ids_densify(self, tmp_path):
        path = write(tmp_path / "g.txt", "10 20\n20 1000000\n")
        sparse = parse_graph(path)
        assert sparse.num_vertices == 1000001
        dense = parse_graph(path, ParseOptions(densify=True))
        assert dense.num_vertices == 3
        assert dense.num_edges == 2
        assert sorted(dense.edge_arrays()[0].tolist()) == [0, 1]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(GraphError, match="no such graph file"):
            parse_graph(tmp_path / "absent.txt")

    def test_four_column_file_raises(self, tmp_path):
        path = write(tmp_path / "g.txt", "0 1 2 3\n")
        with pytest.raises(GraphError, match="columns"):
            parse_graph(path)


class TestMatrixMarketErrors:
    def test_bad_banner_raises(self, tmp_path):
        path = write(tmp_path / "g.mtx", "%%NotMatrixMarket nope\n2 2 1\n1 2\n")
        with pytest.raises(GraphError, match="banner"):
            parse_graph(path)

    def test_truncated_entries_raise(self, tmp_path):
        path = write(
            tmp_path / "g.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n2 3\n",
        )
        with pytest.raises(GraphError, match="truncated"):
            parse_graph(path)

    def test_excess_entries_raise(self, tmp_path):
        path = write(
            tmp_path / "g.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n2 3\n",
        )
        with pytest.raises(GraphError, match="more than the declared"):
            parse_graph(path)

    def test_non_square_raises(self, tmp_path):
        path = write(
            tmp_path / "g.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n3 4 1\n1 2\n",
        )
        with pytest.raises(GraphError, match="square"):
            parse_graph(path)

    def test_out_of_range_index_raises(self, tmp_path):
        path = write(
            tmp_path / "g.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 9\n",
        )
        with pytest.raises(GraphError, match="out of range"):
            parse_graph(path)

    def test_symmetric_mirrors_off_diagonal_once(self, tmp_path):
        path = write(
            tmp_path / "g.mtx",
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 3\n",
        )
        graph = parse_graph(path)
        # two off-diagonal entries mirrored + one diagonal kept once
        assert graph.num_edges == 5


# ---------------------------------------------------------------------------
# out-of-core builder == in-RAM builder, bit for bit
# ---------------------------------------------------------------------------


class TestOutOfCoreBuilder:
    @pytest.mark.parametrize("chunk_edges", [7, 64, 1 << 20])
    def test_bit_identical_to_build_csr(self, tmp_path, chunk_edges):
        graph = _chung_lu_graph(300, 6.0, seed=13, name="ooc").with_random_weights(seed=14)
        path = tmp_path / "g.txt"
        _save_edge_list(graph, path)
        entry = tmp_path / "entry"
        build_csr_cache_entry(path, entry, chunk_edges=chunk_edges)
        cache = CSRBinaryCache(tmp_path / "root")
        cache.root.mkdir(parents=True)
        key = cache.entry_key(path)
        shutil.move(str(entry), str(cache.entry_dir(key)))
        loaded = cache.load(key)
        assert loaded is not None
        assert graphs_equal(graph, loaded)

    @pytest.mark.parametrize("chunk_edges", [5, 1 << 20])
    def test_densify_matches_in_ram_parse(self, tmp_path, chunk_edges):
        rng = np.random.default_rng(3)
        ids = rng.choice(5000, size=40, replace=False)
        edges = rng.choice(ids, size=(120, 2))
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{s} {t}\n" for s, t in edges))
        options = ParseOptions(densify=True)
        in_ram = parse_graph(path, options)
        out_of_core = ingest_graph(
            path, mmap=True, densify=True,
            cache_root=tmp_path / "cache", chunk_edges=chunk_edges,
        )
        assert graphs_equal(in_ram, out_of_core)

    def test_empty_graph(self, tmp_path):
        path = write(tmp_path / "g.txt", "# vertices=4 edges=0\n")
        graph = ingest_graph(path, mmap=True, cache_root=tmp_path / "cache")
        assert graph.num_vertices == 4
        assert graph.num_edges == 0


# ---------------------------------------------------------------------------
# binary-CSR cache behaviour
# ---------------------------------------------------------------------------


class TestCSRBinaryCache:
    def make_file(self, tmp_path, seed=1):
        graph = _chung_lu_graph(120, 4.0, seed=seed, name="cached")
        path = tmp_path / f"g{seed}.txt"
        _save_edge_list(graph, path)
        return graph, path

    def test_cache_hit_skips_reparse(self, tmp_path):
        graph, path = self.make_file(tmp_path)
        cache = CSRBinaryCache(tmp_path / "cache")
        key = cache.store(path)
        assert cache.entry_count() == 1
        # Delete the source: a hit must not touch it (entry_key needs the
        # digest, which is cached in-process by (path, size, mtime)).
        loaded = cache.load(key)
        assert loaded is not None and graphs_equal(graph, loaded)
        assert cache.store(path) == key
        assert cache.entry_count() == 1

    def test_mmap_backing(self, tmp_path):
        _, path = self.make_file(tmp_path)
        graph = ingest_graph(path, mmap=True, cache_root=tmp_path / "cache")
        assert isinstance(graph, MmapCSRGraph)
        assert graph.is_mmap
        assert isinstance(graph.out_targets, np.memmap)
        materialized = graph.materialize()
        assert not materialized.is_mmap
        assert graphs_equal(graph, materialized)

    def test_corrupt_meta_is_miss_and_rebuilt(self, tmp_path):
        graph, path = self.make_file(tmp_path)
        cache = CSRBinaryCache(tmp_path / "cache")
        key = cache.store(path)
        (cache.entry_dir(key) / "meta.json").write_text("{ torn json")
        assert cache.load(key) is None
        assert cache.store(path) == key
        rebuilt = cache.load(key)
        assert rebuilt is not None and graphs_equal(graph, rebuilt)

    def test_truncated_array_is_miss(self, tmp_path):
        _, path = self.make_file(tmp_path)
        cache = CSRBinaryCache(tmp_path / "cache")
        key = cache.store(path)
        target = cache.entry_dir(key) / "out_targets.npy"
        target.write_bytes(target.read_bytes()[:40])
        assert cache.load(key) is None

    def test_wrong_version_is_miss(self, tmp_path):
        _, path = self.make_file(tmp_path)
        cache = CSRBinaryCache(tmp_path / "cache")
        key = cache.store(path)
        meta_path = cache.entry_dir(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 999
        meta_path.write_text(json.dumps(meta))
        assert cache.load(key) is None

    def test_missing_meta_is_miss(self, tmp_path):
        cache = CSRBinaryCache(tmp_path / "cache")
        assert cache.load("0" * 64) is None

    def test_content_change_changes_entry(self, tmp_path):
        _, path = self.make_file(tmp_path)
        cache = CSRBinaryCache(tmp_path / "cache")
        key1 = cache.entry_key(path)
        path.write_text(path.read_text() + "0 1\n")
        assert cache.entry_key(path) != key1

    def test_options_change_entry_key(self, tmp_path):
        _, path = self.make_file(tmp_path)
        cache = CSRBinaryCache(tmp_path / "cache")
        assert cache.entry_key(path) != cache.entry_key(
            path, ParseOptions(remove_self_loops=True)
        )

    def test_parse_error_leaves_no_tmp_dirs(self, tmp_path):
        path = write(tmp_path / "bad.txt", "0 1\ngarbage\n")
        cache = CSRBinaryCache(tmp_path / "cache")
        with pytest.raises(GraphError):
            cache.store(path)
        leftovers = [p for p in cache.root.iterdir()] if cache.root.exists() else []
        assert leftovers == []

    def test_auto_mmap_prefers_existing_entry(self, tmp_path):
        _, path = self.make_file(tmp_path)
        cache_root = tmp_path / "cache"
        small = ingest_graph(path, mmap="auto", cache_root=cache_root)
        assert not small.is_mmap  # small file parses straight to RAM
        ingest_graph(path, mmap=True, cache_root=cache_root)
        cached = ingest_graph(path, mmap="auto", cache_root=cache_root)
        assert cached.is_mmap  # once an entry exists, auto uses it


# ---------------------------------------------------------------------------
# MmapCSRGraph through the pipeline (acceptance criterion)
# ---------------------------------------------------------------------------


def pipeline_stats(graph: CSRGraph, scheme: str = "GRASP"):
    """App run -> ROI trace -> L1/L2 filter -> LLC replay, no memoisation."""
    app = get_application("PR")
    root = int(np.argmax(np.asarray(graph.out_degrees)))
    result = app.run(graph, root=root)
    candidates = result.iterations_in_direction(app.dominant_direction) or result.iterations
    roi = max(candidates, key=lambda record: record.active_vertices)
    layout = MemoryLayout(graph, app.access_profile())
    trace = generate_iteration_trace(
        graph, layout, roi.direction, frontier=roi.frontier
    )
    hierarchy = HierarchyConfig()
    llc = filter_trace(trace, hierarchy, layout)
    return simulate_llc_policy(llc, scheme_policy(scheme), hierarchy.llc)


class TestMmapPipelineEquivalence:
    @pytest.mark.parametrize("scheme", ["LRU", "RRIP", "GRASP"])
    def test_cachestats_bit_identical_ram_vs_mmap(self, tmp_path, scheme):
        source = _chung_lu_graph(250, 6.0, seed=23, name="accept")
        path = tmp_path / "g.txt"
        _save_edge_list(source, path)
        ram = ingest_graph(path, mmap=False)
        mm = ingest_graph(path, mmap=True, cache_root=tmp_path / "cache", chunk_edges=97)
        assert not ram.is_mmap and mm.is_mmap
        assert pipeline_stats(ram, scheme) == pipeline_stats(mm, scheme)

    def test_consumers_work_on_mmap_backing(self, tmp_path):
        from repro.graph.properties import skew_report
        from repro.reorder import get_technique

        source = _chung_lu_graph(150, 5.0, seed=29, name="g")
        path = tmp_path / "g.txt"
        _save_edge_list(source, path)
        mm = ingest_graph(path, mmap=True, cache_root=tmp_path / "cache")
        assert skew_report(mm) == skew_report(source)
        reordered = get_technique("dbg").apply(mm).graph
        reference = get_technique("dbg").apply(source).graph
        assert graphs_equal(reordered, reference)


# ---------------------------------------------------------------------------
# vendored samples
# ---------------------------------------------------------------------------


class TestVendoredSamples:
    def test_checksums_cover_all_samples(self):
        checksums = load_checksums(SAMPLES)
        files = {
            p.name for p in SAMPLES.iterdir()
            if p.name not in ("CHECKSUMS.sha256", "README.md")
        }
        assert set(checksums) == files

    def test_checksums_verify(self):
        for filename, digest in load_checksums(SAMPLES).items():
            verify_file(SAMPLES / filename, digest)

    @pytest.mark.parametrize(
        "filename,weighted",
        [
            ("powerlaw-small.txt.gz", False),
            ("uniform-small-weighted.txt", True),
            ("snap-style.txt", False),
            ("mm-small.mtx", True),
            ("mm-symmetric.mtx", False),
        ],
    )
    def test_samples_parse(self, filename, weighted, tmp_path):
        ram = parse_graph(SAMPLES / filename)
        assert ram.num_edges > 0
        assert ram.is_weighted == weighted
        mm = ingest_graph(
            SAMPLES / filename, mmap=True, cache_root=tmp_path / "cache",
            chunk_edges=64,
        )
        assert graphs_equal(ram, mm)

    def test_snap_sample_has_zero_degree_tail(self):
        graph = parse_graph(SAMPLES / "snap-style.txt")
        assert graph.num_vertices == 200  # declared, beyond the max edge id
        degrees = np.asarray(graph.out_degrees) + np.asarray(graph.in_degrees)
        assert (degrees == 0).any()


# ---------------------------------------------------------------------------
# download / verify tooling (file:// URLs; no network)
# ---------------------------------------------------------------------------


class TestFetchDataset:
    def make_remote(self, tmp_path):
        remote = tmp_path / "remote"
        remote.mkdir()
        payload = remote / "tiny.txt"
        payload.write_text("0 1\n1 2\n")
        return payload

    def test_fetch_records_trust_on_first_use(self, tmp_path):
        payload = self.make_remote(tmp_path)
        dest_dir = tmp_path / "data"
        dest = fetch_dataset(payload.as_uri(), dest_dir)
        assert dest.read_text() == payload.read_text()
        assert load_checksums(dest_dir)["tiny.txt"] == sha256_file(dest)

    def test_refetch_verifies_against_lockfile(self, tmp_path):
        payload = self.make_remote(tmp_path)
        dest_dir = tmp_path / "data"
        fetch_dataset(payload.as_uri(), dest_dir)
        # Upstream silently changes: re-download must fail the lockfile check.
        payload.write_text("9 9\n")
        with pytest.raises(GraphError, match="checksum mismatch"):
            fetch_dataset(payload.as_uri(), dest_dir, force=True)

    def test_existing_corrupt_file_detected(self, tmp_path):
        payload = self.make_remote(tmp_path)
        dest_dir = tmp_path / "data"
        dest = fetch_dataset(payload.as_uri(), dest_dir)
        dest.write_text("tampered\n")
        with pytest.raises(GraphError, match="checksum mismatch"):
            fetch_dataset(payload.as_uri(), dest_dir)

    def test_explicit_sha256_enforced(self, tmp_path):
        payload = self.make_remote(tmp_path)
        with pytest.raises(GraphError, match="checksum mismatch"):
            fetch_dataset(payload.as_uri(), tmp_path / "data", sha256="ab" * 32)

    def test_unknown_name_raises(self, tmp_path):
        with pytest.raises(GraphError, match="unknown dataset"):
            fetch_dataset("no-such-dataset", tmp_path)

    def test_record_checksum_round_trip(self, tmp_path):
        record_checksum(tmp_path, "a.txt", "AB" * 32)
        record_checksum(tmp_path, "b.txt", "cd" * 32)
        checksums = load_checksums(tmp_path)
        assert checksums == {"a.txt": "ab" * 32, "b.txt": "cd" * 32}

    def test_file_digest_tracks_content(self, tmp_path):
        path = write(tmp_path / "f.txt", "hello\n")
        first = file_digest(path)
        assert first == sha256_file(path)
        path.write_text("changed content\n")
        assert file_digest(path) != first


class TestReaders:
    def test_edge_list_reader_chunks_bounded(self, tmp_path):
        graph = _chung_lu_graph(100, 5.0, seed=31)
        path = tmp_path / "g.txt"
        _save_edge_list(graph, path)
        reader = EdgeListReader(path, chunk_edges=13)
        sizes = [len(chunk) for chunk in reader.chunks()]
        assert sum(sizes) == graph.num_edges
        assert max(sizes) <= 13

    def test_matrix_market_reader_declares_vertices(self, tmp_path):
        path = write(
            tmp_path / "g.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n%\n7 7 2\n1 2\n2 3\n",
        )
        reader = MatrixMarketReader(path)
        list(reader.chunks())
        assert reader.declared_vertices == 7
