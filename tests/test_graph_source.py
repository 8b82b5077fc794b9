"""Unified ``repro.graph.load`` GraphSource API (ISSUE 8, satellite 1/2).

Covers the spec grammar (``"lj"``, ``"rmat:scale=8,seed=7"``,
``"file:g.txt?densify=true"``, ``"mtx:g.mtx"``), spec canonicalization
(synthetic specs byte-identical, file specs content-addressed), the source
registry, equivalence with the deprecated per-mechanism entry points, the
DeprecationWarning wrappers themselves, memo-key stability through the
experiment runner, and the new CLI surface (``--graph``, ``repro graph``).
"""

import warnings

import numpy as np
import pytest

from repro.experiments.cli import _spec_from_args, build_parser, main
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import canonical_dataset, workload_memo_key
from repro.graph.csr import GraphError
from repro.graph.datasets import _get_dataset
from repro.graph.generators import _chung_lu_graph, _rmat_graph
from repro.graph.io import _save_edge_list
from repro.graph.source import (
    _SOURCES,
    GraphSource,
    LoadContext,
    canonical_spec,
    describe_spec,
    list_sources,
    load,
    load_for_experiment,
    parse_spec_kwargs,
    register_source,
    save,
    split_spec,
)


def arrays_equal(a, b):
    return (
        np.array_equal(np.asarray(a.out_index), np.asarray(b.out_index))
        and np.array_equal(np.asarray(a.out_targets), np.asarray(b.out_targets))
    )


# ---------------------------------------------------------------------------
# spec grammar
# ---------------------------------------------------------------------------


class TestSpecGrammar:
    def test_split_spec(self):
        assert split_spec("lj") == ("lj", "")
        assert split_spec("rmat:scale=8") == ("rmat", "scale=8")
        assert split_spec("file:a:b.txt") == ("file", "a:b.txt")

    def test_parse_spec_kwargs_coercion(self):
        kwargs = parse_spec_kwargs("scale=8,seed=7,ef=1.5,dedup=true,name=x", "rmat")
        assert kwargs == {"scale": 8, "seed": 7, "ef": 1.5, "dedup": True, "name": "x"}

    def test_parse_spec_kwargs_malformed(self):
        with pytest.raises(GraphError, match="key=value"):
            parse_spec_kwargs("scale", "rmat")
        with pytest.raises(GraphError, match="key=value"):
            parse_spec_kwargs("=8", "rmat")

    def test_unknown_head_lists_known_heads(self):
        with pytest.raises(GraphError, match="unknown graph spec"):
            load("no-such-head:x=1")
        with pytest.raises(GraphError, match="rmat"):
            load("definitely-not-a-source")

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(GraphError, match="unknown parameter"):
            load("rmat:scale=6,bogus=1")

    def test_missing_required_kwarg(self):
        with pytest.raises(GraphError, match="scale"):
            load("rmat:seed=3")
        with pytest.raises(GraphError, match="requires"):
            load("chung-lu:n=100")

    def test_dataset_head_forbids_rest(self):
        with pytest.raises(GraphError, match="takes no parameters"):
            load("lj:foo=1")


# ---------------------------------------------------------------------------
# load() equivalence with the deprecated entry points
# ---------------------------------------------------------------------------


class TestLoadEquivalence:
    def test_dataset_spec_matches_get_dataset(self):
        via_load = load("uni", scale=0.05, seed=42)
        direct = _get_dataset("uni", scale=0.05, seed=42)
        assert arrays_equal(via_load, direct)
        assert via_load.name == direct.name

    def test_generator_spec_matches_generator(self):
        via_load = load("rmat:scale=8,ef=4,seed=7")
        direct = _rmat_graph(scale=8, edge_factor=4, seed=7)
        assert arrays_equal(via_load, direct)

    def test_generator_alias_kwargs(self):
        a = load("chung-lu:n=120,deg=5,seed=3")
        b = _chung_lu_graph(120, 5.0, seed=3)
        assert arrays_equal(a, b)

    def test_generator_seed_defaults_to_context(self):
        assert arrays_equal(load("rmat:scale=7", seed=9), load("rmat:scale=7,seed=9"))

    def test_file_spec(self, tmp_path, monkeypatch):
        graph = _chung_lu_graph(100, 4.0, seed=17, name="f")
        path = tmp_path / "f.txt"
        _save_edge_list(graph, path)
        loaded = load(f"file:{path}", cache_root=tmp_path / "cache")
        assert arrays_equal(graph, loaded)

    def test_file_spec_with_options(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("10 20\n20 30\n")
        loaded = load(f"file:{path}?densify=true", cache_root=tmp_path / "cache")
        assert loaded.num_vertices == 3

    def test_file_spec_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="cannot stat graph file"):
            load(f"file:{tmp_path}/absent.txt")

    def test_weighted_context_adds_weights(self, tmp_path):
        graph = load("uniform:n=80,deg=3", seed=4, weighted=True)
        assert graph.is_weighted
        reference = load("uniform:n=80,deg=3", seed=4).with_random_weights(seed=5)
        assert np.array_equal(
            np.asarray(graph.out_weights), np.asarray(reference.out_weights)
        )

    def test_weighted_context_respects_existing_weights(self, tmp_path):
        graph = _chung_lu_graph(60, 3.0, seed=1, name="w").with_random_weights(seed=2)
        path = tmp_path / "w.txt"
        _save_edge_list(graph, path)
        loaded = load(f"file:{path}", weighted=True, cache_root=tmp_path / "cache")
        assert np.array_equal(
            np.asarray(graph.out_weights), np.asarray(loaded.out_weights)
        )

    def test_scale_applies_to_datasets_only_via_experiment(self):
        small = load_for_experiment("uni", scale=0.02, seed=42, weighted=False)
        big = load_for_experiment("uni", scale=0.05, seed=42, weighted=False)
        assert small.num_vertices < big.num_vertices


# ---------------------------------------------------------------------------
# canonicalization & memo keys
# ---------------------------------------------------------------------------


class TestCanonicalSpec:
    def test_synthetic_specs_are_identity(self):
        # Byte-identity keeps every existing memo key valid (MEMO_VERSION
        # unchanged); do not "normalize" synthetic specs.
        for spec in ("lj", "tw", "uni", "rmat:scale=18,seed=7"):
            assert canonical_spec(spec) == spec

    def test_generator_kwargs_sorted(self):
        assert canonical_spec("rmat:seed=7,scale=18") == "rmat:scale=18,seed=7"

    def test_file_spec_content_addressed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        canon = canonical_spec(f"file:{path}")
        assert canon.startswith("file:g.txt@sha256:")
        # Moving the file elsewhere (same name+bytes) keeps the canonical form.
        other_dir = tmp_path / "elsewhere"
        other_dir.mkdir()
        copy = other_dir / "g.txt"
        copy.write_text(path.read_text())
        assert canonical_spec(f"file:{copy}") == canon
        # Changing the bytes changes it.
        path.write_text("0 1\n1 2\n2 3\n")
        assert canonical_spec(f"file:{path}") != canon

    def test_file_spec_options_in_canonical_form(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("5 9\n")
        a = canonical_spec(f"file:{path}?self_loops=false,densify=true")
        b = canonical_spec(f"file:{path}?densify=true,self_loops=false")
        assert a == b
        assert "densify=True" in a

    def test_canonical_dataset_falls_back_for_unknown_names(self):
        # Arbitrary dataset names used in tests/memo keys must not explode.
        assert canonical_dataset("totally-made-up") == "totally-made-up"
        assert canonical_dataset("lj") == "lj"

    def test_workload_memo_key_byte_identical(self):
        config = ExperimentConfig(scale=0.12, seed=42)
        key = workload_memo_key("PR", "lj", "dbg", config)
        assert key == ("PR", "lj", "dbg", 0.12, 42, True)

    def test_file_spec_memo_key_uses_digest(self, tmp_path):
        config = ExperimentConfig(scale=1.0, seed=1)
        path = tmp_path / "k.txt"
        path.write_text("0 1\n")
        key = workload_memo_key("PR", f"file:{path}", "none", config)
        assert "@sha256:" in key[1]
        assert str(tmp_path) not in key[1]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_expected_heads_registered(self):
        heads = {source.head for source in list_sources()}
        for head in ("lj", "tw", "uni", "rmat", "chung-lu", "uniform",
                     "file", "snap", "mtx", "npz"):
            assert head in heads

    def test_register_source_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_source("rmat", "duplicate")
            def loader(rest, context):  # pragma: no cover
                raise AssertionError

    def test_register_custom_source(self):
        @register_source("test-custom-head", "test-only source")
        def loader(rest, context):
            return _chung_lu_graph(50, 3.0, seed=int(rest or 0))

        try:
            graph = load("test-custom-head:5")
            assert graph.num_vertices == 50
            assert isinstance(_SOURCES["test-custom-head"], GraphSource)
            # Default canonicalization: identity.
            assert canonical_spec("test-custom-head:5") == "test-custom-head:5"
        finally:
            del _SOURCES["test-custom-head"]

    def test_describe_spec(self):
        info = describe_spec("rmat:scale=8,seed=7")
        assert info["head"] == "rmat"
        assert info["canonical"] == "rmat:scale=8,seed=7"
        assert info["description"]

    def test_load_context_defaults(self):
        context = LoadContext()
        assert context.scale == 1.0
        assert context.seed == 42
        assert context.mmap == "auto"


# ---------------------------------------------------------------------------
# the public entry points raise no deprecation warnings
# ---------------------------------------------------------------------------


class TestDeprecationWrappers:
    def test_new_paths_do_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            load("rmat:scale=6,seed=1")
            load("uni", scale=0.02)
            graph = _chung_lu_graph(40, 3.0, seed=2, name="s")
            save(graph, tmp_path / "s.txt")
            load(f"file:{tmp_path}/s.txt", cache_root=tmp_path / "cache")


# ---------------------------------------------------------------------------
# save() dispatch
# ---------------------------------------------------------------------------


class TestSaveDispatch:
    @pytest.mark.parametrize("suffix", [".txt", ".mtx", ".npz"])
    def test_round_trip_by_suffix(self, tmp_path, suffix):
        graph = _chung_lu_graph(80, 4.0, seed=11, name="rt").with_random_weights(seed=12)
        path = tmp_path / f"g{suffix}"
        save(graph, path)
        head = {"": "file", ".txt": "file", ".mtx": "mtx", ".npz": "npz"}[suffix]
        loaded = load(f"{head}:{path}", cache_root=tmp_path / "cache")
        assert arrays_equal(graph, loaded)
        assert np.array_equal(
            np.asarray(graph.out_weights), np.asarray(loaded.out_weights)
        )

    def test_explicit_fmt_overrides_suffix(self, tmp_path):
        graph = _chung_lu_graph(40, 3.0, seed=13, name="x")
        path = tmp_path / "odd-suffix.graph"
        save(graph, path, fmt="mtx")
        loaded = load(f"mtx:{path}", cache_root=tmp_path / "cache")
        assert arrays_equal(graph, loaded)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCLI:
    def test_sweep_graph_flag_appends_specs(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "sweep", "--apps", "PR", "--schemes", "GRASP", "--datasets", "uni",
                "--graph", "rmat:scale=8,seed=7",
                "--graph", "file:g.txt?densify=true",
            ]
        )
        config = ExperimentConfig()
        spec = _spec_from_args(args, config)
        assert spec.datasets == (
            "uni", "rmat:scale=8,seed=7", "file:g.txt?densify=true"
        )

    def test_graph_cache_flag_reaches_config(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--graph-cache", str(tmp_path / "gc")]
        )
        from repro.experiments.cli import _config_from_args

        config = _config_from_args(args)
        assert config.graph_cache_dir == str(tmp_path / "gc")

    def test_graph_info_no_load(self, capsys):
        assert main(["graph", "info", "--no-load", "rmat:scale=8,seed=7"]) == 0
        out = capsys.readouterr().out
        assert "rmat" in out

    def test_graph_info_loads_and_reports_skew(self, capsys):
        assert main(["graph", "info", "uniform:n=80,deg=3,seed=2"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out

    def test_graph_info_bad_spec_fails(self, capsys):
        assert main(["graph", "info", "bogus-head:x=1"]) == 1

    def test_graph_ingest_and_verify(self, tmp_path, capsys):
        graph = _chung_lu_graph(60, 3.0, seed=19, name="c")
        path = tmp_path / "c.txt"
        _save_edge_list(graph, path)
        code = main(
            ["graph", "ingest", str(path), "--graph-cache", str(tmp_path / "gc")]
        )
        assert code == 0
        assert "edges" in capsys.readouterr().out

    def test_graph_fetch_list(self, capsys):
        assert main(["graph", "fetch", "--list"]) == 0
        assert "web-google" in capsys.readouterr().out

    def test_graph_verify_vendored_samples(self, capsys):
        assert main(["graph", "verify", "--dest", "data/samples"]) == 0
        out = capsys.readouterr().out
        assert "FAILED" not in out and "MISSING" not in out
