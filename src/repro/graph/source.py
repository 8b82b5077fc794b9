"""Unified graph acquisition: ``repro.graph.load(spec)``.

One string spec is the entry point to every way of constructing a graph
(the :mod:`~repro.graph.generators`, the :mod:`~repro.graph.datasets`
registry, :mod:`~repro.graph.io` load/save and raw edge arrays).  The grammar is ``"head"`` or ``"head:rest"``:

``"lj"``, ``"kr"``, ...
    Named synthetic datasets from the Table V registry (scaled by the
    :class:`LoadContext`).
``"rmat:scale=18,seed=7"``, ``"chung-lu:n=4096,deg=8"``, ...
    Synthetic generators with explicit ``key=value`` parameters.
``"file:web-Google.txt.gz"``, ``"mtx:graph.mtx"``, ``"npz:graph.npz"``
    On-disk graphs, routed through :mod:`repro.graph.ingest` (gzip
    transparent, binary-CSR cache, optional mmap backing).  File specs accept
    a ``?key=value`` option suffix, e.g. ``"file:crawl.txt?densify=1"``.

New heads register through :func:`register_source`, so downstream code can
extend the grammar without touching this module.

:func:`canonical_spec` maps a spec to the byte-exact form used in memo keys:
synthetic specs canonicalize to themselves (``"lj"`` stays ``"lj"``, keeping
``MEMO_VERSION`` stable), while file specs canonicalize to
``file:<name>@sha256:<digest>`` so memo entries are content-addressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.graph.csr import CSRGraph, GraphError

PathLike = Union[str, Path]

#: Digest prefix length used in canonical file specs (collision probability
#: over a cache of millions of files is negligible at 16 hex chars / 64 bits).
CANONICAL_DIGEST_CHARS = 16


@dataclass(frozen=True)
class LoadContext:
    """Experiment-level parameters that shape how a spec is materialized.

    These are the knobs that stay *outside* the spec string so one spec can
    be reused across sweep points: the dataset scale factor, the RNG seed,
    whether SSSP-style random weights are attached, and how file-backed
    graphs are cached/mapped.
    """

    scale: float = 1.0
    seed: int = 42
    weighted: bool = False
    mmap: Union[bool, str] = "auto"
    cache_root: Optional[Path] = None


@dataclass(frozen=True)
class GraphSource:
    """One registered spec head.

    ``loader`` materializes ``rest`` (the part after ``head:``) under a
    :class:`LoadContext`; ``canonicalize`` maps ``rest`` to its memo-key form
    (identity when omitted).
    """

    head: str
    description: str
    loader: Callable[[str, LoadContext], CSRGraph] = field(repr=False)
    canonicalize: Optional[Callable[[str], str]] = field(default=None, repr=False)


_SOURCES: Dict[str, GraphSource] = {}


def register_source(head: str, description: str,
                    canonicalize: Optional[Callable[[str], str]] = None):
    """Register a loader for a spec head (decorator).

    The loader is called as ``loader(rest, context)`` where ``rest`` is the
    spec text after ``head:`` (empty string when the spec is bare).
    """

    def decorator(loader: Callable[[str, LoadContext], CSRGraph]):
        if head in _SOURCES:
            raise ValueError(f"graph source head {head!r} already registered")
        _SOURCES[head] = GraphSource(head, description, loader, canonicalize)
        return loader

    return decorator


def list_sources() -> List[GraphSource]:
    """All registered sources, dataset names included, sorted by head."""
    return [_SOURCES[head] for head in sorted(_SOURCES)]


def split_spec(spec: str) -> Tuple[str, str]:
    """Split ``"head:rest"`` into ``(head, rest)`` (``rest`` may be empty)."""
    if not isinstance(spec, str) or not spec.strip():
        raise GraphError(f"graph spec must be a non-empty string, got {spec!r}")
    spec = spec.strip()
    head, sep, rest = spec.partition(":")
    return head.strip(), rest.strip() if sep else ""


def _known_heads() -> str:
    return ", ".join(sorted(_SOURCES))


def _resolve(spec: str) -> Tuple[GraphSource, str]:
    head, rest = split_spec(spec)
    source = _SOURCES.get(head)
    if source is None:
        raise GraphError(
            f"unknown graph spec {spec!r}; known heads: {_known_heads()}"
        )
    return source, rest


def load(spec: str, *,
         scale: float = 1.0,
         seed: int = 42,
         weighted: bool = False,
         mmap: Union[bool, str] = "auto",
         cache_root: Optional[PathLike] = None) -> CSRGraph:
    """Materialize a graph from a spec string — the unified entry point.

    Examples
    --------
    >>> load("lj", scale=0.1)                    # doctest: +SKIP
    >>> load("rmat:scale=18,seed=7")             # doctest: +SKIP
    >>> load("file:web-Google.txt.gz")           # doctest: +SKIP
    >>> load("mtx:graph.mtx", weighted=True)     # doctest: +SKIP
    """
    context = LoadContext(
        scale=scale, seed=seed, weighted=weighted, mmap=mmap,
        cache_root=Path(cache_root) if cache_root is not None else None,
    )
    source, rest = _resolve(spec)
    return source.loader(rest, context)


def load_for_experiment(spec: str, *,
                        scale: float,
                        seed: int,
                        weighted: bool,
                        cache_root: Optional[PathLike] = None) -> CSRGraph:
    """The experiment runner's loader (plain args to avoid config imports)."""
    return load(
        spec, scale=scale, seed=seed, weighted=weighted, cache_root=cache_root,
    )


def canonical_spec(spec: str) -> str:
    """Canonical (memo-key) form of a spec.

    Synthetic specs canonicalize to themselves byte-for-byte — existing memo
    entries keyed on dataset names like ``"lj"`` stay valid and
    ``MEMO_VERSION`` does not move.  File-backed specs canonicalize to a
    content-addressed form, so renaming a file keeps its memo entries while
    editing it invalidates them.
    """
    source, rest = _resolve(spec)
    if source.canonicalize is None:
        return spec.strip()
    return f"{source.head}:{source.canonicalize(rest)}"


# ---------------------------------------------------------------------------
# spec kwargs
# ---------------------------------------------------------------------------


def _parse_value(text: str):
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_spec_kwargs(rest: str, spec_head: str) -> Dict[str, object]:
    """Parse ``"k1=v1,k2=v2"`` into a dict with int/float/bool coercion."""
    kwargs: Dict[str, object] = {}
    if not rest:
        return kwargs
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise GraphError(
                f"malformed parameter {item!r} in graph spec "
                f"{spec_head}:{rest!r} (expected key=value)"
            )
        kwargs[key.strip()] = _parse_value(value.strip())
    return kwargs


def _take_kwargs(kwargs: Dict[str, object], allowed: Dict[str, str],
                 spec_head: str) -> Dict[str, object]:
    """Map spec keys to python kwargs via an alias table; reject unknowns."""
    out: Dict[str, object] = {}
    for key, value in kwargs.items():
        target = allowed.get(key)
        if target is None:
            raise GraphError(
                f"unknown parameter {key!r} for graph spec head {spec_head!r}; "
                f"allowed: {', '.join(sorted(set(allowed)))}"
            )
        out[target] = value
    return out


def _maybe_weight(graph: CSRGraph, context: LoadContext) -> CSRGraph:
    if context.weighted and not graph.is_weighted:
        # Mirrors datasets._get_dataset: weights are seeded off seed+1.
        return graph.with_random_weights(seed=context.seed + 1)
    return graph


# ---------------------------------------------------------------------------
# built-in sources: named datasets
# ---------------------------------------------------------------------------


def _register_datasets() -> None:
    from repro.graph import datasets

    def make_loader(dataset_name: str):
        def loader(rest: str, context: LoadContext) -> CSRGraph:
            if rest:
                raise GraphError(
                    f"dataset spec {dataset_name!r} takes no parameters, got {rest!r}"
                )
            return datasets._get_dataset(
                dataset_name, scale=context.scale, seed=context.seed,
                weighted=context.weighted,
            )

        return loader

    for name in datasets.ALL_DATASETS:
        spec = datasets.dataset_spec(name)
        register_source(name, f"synthetic stand-in: {spec.description}")(
            make_loader(name)
        )


# ---------------------------------------------------------------------------
# built-in sources: parameterized generators
# ---------------------------------------------------------------------------

_GENERATOR_TABLE = {
    "rmat": (
        "R-MAT/Graph500 generator (scale=..., ef=..., a/b/c, seed)",
        {"scale": "scale", "ef": "edge_factor", "edge_factor": "edge_factor",
         "a": "a", "b": "b", "c": "c", "seed": "seed", "name": "name",
         "deduplicate": "deduplicate"},
        ("scale",),
    ),
    "chung-lu": (
        "Chung-Lu power-law generator (n=..., deg=..., exponent, seed)",
        {"n": "num_vertices", "deg": "average_degree",
         "exponent": "exponent", "seed": "seed", "name": "name",
         "deduplicate": "deduplicate"},
        ("num_vertices", "average_degree"),
    ),
    "low-skew": (
        "low-skew (Friendster-like) generator (n=..., deg=..., seed)",
        {"n": "num_vertices", "deg": "average_degree", "seed": "seed",
         "name": "name"},
        ("num_vertices", "average_degree"),
    ),
    "uniform": (
        "uniform random (no-skew) generator (n=..., deg=..., seed)",
        {"n": "num_vertices", "deg": "average_degree", "seed": "seed",
         "name": "name"},
        ("num_vertices", "average_degree"),
    ),
    "community": (
        "planted-community power-law generator (communities=..., size=...)",
        {"communities": "num_communities", "size": "community_size",
         "intra": "intra_degree", "inter": "inter_degree",
         "exponent": "exponent", "seed": "seed", "name": "name"},
        ("num_communities", "community_size"),
    ),
}


def _canonical_kwargs(rest: str, head: str) -> str:
    kwargs = parse_spec_kwargs(rest, head)
    return ",".join(f"{key}={kwargs[key]}" for key in sorted(kwargs))


def _register_generators() -> None:
    from repro.graph import generators

    impls = {
        "rmat": generators._rmat_graph,
        "chung-lu": generators._chung_lu_graph,
        "low-skew": generators._low_skew_graph,
        "uniform": generators._uniform_random_graph,
        "community": generators._planted_community_graph,
    }

    def make_loader(head: str):
        description, aliases, required = _GENERATOR_TABLE[head]
        impl = impls[head]

        def loader(rest: str, context: LoadContext) -> CSRGraph:
            kwargs = _take_kwargs(parse_spec_kwargs(rest, head), aliases, head)
            kwargs.setdefault("seed", context.seed)
            missing = [key for key in required if key not in kwargs]
            if missing:
                raise GraphError(
                    f"graph spec head {head!r} requires {', '.join(missing)} "
                    f"(got {rest!r})"
                )
            return _maybe_weight(impl(**kwargs), context)

        return loader

    for head in _GENERATOR_TABLE:
        register_source(
            head, _GENERATOR_TABLE[head][0],
            canonicalize=lambda rest, head=head: _canonical_kwargs(rest, head),
        )(make_loader(head))


# ---------------------------------------------------------------------------
# built-in sources: on-disk graphs
# ---------------------------------------------------------------------------


def _split_file_rest(rest: str, head: str) -> Tuple[Path, Dict[str, object]]:
    if not rest:
        raise GraphError(f"graph spec head {head!r} requires a path, e.g. {head}:graph.txt")
    path_text, _, option_text = rest.partition("?")
    if not path_text.strip():
        raise GraphError(f"graph spec {head}:{rest!r} has an empty path")
    return Path(path_text.strip()), parse_spec_kwargs(option_text, head)


_FILE_OPTION_ALIASES = {
    "densify": "densify",
    "self_loops": "remove_self_loops",
    "remove_self_loops": "remove_self_loops",
    "n": "num_vertices",
    "num_vertices": "num_vertices",
    "name": "name",
}


def _canonical_file_rest(rest: str, head: str) -> str:
    from repro.graph.ingest import file_digest

    path, options = _split_file_rest(rest, head)
    digest = file_digest(path)[:CANONICAL_DIGEST_CHARS]
    canonical = f"{path.name}@sha256:{digest}"
    if options:
        suffix = ",".join(f"{key}={options[key]}" for key in sorted(options))
        canonical = f"{canonical}?{suffix}"
    return canonical


def _make_file_loader(head: str, fmt: Optional[str]):
    def loader(rest: str, context: LoadContext) -> CSRGraph:
        from repro.graph.ingest import ingest_graph

        path, raw_options = _split_file_rest(rest, head)
        options = _take_kwargs(raw_options, _FILE_OPTION_ALIASES, head)
        name = options.pop("name", None)
        graph = ingest_graph(
            path, fmt=fmt, mmap=context.mmap, cache_root=context.cache_root,
            name=name, **options,
        )
        return _maybe_weight(graph, context)

    return loader


def _register_files() -> None:
    for head, fmt, description in (
        ("file", None, "on-disk edge list / SNAP file (format sniffed; gzip ok)"),
        ("snap", "edgelist", "on-disk SNAP / whitespace edge list (gzip ok)"),
        ("mtx", "mtx", "on-disk Matrix-Market coordinate file (gzip ok)"),
    ):
        register_source(
            head, description,
            canonicalize=lambda rest, head=head: _canonical_file_rest(rest, head),
        )(_make_file_loader(head, fmt))

    def npz_loader(rest: str, context: LoadContext) -> CSRGraph:
        from repro.graph.io import _load_npz

        path, options = _split_file_rest(rest, "npz")
        if options:
            raise GraphError(f"npz specs take no options, got {rest!r}")
        return _maybe_weight(_load_npz(path), context)

    register_source(
        "npz", "compressed NumPy graph archive written by repro.graph.save",
        canonicalize=lambda rest: _canonical_file_rest(rest, "npz"),
    )(npz_loader)


_register_datasets()
_register_generators()
_register_files()


# ---------------------------------------------------------------------------
# saving
# ---------------------------------------------------------------------------


def save(graph: CSRGraph, path: PathLike, fmt: Optional[str] = None) -> None:
    """Write a graph to disk; the format follows the suffix unless forced.

    ``.npz`` → compressed NumPy archive, ``.mtx`` → Matrix-Market, anything
    else → whitespace edge list (the vectorized writer).
    """
    from repro.graph import ingest, io

    path = Path(path)
    if fmt is None:
        suffixes = [s.lower() for s in path.suffixes]
        if ".npz" in suffixes:
            fmt = "npz"
        elif ".mtx" in suffixes:
            fmt = "mtx"
        else:
            fmt = "edgelist"
    if fmt == "npz":
        io._save_npz(graph, path)
    elif fmt == "mtx":
        ingest.save_matrix_market(graph, path)
    elif fmt in ("edgelist", "snap", "el"):
        io._save_edge_list(graph, path)
    else:
        raise GraphError(f"unknown save format {fmt!r}; expected npz, mtx or edgelist")


def describe_spec(spec: str) -> Dict[str, object]:
    """Human-oriented description of a spec (used by ``repro graph info``)."""
    source, rest = _resolve(spec)
    info: Dict[str, object] = {
        "spec": spec.strip(),
        "head": source.head,
        "description": source.description,
    }
    try:
        info["canonical"] = canonical_spec(spec)
    except GraphError as error:
        info["canonical_error"] = str(error)
    return info


__all__ = [
    "CANONICAL_DIGEST_CHARS",
    "GraphSource",
    "LoadContext",
    "canonical_spec",
    "describe_spec",
    "list_sources",
    "load",
    "load_for_experiment",
    "parse_spec_kwargs",
    "register_source",
    "save",
    "split_spec",
]
