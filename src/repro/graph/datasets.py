"""Registry of named, scaled-down datasets mirroring the paper's Table V.

The paper evaluates on seven datasets::

    LiveJournal (lj)   5M vertices    68M edges   avg degree 14   high skew
    PLD (pl)          43M vertices   623M edges   avg degree 15   high skew
    Twitter (tw)      62M vertices 1,468M edges   avg degree 24   high skew
    Kron (kr)         67M vertices 1,323M edges   avg degree 20   high skew
    SD1-ARC (sd)      95M vertices 1,937M edges   avg degree 20   high skew
    Friendster (fr)   64M vertices 2,147M edges   avg degree 33   low skew
    Uniform (uni)     50M vertices 1,000M edges   avg degree 20   no skew

Real datasets are not redistributable and far exceed what a trace-driven
Python simulator can process, so each name maps to a synthetic generator that
preserves the dataset's *class* (skew level, generator family and average
degree) at a configurable scale.  Relative vertex counts across datasets are
preserved so that, as in the paper, the larger datasets thrash the LLC harder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    _chung_lu_graph,
    _low_skew_graph,
    _rmat_graph,
    _uniform_random_graph,
)

#: Datasets used in the paper's main evaluation (high skew).
HIGH_SKEW_DATASETS = ("lj", "pl", "tw", "kr", "sd")
#: Adversarial datasets (low / no skew) used in the robustness study (Fig. 9).
ADVERSARIAL_DATASETS = ("fr", "uni")
#: All datasets, in the paper's presentation order.
ALL_DATASETS = HIGH_SKEW_DATASETS + ADVERSARIAL_DATASETS


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one synthetic dataset.

    Attributes
    ----------
    name:
        Short name matching the paper (``lj``, ``pl``, ...).
    description:
        The real dataset this stands in for.
    base_vertices:
        Vertex count at ``scale=1.0`` — chosen so relative sizes across
        datasets match the paper's Table V.
    average_degree:
        Target average degree, matching Table V.
    skew:
        ``"high"``, ``"low"`` or ``"none"``.
    build:
        Callable ``(num_vertices, average_degree, seed) -> CSRGraph``.
    """

    name: str
    description: str
    base_vertices: int
    average_degree: float
    skew: str
    build: Callable[[int, float, int], CSRGraph]


def _build_lj(n: int, degree: float, seed: int) -> CSRGraph:
    return _chung_lu_graph(n, degree, exponent=2.0, seed=seed, name="lj", deduplicate=False)


def _build_pl(n: int, degree: float, seed: int) -> CSRGraph:
    return _chung_lu_graph(n, degree, exponent=1.92, seed=seed, name="pl", deduplicate=False)


def _build_tw(n: int, degree: float, seed: int) -> CSRGraph:
    return _chung_lu_graph(n, degree, exponent=1.9, seed=seed, name="tw", deduplicate=False)


def _build_kr(n: int, degree: float, seed: int) -> CSRGraph:
    # Kron is generated with R-MAT/Graph500 parameters in the paper.  The
    # vertex count is rounded to the nearest power of two, as R-MAT requires.
    scale = max(1, int(round(np.log2(max(2, n)))))
    return _rmat_graph(scale, edge_factor=degree, seed=seed, name="kr")


def _build_sd(n: int, degree: float, seed: int) -> CSRGraph:
    return _chung_lu_graph(n, degree, exponent=1.85, seed=seed, name="sd", deduplicate=False)


def _build_fr(n: int, degree: float, seed: int) -> CSRGraph:
    return _low_skew_graph(n, degree, seed=seed, name="fr")


def _build_uni(n: int, degree: float, seed: int) -> CSRGraph:
    return _uniform_random_graph(n, degree, seed=seed, name="uni")


_REGISTRY: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("lj", "LiveJournal social network", 6_000, 14.0, "high", _build_lj),
        DatasetSpec("pl", "PLD hyperlink graph", 10_000, 15.0, "high", _build_pl),
        DatasetSpec("tw", "Twitter follower graph", 14_000, 24.0, "high", _build_tw),
        DatasetSpec("kr", "Kron (Graph500 R-MAT)", 16_384, 20.0, "high", _build_kr),
        DatasetSpec("sd", "SD1-ARC web crawl", 20_000, 20.0, "high", _build_sd),
        DatasetSpec("fr", "Friendster social network (low skew)", 14_000, 33.0, "low", _build_fr),
        DatasetSpec("uni", "Uniform random graph (no skew)", 12_000, 20.0, "none", _build_uni),
    )
}


def list_datasets(skew: Optional[str] = None) -> List[str]:
    """Return the registered dataset names, optionally filtered by skew class."""
    names = [name for name in ALL_DATASETS if name in _REGISTRY]
    if skew is None:
        return names
    return [name for name in names if _REGISTRY[name].skew == skew]


def dataset_spec(name: str) -> DatasetSpec:
    """Return the :class:`DatasetSpec` for a dataset name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def _get_dataset(
    name: str,
    scale: float = 1.0,
    seed: int = 42,
    weighted: bool = False,
) -> CSRGraph:
    """Instantiate a named dataset.

    Parameters
    ----------
    name:
        One of the names in :func:`list_datasets`.
    scale:
        Multiplier on the base vertex count.  ``scale=1.0`` is the default
        experiment size; benchmarks use smaller scales to keep runtimes low.
    seed:
        RNG seed (the same seed always yields the same graph).
    weighted:
        Attach uniformly random integer edge weights (needed by SSSP).
    """
    spec = dataset_spec(name)
    if scale <= 0:
        raise ValueError("scale must be positive")
    num_vertices = max(16, int(round(spec.base_vertices * scale)))
    graph = spec.build(num_vertices, spec.average_degree, seed)
    if weighted:
        graph = graph.with_random_weights(seed=seed + 1)
    return graph
