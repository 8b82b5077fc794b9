"""Synthetic graph generators standing in for the paper's datasets.

The paper evaluates on five high-skew natural graphs (LiveJournal, PLD,
Twitter, Kron, SD1-ARC), one low-skew graph (Friendster) and one no-skew
uniform random graph.  Real datasets are tens of gigabytes and are not
available offline, so this module provides scaled-down generators whose
*degree-distribution shape* matches each class of dataset.  They are
reached through :func:`repro.graph.load` specs (``"chung-lu:n=4096,deg=8"``,
``"rmat:scale=18,seed=7"``, ...) and the named datasets of
:mod:`~repro.graph.datasets`:

* ``_chung_lu_graph`` (``chung-lu``) — power-law degree sequence with edges
  sampled proportionally to vertex weights (Chung-Lu model); both the in-
  and the out-degree distributions are skewed, as in natural graphs.
* ``_rmat_graph`` (``rmat``) — the R-MAT recursive-matrix generator used by
  the paper's ``kr`` (Kron) and ``uni`` (R-MAT with uniform parameters)
  datasets.
* ``_low_skew_graph`` (``low-skew``) — a mildly skewed Chung-Lu variant
  modelling Friendster's comparatively flat degree distribution.
* ``_uniform_random_graph`` (``uniform``) — Erdős–Rényi-style uniform edge
  endpoints (no skew), the paper's adversarial ``uni`` dataset.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import _build_csr
from repro.graph.csr import CSRGraph, VERTEX_DTYPE


def _powerlaw_weights(num_vertices: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Vertex attractiveness weights following a (truncated) power law.

    ``weight[i] ~ (i + 1) ** -1/(exponent - 1)`` over a random permutation of
    ranks, i.e. a Zipf-like profile whose heavy tail is controlled by
    ``exponent`` (smaller exponent = heavier tail = more skew).
    """
    if exponent <= 1.0:
        raise ValueError("power-law exponent must be > 1")
    ranks = rng.permutation(num_vertices) + 1
    return ranks.astype(np.float64) ** (-1.0 / (exponent - 1.0))


def _sample_endpoints(
    weights: np.ndarray,
    num_edges: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``num_edges`` endpoints with probability proportional to weights."""
    probabilities = weights / weights.sum()
    return rng.choice(weights.shape[0], size=num_edges, p=probabilities).astype(VERTEX_DTYPE)


def _chung_lu_graph(
    num_vertices: int,
    average_degree: float,
    exponent: float = 2.1,
    seed: int = 0,
    name: str = "chung-lu",
    deduplicate: bool = True,
) -> CSRGraph:
    """Generate a skewed (power-law) directed graph via the Chung-Lu model.

    Both endpoints of every edge are drawn proportionally to a power-law
    weight vector, which produces the in- *and* out-degree skew that
    characterises natural graphs (Table I of the paper).

    Parameters
    ----------
    num_vertices:
        Number of vertices.
    average_degree:
        Target average degree (edges ≈ ``num_vertices * average_degree``).
    exponent:
        Power-law exponent; 1.8–2.4 covers the range from very high to
        moderate skew.
    seed:
        RNG seed for reproducibility.
    deduplicate:
        Collapse parallel edges (slightly lowers the realized average degree).
    """
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    rng = np.random.default_rng(seed)
    num_edges = int(round(num_vertices * average_degree))
    weights = _powerlaw_weights(num_vertices, exponent, rng)
    sources = _sample_endpoints(weights, num_edges, rng)
    targets = _sample_endpoints(weights, num_edges, rng)
    return _build_csr(
        num_vertices,
        sources,
        targets,
        remove_self_loops=True,
        deduplicate=deduplicate,
        name=name,
    )


def _low_skew_graph(
    num_vertices: int,
    average_degree: float,
    seed: int = 0,
    name: str = "low-skew",
) -> CSRGraph:
    """Generate a low-skew graph (Friendster-like adversarial dataset).

    Uses a gentle power law (exponent 3.5) so that hot vertices cover far
    fewer edges than in natural graphs, which is the regime where the paper
    shows pinning-based schemes break down (Fig. 9).
    """
    return _chung_lu_graph(
        num_vertices,
        average_degree,
        exponent=3.5,
        seed=seed,
        name=name,
    )


def _uniform_random_graph(
    num_vertices: int,
    average_degree: float,
    seed: int = 0,
    name: str = "uniform",
) -> CSRGraph:
    """Generate a no-skew graph with uniformly random edge endpoints."""
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    rng = np.random.default_rng(seed)
    num_edges = int(round(num_vertices * average_degree))
    sources = rng.integers(0, num_vertices, size=num_edges).astype(VERTEX_DTYPE)
    targets = rng.integers(0, num_vertices, size=num_edges).astype(VERTEX_DTYPE)
    return _build_csr(
        num_vertices,
        sources,
        targets,
        remove_self_loops=True,
        deduplicate=True,
        name=name,
    )


def _rmat_graph(
    scale: int,
    edge_factor: float = 16.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    name: str = "rmat",
    deduplicate: bool = True,
) -> CSRGraph:
    """Generate an R-MAT (Kronecker) graph with ``2**scale`` vertices.

    The default ``(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`` parameters are the
    Graph500 values used by the GAP benchmark suite's Kron generator, the
    source of the paper's ``kr`` dataset.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("R-MAT probabilities must sum to at most 1")
    rng = np.random.default_rng(seed)
    num_vertices = 1 << scale
    num_edges = int(round(num_vertices * edge_factor))

    sources = np.zeros(num_edges, dtype=VERTEX_DTYPE)
    targets = np.zeros(num_edges, dtype=VERTEX_DTYPE)
    for _ in range(scale):
        sources <<= 1
        targets <<= 1
        draw = rng.random(num_edges)
        # Quadrant selection: a -> (0,0), b -> (0,1), c -> (1,0), d -> (1,1).
        right = (draw >= a) & (draw < a + b) | (draw >= a + b + c)
        down = draw >= a + b
        targets += right.astype(VERTEX_DTYPE)
        sources += down.astype(VERTEX_DTYPE)

    # Permute vertex IDs so that structure does not trivially follow ID order.
    permutation = rng.permutation(num_vertices).astype(VERTEX_DTYPE)
    sources = permutation[sources]
    targets = permutation[targets]
    return _build_csr(
        num_vertices,
        sources,
        targets,
        remove_self_loops=True,
        deduplicate=deduplicate,
        name=name,
    )


def _planted_community_graph(
    num_communities: int,
    community_size: int,
    intra_degree: float = 8.0,
    inter_degree: float = 2.0,
    exponent: float = 2.1,
    seed: int = 0,
    name: str = "community",
) -> CSRGraph:
    """Generate a power-law graph with planted community structure.

    Used by tests and examples to exercise the claim that skew-aware
    reordering (DBG in particular) should not destroy community locality.
    Vertices are grouped into equally sized communities; ``intra_degree``
    edges per vertex stay within the community and ``inter_degree`` edges
    choose endpoints Chung-Lu style across the whole graph.
    """
    rng = np.random.default_rng(seed)
    num_vertices = num_communities * community_size
    weights = _powerlaw_weights(num_vertices, exponent, rng)

    intra_edges = int(round(num_vertices * intra_degree))
    community_of = np.arange(num_vertices) // community_size
    intra_sources = rng.integers(0, num_vertices, size=intra_edges).astype(VERTEX_DTYPE)
    offsets = rng.integers(0, community_size, size=intra_edges).astype(VERTEX_DTYPE)
    intra_targets = community_of[intra_sources] * community_size + offsets

    inter_edges = int(round(num_vertices * inter_degree))
    inter_sources = _sample_endpoints(weights, inter_edges, rng)
    inter_targets = _sample_endpoints(weights, inter_edges, rng)

    sources = np.concatenate([intra_sources, inter_sources])
    targets = np.concatenate([intra_targets, inter_targets])
    return _build_csr(
        num_vertices,
        sources,
        targets,
        remove_self_loops=True,
        deduplicate=True,
        name=name,
    )
