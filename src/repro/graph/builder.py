"""Construction of :class:`~repro.graph.csr.CSRGraph` objects from edge lists.

Graphs are acquired through :func:`repro.graph.load`; its ``"edges:..."``
specs, the generators and the parsers all build through the private
``_build_csr`` here.

Every CSR array is ordered by one int64 edge key, ``group * num_vertices +
other`` (see :func:`_order_edges`): the out-adjacency groups by source and
the in-adjacency by destination, so each neighbour list comes out sorted.
When weights ride along the sort is stable, so parallel edges keep their
weights in input order, and deduplication keeps the first weight of each
run of equal keys.  The key fits in int64 only while ``num_vertices`` is at
most :data:`MAX_VERTICES` (⌊√(2⁶³−1)⌋); larger counts raise
:class:`~repro.graph.csr.GraphError` before any per-vertex array is
allocated.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import INDEX_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE, CSRGraph, GraphError

#: Largest vertex count whose edge key ``group * num_vertices + other`` fits
#: in int64.
MAX_VERTICES = math.isqrt(np.iinfo(np.int64).max)


def _check_vertex_count(num_vertices: int) -> None:
    """Raise :class:`GraphError` if the edge key would overflow int64."""
    if num_vertices > MAX_VERTICES:
        raise GraphError(
            f"{num_vertices} vertices: the CSR builder handles at most "
            f"{MAX_VERTICES} vertices"
        )


def _order_edges(
    num_vertices: int,
    group: np.ndarray,
    other: np.ndarray,
    weights: Optional[np.ndarray] = None,
    deduplicate: bool = False,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Return ``(group, other, weights)`` ordered by ``(group, other)``.

    The order is that of the one key ``group * num_vertices + other``.  With
    weights it is a stable sort, so edges with equal keys keep their input
    order; ``deduplicate`` then keeps the first edge of each run.  The inputs
    are not modified.
    """
    _check_vertex_count(num_vertices)
    n = np.int64(max(num_vertices, 1))
    # In-place arithmetic here and below (the key's buffer becomes the group
    # array) keeps the edge-sized temporaries, and so peak memory, down.
    key = group * n
    key += other
    if weights is None:
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        weights = weights[order]
    if deduplicate and key.size > 1:
        first = np.empty(key.shape, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key = key[first]
        if weights is not None:
            weights = weights[first]
    other = key % n
    key //= n
    return key, other, weights


def _index(num_vertices: int, group: np.ndarray) -> np.ndarray:
    """CSR index array of edges sorted by ``group``."""
    counts = np.bincount(group, minlength=num_vertices)
    return np.concatenate(([0], np.cumsum(counts))).astype(INDEX_DTYPE)


def _build_csr(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
    remove_self_loops: bool = False,
    deduplicate: bool = False,
    name: str = "graph",
) -> CSRGraph:
    """Build a :class:`CSRGraph` from parallel source/target arrays.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex IDs must lie in ``[0, num_vertices)``.
    sources, targets:
        Parallel arrays of edge endpoints.
    weights:
        Optional parallel array of edge weights.
    remove_self_loops:
        Drop edges whose endpoints coincide.
    deduplicate:
        Collapse parallel edges (the first weight wins for weighted graphs).
    name:
        Human-readable graph name carried through transformations.
    """
    sources = np.asarray(sources, dtype=VERTEX_DTYPE).ravel()
    targets = np.asarray(targets, dtype=VERTEX_DTYPE).ravel()
    if sources.shape != targets.shape:
        raise GraphError("sources and targets must have the same length")
    if weights is not None:
        weights = np.asarray(weights, dtype=WEIGHT_DTYPE).ravel()
        if weights.shape != sources.shape:
            raise GraphError("weights must be aligned with the edge list")
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    if sources.size:
        if sources.min() < 0 or targets.min() < 0:
            raise GraphError("vertex IDs must be non-negative")
        if max(int(sources.max()), int(targets.max())) >= num_vertices:
            raise GraphError("edge list references vertex IDs >= num_vertices")

    if remove_self_loops and sources.size:
        keep = sources != targets
        sources, targets = sources[keep], targets[keep]
        if weights is not None:
            weights = weights[keep]

    sources, out_targets, out_weights = _order_edges(
        num_vertices, sources, targets, weights, deduplicate=deduplicate
    )
    # The in-pass re-sorts the out-ordered edges on (destination, source);
    # being stable, it keeps parallel edges' weights in input order.
    targets, in_sources, in_weights = _order_edges(
        num_vertices, out_targets, sources, out_weights
    )
    return CSRGraph(
        out_index=_index(num_vertices, sources),
        out_targets=out_targets,
        in_index=_index(num_vertices, targets),
        in_sources=in_sources,
        out_weights=out_weights,
        in_weights=in_weights,
        name=name,
    )


def _from_edge_list(
    edges: Iterable[Sequence[int]],
    num_vertices: Optional[int] = None,
    weights: Optional[Sequence[float]] = None,
    name: str = "graph",
    **kwargs,
) -> CSRGraph:
    edge_array = np.asarray(list(edges), dtype=VERTEX_DTYPE)
    if edge_array.size == 0:
        sources = np.empty(0, dtype=VERTEX_DTYPE)
        targets = np.empty(0, dtype=VERTEX_DTYPE)
    else:
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be (source, target) pairs")
        sources, targets = edge_array[:, 0], edge_array[:, 1]
    if num_vertices is None:
        num_vertices = int(edge_array.max()) + 1 if edge_array.size else 0
    weight_array = None if weights is None else np.asarray(weights, dtype=WEIGHT_DTYPE)
    return _build_csr(num_vertices, sources, targets, weights=weight_array, name=name, **kwargs)
