"""Compressed Sparse Row (CSR) graph representation.

The paper (Sec. II-B) describes graphs stored in CSR form: a *Vertex Array*
of indices into an *Edge Array* of neighbour IDs.  Pull-based computations
traverse the in-edge CSR while push-based computations traverse the out-edge
CSR.  :class:`CSRGraph` keeps both directions so that the analytics framework
can switch between pull and push per iteration, as Ligra does.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Tuple

import numpy as np

VERTEX_DTYPE = np.int64
INDEX_DTYPE = np.int64
WEIGHT_DTYPE = np.float64


class GraphError(ValueError):
    """Raised when a graph is structurally invalid."""


@dataclass
class CSRGraph:
    """A directed graph in Compressed Sparse Row form.

    Attributes
    ----------
    out_index:
        ``int64[num_vertices + 1]`` — ``out_index[v]:out_index[v+1]`` is the
        slice of ``out_targets`` holding the out-neighbours of ``v``.
    out_targets:
        ``int64[num_edges]`` — destination vertex of every out-edge, grouped
        by source.
    in_index, in_sources:
        The transpose adjacency (in-edges grouped by destination).
    out_weights, in_weights:
        Optional edge weights aligned with ``out_targets`` / ``in_sources``.
    validate_edges:
        Init-only flag.  ``False`` skips the O(E) range scan over the edge
        arrays (the cheap O(1) shape checks still run); used by trusted
        loaders — most notably the binary-CSR cache of
        :mod:`repro.graph.ingest`, whose entries were validated when built
        and whose memmap-backed arrays should not be paged in just to
        recompute a min/max.
    """

    out_index: np.ndarray
    out_targets: np.ndarray
    in_index: np.ndarray
    in_sources: np.ndarray
    out_weights: Optional[np.ndarray] = None
    in_weights: Optional[np.ndarray] = None
    name: str = field(default="graph")
    validate_edges: InitVar[bool] = True

    # -- construction helpers -------------------------------------------------

    def __post_init__(self, validate_edges: bool = True) -> None:
        # asanyarray (not asarray) so np.memmap-backed arrays keep their
        # memmap identity: graphs larger than RAM stay lazily paged.
        self.out_index = np.asanyarray(self.out_index, dtype=INDEX_DTYPE)
        self.in_index = np.asanyarray(self.in_index, dtype=INDEX_DTYPE)
        self.out_targets = np.asanyarray(self.out_targets, dtype=VERTEX_DTYPE)
        self.in_sources = np.asanyarray(self.in_sources, dtype=VERTEX_DTYPE)
        if self.out_weights is not None:
            self.out_weights = np.asanyarray(self.out_weights, dtype=WEIGHT_DTYPE)
        if self.in_weights is not None:
            self.in_weights = np.asanyarray(self.in_weights, dtype=WEIGHT_DTYPE)
        self.validate(scan_edges=validate_edges)

    # -- basic properties ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return int(self.out_index.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the graph."""
        return int(self.out_targets.shape[0])

    @property
    def is_weighted(self) -> bool:
        """Whether edge weights are attached."""
        return self.out_weights is not None

    @property
    def is_mmap(self) -> bool:
        """Whether the edge arrays are memory-mapped (see :class:`MmapCSRGraph`)."""
        return False

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an ``int64`` array."""
        return np.diff(self.out_index)

    @property
    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex as an ``int64`` array."""
        return np.diff(self.in_index)

    @property
    def average_degree(self) -> float:
        """Average out-degree (== average in-degree)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # -- adjacency access ------------------------------------------------------

    def out_neighbors(self, vertex: int) -> np.ndarray:
        """Return the out-neighbours of ``vertex``."""
        return self.out_targets[self.out_index[vertex] : self.out_index[vertex + 1]]

    def in_neighbors(self, vertex: int) -> np.ndarray:
        """Return the in-neighbours of ``vertex``."""
        return self.in_sources[self.in_index[vertex] : self.in_index[vertex + 1]]

    def out_edge_weights(self, vertex: int) -> np.ndarray:
        """Return the weights of the out-edges of ``vertex``."""
        if self.out_weights is None:
            raise GraphError("graph has no edge weights")
        return self.out_weights[self.out_index[vertex] : self.out_index[vertex + 1]]

    def in_edge_weights(self, vertex: int) -> np.ndarray:
        """Return the weights of the in-edges of ``vertex``."""
        if self.in_weights is None:
            raise GraphError("graph has no edge weights")
        return self.in_weights[self.in_index[vertex] : self.in_index[vertex + 1]]

    def out_degree(self, vertex: int) -> int:
        """Out-degree of a single vertex."""
        return int(self.out_index[vertex + 1] - self.out_index[vertex])

    def in_degree(self, vertex: int) -> int:
        """In-degree of a single vertex."""
        return int(self.in_index[vertex + 1] - self.in_index[vertex])

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(source, destination)`` pairs."""
        sources, targets = self.edge_arrays()
        for s, t in zip(sources.tolist(), targets.tolist()):
            yield s, t

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return parallel ``(sources, targets)`` arrays for all edges."""
        sources = np.repeat(np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.out_degrees)
        return sources, self.out_targets.copy()

    # -- transformations -------------------------------------------------------

    def relabel(self, permutation: np.ndarray, name: Optional[str] = None) -> "CSRGraph":
        """Return a new graph with vertex ``v`` renamed to ``permutation[v]``.

        ``permutation`` must be a bijection over ``range(num_vertices)``.
        Relabelling is how vertex-reordering techniques (Sort, HubSort, DBG,
        Gorder) are applied to a graph.
        """
        permutation = np.asarray(permutation, dtype=VERTEX_DTYPE)
        if permutation.shape != (self.num_vertices,):
            raise GraphError(
                f"permutation has shape {permutation.shape}, "
                f"expected ({self.num_vertices},)"
            )
        check = np.zeros(self.num_vertices, dtype=bool)
        check[permutation] = True
        if not check.all():
            raise GraphError("permutation is not a bijection over the vertex set")

        from repro.graph.builder import _build_csr

        return _build_csr(
            self.num_vertices,
            np.repeat(permutation, self.out_degrees),
            permutation[self.out_targets],
            weights=self.out_weights,
            name=name or self.name,
        )

    def reverse(self) -> "CSRGraph":
        """Return the transpose graph (all edges flipped)."""
        return CSRGraph(
            out_index=self.in_index.copy(),
            out_targets=self.in_sources.copy(),
            in_index=self.out_index.copy(),
            in_sources=self.out_targets.copy(),
            out_weights=None if self.in_weights is None else self.in_weights.copy(),
            in_weights=None if self.out_weights is None else self.out_weights.copy(),
            name=f"{self.name}-reversed",
        )

    def with_random_weights(self, low: int = 1, high: int = 64, seed: int = 0) -> "CSRGraph":
        """Return a copy with uniformly random integer edge weights.

        Used for SSSP, which the paper runs on weighted graphs.  The same
        logical edge gets the same weight in the out- and in-adjacency.
        """
        rng = np.random.default_rng(seed)
        out_weights = rng.integers(low, high + 1, size=self.num_edges).astype(WEIGHT_DTYPE)

        # Mirror the weights onto the in-adjacency: order the out-edges the
        # way the builder orders in-edges and carry the weights along.
        from repro.graph.builder import _order_edges

        sources = np.repeat(np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.out_degrees)
        _, _, in_weights = _order_edges(self.num_vertices, self.out_targets, sources, out_weights)
        return CSRGraph(
            out_index=self.out_index.copy(),
            out_targets=self.out_targets.copy(),
            in_index=self.in_index.copy(),
            in_sources=self.in_sources.copy(),
            out_weights=out_weights,
            in_weights=in_weights,
            name=self.name,
        )

    # -- validation ------------------------------------------------------------

    def validate(self, scan_edges: bool = True) -> None:
        """Check structural invariants; raise :class:`GraphError` on failure.

        ``scan_edges=False`` skips the checks that read every edge (vertex-ID
        range scans and index monotonicity) and keeps only the O(1) shape and
        endpoint checks; trusted loaders use it to avoid paging in an entire
        memmap-backed graph.
        """
        if self.out_index.ndim != 1 or self.in_index.ndim != 1:
            raise GraphError("index arrays must be one-dimensional")
        if self.out_index.shape[0] != self.in_index.shape[0]:
            raise GraphError("out_index and in_index imply different vertex counts")
        if self.out_index.shape[0] < 1:
            raise GraphError("index arrays must have at least one entry")
        if self.out_index[0] != 0 or self.in_index[0] != 0:
            raise GraphError("index arrays must start at 0")
        if self.out_targets.shape[0] != self.in_sources.shape[0]:
            raise GraphError("out- and in-edge arrays disagree on edge count")
        if self.out_index[-1] != self.out_targets.shape[0]:
            raise GraphError("out_index does not terminate at num_edges")
        if self.in_index[-1] != self.in_sources.shape[0]:
            raise GraphError("in_index does not terminate at num_edges")
        if scan_edges:
            if np.any(np.diff(self.out_index) < 0) or np.any(np.diff(self.in_index) < 0):
                raise GraphError("index arrays must be non-decreasing")
            n = self.num_vertices
            if self.num_edges:
                if self.out_targets.min() < 0 or self.out_targets.max() >= n:
                    raise GraphError("out_targets contains vertex IDs out of range")
                if self.in_sources.min() < 0 or self.in_sources.max() >= n:
                    raise GraphError("in_sources contains vertex IDs out of range")
        for weights, edge_array, label in (
            (self.out_weights, self.out_targets, "out_weights"),
            (self.in_weights, self.in_sources, "in_weights"),
        ):
            if weights is not None and weights.shape != edge_array.shape:
                raise GraphError(f"{label} is not aligned with its edge array")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, weighted={self.is_weighted})"
        )


@dataclass
class MmapCSRGraph(CSRGraph):
    """A :class:`CSRGraph` whose arrays are ``np.memmap``-backed.

    Instances are produced by the binary-CSR disk cache
    (:class:`repro.graph.ingest.CSRBinaryCache`): the ``indptr`` / ``indices``
    / ``weights`` arrays are opened with ``np.load(..., mmap_mode="r")`` so a
    graph larger than RAM is paged in lazily as the trace pipeline slices it.
    Everything that consumes a :class:`CSRGraph` — the analytics framework,
    the reordering stack, trace generation, :mod:`repro.graph.properties` —
    works against either backing unchanged; transformations that materialize
    new arrays (``relabel``, ``reverse``, ``with_random_weights``) return
    plain in-RAM graphs.

    The backing directory's entry was validated when the cache wrote it, so
    construction skips the O(E) edge-range scan by default (it would fault in
    the whole mapping).
    """

    backing_dir: Optional[Path] = None

    @property
    def is_mmap(self) -> bool:
        """Whether the edge arrays are memory-mapped (always true here)."""
        return True

    def materialize(self, name: Optional[str] = None) -> CSRGraph:
        """Copy the graph into plain in-RAM arrays."""
        return CSRGraph(
            out_index=np.array(self.out_index),
            out_targets=np.array(self.out_targets),
            in_index=np.array(self.in_index),
            in_sources=np.array(self.in_sources),
            out_weights=None if self.out_weights is None else np.array(self.out_weights),
            in_weights=None if self.in_weights is None else np.array(self.in_weights),
            name=name or self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MmapCSRGraph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, weighted={self.is_weighted}, "
            f"backing_dir={str(self.backing_dir)!r})"
        )
