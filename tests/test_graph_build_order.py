"""Property suite pinning the CSR builder's edge order.

The builder orders edges by one int64 key, ``group * num_vertices + other``,
sorted stably when weights ride along.  This suite keeps the two-key
construction it replaced as the reference: ``np.lexsort`` per direction, and
``np.unique(return_index=True)`` for deduplication.  On drawn edge lists
with parallel edges carrying distinct weights, self-loops, isolated vertices
and empty lists, every CSR array must match the reference bit for bit, for
every combination of ``deduplicate``, ``remove_self_loops`` and weights.
``relabel`` and ``with_random_weights`` are held to the same reference.

The suite needs ``hypothesis``; it is skipped wholesale where the package
is unavailable.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.graph.builder import _build_csr  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402

ARRAYS = ("out_index", "out_targets", "in_index", "in_sources", "out_weights", "in_weights")


def _reference_direction(num_vertices, group_by, other, weights):
    counts = np.bincount(group_by, minlength=num_vertices).astype(np.int64)
    index = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    order = np.lexsort((other, group_by))
    return index, other[order], None if weights is None else weights[order]


def reference_build(num_vertices, sources, targets, weights=None,
                    remove_self_loops=False, deduplicate=False):
    """The lexsort + np.unique builder, array for array."""
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    if remove_self_loops and sources.size:
        keep = sources != targets
        sources, targets = sources[keep], targets[keep]
        if weights is not None:
            weights = weights[keep]
    if deduplicate and sources.size:
        keys = sources * np.int64(num_vertices) + targets
        _, unique_idx = np.unique(keys, return_index=True)
        unique_idx.sort()
        sources, targets = sources[unique_idx], targets[unique_idx]
        if weights is not None:
            weights = weights[unique_idx]
    out_index, out_targets, out_weights = _reference_direction(
        num_vertices, sources, targets, weights
    )
    in_index, in_sources, in_weights = _reference_direction(
        num_vertices, targets, sources, weights
    )
    return dict(zip(ARRAYS, (out_index, out_targets, in_index, in_sources,
                             out_weights, in_weights)))


def _out_sources(graph: CSRGraph) -> np.ndarray:
    return np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees)


def assert_matches(graph: CSRGraph, expected: dict) -> None:
    for name in ARRAYS:
        actual, want = getattr(graph, name), expected[name]
        if want is None:
            assert actual is None, name
        else:
            assert actual.dtype == want.dtype, name
            assert np.array_equal(actual, want), name


@st.composite
def edge_lists(draw):
    """``(num_vertices, sources, targets, weights)`` with many parallel edges.

    Drawn edges are repeated and shuffled, so parallel edges are common and
    arrive interleaved; weights are a permutation of ``range(edges)``, so
    every parallel edge carries a distinct weight and any reordering shows.
    Small vertex counts make self-loops common and large ones leave vertices
    isolated.
    """
    num_vertices = draw(st.integers(min_value=1, max_value=64))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    if edges:
        edges = draw(st.permutations(edges + draw(st.lists(st.sampled_from(edges), max_size=40))))
    weights = np.array(draw(st.permutations(range(len(edges)))), dtype=np.float64)
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return num_vertices, pairs[:, 0], pairs[:, 1], weights


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("remove_self_loops", [False, True], ids=["loops", "no-loops"])
@pytest.mark.parametrize("deduplicate", [False, True], ids=["parallel", "dedup"])
@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_build_matches_lexsort_reference(deduplicate, remove_self_loops, weighted, drawn):
    num_vertices, sources, targets, weights = drawn
    weights = weights if weighted else None
    options = dict(remove_self_loops=remove_self_loops, deduplicate=deduplicate)
    graph = _build_csr(num_vertices, sources, targets, weights=weights, **options)
    assert_matches(graph, reference_build(num_vertices, sources, targets, weights, **options))


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@given(edge_lists(), st.data())
@settings(max_examples=60, deadline=None)
def test_relabel_matches_lexsort_reference(weighted, drawn, data):
    num_vertices, sources, targets, weights = drawn
    graph = _build_csr(num_vertices, sources, targets, weights=weights if weighted else None)
    permutation = np.array(data.draw(st.permutations(range(num_vertices))), dtype=np.int64)
    expected = reference_build(
        num_vertices, permutation[_out_sources(graph)], permutation[graph.out_targets],
        graph.out_weights,
    )
    assert_matches(graph.relabel(permutation), expected)


@given(edge_lists(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_with_random_weights_matches_lexsort_reference(drawn, seed):
    num_vertices, sources, targets, _ = drawn
    # A wide weight range keeps parallel edges' weights distinct.
    graph = _build_csr(num_vertices, sources, targets).with_random_weights(high=2**40, seed=seed)
    order = np.lexsort((_out_sources(graph), graph.out_targets))
    assert np.array_equal(graph.in_weights, graph.out_weights[order])
