"""Unit tests for the CSR graph representation and builder."""

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.graph.builder import _build_csr, _from_edge_list
from repro.graph.csr import GraphError


def paper_example_graph() -> CSRGraph:
    """The 6-vertex example graph from Fig. 1(a) of the paper.

    In-edges (destination <- source): 1<-3, 1<-2, 2<-0, 2<-5, 3<-1, 3<-5,
    3<-4, 4<-5, 5<-2.  Vertex 0 has no in-edges.
    """
    edges = [
        (3, 1),
        (2, 1),
        (0, 2),
        (5, 2),
        (1, 3),
        (5, 3),
        (4, 3),
        (5, 4),
        (2, 5),
    ]
    return _from_edge_list(edges, num_vertices=6, name="fig1")


class TestBuildCSR:
    def test_vertex_and_edge_counts(self):
        graph = paper_example_graph()
        assert graph.num_vertices == 6
        assert graph.num_edges == 9

    def test_in_csr_matches_paper_figure(self):
        """Fig. 1(b): the in-edge Vertex Array is [0, 0, 2, 4, 7, 8, 9]."""
        graph = paper_example_graph()
        expected_index = [0, 0, 2, 4, 7, 8, 9]
        assert graph.in_index.tolist() == expected_index
        assert sorted(graph.in_neighbors(1).tolist()) == [2, 3]
        assert sorted(graph.in_neighbors(3).tolist()) == [1, 4, 5]
        assert graph.in_neighbors(0).tolist() == []

    def test_out_neighbors(self):
        graph = paper_example_graph()
        assert sorted(graph.out_neighbors(5).tolist()) == [2, 3, 4]
        assert graph.out_degree(5) == 3
        assert graph.in_degree(5) == 1

    def test_degree_arrays_sum_to_edges(self):
        graph = paper_example_graph()
        assert graph.out_degrees.sum() == graph.num_edges
        assert graph.in_degrees.sum() == graph.num_edges

    def test_edge_arrays_roundtrip(self):
        graph = paper_example_graph()
        sources, targets = graph.edge_arrays()
        rebuilt = _build_csr(6, sources, targets)
        assert rebuilt.out_index.tolist() == graph.out_index.tolist()
        assert rebuilt.out_targets.tolist() == graph.out_targets.tolist()

    def test_neighbor_lists_are_sorted(self):
        graph = paper_example_graph()
        for v in range(graph.num_vertices):
            out = graph.out_neighbors(v)
            assert np.all(np.diff(out) >= 0)

    def test_empty_graph(self):
        graph = _from_edge_list([], num_vertices=4)
        assert graph.num_vertices == 4
        assert graph.num_edges == 0
        assert graph.average_degree == 0.0

    def test_zero_vertex_graph(self):
        graph = _from_edge_list([])
        assert graph.num_vertices == 0
        assert graph.num_edges == 0

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(GraphError):
            _build_csr(3, np.array([0, 5]), np.array([1, 2]))

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError):
            _build_csr(3, np.array([0, -1]), np.array([1, 2]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(GraphError):
            _build_csr(3, np.array([0, 1]), np.array([1]))

    def test_vertex_count_beyond_edge_key_rejected(self):
        # Edges sort on group * num_vertices + other, which must fit in int64;
        # the builder refuses before allocating per-vertex arrays.
        with pytest.raises(GraphError, match="at most 3037000499 vertices"):
            _build_csr(3_037_000_500, np.array([0]), np.array([1]))

    def test_self_loop_removal(self):
        graph = _build_csr(
            3, np.array([0, 1, 2]), np.array([0, 2, 2]), remove_self_loops=True
        )
        assert graph.num_edges == 1
        assert graph.out_neighbors(1).tolist() == [2]

    def test_deduplicate(self):
        graph = _build_csr(
            3, np.array([0, 0, 0, 1]), np.array([1, 1, 2, 2]), deduplicate=True
        )
        assert graph.num_edges == 3
        assert graph.out_neighbors(0).tolist() == [1, 2]


class TestTransformations:
    def test_reverse_swaps_directions(self):
        graph = paper_example_graph()
        reversed_graph = graph.reverse()
        assert reversed_graph.num_edges == graph.num_edges
        for v in range(graph.num_vertices):
            assert sorted(reversed_graph.out_neighbors(v).tolist()) == sorted(
                graph.in_neighbors(v).tolist()
            )

    def test_reverse_twice_is_identity(self):
        graph = paper_example_graph()
        double = graph.reverse().reverse()
        assert double.out_index.tolist() == graph.out_index.tolist()
        assert double.out_targets.tolist() == graph.out_targets.tolist()

    def test_relabel_identity(self):
        graph = paper_example_graph()
        relabeled = graph.relabel(np.arange(6))
        assert relabeled.out_index.tolist() == graph.out_index.tolist()
        assert relabeled.out_targets.tolist() == graph.out_targets.tolist()

    def test_relabel_preserves_degree_multiset(self):
        graph = paper_example_graph()
        permutation = np.array([5, 4, 3, 2, 1, 0])
        relabeled = graph.relabel(permutation)
        assert sorted(relabeled.out_degrees.tolist()) == sorted(graph.out_degrees.tolist())
        assert sorted(relabeled.in_degrees.tolist()) == sorted(graph.in_degrees.tolist())

    def test_relabel_moves_edges_correctly(self):
        graph = paper_example_graph()
        permutation = np.array([1, 0, 2, 3, 4, 5])  # swap vertices 0 and 1
        relabeled = graph.relabel(permutation)
        # Old edge 0 -> 2 becomes 1 -> 2.
        assert 2 in relabeled.out_neighbors(1).tolist()
        # Old edge 3 -> 1 becomes 3 -> 0.
        assert 0 in relabeled.out_neighbors(3).tolist()

    def test_relabel_rejects_non_bijection(self):
        graph = paper_example_graph()
        with pytest.raises(GraphError):
            graph.relabel(np.zeros(6, dtype=np.int64))

    def test_relabel_rejects_wrong_length(self):
        graph = paper_example_graph()
        with pytest.raises(GraphError):
            graph.relabel(np.arange(5))


class TestWeights:
    def test_with_random_weights_attaches_weights(self):
        graph = paper_example_graph().with_random_weights(seed=3)
        assert graph.is_weighted
        assert graph.out_weights.shape == (graph.num_edges,)
        assert graph.in_weights.shape == (graph.num_edges,)
        assert graph.out_weights.min() >= 1

    def test_weights_consistent_between_directions(self):
        """The same logical edge must carry the same weight in both CSRs."""
        graph = paper_example_graph().with_random_weights(seed=7)
        out_edge_weights = {}
        for v in range(graph.num_vertices):
            for neighbor, weight in zip(
                graph.out_neighbors(v).tolist(), graph.out_edge_weights(v).tolist()
            ):
                out_edge_weights[(v, neighbor)] = weight
        for v in range(graph.num_vertices):
            for source, weight in zip(
                graph.in_neighbors(v).tolist(), graph.in_edge_weights(v).tolist()
            ):
                assert out_edge_weights[(source, v)] == weight

    def test_unweighted_weight_access_raises(self):
        graph = paper_example_graph()
        with pytest.raises(GraphError):
            graph.out_edge_weights(0)

    def test_weighted_flag_round_trips_through_relabel(self):
        graph = paper_example_graph().with_random_weights(seed=5)
        relabeled = graph.relabel(np.array([5, 4, 3, 2, 1, 0]))
        assert relabeled.is_weighted
        assert sorted(relabeled.out_weights.tolist()) == sorted(graph.out_weights.tolist())
