"""Tests for the CSR graph substrate, generators and loaders."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import (
    CSRGraph,
    complete_graph,
    cycle_graph,
    grid_graph,
    kronecker,
    load_csr,
    load_edge_list,
    path_graph,
    save_csr,
    save_edge_list,
    star_graph,
    uniform_random,
)


class TestCSRConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges(3, np.array([[0, 1], [0, 2], [1, 2]]))
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.neighbors_of(0).tolist() == [1, 2]

    def test_symmetrize(self):
        g = CSRGraph.from_edges(2, np.array([[0, 1]]), symmetrize=True)
        assert g.num_edges == 2
        assert g.neighbors_of(1).tolist() == [0]
        assert g.is_symmetric()

    def test_dedup_removes_duplicates_and_self_loops(self):
        g = CSRGraph.from_edges(3, np.array([[0, 1], [0, 1], [1, 1]]))
        assert g.num_edges == 1

    def test_dedup_disabled_keeps_duplicates(self):
        g = CSRGraph.from_edges(3, np.array([[0, 1], [0, 1]]), dedup=False)
        assert g.num_edges == 2

    def test_adjacency_lists_sorted(self):
        g = CSRGraph.from_edges(4, np.array([[0, 3], [0, 1], [0, 2]]))
        assert g.neighbors_of(0).tolist() == [1, 2, 3]

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, np.array([[0, 5]]))

    def test_rejects_inconsistent_offsets(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2]), np.array([0]))

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))

    def test_empty_graph(self):
        g = CSRGraph.from_edges(3, np.empty((0, 2)))
        assert g.num_edges == 0
        assert g.out_degree(0) == 0


def _three_sort_csr(num_vertices, edges, symmetrize, dedup=True):
    """Reference CSR builder with three sorts: np.unique(return_index=True),
    a re-sort of the kept rows, then a lexsort by (src, dst)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if symmetrize and len(edges):
        edges = np.concatenate([edges, edges[:, ::-1]])
    if dedup and len(edges):
        edges = edges[edges[:, 0] != edges[:, 1]]
        keys = edges[:, 0] * np.int64(num_vertices) + edges[:, 1]
        _, idx = np.unique(keys, return_index=True)
        edges = edges[np.sort(idx)]
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    src, neighbors = edges[order, 0], edges[order, 1]
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=offsets[1:])
    return offsets, neighbors


# Few vertices and many edges, so duplicates and self-loops are common.
edge_lists = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60),
    )
)


class TestFromEdgesOracle:
    @given(edge_lists, st.booleans())
    @example((3, []), False)
    @example((3, []), True)
    @settings(max_examples=200, deadline=None)
    def test_matches_three_sort_builder(self, case, symmetrize):
        n, pairs = case
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        g = CSRGraph.from_edges(n, edges, symmetrize=symmetrize)
        offsets, neighbors = _three_sort_csr(n, edges, symmetrize)
        assert g.offsets.dtype == g.neighbors.dtype == np.int64
        assert np.array_equal(g.offsets, offsets)
        assert np.array_equal(g.neighbors, neighbors)

        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        t_offsets, t_neighbors = _three_sort_csr(
            n, np.column_stack([neighbors, src]), symmetrize=False, dedup=False
        )
        t = g.transpose()
        assert np.array_equal(t.offsets, t_offsets)
        assert np.array_equal(t.neighbors, t_neighbors)


class TestQueries:
    def test_degrees(self):
        g = path_graph(4)
        assert g.out_degrees().tolist() == [1, 2, 2, 1]
        assert g.out_degree(1) == 2

    def test_edges_roundtrip(self):
        g = cycle_graph(5)
        g2 = CSRGraph.from_edges(5, g.edges(), dedup=False)
        assert np.array_equal(g.offsets, g2.offsets)
        assert np.array_equal(g.neighbors, g2.neighbors)

    def test_transpose_of_directed(self):
        g = CSRGraph.from_edges(3, np.array([[0, 1], [1, 2]]))
        t = g.transpose()
        assert t.neighbors_of(1).tolist() == [0]
        assert t.neighbors_of(2).tolist() == [1]

    def test_transpose_of_symmetric_is_same(self):
        g = cycle_graph(6)
        t = g.transpose()
        assert np.array_equal(g.offsets, t.offsets)
        assert np.array_equal(g.neighbors, t.neighbors)

    def test_average_degree(self):
        assert complete_graph(4).average_degree == pytest.approx(3.0)


class TestDeterministicGenerators:
    def test_path(self):
        g = path_graph(3)
        assert g.num_edges == 4  # 2 undirected edges

    def test_cycle(self):
        g = cycle_graph(4)
        assert all(g.out_degree(v) == 2 for v in range(4))

    def test_star(self):
        g = star_graph(5)
        assert g.out_degree(0) == 5
        assert all(g.out_degree(v) == 1 for v in range(1, 6))

    def test_complete(self):
        g = complete_graph(5)
        assert all(g.out_degree(v) == 4 for v in range(5))

    def test_grid(self):
        g = grid_graph(3, 3)
        corners = [0, 2, 6, 8]
        assert all(g.out_degree(c) == 2 for c in corners)
        assert g.out_degree(4) == 4  # centre

    def test_generator_validation(self):
        with pytest.raises(GraphError):
            path_graph(0)
        with pytest.raises(GraphError):
            cycle_graph(2)
        with pytest.raises(GraphError):
            grid_graph(0, 3)


class TestRandomGenerators:
    def test_uniform_random_deterministic(self):
        a = uniform_random(128, avg_degree=4, seed=3)
        b = uniform_random(128, avg_degree=4, seed=3)
        assert np.array_equal(a.neighbors, b.neighbors)

    def test_uniform_random_symmetric(self):
        assert uniform_random(64, avg_degree=4, seed=1).is_symmetric()

    def test_kronecker_size_and_symmetry(self):
        g = kronecker(8, edge_factor=8, seed=2)
        assert g.num_vertices == 256
        assert g.is_symmetric()

    def test_kronecker_skewed_degrees(self):
        """RMAT degree distribution must be much more skewed than urand."""
        kron = kronecker(10, edge_factor=8, seed=2)
        urand = uniform_random(1024, avg_degree=8, seed=2)
        assert kron.out_degrees().max() > 2 * urand.out_degrees().max()

    def test_kronecker_validation(self):
        with pytest.raises(GraphError):
            kronecker(0)
        with pytest.raises(GraphError):
            kronecker(5, a=0.9, b=0.9, c=0.9)


class TestLoaders:
    def test_edge_list_roundtrip(self, tmp_path):
        g = cycle_graph(5)
        path = save_edge_list(g, tmp_path / "g.el")
        loaded = load_edge_list(path)
        assert np.array_equal(loaded.offsets, g.offsets)
        assert np.array_equal(loaded.neighbors, g.neighbors)

    def test_edge_list_with_comments(self, tmp_path):
        path = tmp_path / "c.el"
        path.write_text("# comment\n% other\n0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_edge_list_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("0\n")
        with pytest.raises(GraphError, match="expected"):
            load_edge_list(path)

    def test_edge_list_non_integer_raises(self, tmp_path):
        path = tmp_path / "bad2.el"
        path.write_text("a b\n")
        with pytest.raises(GraphError, match="non-integer"):
            load_edge_list(path)

    def test_csr_roundtrip(self, tmp_path):
        g = kronecker(6, edge_factor=4, seed=5)
        path = save_csr(g, tmp_path / "g")
        loaded = load_csr(path)
        assert np.array_equal(loaded.offsets, g.offsets)
        assert np.array_equal(loaded.neighbors, g.neighbors)

    def test_csr_bad_archive(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, a=np.zeros(2))
        with pytest.raises(GraphError, match="not a repro CSR"):
            load_csr(path)
