"""Correctness and trace-shape tests for the six GAP kernels.

Algorithmic results are validated against networkx on small random
graphs; trace shape (PC counts, array regions, truncation) against the
paper's characterization claims.
"""

import importlib
import weakref
from contextlib import contextmanager
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.gap import (
    GAP_KERNELS,
    GapWorkloadSpec,
    KernelRun,
    bfs,
    betweenness_centrality,
    build_graph,
    connected_components,
    make_weights,
    pagerank,
    run_kernel,
    sssp,
    triangle_count,
)
from repro.gap.common import pick_sources
from repro.graphs import (
    CSRGraph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
    uniform_random,
)
from repro.trace.builder import TraceBuilder


def _as_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges().tolist())
    return g


@pytest.fixture(scope="module")
def graph():
    return uniform_random(256, avg_degree=6, seed=11)


@pytest.fixture(scope="module")
def nx_graph(graph):
    return _as_networkx(graph)


class TestBFS:
    def test_depths_match_networkx(self, graph, nx_graph):
        source = pick_sources(graph, 1)[0]
        run = bfs(graph, source=source)
        parents = run.values
        depths_nx = nx.single_source_shortest_path_length(nx_graph, source)

        def depth(v):
            d = 0
            while parents[v] != v:
                v = int(parents[v])
                d += 1
            return d

        for v, d_nx in depths_nx.items():
            assert depth(v) == d_nx

    def test_unreachable_marked(self, graph, nx_graph):
        source = pick_sources(graph, 1)[0]
        parents = bfs(graph, source=source).values
        reachable = set(nx.node_connected_component(nx_graph, source))
        for v in range(graph.num_vertices):
            if v not in reachable:
                assert parents[v] == -1

    def test_parent_edges_exist(self, graph):
        source = pick_sources(graph, 1)[0]
        parents = bfs(graph, source=source).values
        for v in range(graph.num_vertices):
            p = int(parents[v])
            if p != -1 and p != v:
                assert p in graph.neighbors_of(v).tolist()

    def test_path_graph_parents(self):
        g = path_graph(5)
        parents = bfs(g, source=0).values
        assert parents.tolist() == [0, 0, 1, 2, 3]

    def test_pc_count_is_small(self, graph):
        run = bfs(graph, source=pick_sources(graph, 1)[0])
        assert len(run.pcs) <= 8  # the paper's "very limited number of PCs"

    def test_multiple_sources_lengthen_trace(self, graph):
        src = pick_sources(graph, 1)[0]
        one = bfs(graph, source=src, num_sources=1)
        four = bfs(graph, source=src, num_sources=4)
        assert len(four.trace) > len(one.trace)

    def test_truncation_budget(self, graph):
        run = bfs(graph, num_sources=8, max_accesses=500)
        assert len(run.trace) == 500

    def test_invalid_source_raises(self, graph):
        with pytest.raises(WorkloadError):
            bfs(graph, sources=[10_000])


class TestPageRank:
    def test_matches_networkx(self, graph, nx_graph):
        run = pagerank(graph, num_iterations=40)
        # networkx pagerank on the same symmetric graph; dangling nodes
        # are handled differently, so compare only non-isolated vertices.
        nx_pr = nx.pagerank(nx_graph, alpha=0.85, max_iter=200, tol=1e-10)
        degrees = graph.out_degrees()
        mine = run.values
        mask = degrees > 0
        mine_n = mine[mask] / mine[mask].sum()
        theirs = np.array([nx_pr[v] for v in range(graph.num_vertices)])[mask]
        theirs_n = theirs / theirs.sum()
        assert np.allclose(mine_n, theirs_n, rtol=5e-2, atol=1e-4)

    def test_ranks_sum_near_one(self, graph):
        ranks = pagerank(graph, num_iterations=20).values
        assert ranks.sum() == pytest.approx(1.0, abs=0.1)

    def test_star_centre_has_highest_rank(self):
        g = star_graph(10)
        ranks = pagerank(g, num_iterations=30).values
        assert ranks.argmax() == 0

    def test_validation(self, graph):
        with pytest.raises(WorkloadError):
            pagerank(graph, num_iterations=0)
        with pytest.raises(WorkloadError):
            pagerank(graph, damping=1.5)

    def test_trace_has_gather_pattern(self, graph):
        """Gather PCs must touch many more blocks than the OA PC."""
        run = pagerank(graph, num_iterations=2)
        trace = run.trace
        pcs = run.pcs
        gather_pc = pcs["pr.gather_contrib"]
        na_pc = pcs["pr.load_neighbor"]
        gather_blocks = np.unique(trace.block_addrs()[trace.pcs == gather_pc]).size
        assert gather_blocks > 0
        assert (trace.pcs == na_pc).sum() == (trace.pcs == gather_pc).sum()


class TestConnectedComponents:
    def test_matches_networkx(self, graph, nx_graph):
        labels = connected_components(graph).values
        for comp in nx.connected_components(nx_graph):
            comp = list(comp)
            assert len({labels[v] for v in comp}) == 1

    def test_different_components_different_labels(self):
        # Two disjoint cycles: vertices 0-2 and 3-5.
        edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
        g = CSRGraph.from_edges(6, edges, symmetrize=True)
        labels = connected_components(g).values
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_isolated_vertices_keep_own_label(self):
        g = CSRGraph.from_edges(3, np.array([[0, 1]]), symmetrize=True)
        labels = connected_components(g).values
        assert labels[2] == 2

    @pytest.mark.parametrize(
        "make_graph",
        [lambda: path_graph(200), lambda: grid_graph(60, 60)],
        ids=["path200", "grid60x60"],
    )
    def test_converges_on_long_diameter_graphs(self, make_graph):
        """path(200) needs 200 sweeps and grid(60, 60) needs 119."""
        g = make_graph()
        labels = connected_components(g).values
        expected = nx.number_connected_components(_as_networkx(g))
        assert len(np.unique(labels)) == expected


class TestSSSP:
    def test_matches_dijkstra(self, graph):
        w = make_weights(graph, max_weight=16, seed=8)
        source = pick_sources(graph, 1)[0]
        run = sssp(graph, source=source, delta=8, weights=w)
        g = nx.DiGraph()
        for i, (u, v) in enumerate(graph.edges().tolist()):
            g.add_edge(u, v, weight=int(w[i]))
        expected = nx.single_source_dijkstra_path_length(g, source)
        d = run.values
        for v in range(graph.num_vertices):
            assert d[v] == expected.get(v, -1)

    @pytest.mark.parametrize("delta", [1, 4, 64, 10_000])
    def test_delta_insensitive(self, graph, delta):
        w = make_weights(graph, max_weight=8, seed=9)
        source = pick_sources(graph, 1)[0]
        baseline = sssp(graph, source=source, delta=16, weights=w).values
        other = sssp(graph, source=source, delta=delta, weights=w).values
        assert np.array_equal(baseline, other)

    def test_weights_validation(self, graph):
        with pytest.raises(WorkloadError):
            sssp(graph, weights=np.ones(3, dtype=np.int64))
        with pytest.raises(WorkloadError):
            sssp(graph, delta=0)

    def test_trace_contains_weight_stream(self, graph):
        run = sssp(graph)
        weight_pc = run.pcs["sssp.load_weight"]
        assert (run.trace.pcs == weight_pc).sum() > 0


class TestBC:
    def test_matches_networkx_single_source(self):
        g = uniform_random(64, avg_degree=5, seed=13)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(64))
        nxg.add_edges_from(g.edges().tolist())
        source = pick_sources(g, 1)[0]
        run = betweenness_centrality(g, sources=[source])
        # networkx betweenness restricted to one source.
        expected = nx.betweenness_centrality_subset(
            nxg, sources=[source], targets=list(nxg.nodes), normalized=False
        )
        mine = run.values
        for v in range(64):
            if v == source:
                continue
            # subset BC counts each unordered pair once; Brandes
            # single-source dependency equals 2x the subset value.
            assert mine[v] == pytest.approx(2 * expected[v], rel=1e-6, abs=1e-9)

    def test_path_graph_bc(self):
        g = path_graph(5)
        run = betweenness_centrality(g, sources=[0])
        # From source 0 on a path, dependency of vertex v counts all
        # shortest paths through it: delta[1]=3, delta[2]=2, delta[3]=1.
        assert run.values[1] == pytest.approx(3.0)
        assert run.values[2] == pytest.approx(2.0)
        assert run.values[3] == pytest.approx(1.0)

    def test_truncation(self):
        g = uniform_random(128, avg_degree=6, seed=14)
        run = betweenness_centrality(g, num_sources=4, max_accesses=300)
        assert len(run.trace) == 300
        assert run.trace.info.get("truncated")

    def test_source_validation(self):
        g = path_graph(3)
        with pytest.raises(WorkloadError):
            betweenness_centrality(g, sources=[99])


class TestTriangleCount:
    def test_matches_networkx(self, graph, nx_graph):
        count = triangle_count(graph).values
        expected = sum(nx.triangles(nx_graph).values()) // 3
        assert count == expected

    def test_cycle_has_no_triangles(self):
        assert triangle_count(cycle_graph(6)).values == 0

    def test_complete_graph_triangles(self):
        from repro.graphs import complete_graph

        assert triangle_count(complete_graph(5)).values == 10  # C(5,3)

    def test_truncation_marks_partial(self, graph):
        run = triangle_count(graph, max_accesses=200)
        assert len(run.trace) == 200
        assert run.trace.info.get("truncated")

    def test_pc_count_is_tiny(self, graph):
        assert len(triangle_count(graph).pcs) == 3


#: Small kron and urand graphs, the trace-budget properties' inputs.
BUDGET_GRAPHS = dict(
    family=st.sampled_from(["kron", "urand"]),
    scale=st.integers(4, 9),
    degree=st.integers(2, 8),
    seed=st.integers(0, 2**16),
)

#: Tier-1 keeps 30 examples per budget property; the nightly profile runs 100.
BUDGET_EXAMPLES = max(30, settings().max_examples // 20)

#: The module and step of each kernel that defers exact ``values``.
DEFERRED_STEPS = {
    "pr": ("repro.gap.pagerank", "_pull"),
    "cc": ("repro.gap.cc", "_sweep"),
    "sssp": ("repro.gap.sssp", "_relax_to_fixpoint"),
}


@contextmanager
def calls_into_full_builders():
    """Record each ``extend``/``access`` call made on a full TraceBuilder."""
    calls = []

    def counted(method):
        def wrapper(self, *args, **kwargs):
            if self.full:
                calls.append(method.__name__)
            return method(self, *args, **kwargs)

        return wrapper

    with (
        mock.patch.object(TraceBuilder, "extend", counted(TraceBuilder.extend)),
        mock.patch.object(TraceBuilder, "access", counted(TraceBuilder.access)),
    ):
        yield calls


class TestTraceBudget:
    """A trace budget truncates the trace and changes no record before the cut."""

    @given(**BUDGET_GRAPHS, data=st.data())
    @settings(max_examples=BUDGET_EXAMPLES, deadline=None)
    def test_budgeted_trace_is_prefix_of_full(self, family, scale, degree, seed, data):
        graph = build_graph(GapWorkloadSpec("bfs", family, scale, degree, seed=seed))
        for kernel in GAP_KERNELS:
            full = run_kernel(kernel, graph, trace_name=kernel)
            budget = data.draw(st.integers(1, len(full.trace) + 5), label=kernel)
            cut = run_kernel(kernel, graph, trace_name=kernel, max_accesses=budget)
            assert np.array_equal(cut.trace.records, full.trace.records[:budget]), kernel
            if kernel in ("pr", "cc", "sssp"):  # exact whatever the budget
                assert np.array_equal(cut.values, full.values), kernel

    @given(**BUDGET_GRAPHS, data=st.data())
    @settings(max_examples=BUDGET_EXAMPLES, deadline=None)
    def test_kernels_stop_once_the_window_is_full(self, family, scale, degree, seed, data):
        """At most the rest of one vertex's records reach a full builder."""
        graph = build_graph(GapWorkloadSpec("bfs", family, scale, degree, seed=seed))
        for kernel in GAP_KERNELS:
            length = len(run_kernel(kernel, graph, trace_name=kernel).trace)
            budget = data.draw(st.integers(1, length + 5), label=kernel)
            with calls_into_full_builders() as calls:
                run_kernel(kernel, graph, trace_name=kernel, max_accesses=budget)
            assert len(calls) <= 2, (kernel, calls)

    @pytest.mark.parametrize("kernel", sorted(DEFERRED_STEPS))
    def test_exact_values_are_computed_on_first_read(self, graph, kernel, monkeypatch):
        module_name, step_name = DEFERRED_STEPS[kernel]
        module = importlib.import_module(module_name)
        step = getattr(module, step_name)
        calls = []

        def counted(*args):
            calls.append(step_name)
            return step(*args)

        monkeypatch.setattr(module, step_name, counted)
        cut = run_kernel(kernel, graph, trace_name=kernel, max_accesses=50)
        assert len(cut.trace) == 50
        assert calls == []  # returned before the rest of the computation
        first = cut.values
        ran = len(calls)
        assert ran > 0
        assert cut.values is first and len(calls) == ran  # computed once
        monkeypatch.setattr(module, step_name, step)
        assert np.array_equal(first, run_kernel(kernel, graph, trace_name=kernel).values)


class TestKernelRun:
    def test_values_are_read_only(self, graph):
        run = triangle_count(graph, max_accesses=100)
        with pytest.raises(AttributeError):
            run.values = 0

    def test_finish_runs_once_and_releases_its_state(self):
        state = np.arange(4)
        released = weakref.ref(state)
        calls = []

        def finish(values=state):
            calls.append(1)
            return int(values.sum())

        run = KernelRun("deferred", trace=TraceBuilder().build(), pcs={}, finish=finish)
        del state, finish
        assert calls == [] and released() is not None
        assert run.values == 6 and run.values == 6
        assert calls == [1] and released() is None


class TestKernelTraceShape:
    def test_all_kernels_have_few_pcs_and_big_footprints(self, graph):
        """The paper's E2 claim, verified at kernel level."""
        from repro.trace.stats import compute_trace_stats

        runs = [
            bfs(graph, source=pick_sources(graph, 1)[0]),
            pagerank(graph, num_iterations=2),
            connected_components(graph),
            sssp(graph),
            triangle_count(graph),
        ]
        for run in runs:
            stats = compute_trace_stats(run.trace)
            assert stats.num_pcs <= 8
            assert stats.mean_blocks_per_pc > 20
