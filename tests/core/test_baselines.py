"""Tests for the Table 1 folklore baselines."""

import networkx as nx
import pytest

from repro.analysis.domination import is_dominating_set
from repro.api import solve
from repro.core.baselines import (
    degree_two_dominating_set,
    full_gather_exact,
    take_all_vertices,
)
from repro.graphs import generators as gen
from repro.graphs.kernel import GraphKernel, KernelView
from repro.graphs.packed import PackedGraphKernel
from repro.graphs.random_families import random_tree
from repro.solvers.exact import domination_number


class TestDegreeTwo:
    def test_valid_on_trees(self):
        for seed in range(5):
            g = random_tree(18, seed)
            result = degree_two_dominating_set(g)
            assert is_dominating_set(g, result.solution)

    def test_three_approx_on_trees(self):
        for seed in range(6):
            g = random_tree(18, seed)
            result = degree_two_dominating_set(g)
            assert len(result.solution) <= 3 * domination_number(g)

    def test_two_rounds(self, path5):
        assert degree_two_dominating_set(path5).rounds == 2

    def test_path_takes_interior(self, path5):
        assert degree_two_dominating_set(path5).solution == {1, 2, 3}

    def test_single_edge_component(self):
        g = nx.path_graph(2)
        result = degree_two_dominating_set(g)
        assert result.solution == {0}

    def test_valid_on_general_graphs(self, small_zoo):
        for g in small_zoo:
            assert is_dominating_set(g, degree_two_dominating_set(g).solution)

    def test_matches_networkx_reference(self, small_zoo):
        # The historical implementation: nx degrees (a self-loop counts
        # twice), then the repr-least vertex of every uncovered component.
        def reference(graph):
            solution = {v for v in graph.nodes if graph.degree(v) >= 2}
            for component in nx.connected_components(graph):
                if not solution & component:
                    solution.add(min(component, key=repr))
            return solution

        loops = nx.path_graph(4)
        loops.add_edges_from([(1, 1), (7, 7), (8, 8), (8, 9)])
        forest = nx.Graph([(0, 1), (2, 3), (3, 4)])
        forest.add_nodes_from([5, 6])
        graphs = list(small_zoo) + [loops, forest, nx.grid_2d_graph(2, 3)]
        for g in graphs:
            assert degree_two_dominating_set(g).solution == reference(g)

    @pytest.mark.parametrize("build", [GraphKernel, PackedGraphKernel.from_graph])
    def test_runs_on_kernel_view(self, build):
        g = gen.ladder(12)
        g.add_edge("tail", 0)
        g.add_nodes_from(["lone"])
        report = solve(KernelView(build(g)), "degree_two")
        assert report.valid
        assert report.result.solution == degree_two_dominating_set(g).solution


class TestTakeAll:
    def test_zero_rounds(self, star6):
        assert take_all_vertices(star6).rounds == 0

    def test_t_approx_on_stars(self):
        # stars are K_{1,t}-minor-free for t = degree + 1; footnote 4.
        g = gen.star(9)
        result = take_all_vertices(g)
        delta = max(dict(g.degree).values())
        assert len(result.solution) <= (delta + 1) * domination_number(g)


class TestFullGatherExact:
    def test_optimal(self, small_zoo):
        for g in small_zoo:
            result = full_gather_exact(g)
            assert len(result.solution) == domination_number(g)

    def test_rounds_are_diameter_plus_one(self, path5):
        assert full_gather_exact(path5).rounds == 5

    def test_rounds_grow_with_n(self):
        r = [full_gather_exact(gen.path(n)).rounds for n in (5, 10, 20)]
        assert r[0] < r[1] < r[2]
