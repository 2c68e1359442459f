"""Tests for vertex-cover solvers."""

import networkx as nx
import pytest

from repro.api import RunConfig, solve
from repro.graphs import generators as gen
from repro.solvers.vc import (
    all_vertices_cover,
    is_vertex_cover,
    matching_vertex_cover,
    minimum_vertex_cover,
    vertex_cover_number,
)


class TestExactVc:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (gen.path(2), 1),
            (gen.path(5), 2),
            (gen.cycle(6), 3),
            (gen.cycle(7), 4),
            (gen.star(7), 1),
            (nx.complete_graph(5), 4),
            (nx.complete_bipartite_graph(2, 6), 2),
        ],
    )
    def test_known_values(self, graph, expected):
        assert vertex_cover_number(graph) == expected

    def test_validity(self, small_zoo):
        for g in small_zoo:
            assert is_vertex_cover(g, minimum_vertex_cover(g))

    def test_edgeless_graph(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        assert minimum_vertex_cover(g) == set()

    def test_mixed_labels(self):
        # int and str labels do not compare; the MILP's edge order falls
        # back to repr instead of raising.
        graph = nx.path_graph(4)
        graph.add_edge("tail", 0)
        cover = minimum_vertex_cover(graph)
        assert len(cover) == 2 and is_vertex_cover(graph, cover)
        report = solve(graph, "matching_vc", RunConfig(validate="ratio"))
        assert report.valid and report.optimum_size == 2

    def test_koenig_on_bipartite(self):
        # König: VC = max matching on bipartite graphs.
        for n in (4, 6, 8):
            g = gen.ladder(n // 2)
            matching = nx.max_weight_matching(g, maxcardinality=True)
            assert vertex_cover_number(g) == len(matching)


class TestApproximations:
    def test_matching_cover_validity(self, small_zoo):
        for g in small_zoo:
            assert is_vertex_cover(g, matching_vertex_cover(g))

    def test_matching_cover_factor_two(self, small_zoo):
        for g in small_zoo:
            assert len(matching_vertex_cover(g)) <= 2 * vertex_cover_number(g)

    def test_all_vertices_cover(self, cycle6):
        cover = all_vertices_cover(cycle6)
        assert is_vertex_cover(cycle6, cover)
        # on 2-regular graphs taking everything is a 2-approximation
        assert len(cover) <= 2 * vertex_cover_number(cycle6)

    def test_is_vertex_cover_rejects(self, path5):
        assert not is_vertex_cover(path5, {0})

    def test_is_vertex_cover_self_loops_and_foreign_labels(self, path5):
        # a self-loop is covered only by its own vertex; labels outside
        # V(G) cover nothing and are not an error
        assert is_vertex_cover(path5, {1, 3, "ghost", 99})
        assert not is_vertex_cover(path5, {1, "ghost"})
        looped = nx.Graph([(0, 1), (1, 1), (2, 2)])
        assert not is_vertex_cover(looped, {1})
        assert is_vertex_cover(looped, {1, 2})
        assert is_vertex_cover(nx.empty_graph(3), set())
