"""Tests for neighborhood/ball/diameter utilities."""

import networkx as nx
import pytest

from repro.graphs import generators as gen
from repro.graphs.util import (
    ball,
    ball_of_set,
    closed_neighborhood,
    closed_neighborhood_of_set,
    connected_components_of_subset,
    distances_from,
    graph_diameter,
    induced_ball,
    induced_ball_of_set,
    is_d_bounded,
    r_components,
    relabel_to_integers,
    weak_diameter,
)


class TestClosedNeighborhood:
    def test_includes_vertex_itself(self, path5):
        assert 2 in closed_neighborhood(path5, 2)

    def test_path_interior(self, path5):
        assert closed_neighborhood(path5, 2) == {1, 2, 3}

    def test_path_endpoint(self, path5):
        assert closed_neighborhood(path5, 0) == {0, 1}

    def test_isolated_vertex(self):
        g = nx.Graph()
        g.add_node(7)
        assert closed_neighborhood(g, 7) == {7}

    def test_of_set_union(self, path5):
        assert closed_neighborhood_of_set(path5, [0, 4]) == {0, 1, 3, 4}

    def test_of_empty_set(self, path5):
        assert closed_neighborhood_of_set(path5, []) == set()


class TestBall:
    def test_radius_zero(self, cycle6):
        assert ball(cycle6, 0, 0) == {0}

    def test_negative_radius_empty(self, cycle6):
        assert ball(cycle6, 0, -1) == set()

    def test_radius_one_equals_closed_neighborhood(self, cycle6):
        assert ball(cycle6, 3, 1) == closed_neighborhood(cycle6, 3)

    def test_radius_covers_cycle(self, cycle6):
        assert ball(cycle6, 0, 3) == set(cycle6.nodes)

    def test_radius_two_on_path(self, path5):
        assert ball(path5, 0, 2) == {0, 1, 2}

    def test_ball_of_set_multi_source(self, path5):
        assert ball_of_set(path5, [0, 4], 1) == {0, 1, 3, 4}

    def test_large_radius_saturates(self, path5):
        assert ball(path5, 2, 100) == set(path5.nodes)


class TestInducedBall:
    def test_induced_ball_edges(self, cycle6):
        sub = induced_ball(cycle6, 0, 1)
        assert set(sub.nodes) == {5, 0, 1}
        assert sub.number_of_edges() == 2

    def test_induced_ball_of_set(self, path5):
        sub = induced_ball_of_set(path5, [0, 4], 1)
        assert set(sub.nodes) == {0, 1, 3, 4}
        assert sub.number_of_edges() == 2

    def test_induced_ball_is_copy(self, cycle6):
        sub = induced_ball(cycle6, 0, 1)
        sub.remove_node(0)
        assert 0 in cycle6.nodes


class TestDistances:
    def test_distances_from_source(self, path5):
        assert distances_from(path5, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_cutoff_truncates(self, path5):
        assert distances_from(path5, 0, cutoff=2) == {0: 0, 1: 1, 2: 2}

    def test_disconnected_unreached(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        assert 2 not in distances_from(g, 0)


class TestWeakDiameter:
    def test_full_path(self, path5):
        assert weak_diameter(path5, path5.nodes) == 4

    def test_subset_uses_graph_distances(self, cycle6):
        # {0, 3} are opposite on C6: distance 3 through the graph.
        assert weak_diameter(cycle6, [0, 3]) == 3

    def test_weak_vs_induced(self):
        # On a cycle, endpoints of a long arc are close through the rest
        # of the graph even though the induced subgraph is disconnected.
        g = gen.cycle(8)
        assert weak_diameter(g, [0, 2]) == 2

    def test_singleton_zero(self, path5):
        assert weak_diameter(path5, [3]) == 0

    def test_disconnected_raises(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            weak_diameter(g, [0, 2])

    def test_is_d_bounded(self, path5):
        assert is_d_bounded(path5, [0, 2], 2)
        assert not is_d_bounded(path5, [0, 4], 3)

    def test_is_d_bounded_disconnected_false(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        assert not is_d_bounded(g, [0, 2], 100)


class TestRComponents:
    def test_single_component_when_r_large(self, path5):
        comps = r_components(path5, {0, 2, 4}, 2)
        assert comps == [{0, 2, 4}]

    def test_splits_when_r_small(self, path5):
        comps = r_components(path5, {0, 4}, 2)
        assert sorted(map(sorted, comps)) == [[0], [4]]

    def test_r_one_is_induced_components(self, path5):
        comps = r_components(path5, {0, 1, 3}, 1)
        assert sorted(map(sorted, comps)) == [[0, 1], [3]]

    def test_empty_set(self, path5):
        assert r_components(path5, set(), 3) == []

    def test_hops_measured_in_host_graph(self, cycle6):
        # 0 and 2 are two apart through vertex 1 even if 1 is not in the set.
        comps = r_components(cycle6, {0, 2}, 2)
        assert comps == [{0, 2}]


class TestRelabel:
    def test_relabel_to_integers(self):
        g = nx.Graph()
        g.add_edge("b", "a")
        relabelled, mapping = relabel_to_integers(g)
        assert set(relabelled.nodes) == {0, 1}
        assert relabelled.has_edge(mapping["a"], mapping["b"])

    def test_connected_components_of_subset(self, path5):
        comps = connected_components_of_subset(path5, [0, 1, 3])
        assert sorted(map(sorted, comps)) == [[0, 1], [3]]


def _component_diameter(graph):
    return max(
        (nx.diameter(graph.subgraph(c)) for c in nx.connected_components(graph)),
        default=0,
    )


class TestGraphDiameter:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_match_networkx(self, seed):
        for p in (0.02, 0.08, 0.3):
            g = nx.gnp_random_graph(40 + 11 * seed, p, seed=seed)
            assert graph_diameter(g) == _component_diameter(g)

    def test_disconnected_takes_the_largest_component_diameter(self):
        g = nx.disjoint_union(gen.path(7), gen.cycle(9))
        assert graph_diameter(g) == 6 == _component_diameter(g)

    def test_isolated_vertices_and_empty(self):
        g = gen.cycle(5)
        g.add_nodes_from(["a", "b"])
        assert graph_diameter(g) == 2 == _component_diameter(g)
        assert graph_diameter(nx.empty_graph(4)) == 0
        assert graph_diameter(nx.Graph()) == 0

    def test_more_vertices_than_one_source_block(self):
        g = gen.path(150)  # sources are walked in blocks; the far end is in the last
        assert graph_diameter(g) == 149

    def test_tuple_labels(self):
        g = nx.grid_2d_graph(3, 5)
        assert graph_diameter(g) == 6 == _component_diameter(g)
