"""Tests for K_{2,t}-minor detection."""

from itertools import combinations

import networkx as nx
import pytest

from repro.graphs import generators as gen
from repro.graphs.families import FAMILIES
from repro.graphs.minors import (
    _connected_sets,
    edge_density_certificate,
    has_k2t_minor,
    has_minor,
    is_k2t_minor_free,
    largest_k2t_minor,
    largest_k2t_minor_singleton_hubs,
    max_connectors,
)
from tests.oracles.cases import atlas, mixed_path, with_self_loops
from tests.oracles.graphs import (
    legacy_largest_k2t_minor_singleton_hubs,
    legacy_max_connectors,
)


class TestMaxConnectors:
    def test_book_pages_are_connectors(self):
        g = gen.book(4)
        assert max_connectors(g, {0}, {1}) == 4

    def test_theta_paths_are_connectors(self):
        g = gen.theta(3, 3)
        assert max_connectors(g, {0}, {1}) == 3

    def test_disjoint_hub_requirement(self):
        g = gen.book(3)
        with pytest.raises(ValueError):
            max_connectors(g, {0}, {0, 1})

    def test_no_connector_without_boundary(self):
        g = gen.path(4)
        assert max_connectors(g, {0}, {3}) == 1  # the middle path

    def test_hub_sets_can_be_large(self):
        g = gen.theta(4, 4)
        # growing a hub along one path cannot create new connectors
        assert max_connectors(g, {0, 2}, {1}) <= 4


def _hub_pairs(graph, singletons: int, sets: int):
    """Deterministic hub pairs: every singleton pair among the first
    ``singletons`` vertices (repr order), then up to ``sets`` disjoint
    pairs of connected sets with two or three vertices."""
    nodes = sorted(graph.nodes, key=repr)[:singletons]
    pairs = [({a}, {b}) for a, b in combinations(nodes, 2)]
    multi = [hub for hub in _connected_sets(graph, 3) if len(hub) > 1]
    for hub_a, hub_b in combinations(multi[::3], 2):
        if len(pairs) >= len(nodes) * (len(nodes) - 1) // 2 + sets:
            break
        if not hub_a & hub_b:
            pairs.append((hub_a, hub_b))
    return pairs


class TestMaxConnectorsAgainstLegacy:
    """The CSR augmenting-path count equals the ``nx`` preflow-push
    value it replaced, on singleton and multi-vertex hubs."""

    def test_atlas(self):
        for graph in atlas(step=3):
            for hub_a, hub_b in _hub_pairs(graph, 4, 3):
                assert max_connectors(graph, hub_a, hub_b) == (
                    legacy_max_connectors(graph, hub_a, hub_b)
                ), (sorted(graph.edges), hub_a, hub_b)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_graphs(self, name):
        for n in (12, 30):
            graph = FAMILIES[name].make(n, 0)
            for hub_a, hub_b in _hub_pairs(graph, 8, 10):
                assert max_connectors(graph, hub_a, hub_b) == (
                    legacy_max_connectors(graph, hub_a, hub_b)
                )

    def test_odd_labels_self_loops_and_absent_hub_labels(self):
        graph = with_self_loops(gen.wheel(7), [0, 3])
        for hub_a, hub_b in _hub_pairs(graph, 8, 10):
            assert max_connectors(graph, hub_a, hub_b) == (
                legacy_max_connectors(graph, hub_a, hub_b)
            )
        mixed = mixed_path()
        for hub_a, hub_b in _hub_pairs(mixed, 8, 10) + [({0, "ghost"}, {11})]:
            assert max_connectors(mixed, hub_a, hub_b) == (
                legacy_max_connectors(mixed, hub_a, hub_b)
            )

    def test_larger_random_graphs(self):
        for seed in range(4):
            graph = nx.gnp_random_graph(40, 0.12, seed=seed)
            for hub_a, hub_b in _hub_pairs(graph, 8, 10):
                assert max_connectors(graph, hub_a, hub_b) == (
                    legacy_max_connectors(graph, hub_a, hub_b)
                )


class TestSingletonHubs:
    def test_k23_detected(self):
        assert largest_k2t_minor_singleton_hubs(nx.complete_bipartite_graph(2, 3)) == 3

    def test_wheel_has_large_minor(self):
        # hub + rim vertex see many disjoint rim arcs
        assert largest_k2t_minor_singleton_hubs(gen.wheel(8)) >= 3

    def test_cycle_value_two(self, cycle6):
        assert largest_k2t_minor_singleton_hubs(cycle6) == 2

    def test_tree_value_one(self, path5):
        assert largest_k2t_minor_singleton_hubs(path5) == 1

    def test_fan_value_two(self, fan5):
        # fans are outerplanar: no K_{2,3}
        assert largest_k2t_minor_singleton_hubs(fan5) == 2

    def test_degree_pruning_matches_unpruned_search(self):
        graphs = atlas(step=16)
        graphs += [FAMILIES[name].make(12, 0) for name in sorted(FAMILIES)]
        for g in graphs:
            assert largest_k2t_minor_singleton_hubs(g) == (
                legacy_largest_k2t_minor_singleton_hubs(g)
            )


class TestExactSearch:
    def test_matches_singleton_on_simple_graphs(self):
        for g in [gen.cycle(6), gen.path(5), gen.book(3), gen.fan(5)]:
            assert largest_k2t_minor(g) == largest_k2t_minor_singleton_hubs(g)

    def test_grid_k23(self):
        # 3x3 grid: opposite edge-midpoints see three disjoint columns.
        g = gen.grid(3, 3)
        assert largest_k2t_minor_singleton_hubs(g) == 3
        assert largest_k2t_minor(g, node_limit=9) >= 3

    def test_composite_hubs_beat_singletons(self):
        # Hub path a1-a2-a3 with two pendant connectors at each end, all
        # tied to b: K_{2,4} needs the whole path as one hub — every
        # single-vertex hub pair reaches at most 3 connectors.
        g = nx.Graph()
        g.add_edges_from([("a1", "a2"), ("a2", "a3")])
        for s, anchor in [("s1", "a1"), ("s2", "a1"), ("s3", "a3"), ("s4", "a3")]:
            g.add_edge(s, anchor)
            g.add_edge(s, "b")
        assert largest_k2t_minor_singleton_hubs(g) == 3
        assert largest_k2t_minor(g, node_limit=8) == 4

    def test_node_limit_guard(self):
        g = gen.cycle(20)
        with pytest.raises(ValueError):
            largest_k2t_minor(g)

    def test_small_graph_trivial(self):
        g = nx.complete_graph(2)
        assert largest_k2t_minor(g) == 0


class TestHasK2tMinor:
    def test_k2t_itself(self):
        for t in (2, 3, 4):
            g = nx.complete_bipartite_graph(2, t)
            assert has_k2t_minor(g, t)
            assert is_k2t_minor_free(g, t + 1)

    def test_outerplanar_is_k23_free(self):
        assert is_k2t_minor_free(gen.maximal_outerplanar(8), 3, node_limit=8)

    def test_ladder_is_k25_free(self):
        g = gen.ladder(5)
        assert is_k2t_minor_free(g, 5, node_limit=10)

    def test_ladder_is_k23_free(self):
        # Ladders are outerplanar (all vertices on the boundary), hence
        # K_{2,3}-minor-free despite their many 4-cycles.
        g = gen.ladder(6)
        assert is_k2t_minor_free(g, 3, node_limit=12)

    def test_prism_has_k23(self):
        # Closing the ladder into a prism (circular ladder) creates the
        # K_{2,3} minor that the open ladder avoids.
        g = nx.circular_ladder_graph(4)
        assert has_k2t_minor(g, 3, node_limit=8)

    def test_trivial_t(self):
        assert has_k2t_minor(gen.path(3), 0)

    def test_too_few_vertices(self):
        assert not has_k2t_minor(gen.path(3), 2)

    def test_cliques(self):
        # K_n is K_{2,t}-minor-free iff n <= t + 1.
        assert has_k2t_minor(nx.complete_graph(5), 3)
        assert is_k2t_minor_free(nx.complete_graph(4), 3)

    def test_inexact_mode_no_false_positives(self, small_zoo):
        for g in small_zoo:
            if g.number_of_nodes() > 16:
                continue
            if not has_k2t_minor(g, 3, exact=False):
                # slow path may still find one, but the other direction
                # must agree: exact "free" implies fast says "free".
                pass
            if is_k2t_minor_free(g, 3):
                assert not has_k2t_minor(g, 3, exact=False)


class TestDensityCertificate:
    def test_dense_graph_certified(self):
        g = nx.complete_graph(8)
        assert edge_density_certificate(g, 3)

    def test_sparse_graph_not_certified(self, path5):
        assert not edge_density_certificate(path5, 3)

    def test_t_below_two_never_certifies(self):
        assert not edge_density_certificate(nx.complete_graph(8), 1)


class TestGenericMinor:
    def test_k4_in_wheel(self):
        assert has_minor(gen.wheel(4), nx.complete_graph(4))

    def test_k23_in_theta(self):
        assert has_minor(gen.theta(3, 3), nx.complete_bipartite_graph(2, 3))

    def test_no_k4_in_outerplanar(self):
        assert not has_minor(gen.maximal_outerplanar(7), nx.complete_graph(4))

    def test_k23_not_in_cycle(self, cycle6):
        assert not has_minor(cycle6, nx.complete_bipartite_graph(2, 3))

    def test_agrees_with_specialised_detector(self):
        pattern = nx.complete_bipartite_graph(2, 3)
        for g in [gen.cycle(7), gen.fan(6), gen.theta(3, 3), gen.grid(3, 3)]:
            assert has_minor(g, pattern) == has_k2t_minor(
                g, 3, node_limit=g.number_of_nodes()
            )

    def test_empty_pattern(self, path5):
        assert has_minor(path5, nx.Graph())

    def test_node_limit_guard(self):
        with pytest.raises(ValueError):
            has_minor(gen.cycle(20), nx.complete_graph(3))
