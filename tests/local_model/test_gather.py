"""Tests for view gathering — the heart of the simulator's fidelity."""

import networkx as nx
import pytest

from repro.graphs import generators as gen
from repro.graphs.util import ball
from repro.local_model.gather import gather_views, rounds_for_radius
from repro.local_model.identifiers import shuffled_ids, spread_ids


class TestRoundsForRadius:
    def test_radius_plus_one(self):
        assert rounds_for_radius(0) == 1
        assert rounds_for_radius(3) == 4

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            rounds_for_radius(-1)


class TestGatheredKnowledge:
    def test_radius_zero_knows_neighbors(self, cycle6):
        views, trace = gather_views(cycle6, 0)
        assert trace.round_count == 1
        view = views[0]
        assert set(view.graph.nodes) == {5, 0, 1}
        # edges to neighbors known; edge 1-2 unknown at radius 0
        assert view.graph.has_edge(0, 1)
        assert not view.graph.has_edge(1, 2)

    def test_views_match_true_balls(self, small_zoo):
        for g in small_zoo:
            radius = 2
            views, _ = gather_views(g, radius)
            for v in g.nodes:
                true_ball = g.subgraph(ball(g, v, radius))
                known_ball = views[v].known_ball(radius)
                assert set(known_ball.nodes) == set(true_ball.nodes), (g, v)
                assert set(map(frozenset, known_ball.edges)) == set(
                    map(frozenset, true_ball.edges)
                ), (g, v)

    def test_rounds_charged(self, path5):
        for radius in (0, 1, 2, 3):
            _, trace = gather_views(path5, radius)
            assert trace.round_count == rounds_for_radius(radius)

    def test_view_rejects_oversized_queries(self, cycle6):
        views, _ = gather_views(cycle6, 1)
        with pytest.raises(ValueError):
            views[0].known_ball(2)

    def test_knows_whole_component(self, path5):
        views, _ = gather_views(path5, 5)
        assert views[2].knows_whole_component()
        views_small, _ = gather_views(path5, 1)
        assert not views_small[2].knows_whole_component()

    def test_distances_recorded(self, path5):
        views, _ = gather_views(path5, 3)
        assert views[0].dist[3] == 3

    def test_center_is_uid(self, path5):
        ids = shuffled_ids(path5, seed=4)
        views, _ = gather_views(path5, 2, ids)
        assert set(views) == set(range(5))

    def test_views_in_id_space(self, path5):
        # with spread ids, views must mention spread ids, not labels
        ids = spread_ids(path5)
        views, _ = gather_views(path5, 2, ids)
        some_view = next(iter(views.values()))
        assert all(uid in ids.values() for uid in some_view.graph.nodes)

    def test_message_volume_grows_with_radius(self, cycle6):
        _, small = gather_views(cycle6, 1)
        _, large = gather_views(cycle6, 3)
        assert large.total_payload > small.total_payload

    def test_messages_linear_in_n(self):
        # every node broadcasts once per round: 4x nodes => 4x messages
        _, t20 = gather_views(gen.cycle(20), 2)
        _, t80 = gather_views(gen.cycle(80), 2)
        assert t80.total_messages == 4 * t20.total_messages


class TestIdentifierInvariance:
    def test_view_isomorphic_under_relabeling(self, cycle6):
        """Gathering must commute with identifier assignment."""
        views_identity, _ = gather_views(cycle6, 2)
        ids = shuffled_ids(cycle6, seed=9)
        views_shuffled, _ = gather_views(cycle6, 2, ids)
        for v in cycle6.nodes:
            a = views_identity[v]
            b = views_shuffled[ids[v]]
            assert a.graph.number_of_nodes() == b.graph.number_of_nodes()
            assert a.graph.number_of_edges() == b.graph.number_of_edges()
            assert sorted(a.dist.values()) == sorted(b.dist.values())
