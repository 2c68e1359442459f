"""Tests for pipelined CONGEST gathering."""

import pytest

from repro.graphs import generators as gen
from repro.local_model.congest_gather import CongestGatherAlgorithm, congest_gather_views
from repro.local_model.gather import gather_views
from repro.local_model.instrumentation import payload_size


def _views_match(graph, radius, budget) -> bool:
    local_views, _ = gather_views(graph, radius)
    congest_views, _ = congest_gather_views(graph, radius, budget)
    for v in graph.nodes:
        truth = local_views[v].known_ball(radius)
        got = congest_views[v].graph
        if set(truth.nodes) != set(got.nodes):
            return False
        if set(map(frozenset, truth.edges)) != set(map(frozenset, got.edges)):
            return False
    return True


class TestExactness:
    @pytest.mark.parametrize("budget", [1, 2, 4])
    def test_cycle(self, budget):
        assert _views_match(gen.cycle(10), 2, budget)

    @pytest.mark.parametrize("budget", [1, 3])
    def test_ladder(self, budget):
        assert _views_match(gen.ladder(5), 2, budget)

    def test_star_radius_one(self):
        assert _views_match(gen.star(7), 1, 2)

    def test_tree(self):
        from repro.graphs.random_families import random_tree

        assert _views_match(random_tree(14, 3), 2, 2)


class TestRoundInflation:
    def test_smaller_budget_more_rounds(self):
        g = gen.fan(8)
        _, t1 = congest_gather_views(g, 2, 1)
        _, t4 = congest_gather_views(g, 2, 4)
        assert t1.round_count > t4.round_count

    def test_congest_slower_than_local(self):
        g = gen.ladder(6)
        _, local_trace = gather_views(g, 2)
        _, congest_trace = congest_gather_views(g, 2, 2)
        assert congest_trace.round_count > local_trace.round_count

    def test_congest_round_gap_on_ladder(self):
        g = gen.ladder(12)
        _, local_trace = gather_views(g, 2)
        _, congest_trace = congest_gather_views(g, 2, 2)
        assert congest_trace.round_count >= 3 * local_trace.round_count

    def test_messages_respect_budget(self):
        g = gen.ladder(6)
        budget = 2

        # budget counts facts per message; each fact is <= 3 units
        views, trace = congest_gather_views(g, 2, budget)
        worst_round = max(trace.rounds, key=lambda s: s.payload_units / max(1, s.messages))
        assert worst_round.payload_units / max(1, worst_round.messages) <= 3 * budget


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            CongestGatherAlgorithm(-1, 2, 5)
        with pytest.raises(ValueError):
            CongestGatherAlgorithm(2, 0, 5)
        with pytest.raises(ValueError):
            CongestGatherAlgorithm(2, 2, 0)
