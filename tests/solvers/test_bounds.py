"""Tests for domination lower bounds."""

import networkx as nx

from repro.graphs import generators as gen
from repro.graphs.families import get_family
from repro.solvers.bounds import (
    degree_lower_bound,
    exact_two_packing,
    lp_lower_bound,
    two_packing_lower_bound,
)
from repro.solvers.exact import domination_number
from tests.oracles.cases import atlas
from tests.oracles.solvers import legacy_two_packing

# The families of the ratio sweep (``standard_suite``).
SWEEP_FAMILIES = (
    "path", "tree", "star", "cycle", "outerplanar", "fan", "cactus", "ladder", "ding",
    "fan_flower", "clique_pendants",
)


class TestDegreeBound:
    def test_star(self, star6):
        assert degree_lower_bound(star6) == 1

    def test_cycle(self):
        assert degree_lower_bound(gen.cycle(9)) == 3

    def test_empty(self):
        assert degree_lower_bound(nx.Graph()) == 0

    def test_is_lower_bound(self, small_zoo):
        for g in small_zoo:
            assert degree_lower_bound(g) <= domination_number(g)


class TestTwoPacking:
    def test_matches_int_greedy_on_atlas(self):
        for g in atlas():
            assert two_packing_lower_bound(g) == legacy_two_packing(g)

    def test_matches_int_greedy_on_sweep_families(self):
        for name in SWEEP_FAMILIES:
            for size in (24, 96):
                g = get_family(name).make(size, 1)
                assert two_packing_lower_bound(g) == legacy_two_packing(g), (name, size)

    def test_is_lower_bound(self, small_zoo):
        for g in small_zoo:
            assert two_packing_lower_bound(g) <= domination_number(g)

    def test_exact_at_least_greedy(self, small_zoo):
        for g in small_zoo:
            assert exact_two_packing(g) >= two_packing_lower_bound(g)

    def test_exact_is_lower_bound(self, small_zoo):
        for g in small_zoo:
            assert exact_two_packing(g) <= domination_number(g)

    def test_path_packing(self):
        # On P_9, vertices {0, 3, 6} (and more spaced) pack: value 3.
        assert exact_two_packing(gen.path(9)) == 3

    def test_complete_graph(self):
        assert exact_two_packing(nx.complete_graph(5)) == 1

    def test_empty_graph(self):
        assert exact_two_packing(nx.Graph()) == 0


class TestLpBound:
    def test_is_lower_bound(self, small_zoo):
        for g in small_zoo:
            assert lp_lower_bound(g) <= domination_number(g) + 1e-9

    def test_cycle_lp_value(self):
        # LP optimum of C_n domination is n/3 (uniform 1/3).
        assert abs(lp_lower_bound(gen.cycle(9)) - 3.0) < 1e-6

    def test_star_lp(self, star6):
        assert lp_lower_bound(star6) <= 1 + 1e-9

    def test_empty(self):
        assert lp_lower_bound(nx.Graph()) == 0.0
