"""Tests for tree decompositions and treewidth."""

import networkx as nx
import pytest

from repro.graphs import generators as gen
from repro.graphs.random_families import (
    random_ding_augmentation,
    random_outerplanar,
    random_tree,
)
from repro.graphs.treewidth import (
    _decomposition_from_order,
    decomposition_cover,
    is_valid_decomposition,
    measured_cover_control,
    min_fill_decomposition,
    min_fill_order,
    treewidth_exact_small,
    width,
)
from tests.oracles.cases import atlas
from tests.oracles.graphs import legacy_min_fill_order


def s10_instances():
    """The graphs report table S10 decomposes."""
    return [
        graph
        for seed in (0, 1)
        for graph in (
            random_outerplanar(14 + seed, seed),
            gen.ladder(7 + seed),
            random_ding_augmentation(3, 2, seed),
        )
    ]


class TestValidity:
    def test_min_fill_valid_on_zoo(self, small_zoo):
        for g in small_zoo:
            tree = min_fill_decomposition(g)
            assert is_valid_decomposition(g, tree), g

    def test_min_fill_valid_on_random(self):
        for seed in range(4):
            for g in (random_tree(18, seed), random_outerplanar(12, seed)):
                assert is_valid_decomposition(g, min_fill_decomposition(g))

    def test_empty_graph(self):
        tree = min_fill_decomposition(nx.Graph())
        assert is_valid_decomposition(nx.Graph(), tree)
        assert width(tree) == -1

    def test_axioms_rejected_when_edge_uncovered(self, cycle6):
        bad = nx.Graph()
        bad.add_node(frozenset(range(5)))  # misses vertex 5 and edge 4-5
        assert not is_valid_decomposition(cycle6, bad)


class TestMinFillOrder:
    def test_matches_rescan_on_atlas_and_s10(self):
        extra = [nx.grid_2d_graph(4, 5), nx.gnp_random_graph(30, 0.15, seed=2)]
        for g in atlas() + s10_instances() + extra:
            assert min_fill_order(g) == legacy_min_fill_order(g)

    def test_decomposition_follows_the_order(self):
        for g in s10_instances() + [nx.grid_2d_graph(4, 5)]:
            tree = min_fill_decomposition(g)
            want = _decomposition_from_order(g, legacy_min_fill_order(g))
            assert set(tree.nodes) == set(want.nodes)
            assert {frozenset(e) for e in tree.edges} == {frozenset(e) for e in want.edges}

    def test_large_star_is_fast(self):
        g = nx.star_graph(2047)
        assert width(min_fill_decomposition(g)) == 1


class TestWidth:
    def test_trees_have_width_one(self):
        for seed in range(4):
            g = random_tree(15, seed)
            assert width(min_fill_decomposition(g)) == 1

    def test_cycle_width_two(self, cycle6):
        assert width(min_fill_decomposition(cycle6)) == 2

    def test_outerplanar_width_two(self):
        for seed in range(3):
            g = random_outerplanar(10, seed)
            assert width(min_fill_decomposition(g)) == 2

    def test_complete_graph(self):
        assert width(min_fill_decomposition(nx.complete_graph(5))) == 4

    def test_heuristic_matches_exact_on_small(self):
        cases = [gen.cycle(6), gen.fan(5), gen.ladder(4), gen.grid(2, 4)]
        for g in cases:
            exact = treewidth_exact_small(g)
            heuristic = width(min_fill_decomposition(g))
            assert heuristic == exact, g

    def test_exact_guard(self):
        with pytest.raises(ValueError):
            treewidth_exact_small(gen.cycle(20))

    def test_k2t_free_families_bounded_width(self):
        # the paper's chain: K_{2,t}-free => bounded treewidth.
        # Ladders/fans/outerplanar all have width <= 2; Ding
        # augmentations stay <= 3 at our scales.
        from repro.graphs.random_families import random_ding_augmentation

        for seed in range(3):
            g = random_ding_augmentation(3, 3, seed)
            assert width(min_fill_decomposition(g)) <= 3


class TestCover:
    def test_cover_covers(self, small_zoo):
        for g in small_zoo:
            tree = min_fill_decomposition(g)
            cover = decomposition_cover(g, tree, 2)
            assert cover[0] | cover[1] == set(g.nodes)

    def test_control_scales_with_r(self):
        g = gen.ladder(15)
        c1 = measured_cover_control(g, 1)
        c3 = measured_cover_control(g, 3)
        assert c3 >= c1

    def test_control_bounded_on_paths(self):
        g = gen.path(60)
        for r in (1, 2, 3):
            assert measured_cover_control(g, r) <= 8 * r

    def test_invalid_radius(self, cycle6):
        tree = min_fill_decomposition(cycle6)
        with pytest.raises(ValueError):
            decomposition_cover(cycle6, tree, 0)
