"""Tests for Algorithm 1 (Theorem 4.1)."""

import networkx as nx
import pytest

from repro.analysis.domination import is_dominating_set
from repro.core.algorithm1 import _phase_sets, _residual_components, algorithm1
from repro.core.radii import RadiusPolicy
from repro.graphs import generators as gen
from repro.graphs.random_families import (
    random_cactus,
    random_ding_augmentation,
    random_outerplanar,
    random_tree,
)
from repro.graphs.local_cuts import local_two_cuts
from repro.graphs.twins import remove_true_twins
from repro.solvers.exact import domination_number, minimum_b_dominating_set


class TestValidity:
    def test_zoo_valid(self, small_zoo):
        for g in small_zoo:
            result = algorithm1(g)
            assert is_dominating_set(g, result.solution), g

    def test_random_families_valid(self):
        instances = (
            [random_tree(20, s) for s in range(3)]
            + [random_cactus(3, 5, s) for s in range(3)]
            + [random_outerplanar(12, s) for s in range(3)]
            + [random_ding_augmentation(3, 2, s) for s in range(3)]
        )
        for g in instances:
            result = algorithm1(g)
            assert is_dominating_set(g, result.solution)

    def test_empty_graph(self):
        result = algorithm1(nx.Graph())
        assert result.solution == set()
        assert result.rounds == 0

    def test_single_vertex(self):
        g = nx.Graph()
        g.add_node(0)
        result = algorithm1(g)
        assert result.solution == {0}

    def test_single_edge(self):
        result = algorithm1(nx.path_graph(2))
        assert len(result.solution) == 1

    def test_disconnected_graph(self):
        g = nx.Graph()
        g.add_edges_from([(0, 1), (1, 2)])
        g.add_edges_from([(10, 11), (11, 12)])
        result = algorithm1(g)
        assert is_dominating_set(g, result.solution)


class TestPhases:
    def test_long_cycle_all_in_x(self):
        # every vertex of a long cycle is a 2-local 1-cut
        result = algorithm1(gen.cycle(14), RadiusPolicy.practical())
        assert result.phases["local_1_cuts"] == set(range(14))
        assert result.phases["brute_force"] == set()

    def test_clique_pendants_brute_force_only(self, clique_pendants5):
        # the Section 4 example: no local cuts qualify; brute force
        # finds the single dominator.
        result = algorithm1(clique_pendants5)
        assert result.phases["local_1_cuts"] == set()
        assert result.phases["interesting_2_cuts"] == set()
        assert result.solution == {0}

    def test_ladder_interesting_vertices_taken(self):
        result = algorithm1(gen.ladder(8), RadiusPolicy.practical())
        assert result.phases["interesting_2_cuts"]

    def test_phases_partition_solution(self, small_zoo):
        for g in small_zoo:
            result = algorithm1(g)
            union = (
                result.phases["local_1_cuts"]
                | result.phases["interesting_2_cuts"]
                | result.phases["brute_force"]
            )
            assert union == result.solution

    def test_metadata_fields(self, fan5):
        result = algorithm1(fan5)
        for key in (
            "policy",
            "ratio_bound",
            "mode",
            "residual_components",
            "residual_span",
            "view_radius",
        ):
            assert key in result.metadata


class TestRatio:
    def test_never_exceeds_paper_bound_on_families(self):
        # measured ratio must stay below the proven 50 on every family —
        # in practice far below.
        instances = (
            [random_tree(18, s) for s in range(3)]
            + [random_outerplanar(12, s) for s in range(3)]
            + [gen.ladder(7), gen.fan(8), gen.cycle(12)]
        )
        for g in instances:
            result = algorithm1(g)
            assert len(result.solution) <= 50 * domination_number(g)

    def test_reasonable_on_cycles(self):
        # cycles: all n vertices taken vs opt n/3 -> ratio exactly 3.
        g = gen.cycle(15)
        result = algorithm1(g)
        assert len(result.solution) == 15
        assert domination_number(g) == 5

    def test_optimal_on_fans(self, fan5):
        assert algorithm1(fan5).solution == {0}


class TestPolicies:
    def test_paper_policy_small_graph_degenerates_gracefully(self):
        # Paper radii dwarf a small graph, so local 1-cuts coincide with
        # global cut vertices: on a path every interior vertex is taken.
        g = gen.path(8)
        result = algorithm1(g, t=2)
        assert is_dominating_set(g, result.solution)
        assert result.phases["local_1_cuts"] == {1, 2, 3, 4, 5, 6}
        assert len(result.solution) <= result.metadata["ratio_bound"] * domination_number(g)

    def test_paper_policy_on_2_connected_graph_is_exact(self):
        # With no cut structure at all (a clique of pendant-free
        # 3-connected shape), paper radii reduce to global brute force.
        g = gen.clique_with_pendants(4)
        result = algorithm1(g, t=4)
        assert result.solution == {0}

    def test_policy_and_t_mutually_exclusive(self, path5):
        with pytest.raises(ValueError):
            algorithm1(path5, RadiusPolicy.practical(), t=3)

    def test_unknown_mode(self, path5):
        with pytest.raises(ValueError, match="unknown mode"):
            algorithm1(path5, mode="warp")

    def test_larger_radius_shrinks_x(self):
        g = gen.cycle(14)
        small = algorithm1(g, RadiusPolicy.practical(2, 3))
        large = algorithm1(g, RadiusPolicy.practical(7, 8))
        assert len(large.phases["local_1_cuts"]) <= len(small.phases["local_1_cuts"])


class TestRounds:
    def test_rounds_positive(self, small_zoo):
        for g in small_zoo:
            assert algorithm1(g).rounds > 0

    def test_rounds_breakdown_sums(self, fan5):
        result = algorithm1(fan5)
        assert result.rounds == sum(result.round_breakdown.values())

    def test_rounds_independent_of_n_on_ladders(self):
        rounds = {algorithm1(gen.ladder(n)).rounds for n in (6, 10, 14)}
        assert len(rounds) == 1

    def test_twin_rounds_charged(self, fan5):
        result = algorithm1(fan5)
        assert result.round_breakdown["twin_reduction"] == 2


def _without_twin_reduction(graph, policy):
    """Steps 2-4 of Algorithm 1 on the raw graph (twin reduction ablated)."""
    x_set, i_set, u_set, undominated = _phase_sets(graph, policy)
    brute = set()
    for _, targets in _residual_components(graph, x_set, i_set, u_set, undominated):
        brute |= minimum_b_dominating_set(graph, targets)
    return x_set | i_set | brute


class TestAblations:
    def test_interesting_filter_prunes_clique_pendants(self):
        # Taking every local 2-cut vertex is Θ(n) on the Section 4
        # example (MDS = 1); the interesting filter rejects them all.
        graph = gen.clique_with_pendants(7)
        policy = RadiusPolicy.practical()
        reduced, _ = remove_true_twins(graph)
        cuts = local_two_cuts(reduced, policy.two_cut_radius, minimal=True)
        assert len(set().union(*cuts)) >= 7
        assert algorithm1(graph, policy).phases["interesting_2_cuts"] == set()

    def test_without_twin_reduction_still_valid(self):
        policy = RadiusPolicy.practical()
        for graph in [gen.clique_with_pendants(5), nx.complete_graph(8), gen.fan(8)]:
            assert is_dominating_set(graph, _without_twin_reduction(graph, policy))

    def test_twin_reduction_collapses_cliques(self):
        graph = nx.complete_graph(10)
        policy = RadiusPolicy.practical()
        with_reduction = algorithm1(graph, policy)
        assert with_reduction.metadata["twin_free_size"] == 1
        assert len(with_reduction.solution) <= len(_without_twin_reduction(graph, policy))
