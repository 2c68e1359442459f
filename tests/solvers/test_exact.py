"""Tests for the MILP exact solver."""

import networkx as nx
import pytest

from repro.analysis.domination import is_b_dominating_set, is_dominating_set
from repro.graphs import generators as gen
from repro.solvers.exact import (
    domination_number,
    minimum_b_dominating_set,
    minimum_dominating_set,
)
from tests.oracles.cases import atlas, str_labelled
from tests.oracles.solvers import legacy_minimum_dominating_set


class TestKnownOptima:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (gen.path(1), 1),
            (gen.path(2), 1),
            (gen.path(3), 1),
            (gen.path(4), 2),
            (gen.path(7), 3),
            (gen.cycle(3), 1),
            (gen.cycle(6), 2),
            (gen.cycle(9), 3),
            (gen.star(8), 1),
            (gen.fan(6), 1),
            (nx.complete_graph(5), 1),
            (nx.complete_bipartite_graph(2, 5), 2),
            (gen.clique_with_pendants(5), 1),
        ],
    )
    def test_domination_number(self, graph, expected):
        assert domination_number(graph) == expected

    def test_path_formula(self):
        # gamma(P_n) = ceil(n / 3)
        for n in range(1, 16):
            assert domination_number(gen.path(n)) == -(-n // 3)

    def test_cycle_formula(self):
        for n in range(3, 16):
            assert domination_number(gen.cycle(n)) == -(-n // 3)


class TestValidity:
    def test_solutions_dominate(self, small_zoo):
        for g in small_zoo:
            solution = minimum_dominating_set(g)
            assert is_dominating_set(g, solution)

    def test_deterministic(self, small_zoo):
        for g in small_zoo:
            assert minimum_dominating_set(g) == minimum_dominating_set(g)

    def test_disconnected_graph(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(5, 6)
        solution = minimum_dominating_set(g)
        assert is_dominating_set(g, solution)
        assert len(solution) == 2


class TestBDomination:
    def test_empty_targets(self, path5):
        assert minimum_b_dominating_set(path5, []) == set()

    def test_single_target(self, path5):
        solution = minimum_b_dominating_set(path5, [2])
        assert len(solution) == 1
        assert solution <= {1, 2, 3}

    def test_targets_subset_cheaper(self, cycle6):
        partial = minimum_b_dominating_set(cycle6, [0, 1])
        assert len(partial) == 1

    def test_candidates_restriction(self, path5):
        solution = minimum_b_dominating_set(path5, [0], candidates=[1])
        assert solution == {1}

    def test_infeasible_raises(self, path5):
        with pytest.raises(ValueError, match="cannot be dominated"):
            minimum_b_dominating_set(path5, [0], candidates=[4])

    def test_b_domination_validity(self, small_zoo):
        for g in small_zoo:
            targets = sorted(g.nodes)[::2]
            solution = minimum_b_dominating_set(g, targets)
            assert is_b_dominating_set(g, solution, targets)

    def test_matches_full_mds_when_b_is_v(self, small_zoo):
        for g in small_zoo:
            if not nx.is_connected(g):
                continue
            full = minimum_dominating_set(g)
            restricted = minimum_b_dominating_set(g, g.nodes)
            assert len(full) == len(restricted)


class TestComponentSplit:
    def test_matches_subgraph_split(self, small_zoo):
        disjoint = [
            nx.disjoint_union_all([gen.fan(5), gen.cycle(7), gen.path(1)]),
            nx.union(gen.ladder(4), str_labelled(gen.star(5), "s")),
            nx.disjoint_union(nx.complete_graph(4), nx.complete_bipartite_graph(2, 4)),
        ]
        for g in list(small_zoo) + disjoint + atlas(1, 200):
            assert minimum_dominating_set(g) == legacy_minimum_dominating_set(g)

    def test_builds_no_component_kernels(self, monkeypatch):
        from repro.graphs.kernel import GraphKernel
        from repro.graphs.packed import PackedGraphKernel

        built = []
        int_init = GraphKernel.__init__
        packed_build = PackedGraphKernel.from_graph.__func__

        def counting_init(self, graph):
            built.append(graph.number_of_nodes())
            int_init(self, graph)

        def counting_build(cls, graph):
            built.append(graph.number_of_nodes())
            return packed_build(cls, graph)

        monkeypatch.setattr(GraphKernel, "__init__", counting_init)
        monkeypatch.setattr(PackedGraphKernel, "from_graph", classmethod(counting_build))
        g = nx.disjoint_union_all([gen.fan(5), gen.cycle(7), gen.path(3)])
        minimum_dominating_set(g)
        assert built == [g.number_of_nodes()]
