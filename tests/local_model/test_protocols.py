"""Tests: hand-rolled protocols agree with centralized references."""

import networkx as nx
import pytest

from repro.analysis.domination import is_dominating_set
from repro.core.baselines import degree_two_dominating_set
from repro.core.d2 import d2_dominating_set
from repro.graphs import generators as gen
from repro.graphs.random_families import random_outerplanar, random_tree
from repro.graphs.twins import remove_true_twins, true_twin_classes
from repro.local_model.engine import SimulationEngine
from repro.local_model.identifiers import shuffled_ids
from repro.local_model.network import Network
from repro.local_model.protocols import (
    D2Protocol,
    DegreeTwoProtocol,
    TwinElectionProtocol,
    run_protocol_dominating_set,
)


class TestDegreeTwoProtocol:
    def test_matches_centralized(self, small_zoo):
        for g in small_zoo:
            chosen, rounds = run_protocol_dominating_set(g, DegreeTwoProtocol)
            assert chosen == degree_two_dominating_set(g).solution, g
            assert rounds == 1  # one message round after init

    def test_k2_component(self):
        g = nx.path_graph(2)
        chosen, _ = run_protocol_dominating_set(g, DegreeTwoProtocol)
        assert chosen == {0}

    def test_isolated_vertex(self):
        g = nx.Graph()
        g.add_node(7)
        chosen, _ = run_protocol_dominating_set(g, DegreeTwoProtocol)
        assert chosen == {7}

    def test_dominates_trees(self):
        for seed in range(4):
            g = random_tree(15, seed)
            chosen, _ = run_protocol_dominating_set(g, DegreeTwoProtocol)
            assert is_dominating_set(g, chosen)


class TestTwinElection:
    def test_detects_twin_classes(self, small_zoo):
        for g in small_zoo:
            network = Network(g)
            result = SimulationEngine(network, max_rounds=5).run(TwinElectionProtocol)
            reps = {v for v, (is_rep, _) in result.outputs.items() if is_rep}
            expected = {min(cls, key=repr) for cls in true_twin_classes(g)}
            assert reps == expected, g

    def test_clique_single_representative(self):
        g = nx.complete_graph(5)
        network = Network(g)
        result = SimulationEngine(network, max_rounds=5).run(TwinElectionProtocol)
        reps = {v for v, (is_rep, _) in result.outputs.items() if is_rep}
        assert reps == {0}

    def test_representative_uid_consistent(self, cycle6):
        network = Network(cycle6)
        result = SimulationEngine(network, max_rounds=5).run(TwinElectionProtocol)
        for v, (is_rep, rep) in result.outputs.items():
            assert is_rep == (rep == v)

    def test_two_rounds(self, path5):
        network = Network(path5)
        result = SimulationEngine(network, max_rounds=5).run(TwinElectionProtocol)
        assert result.rounds == 2


class TestD2Protocol:
    def test_matches_centralized_on_zoo(self, small_zoo):
        for g in small_zoo:
            chosen, rounds = run_protocol_dominating_set(g, D2Protocol)
            assert chosen == d2_dominating_set(g).solution, g
            assert rounds == 3

    def test_matches_on_random_families(self):
        for seed in range(4):
            for g in (random_tree(16, seed), random_outerplanar(11, seed)):
                chosen, _ = run_protocol_dominating_set(g, D2Protocol)
                assert chosen == d2_dominating_set(g).solution

    def test_matches_on_twin_heavy_graphs(self):
        for g in (
            nx.complete_graph(6),
            gen.clique_with_pendants(5),
            nx.complete_bipartite_graph(2, 4),
        ):
            chosen, _ = run_protocol_dominating_set(g, D2Protocol)
            assert chosen == d2_dominating_set(g).solution, g

    def test_dominates(self, small_zoo):
        for g in small_zoo:
            chosen, _ = run_protocol_dominating_set(g, D2Protocol)
            assert is_dominating_set(g, chosen)

    def test_identifier_scheme_changes_only_tie_breaks(self, cycle6):
        # On C6 nothing is a twin and gamma >= 2 everywhere: output is
        # the full vertex set under every identifier assignment.
        for seed in (0, 1, 2):
            ids = shuffled_ids(cycle6, seed)
            chosen, _ = run_protocol_dominating_set(cycle6, D2Protocol, ids)
            assert chosen == set(cycle6.nodes)

    def test_single_vertex(self):
        g = nx.Graph()
        g.add_node(3)
        chosen, _ = run_protocol_dominating_set(g, D2Protocol)
        assert chosen == {3}


class TestOnePassTwinRemovalSuffices:
    def test_second_pass_is_noop(self, small_zoo):
        """True-twin removal converges in one pass (the protocol's and
        the paper's 2-round claim rely on this)."""
        for g in small_zoo:
            reduced, _ = remove_true_twins(g)
            again, _ = remove_true_twins(reduced)
            assert again.number_of_nodes() == reduced.number_of_nodes()

    def test_one_pass_equals_iterated_on_twin_rich_graphs(self):
        for g in (
            nx.complete_graph(7),
            gen.clique_with_pendants(6),
            nx.complete_multipartite_graph(2, 2, 2),
        ):
            reduced, _ = remove_true_twins(g)
            classes = true_twin_classes(g)
            one_pass_size = len(classes)
            assert reduced.number_of_nodes() == one_pass_size
