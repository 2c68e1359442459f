"""Tests for the branch-and-bound solver (cross-checked against MILP
and against the pre-bitset legacy implementation in :mod:`tests.oracles`)."""

import networkx as nx
import pytest

from repro.analysis.domination import is_b_dominating_set, is_dominating_set
from repro.graphs import generators as gen
from repro.graphs.families import get_family
from repro.graphs.random_families import random_ding_augmentation, random_tree
from repro.solvers.branch_and_bound import (
    bnb_minimum_b_dominating_set,
    bnb_minimum_dominating_set,
)
from repro.solvers.exact import minimum_b_dominating_set, minimum_dominating_set
from tests.oracles.cases import tuple_labelled, with_isolated
from tests.oracles.solvers import (
    legacy_bnb_minimum_b_dominating_set,
    legacy_bnb_minimum_dominating_set,
)


class TestAgainstMilp:
    def test_same_sizes_on_zoo(self, small_zoo):
        for g in small_zoo:
            assert len(bnb_minimum_dominating_set(g)) == len(minimum_dominating_set(g))

    def test_same_sizes_on_random_instances(self):
        for seed in range(5):
            g = random_tree(14, seed)
            assert len(bnb_minimum_dominating_set(g)) == len(minimum_dominating_set(g))
        for seed in range(3):
            g = random_ding_augmentation(3, 2, seed)
            assert len(bnb_minimum_dominating_set(g)) == len(minimum_dominating_set(g))

    def test_b_domination_agreement(self, small_zoo):
        for g in small_zoo:
            targets = sorted(g.nodes)[1::2]
            if not targets:
                continue
            a = bnb_minimum_b_dominating_set(g, targets)
            b = minimum_b_dominating_set(g, targets)
            assert len(a) == len(b)
            assert is_b_dominating_set(g, a, targets)


class TestAgainstLegacy:
    """Differential pinning: bitset B&B vs the verbatim pre-bitset search
    vs MILP, across every graph class the batch runner ships."""

    def _check(self, graph):
        bitset = bnb_minimum_dominating_set(graph)
        legacy = legacy_bnb_minimum_dominating_set(graph)
        milp = minimum_dominating_set(graph)
        assert len(bitset) == len(legacy) == len(milp)
        assert is_dominating_set(graph, bitset) or not graph.number_of_nodes()

    def test_random_graphs(self):
        for seed in range(8):
            n = 6 + 2 * seed
            self._check(nx.gnm_random_graph(n, 2 * n, seed=seed))

    def test_family_graphs(self):
        for family in ("fan", "ladder", "tree", "outerplanar", "ding", "cactus"):
            self._check(get_family(family).make(14, 0))

    def test_tuple_labelled(self):
        self._check(tuple_labelled(gen.ladder(6), lambda v: (v, f"v{v}")))
        graph = tuple_labelled(gen.fan(7), lambda v: (v, f"v{v}"))
        targets = sorted(graph.nodes)[::2]
        a = bnb_minimum_b_dominating_set(graph, targets)
        b = legacy_bnb_minimum_b_dominating_set(graph, targets)
        assert len(a) == len(b)
        assert is_b_dominating_set(graph, a, targets)

    def test_zero_node_graph(self):
        assert bnb_minimum_dominating_set(nx.Graph()) == set()
        assert legacy_bnb_minimum_dominating_set(nx.Graph()) == set()

    def test_isolated_vertices(self):
        graph = with_isolated(gen.path(5), ["iso_a", "iso_b"])
        self._check(graph)
        # Each isolate must dominate itself.
        assert {"iso_a", "iso_b"} <= bnb_minimum_dominating_set(graph)

    def test_b_domination_on_restricted_candidates(self, small_zoo):
        for g in small_zoo:
            targets = sorted(g.nodes)[::2]
            candidates = sorted(g.nodes)
            if not targets:
                continue
            a = bnb_minimum_b_dominating_set(g, targets, candidates)
            b = legacy_bnb_minimum_b_dominating_set(g, targets, candidates)
            assert len(a) == len(b)


class TestBehaviour:
    def test_validity(self, small_zoo):
        for g in small_zoo:
            assert is_dominating_set(g, bnb_minimum_dominating_set(g))

    def test_deterministic(self, cycle6):
        assert bnb_minimum_dominating_set(cycle6) == bnb_minimum_dominating_set(cycle6)

    def test_empty_targets(self, path5):
        assert bnb_minimum_b_dominating_set(path5, []) == set()

    def test_infeasible_raises(self, path5):
        with pytest.raises(ValueError):
            bnb_minimum_b_dominating_set(path5, [0], candidates=[4])

    def test_candidate_restriction(self, path5):
        assert bnb_minimum_b_dominating_set(path5, [0], candidates=[0, 1]) in ({0}, {1})
