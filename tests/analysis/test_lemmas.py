"""Tests for the executable lemma verifications."""

import networkx as nx

from repro.analysis.lemmas import (
    lemma_3_2_report,
    lemma_3_3_report,
    lemma_4_2_report,
    lemma_5_17_minor,
    verify_lemma_5_18,
)
from repro.core.radii import RadiusPolicy
from repro.graphs import generators as gen
from repro.graphs.random_families import random_cactus, random_outerplanar


class TestLemma32:
    def test_budget_on_cut_rich_families(self):
        # Lemma 3.2: #local-1-cuts <= 3(d+1) MDS on asdim-1 classes.
        # Our radii are far below the paper's, yet the budget holds on
        # these families — sweep S4 of the experiment report.
        for seed in range(3):
            g = random_cactus(3, 5, seed)
            report = lemma_3_2_report(g, r=2)
            assert report.within_budget, (seed, report)

    def test_cycle_extreme_case(self):
        # a long cycle maximises local 1-cuts: n of them vs MDS = n/3,
        # constant 3 <= budget 6.
        report = lemma_3_2_report(gen.cycle(15), r=2)
        assert report.count == 15
        assert report.mds == 5
        assert report.within_budget

    def test_constant_used(self):
        report = lemma_3_2_report(gen.cycle(15), r=2)
        assert abs(report.constant_used - 3.0) < 1e-9

    def test_no_cuts_no_count(self):
        report = lemma_3_2_report(nx.complete_graph(6), r=2)
        assert report.count == 0


class TestLemma33:
    def test_budget_on_ladders(self):
        for n in (6, 9, 12):
            report = lemma_3_3_report(gen.ladder(n), r=3)
            assert report.within_budget

    def test_budget_on_outerplanar(self):
        for seed in range(3):
            g = random_outerplanar(12, seed)
            report = lemma_3_3_report(g, r=3)
            assert report.within_budget

    def test_clique_pendants_zero_interesting(self, clique_pendants5):
        report = lemma_3_3_report(clique_pendants5, r=3)
        assert report.count == 0


class TestLemma42:
    def test_residual_components_bounded(self, small_zoo):
        policy = RadiusPolicy.practical()
        for g in small_zoo:
            report = lemma_4_2_report(g, policy)
            assert report.max_diameter <= g.number_of_nodes()
            assert report.component_count == len(report.component_sizes)

    def test_cycle_leaves_nothing(self):
        # all vertices are local 1-cuts: residual graph is empty.
        report = lemma_4_2_report(gen.cycle(14), RadiusPolicy.practical())
        assert report.component_count == 0


class TestLemma517:
    def test_construction_properties(self):
        for seed in range(3):
            g = random_outerplanar(12, seed)
            report = lemma_5_17_minor(g)
            assert report.a_edgeless
            assert report.min_degree_ok, (seed, report.part_a)
            assert report.size_guarantee_ok

    def test_ladder_construction(self):
        report = lemma_5_17_minor(gen.ladder(6))
        assert report.a_edgeless
        assert report.min_degree_ok

    def test_star_trivial(self, star6):
        report = lemma_5_17_minor(star6)
        # D = {hub}; D2 = {hub}: A is empty, trivially fine.
        assert report.part_a == set()
        assert report.a_edgeless


class TestLemma518:
    def test_inequality_on_constructions(self):
        for seed in range(3):
            g = random_outerplanar(12, seed)
            report = lemma_5_17_minor(g)
            check = verify_lemma_5_18(report.minor, report.part_a, report.part_b, t=3)
            assert check.inequality_ok

    def test_synthetic_tight_instance(self):
        # K_{2,t}: A = pages (t of them, edgeless, degree 2), B = hubs:
        # |A| = t <= (t+1-1)*|B|/... with t' = t+1: t <= t * 2. OK.
        t = 5
        g = nx.complete_bipartite_graph(2, t)
        part_b = {0, 1}
        part_a = set(range(2, t + 2))
        check = verify_lemma_5_18(g, part_a, part_b, t=t + 1)
        assert check.premises_ok
        assert check.inequality_ok

    def test_premise_violation_detected(self):
        g = nx.complete_graph(4)
        check = verify_lemma_5_18(g, {0, 1}, {2, 3}, t=3)
        assert not check.premises_ok  # A not edgeless
