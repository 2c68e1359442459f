"""Counting-lemma budgets checked across the small-graph atlas.

Lemmas 3.2/3.3 are proven for the paper's radii on bounded-asdim
classes; here we measure the same quantities on *every* connected graph
with at most 6 vertices at practical radii.  Tiny graphs cannot break
the budgets (their MDS is small but so is everything else) — the sweep
is a regression net for the counting code itself: counts must be
consistent, monotone where monotonicity is guaranteed, and the
simulate/fast agreement must hold on a sample.
"""

import pytest

from repro.analysis.lemmas import lemma_3_2_report, lemma_3_3_report
from repro.core.algorithm1 import algorithm1
from repro.graphs.local_cuts import (
    interesting_vertices,
    local_one_cuts,
    local_two_cuts,
)
from tests.oracles.cases import connected_atlas

ATLAS = connected_atlas(3, 6)


def test_local_one_cut_counts_consistent():
    for graph in ATLAS:
        report = lemma_3_2_report(graph, r=2)
        assert report.count == len(local_one_cuts(graph, 2))
        assert report.count <= graph.number_of_nodes()


def test_interesting_counts_consistent():
    for graph in ATLAS[:60]:
        report = lemma_3_3_report(graph, r=2)
        assert report.count == len(interesting_vertices(graph, 2))


def test_interesting_subset_of_two_cut_vertices():
    for graph in ATLAS[:60]:
        cuts = local_two_cuts(graph, 2, minimal=True)
        cut_vertices = set().union(*cuts) if cuts else set()
        assert interesting_vertices(graph, 2) <= cut_vertices


def test_budgets_hold_at_atlas_scale():
    for graph in ATLAS:
        one = lemma_3_2_report(graph, r=2)
        assert one.within_budget, sorted(graph.edges)


def test_simulate_fast_agreement_on_atlas_sample():
    # every 7th atlas graph: keeps runtime low, covers diverse shapes.
    for graph in ATLAS[::7]:
        fast = algorithm1(graph, mode="fast")
        simulated = algorithm1(graph, mode="simulate")
        assert simulated.solution == fast.solution, sorted(graph.edges)
