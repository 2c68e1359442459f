"""Exhaustive invariant checks over *all* small connected graphs.

The networkx Graph Atlas enumerates every graph on up to 7 vertices; we
run the library's core invariants over every connected graph on 2–6
vertices (~140 graphs).  Anything that survives this sweep is unlikely
to break on a structured family.
"""

import pytest

from repro.analysis.domination import is_dominating_set
from repro.core.algorithm1 import algorithm1
from repro.core.d2 import d2_dominating_set
from repro.core.distributed_greedy import distributed_greedy_dominating_set
from repro.core.vertex_cover import d2_vertex_cover, local_cuts_vertex_cover
from repro.graphs.twins import has_true_twins, remove_true_twins
from repro.solvers.branch_and_bound import bnb_minimum_dominating_set
from repro.solvers.exact import domination_number, minimum_dominating_set
from repro.solvers.vc import is_vertex_cover
from tests.oracles.cases import connected_atlas


ATLAS = connected_atlas(2, 6)


def test_atlas_has_expected_coverage():
    assert len(ATLAS) > 120
    assert max(g.number_of_nodes() for g in ATLAS) == 6


def test_exact_solvers_agree_everywhere():
    for graph in ATLAS:
        assert len(bnb_minimum_dominating_set(graph)) == domination_number(graph), (
            sorted(graph.edges)
        )


def test_algorithm1_valid_everywhere():
    for graph in ATLAS:
        result = algorithm1(graph)
        assert is_dominating_set(graph, result.solution), sorted(graph.edges)
        union = set().union(*result.phases.values())
        assert union == result.solution


def test_d2_valid_everywhere():
    for graph in ATLAS:
        result = d2_dominating_set(graph)
        assert is_dominating_set(graph, result.solution), sorted(graph.edges)


def test_distributed_greedy_valid_everywhere():
    for graph in ATLAS:
        result = distributed_greedy_dominating_set(graph)
        assert is_dominating_set(graph, result.solution), sorted(graph.edges)


def test_vertex_cover_variants_valid_everywhere():
    for graph in ATLAS:
        for runner in (local_cuts_vertex_cover, d2_vertex_cover):
            result = runner(graph)
            assert is_vertex_cover(graph, result.solution), (
                runner.__name__,
                sorted(graph.edges),
            )


def test_twin_reduction_sound_everywhere():
    for graph in ATLAS:
        reduced, mapping = remove_true_twins(graph)
        assert not has_true_twins(reduced)
        assert domination_number(reduced) == domination_number(graph)
        assert set(mapping) == set(graph.nodes)


def test_optimum_never_beaten():
    for graph in ATLAS:
        optimum = domination_number(graph)
        assert len(algorithm1(graph).solution) >= optimum
        assert len(d2_dominating_set(graph).solution) >= optimum
