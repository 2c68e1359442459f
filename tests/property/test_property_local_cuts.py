"""Property-based pinning: bitset local-cut pipeline vs legacy semantics.

Reuses the verbatim legacy implementations from :mod:`tests.oracles` over
randomized cut-rich graphs, so hypothesis explores shapes the
hand-picked differential zoo misses.
"""

from hypothesis import given, settings

from repro.core.algorithm1 import _phase_sets
from repro.core.radii import RadiusPolicy
from repro.graphs.cuts import components_after_removal, minimal_two_cuts
from repro.graphs.local_cuts import interesting_vertices, local_one_cuts, local_two_cuts
from repro.graphs.twins import remove_true_twins
from repro.graphs.util import weak_diameter

from tests.oracles.core import legacy_phase_sets
from tests.oracles.graphs import (
    legacy_components_after_removal,
    legacy_interesting_vertices,
    legacy_local_one_cuts,
    legacy_local_two_cuts,
    legacy_minimal_two_cuts,
    legacy_remove_true_twins,
    legacy_weak_diameter,
)
from tests.property.strategies import connected_graphs, sparse_connected_graphs

COMMON = {"max_examples": 30, "deadline": None}


@given(sparse_connected_graphs())
@settings(**COMMON)
def test_local_cut_enumerations_match_legacy(graph):
    assert local_one_cuts(graph, 2) == legacy_local_one_cuts(graph, 2)
    assert local_two_cuts(graph, 2) == legacy_local_two_cuts(graph, 2)
    assert local_two_cuts(graph, 2, minimal=False) == (
        legacy_local_two_cuts(graph, 2, minimal=False)
    )


@given(sparse_connected_graphs(max_nodes=12))
@settings(**COMMON)
def test_interesting_vertices_match_legacy(graph):
    assert interesting_vertices(graph, 2) == legacy_interesting_vertices(graph, 2)


@given(sparse_connected_graphs())
@settings(**COMMON)
def test_global_cut_enumerations_match_legacy(graph):
    assert minimal_two_cuts(graph) == legacy_minimal_two_cuts(graph)
    cut = set(list(graph.nodes)[:2])
    assert components_after_removal(graph, cut) == (
        legacy_components_after_removal(graph, cut)
    )


@given(connected_graphs())
@settings(**COMMON)
def test_twin_removal_matches_legacy(graph):
    reduced, mapping = remove_true_twins(graph)
    legacy_reduced, legacy_mapping = legacy_remove_true_twins(graph)
    assert set(reduced.nodes) == set(legacy_reduced.nodes)
    assert {frozenset(e) for e in reduced.edges} == (
        {frozenset(e) for e in legacy_reduced.edges}
    )
    assert mapping == legacy_mapping


@given(connected_graphs())
@settings(**COMMON)
def test_weak_diameter_matches_legacy(graph):
    vertices = list(graph.nodes)[::2]
    assert weak_diameter(graph, vertices) == legacy_weak_diameter(graph, vertices)


@given(sparse_connected_graphs(max_nodes=12))
@settings(max_examples=20, deadline=None)
def test_phase_sets_match_legacy(graph):
    policy = RadiusPolicy.practical()
    reduced, _ = remove_true_twins(graph)
    assert _phase_sets(reduced, policy) == legacy_phase_sets(reduced, policy)
