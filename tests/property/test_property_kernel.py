"""Property tests: kernel-backed hot paths agree with set-walking BFS.

Complements ``tests/graphs/test_kernel.py``'s fixed differential cases
with hypothesis-generated graphs and vertex subsets.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.domination import is_dominating_set, undominated_vertices
from repro.core.distributed_greedy import distributed_greedy_dominating_set
from repro.graphs.kernel import kernel_for
from repro.graphs.util import ball, closed_neighborhood_of_set

from tests.oracles.graphs import legacy_ball
from tests.property.strategies import connected_graphs


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.integers(0, 4), st.data())
def test_ball_matches_bfs(graph, radius, data):
    center = data.draw(st.sampled_from(sorted(graph.nodes)))
    assert ball(graph, center, radius) == legacy_ball(graph, center, radius)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_neighborhood_and_domination_match_sets(graph, data):
    nodes = sorted(graph.nodes)
    subset = data.draw(st.sets(st.sampled_from(nodes)))
    expected = set(subset)
    for v in subset:
        expected.update(graph.neighbors(v))
    assert closed_neighborhood_of_set(graph, subset) == expected
    assert undominated_vertices(graph, subset) == set(nodes) - expected
    assert is_dominating_set(graph, subset) == (set(nodes) <= expected)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.data())
def test_span_counts_match_sets(graph, data):
    kernel = kernel_for(graph)
    undominated = data.draw(st.sets(st.sampled_from(sorted(graph.nodes))))
    spans = kernel.span_counts(kernel.bits_of(undominated))
    for v in graph.nodes:
        closed = set(graph.neighbors(v)) | {v}
        assert spans[kernel.index(v)] == len(closed & undominated)


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_nodes=10))
def test_distributed_greedy_output_is_dominating(graph):
    result = distributed_greedy_dominating_set(graph)
    assert is_dominating_set(graph, result.solution)
    assert result.rounds == 4 * result.metadata["phases"]
