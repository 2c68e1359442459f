"""Property tests for the exact/batch layer: the bitset branch-and-bound
always matches the MILP optimum, and neither the OPT cache nor the CSR
wire format can change a measured number."""

from hypothesis import given, settings

from repro.analysis.domination import is_dominating_set
from repro.graphs.kernel import GraphKernel, graph_from_wire
from repro.solvers.branch_and_bound import bnb_minimum_dominating_set
from repro.solvers.exact import minimum_dominating_set
from repro.solvers.opt_cache import optimum_size, optimum_solution

from tests.property.strategies import connected_graphs, random_trees


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_nodes=2, max_nodes=12))
def test_bnb_matches_milp_optimum(graph):
    bitset = bnb_minimum_dominating_set(graph)
    assert len(bitset) == len(minimum_dominating_set(graph))
    assert is_dominating_set(graph, bitset)


@settings(max_examples=40, deadline=None)
@given(random_trees(min_nodes=1, max_nodes=20))
def test_bnb_matches_milp_on_trees(graph):
    assert len(bnb_minimum_dominating_set(graph)) == len(minimum_dominating_set(graph))


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_nodes=2, max_nodes=12))
def test_cache_and_backends_agree(graph):
    cached_milp = optimum_size(graph, "mds", "milp")
    cached_bnb = optimum_size(graph, "mds", "bnb")
    uncached = len(optimum_solution(graph, "mds", "milp", use_cache=False))
    assert cached_milp == cached_bnb == uncached
    # Second lookups serve the same sizes from the cache.
    assert optimum_size(graph, "mds", "milp") == cached_milp
    assert optimum_size(graph, "mds", "bnb") == cached_bnb


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_nodes=2, max_nodes=14))
def test_wire_roundtrip_is_lossless(graph):
    kernel = GraphKernel(graph)
    back = graph_from_wire(kernel.packed().to_wire())
    assert set(back.nodes) == set(graph.nodes)
    assert {frozenset(e) for e in back.edges} == {frozenset(e) for e in graph.edges}
    rebuilt = GraphKernel(back)
    assert rebuilt.labels == kernel.labels
    assert rebuilt.closed_bits == kernel.closed_bits
    assert optimum_size(back) == optimum_size(graph)
