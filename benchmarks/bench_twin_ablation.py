"""Ablation (DESIGN.md Section 6): true-twin reduction on/off.

Twin removal is what makes the Section 4 clique-with-pendants argument
work; without it the interesting-vertex machinery sees spurious
structure.  We compare Algorithm 1's phase sizes with and without the
reduction (the "off" variant runs the phases on the raw graph).
"""

import networkx as nx

from repro.analysis.domination import is_dominating_set
from repro.core.algorithm1 import _phase_sets, _residual_components, algorithm1
from repro.core.radii import RadiusPolicy
from repro.graphs import generators
from repro.graphs.kernel import invalidate_kernel
from repro.solvers.exact import minimum_b_dominating_set


def _algorithm1_without_twin_reduction(graph, policy):
    """Steps 2–4 on the raw graph (the ablated variant)."""
    x_set, i_set, u_set, undominated = _phase_sets(graph, policy)
    brute = set()
    for _, targets in _residual_components(graph, x_set, i_set, u_set, undominated):
        brute |= minimum_b_dominating_set(graph, targets)
    return x_set | i_set | brute


def test_ablation_still_valid():
    policy = RadiusPolicy.practical()
    for graph in [
        generators.clique_with_pendants(5),
        nx.complete_graph(8),
        generators.fan(8),
    ]:
        solution = _algorithm1_without_twin_reduction(graph, policy)
        assert is_dominating_set(graph, solution)


def test_twin_reduction_shrinks_work_on_cliques():
    """On a clique, twin reduction collapses everything to one vertex;
    the ablated variant must still answer but processes n vertices."""
    graph = nx.complete_graph(10)
    policy = RadiusPolicy.practical()
    with_reduction = algorithm1(graph, policy)
    assert with_reduction.metadata["twin_free_size"] == 1
    ablated = _algorithm1_without_twin_reduction(graph, policy)
    assert len(with_reduction.solution) <= len(ablated)


def _cold_rounds(benchmark, fn, graph, policy):
    """Time ``fn`` with the graph's kernel and memos dropped before each
    round: the raw-graph variant would otherwise time cut-list memo hits."""
    return benchmark.pedantic(
        fn, args=(graph, policy), setup=lambda: invalidate_kernel(graph), rounds=20
    )


def test_bench_with_twin_reduction(benchmark):
    graph = generators.clique_with_pendants(7)
    policy = RadiusPolicy.practical()
    result = _cold_rounds(benchmark, algorithm1, graph, policy)
    benchmark.extra_info["solution_size"] = len(result.solution)


def test_bench_without_twin_reduction(benchmark):
    graph = generators.clique_with_pendants(7)
    policy = RadiusPolicy.practical()
    result = _cold_rounds(benchmark, _algorithm1_without_twin_reduction, graph, policy)
    benchmark.extra_info["solution_size"] = len(result)
