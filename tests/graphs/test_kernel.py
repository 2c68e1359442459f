"""Differential tests: kernel primitives vs plain-networkx references.

The pre-kernel set-walking code, kept verbatim in :mod:`tests.oracles`,
pins every kernel primitive (and every rewired hot path) to the
semantics the repo shipped with.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.analysis.domination import (
    is_b_dominating_set,
    is_dominating_set,
    undominated_vertices,
)
from repro.core.d2 import d2_dominating_set, d2_set, gamma
from repro.graphs.kernel import (
    GraphKernel,
    invalidate_kernel,
    iter_bits,
    kernel_backend,
    kernel_for,
    kernel_from_edges,
    kernel_from_wire,
    set_kernel_backend,
)
from repro.graphs.packed import PackedGraphKernel
from repro.graphs.twins import remove_true_twins
from repro.graphs.util import ball, ball_of_set, closed_neighborhood_of_set
from repro.solvers.greedy import greedy_b_dominating_set
from tests.oracles.cases import (
    atlas,
    mixed_path,
    str_labelled,
    twin_grid,
    with_isolated,
    with_self_loops,
)
from tests.oracles.core import (
    legacy_d2_dominating_set,
    legacy_d2_set,
    legacy_gamma,
    legacy_greedy_b_dominating_set,
    legacy_undominated_vertices,
)
from tests.oracles.graphs import (
    legacy_ball,
    legacy_closed_neighborhood_of_set,
    legacy_int_kernel,
    legacy_remove_true_twins,
)


def ingest_cases():
    """Atlas graphs plus str, tuple and mixed labels, self-loops and
    isolated vertices."""
    loops = with_self_loops(nx.gnp_random_graph(30, 0.2, seed=4), range(0, 30, 4))
    return atlas() + [
        str_labelled(nx.petersen_graph()),
        twin_grid(),
        mixed_path(),
        with_isolated(loops, [30, 31]),
    ]


def random_graphs():
    """A spread of random instances, including disconnected ones."""
    cases = []
    for seed, (n, p) in enumerate([(1, 0.5), (7, 0.4), (16, 0.2), (25, 0.1), (40, 0.05)]):
        cases.append(nx.gnp_random_graph(n, p, seed=seed))
    return cases


def oracle_graphs():
    return random_graphs() + [twin_grid()]


# -- kernel structure -----------------------------------------------------


class TestKernelStructure:
    def test_every_ingest_path_matches_the_legacy_row_walk(self):
        previous = kernel_backend()
        set_kernel_backend("int")
        try:
            for graph in ingest_cases():
                want = legacy_int_kernel(graph)
                kernel = GraphKernel(graph)
                csr = kernel.packed()
                got = (
                    kernel.labels,
                    csr.indptr.tolist(),
                    csr.indices.tolist(),
                    kernel.closed_bits,
                    kernel.full_mask,
                )
                assert got == want
                assert csr.labels is kernel.labels and csr.index_of is kernel.index_of
                for other in (
                    kernel_from_wire(csr.to_wire()),
                    PackedGraphKernel.from_graph(graph).bitsets(),
                    kernel_from_edges(graph.edges, nodes=graph.nodes),
                ):
                    assert other.backend == "int"
                    assert other.labels == want[0]
                    assert other.packed().to_wire() == csr.to_wire()
                    assert other.closed_bits == want[3]
                    assert other.full_mask == want[4]
        finally:
            set_kernel_backend(previous[0], threshold=previous[1])

    def test_zero_node_graph(self):
        kernel = GraphKernel(nx.Graph())
        assert kernel.n == 0
        assert kernel.full_mask == 0
        assert kernel.dominates_vertices([])
        assert kernel.span_counts(0) == []

    def test_isolated_vertices(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        kernel = kernel_for(graph)
        assert kernel.labels_of(
            kernel.closed_neighborhood_bits(kernel.bits_of([2]))
        ) == {2}
        assert not kernel.dominates_vertices([0])
        assert kernel.dominates_vertices([0, 2])

    def test_tuple_and_mixed_unsortable_labels(self):
        graph = nx.Graph()
        graph.add_edge(("a", 1), "b")
        graph.add_edge("b", 3)
        graph.add_node(frozenset({9}))
        with pytest.raises(TypeError):
            sorted(graph.nodes)  # labels are genuinely unsortable
        kernel = kernel_for(graph)
        assert set(kernel.labels) == set(graph.nodes)
        assert kernel.labels_of(kernel.bitsets().ball_bits("b", 1)) == {("a", 1), "b", 3}
        assert is_dominating_set(graph, ["b", frozenset({9})])
        assert undominated_vertices(graph, [("a", 1)]) == {3, frozenset({9})}

    def test_csr_rows_sorted_and_symmetric(self):
        for graph in random_graphs():
            kernel = kernel_for(graph).packed()
            for i in range(kernel.n):
                row = kernel.neighbor_row(i).tolist()
                assert row == sorted(row)
                assert kernel.degree(i) == len(row)
                assert {kernel.labels[j] for j in row} == set(
                    graph.neighbors(kernel.labels[i])
                )

    def test_back_ports_invert_ports(self):
        for graph in random_graphs():
            kernel = kernel_for(graph).packed()
            back = kernel.back_ports()
            indptr, indices = kernel.indptr, kernel.indices
            for u in range(kernel.n):
                for s in range(indptr[u], indptr[u + 1]):
                    v = indices[s]
                    assert indices[indptr[v] + back[s]] == u

    def test_unknown_label_raises(self):
        kernel = kernel_for(nx.path_graph(3))
        with pytest.raises(KeyError):
            kernel.bits_of([99])

    def test_b_domination_foreign_target_is_false(self):
        graph = nx.path_graph(3)
        assert not is_b_dominating_set(graph, {1}, [0, 99])
        assert is_b_dominating_set(graph, {1}, [0, 2])
        with pytest.raises(KeyError):  # unknown *candidate* is an error
            is_b_dominating_set(graph, {99}, [0])

    def test_ball_sparse_dense_paths_agree(self):
        # Straddle the dense cut: a graph big enough that radius-2 balls
        # stay sparse while radius-8 balls go dense mid-walk.
        graph = nx.random_regular_graph(3, 400, seed=5)
        for radius in (1, 2, 4, 8, 12):
            assert ball(graph, 0, radius) == legacy_ball(graph, 0, radius)

    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]


class TestKernelCache:
    def test_cache_hit_is_same_object(self):
        graph = nx.path_graph(5)
        assert kernel_for(graph) is kernel_for(graph)

    def test_node_mutation_rebuilds(self):
        graph = nx.path_graph(5)
        before = kernel_for(graph)
        graph.add_edge(4, 5)  # node count changed: O(1) guard catches it
        after = kernel_for(graph)
        assert after is not before
        assert 5 in after.index_of

    def test_edge_mutation_needs_invalidate(self):
        graph = nx.path_graph(5)
        before = kernel_for(graph)
        graph.add_edge(0, 4)  # same node count: contract requires invalidate
        invalidate_kernel(graph)
        after = kernel_for(graph)
        assert after is not before
        assert is_dominating_set(graph, [0, 2])  # 4 now dominated via 0

    def test_distinct_graphs_distinct_kernels(self):
        assert kernel_for(nx.path_graph(4)) is not kernel_for(nx.path_graph(4))

    def test_invalidate_clears_derived_caches(self):
        from repro.graphs.structure import is_outerplanar

        graph = nx.cycle_graph(6)
        assert is_outerplanar(graph)
        graph.remove_edges_from(list(graph.edges))
        graph.add_edges_from(nx.complete_graph(4).edges)  # n, m unchanged
        invalidate_kernel(graph)
        assert not is_outerplanar(graph)  # K4 verdict, not the stale C6 one


# -- differential: primitives vs references -------------------------------


class TestKernelAgainstNetworkx:
    @pytest.mark.parametrize("graph", random_graphs(), ids=lambda g: f"n{len(g)}")
    def test_closed_neighborhoods(self, graph):
        nodes = list(graph.nodes)
        for size in (0, 1, len(nodes) // 2, len(nodes)):
            subset = nodes[:size]
            assert closed_neighborhood_of_set(graph, subset) == (
                legacy_closed_neighborhood_of_set(graph, subset)
            )

    @pytest.mark.parametrize("graph", random_graphs(), ids=lambda g: f"n{len(g)}")
    def test_balls(self, graph):
        for v in graph.nodes:
            for radius in (-1, 0, 1, 2, 3, len(graph)):
                assert ball(graph, v, radius) == legacy_ball(graph, v, radius)
        centers = list(graph.nodes)[:3]
        for radius in (0, 1, 2):
            expected = set()
            for c in centers:
                expected |= legacy_ball(graph, c, radius)
            assert ball_of_set(graph, centers, radius) == expected

    @pytest.mark.parametrize("graph", random_graphs(), ids=lambda g: f"n{len(g)}")
    def test_domination_checks(self, graph):
        nodes = list(graph.nodes)
        candidates = [nodes[:1], nodes[: len(nodes) // 2], nodes]
        for candidate in candidates:
            assert undominated_vertices(graph, candidate) == legacy_undominated_vertices(
                graph, candidate
            )
            assert is_dominating_set(graph, candidate) == (
                not legacy_undominated_vertices(graph, candidate)
            )
            targets = nodes[::2]
            assert is_b_dominating_set(graph, candidate, targets) == (
                set(targets) <= legacy_closed_neighborhood_of_set(graph, candidate)
            )

    @pytest.mark.parametrize("graph", random_graphs(), ids=lambda g: f"n{len(g)}")
    def test_span_counts(self, graph):
        kernel = kernel_for(graph).bitsets()
        nodes = list(graph.nodes)
        undominated = set(nodes[::3])
        spans = kernel.span_counts(kernel.bits_of(undominated))
        for v in nodes:
            expected = len(legacy_closed_neighborhood_of_set(graph, [v]) & undominated)
            assert spans[kernel.index(v)] == expected

    @pytest.mark.parametrize(
        "graph",
        oracle_graphs()
        + [with_self_loops(nx.gnp_random_graph(30, 0.12, seed=4), range(0, 30, 4))],
        ids=lambda g: f"n{len(g)}",
    )
    def test_articulation_scan(self, graph):
        """Components, sizes and cut vertices equal networkx's on induced
        subgraphs (self-loops dropped: they never make a cut vertex)."""
        kernel = kernel_for(graph).bitsets()
        nodes = sorted(graph.nodes, key=repr)
        for subset in (nodes, nodes[::2], nodes[1::3], nodes[: len(nodes) // 2], []):
            induced = nx.Graph(graph.subgraph(subset))
            induced.remove_edges_from(nx.selfloop_edges(induced))
            components = list(nx.connected_components(induced))
            count, sizes, cut_mask = kernel.articulation_scan(kernel.bits_of(subset))
            assert count == len(components)
            assert {kernel.label(i): size for i, size in enumerate(sizes) if size} == {
                v: len(component) for component in components for v in component
            }
            assert kernel.labels_of(cut_mask) == set(nx.articulation_points(induced))

    @pytest.mark.parametrize("graph", oracle_graphs(), ids=lambda g: f"n{len(g)}")
    def test_gamma_and_d2(self, graph):
        for v in graph.nodes:
            assert gamma(graph, v) == legacy_gamma(graph, v)
        assert d2_set(graph) == legacy_d2_set(graph)

    @pytest.mark.parametrize("graph", oracle_graphs(), ids=lambda g: f"n{len(g)}")
    def test_twin_removal_matches_reference(self, graph):
        reduced, mapping = remove_true_twins(graph)
        want, want_map = legacy_remove_true_twins(graph)
        assert set(reduced.nodes) == set(want.nodes)
        assert {frozenset(e) for e in reduced.edges} == {frozenset(e) for e in want.edges}
        assert mapping == want_map

    @pytest.mark.parametrize("graph", oracle_graphs(), ids=lambda g: f"n{len(g)}")
    def test_d2_pipeline_matches_reference(self, graph):
        result = d2_dominating_set(graph)
        want = legacy_d2_dominating_set(graph)
        assert result.solution == want.solution
        assert result.metadata["twin_free_size"] == want.metadata["twin_free_size"]

    @pytest.mark.parametrize("graph", oracle_graphs(), ids=lambda g: f"n{len(g)}")
    def test_greedy_matches_reference(self, graph):
        if graph.number_of_nodes() == 0:
            return
        assert greedy_b_dominating_set(graph, graph.nodes) == (
            legacy_greedy_b_dominating_set(graph, graph.nodes)
        )
        targets = list(graph.nodes)[::2]
        assert greedy_b_dominating_set(graph, targets) == (
            legacy_greedy_b_dominating_set(graph, targets)
        )
