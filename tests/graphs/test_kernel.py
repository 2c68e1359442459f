"""Differential tests: kernel primitives vs plain-networkx references.

The reference implementations below are the pre-kernel set-walking
code, kept verbatim so every kernel primitive (and every rewired hot
path) can be checked against the semantics the repo shipped with.
"""

from __future__ import annotations

from collections import deque

import networkx as nx
import pytest

from repro.analysis.domination import (
    is_b_dominating_set,
    is_dominating_set,
    undominated_vertices,
)
from repro.core.d2 import d2_dominating_set, d2_set, gamma
from repro.graphs.kernel import GraphKernel, invalidate_kernel, iter_bits, kernel_for
from repro.graphs.twins import remove_true_twins
from repro.graphs.util import ball, ball_of_set, closed_neighborhood_of_set
from repro.solvers.greedy import greedy_b_dominating_set


# -- pre-kernel reference implementations ---------------------------------


def nx_closed_neighborhood_of_set(graph, vertices):
    result = set()
    for v in vertices:
        result.add(v)
        result.update(graph.neighbors(v))
    return result


def nx_ball(graph, center, radius):
    if radius < 0:
        return set()
    seen = {center}
    frontier = deque([(center, 0)])
    while frontier:
        vertex, dist = frontier.popleft()
        if dist == radius:
            continue
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, dist + 1))
    return seen


def nx_undominated(graph, candidate):
    return set(graph.nodes) - nx_closed_neighborhood_of_set(graph, candidate)


def nx_gamma(graph, v):
    n_v = nx_closed_neighborhood_of_set(graph, [v])
    for u in graph.neighbors(v):
        if n_v <= nx_closed_neighborhood_of_set(graph, [u]):
            return 1
    return 2


def nx_greedy_b_dominating_set(graph, targets, candidates=None):
    remaining = set(targets)
    if not remaining:
        return set()
    if candidates is None:
        candidate_set = nx_closed_neighborhood_of_set(graph, remaining)
    else:
        candidate_set = set(candidates)
    covers = {
        c: nx_closed_neighborhood_of_set(graph, [c]) & remaining for c in candidate_set
    }
    chosen = set()
    while remaining:
        gain, pick = 0, None
        for c in sorted(candidate_set - chosen, key=repr):
            value = len(covers[c] & remaining)
            if value > gain:
                gain, pick = value, c
        if pick is None:
            raise ValueError("some target cannot be dominated by any candidate")
        chosen.add(pick)
        remaining -= covers[pick]
    return chosen


def nx_d2_set(graph):
    """``D₂`` by definition: no neighbor ``u`` has ``N[v] ⊆ N[u]``."""
    closed = {v: nx_closed_neighborhood_of_set(graph, [v]) for v in graph.nodes}
    return {
        v
        for v in graph.nodes
        if not any(closed[v] <= closed[u] for u in graph.neighbors(v) if u != v)
    }


def nx_remove_true_twins(graph):
    """Iterated true-twin removal: ``(survivors, representative map)``.

    Each round groups the survivors by their closed neighborhood inside
    the survivor-induced subgraph and keeps the repr-least member of
    every class; rounds repeat until no class has two members.
    """
    survivors = set(graph.nodes)
    parent = {v: v for v in graph.nodes}
    while True:
        classes = {}
        for v in survivors:
            key = frozenset(nx_closed_neighborhood_of_set(graph, [v]) & survivors)
            classes.setdefault(key, []).append(v)
        removed = set()
        for members in classes.values():
            rep = min(members, key=repr)
            for v in members:
                if v != rep:
                    parent[v] = rep
                    removed.add(v)
        if not removed:
            break
        survivors -= removed
    mapping = {}
    for v in graph.nodes:
        rep = v
        while parent[rep] != rep:
            rep = parent[rep]
        mapping[v] = rep
    return survivors, mapping


def nx_d2_dominating_set(graph):
    """Theorem 4.4 by definition: twin-reduce, take ``D₂``, and add the
    repr-least vertex of every reduced component ``D₂`` misses."""
    survivors, _ = nx_remove_true_twins(graph)
    reduced = graph.subgraph(survivors)
    solution = nx_d2_set(reduced)
    for component in nx.connected_components(reduced):
        if not solution & component:
            solution.add(min(component, key=repr))
    return solution


def random_graphs():
    """A spread of random instances, including disconnected ones."""
    cases = []
    for seed, (n, p) in enumerate([(1, 0.5), (7, 0.4), (16, 0.2), (25, 0.1), (40, 0.05)]):
        cases.append(nx.gnp_random_graph(n, p, seed=seed))
    return cases


def tuple_labelled_graph():
    """A grid with tuple labels, a pendant clique of true twins hung off
    one corner, and a separate ``K4`` that collapses to one vertex."""
    graph = nx.grid_2d_graph(3, 4)
    clique = [("k", i) for i in range(3)]
    graph.add_edges_from((u, v) for u in clique for v in clique if u != v)
    graph.add_edges_from((u, (0, 0)) for u in clique)
    graph.add_edges_from(nx.relabel_nodes(nx.complete_graph(4), lambda i: ("z", i)).edges)
    return graph


def oracle_graphs():
    return random_graphs() + [tuple_labelled_graph()]


# -- kernel structure -----------------------------------------------------


class TestKernelStructure:
    def test_zero_node_graph(self):
        kernel = GraphKernel(nx.Graph())
        assert kernel.n == 0
        assert kernel.full_mask == 0
        assert kernel.dominates(0)
        assert kernel.undominated(0) == 0
        assert kernel.span_counts(0) == []

    def test_isolated_vertices(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        kernel = kernel_for(graph)
        assert kernel.labels_of(
            kernel.closed_neighborhood_bits(kernel.bits_of([2]))
        ) == {2}
        assert not kernel.dominates(kernel.bits_of([0]))
        assert kernel.dominates(kernel.bits_of([0, 2]))

    def test_tuple_and_mixed_unsortable_labels(self):
        graph = nx.Graph()
        graph.add_edge(("a", 1), "b")
        graph.add_edge("b", 3)
        graph.add_node(frozenset({9}))
        with pytest.raises(TypeError):
            sorted(graph.nodes)  # labels are genuinely unsortable
        kernel = kernel_for(graph)
        assert set(kernel.labels) == set(graph.nodes)
        assert kernel.labels_of(kernel.ball_bits("b", 1)) == {("a", 1), "b", 3}
        assert is_dominating_set(graph, ["b", frozenset({9})])
        assert undominated_vertices(graph, [("a", 1)]) == {3, frozenset({9})}

    def test_csr_rows_sorted_and_symmetric(self):
        for graph in random_graphs():
            kernel = kernel_for(graph)
            for i in range(kernel.n):
                row = list(kernel.neighbor_row(i))
                assert row == sorted(row)
                assert {kernel.labels[j] for j in row} == set(
                    graph.neighbors(kernel.labels[i])
                )

    def test_back_ports_invert_ports(self):
        for graph in random_graphs():
            kernel = kernel_for(graph)
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
            assert ball(graph, 0, radius) == nx_ball(graph, 0, radius)

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
                nx_closed_neighborhood_of_set(graph, subset)
            )

    @pytest.mark.parametrize("graph", random_graphs(), ids=lambda g: f"n{len(g)}")
    def test_balls(self, graph):
        for v in graph.nodes:
            for radius in (-1, 0, 1, 2, 3, len(graph)):
                assert ball(graph, v, radius) == nx_ball(graph, v, radius)
        centers = list(graph.nodes)[:3]
        for radius in (0, 1, 2):
            expected = set()
            for c in centers:
                expected |= nx_ball(graph, c, radius)
            assert ball_of_set(graph, centers, radius) == expected

    @pytest.mark.parametrize("graph", random_graphs(), ids=lambda g: f"n{len(g)}")
    def test_domination_checks(self, graph):
        nodes = list(graph.nodes)
        candidates = [nodes[:1], nodes[: len(nodes) // 2], nodes]
        for candidate in candidates:
            assert undominated_vertices(graph, candidate) == nx_undominated(
                graph, candidate
            )
            assert is_dominating_set(graph, candidate) == (
                not nx_undominated(graph, candidate)
            )
            targets = nodes[::2]
            assert is_b_dominating_set(graph, candidate, targets) == (
                set(targets) <= nx_closed_neighborhood_of_set(graph, candidate)
            )

    @pytest.mark.parametrize("graph", random_graphs(), ids=lambda g: f"n{len(g)}")
    def test_span_counts(self, graph):
        kernel = kernel_for(graph)
        nodes = list(graph.nodes)
        undominated = set(nodes[::3])
        spans = kernel.span_counts(kernel.bits_of(undominated))
        for v in nodes:
            expected = len(nx_closed_neighborhood_of_set(graph, [v]) & undominated)
            assert spans[kernel.index(v)] == expected

    @pytest.mark.parametrize("graph", oracle_graphs(), ids=lambda g: f"n{len(g)}")
    def test_gamma_and_d2(self, graph):
        for v in graph.nodes:
            assert gamma(graph, v) == nx_gamma(graph, v)
        assert d2_set(graph) == nx_d2_set(graph)

    @pytest.mark.parametrize("graph", oracle_graphs(), ids=lambda g: f"n{len(g)}")
    def test_twin_removal_matches_reference(self, graph):
        reduced, mapping = remove_true_twins(graph)
        survivors, want_map = nx_remove_true_twins(graph)
        assert set(reduced.nodes) == survivors
        assert {frozenset(e) for e in reduced.edges} == {
            frozenset(e) for e in graph.subgraph(survivors).edges
        }
        assert mapping == want_map

    @pytest.mark.parametrize("graph", oracle_graphs(), ids=lambda g: f"n{len(g)}")
    def test_d2_pipeline_matches_reference(self, graph):
        result = d2_dominating_set(graph)
        assert result.solution == nx_d2_dominating_set(graph)
        assert result.metadata["twin_free_size"] == len(nx_remove_true_twins(graph)[0])

    @pytest.mark.parametrize("graph", oracle_graphs(), ids=lambda g: f"n{len(g)}")
    def test_greedy_matches_reference(self, graph):
        if graph.number_of_nodes() == 0:
            return
        assert greedy_b_dominating_set(graph, graph.nodes) == (
            nx_greedy_b_dominating_set(graph, graph.nodes)
        )
        targets = list(graph.nodes)[::2]
        assert greedy_b_dominating_set(graph, targets) == (
            nx_greedy_b_dominating_set(graph, targets)
        )
