"""Verbatim copies of retired algorithm-layer implementations, under the
conventions of :mod:`tests.oracles.graphs`."""

from __future__ import annotations

import networkx as nx

from repro.core.d2 import D2_ROUNDS, d2_set
from repro.core.results import AlgorithmResult
from repro.graphs.twins import remove_true_twins
from repro.solvers.exact import minimum_b_dominating_set
from repro.solvers.vc import is_vertex_cover
from tests.oracles.graphs import (
    legacy_ball,
    legacy_closed_neighborhood,
    legacy_closed_neighborhood_of_set,
    legacy_components_after_removal,
    legacy_interesting_vertices_of_cuts,
    legacy_local_one_cuts,
    legacy_local_two_cuts,
    legacy_minimal_two_cuts,
    legacy_remove_true_twins,
    legacy_weak_diameter,
)


# -- pre-kernel domination, D2, greedy and engine routes, as of 064d9d6 -------


def legacy_undominated_vertices(graph, candidate):
    return set(graph.nodes) - legacy_closed_neighborhood_of_set(graph, candidate)


def legacy_is_dominating_set(graph, candidate):
    return not legacy_undominated_vertices(graph, candidate)


def legacy_span_counts(graph, undominated):
    return {
        v: len(legacy_closed_neighborhood(graph, v) & undominated) for v in graph.nodes
    }


def legacy_gamma(graph, v):
    n_v = legacy_closed_neighborhood(graph, v)
    for u in graph.neighbors(v):
        if n_v <= legacy_closed_neighborhood(graph, u):
            return 1
    return 2


def legacy_d2_set(graph):
    return {v for v in graph.nodes if legacy_gamma(graph, v) >= 2}


def legacy_d2_dominating_set(graph):
    if graph.number_of_nodes() == 0:
        return AlgorithmResult(name="d2", solution=set(), rounds=0)
    reduced, _ = legacy_remove_true_twins(graph)
    solution = legacy_d2_set(reduced)
    # A single vertex (after twin reduction a K_n collapses to one) has
    # gamma undefined; it must dominate itself.
    for component in nx.connected_components(reduced):
        if not (solution & component):
            solution.add(min(component, key=repr))
    return AlgorithmResult(
        name="d2",
        solution=solution,
        rounds=D2_ROUNDS,
        phases={"d2": set(solution)},
        round_breakdown={"total": D2_ROUNDS},
        metadata={"twin_free_size": reduced.number_of_nodes()},
    )


def legacy_greedy_b_dominating_set(graph, targets, candidates=None):
    remaining = set(targets)
    if not remaining:
        return set()
    if candidates is None:
        candidate_set = legacy_closed_neighborhood_of_set(graph, remaining)
    else:
        candidate_set = set(candidates)
    covers = {c: legacy_closed_neighborhood(graph, c) & remaining for c in candidate_set}
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


def legacy_greedy_dominating_set(graph):
    return legacy_greedy_b_dominating_set(graph, graph.nodes)


def _legacy_rank(v):
    return v if isinstance(v, int) else hash(repr(v))


def legacy_distributed_greedy(graph):
    """Returns ``(chosen, phases)`` in place of the ``AlgorithmResult``."""
    undominated = set(graph.nodes)
    chosen = set()
    phases = 0
    while undominated:
        phases += 1
        span = {
            v: len(legacy_closed_neighborhood(graph, v) & undominated)
            for v in graph.nodes
        }
        joiners = []
        for v in sorted(graph.nodes, key=repr):
            if span[v] == 0:
                continue
            competitors = legacy_ball(graph, v, 2)
            best = max(competitors, key=lambda u: (span[u], -_legacy_rank(u)))
            if best == v:
                joiners.append(v)
        if not joiners:
            raise RuntimeError("greedy stalled")
        for v in joiners:
            chosen.add(v)
            undominated -= legacy_closed_neighborhood(graph, v)
    return chosen, phases


def legacy_build_routes(graph):
    """The old Network + engine route construction: per-node neighbor
    re-sorting, then the port→neighbor→back-port dictionary chain per
    edge.  The kernel path amortises all of it into one cached CSR +
    reverse-slot array per graph."""
    from repro.local_model.identifiers import identity_ids
    from repro.local_model.node import Node

    ids = identity_ids(graph)
    nodes = {}
    for v in graph.nodes:
        ports = sorted(graph.neighbors(v), key=repr)
        nodes[v] = Node(vertex=v, uid=ids[v], ports=ports)
    port_of = {
        v: {u: p for p, u in enumerate(node.ports)} for v, node in nodes.items()
    }
    return {
        v: [(nodes[u], port_of[u][v]) for u in node.ports]
        for v, node in nodes.items()
    }


# -- core/interesting.py, as of b490e27 ---------------------------------------


def legacy_second_condition(graph, u, cut):
    n_u = legacy_closed_neighborhood(graph, u)
    witnesses = 0
    for component in legacy_components_after_removal(graph, cut):
        if any(w not in n_u for w in component):
            witnesses += 1
            if witnesses >= 2:
                return True
    return False


def legacy_is_globally_interesting(graph, v, cut):
    if v not in cut or len(cut) != 2:
        return False
    (u,) = cut - {v}
    if legacy_closed_neighborhood(graph, v) <= legacy_closed_neighborhood(graph, u):
        return False
    return legacy_second_condition(graph, u, cut)


def legacy_globally_interesting_vertices(graph):
    result = set()
    for cut in legacy_minimal_two_cuts(graph):
        for v in cut:
            if v not in result and legacy_is_globally_interesting(graph, v, cut):
                result.add(v)
    return result


def legacy_interesting_cuts(graph):
    return [
        cut
        for cut in legacy_minimal_two_cuts(graph)
        if any(legacy_is_globally_interesting(graph, v, cut) for v in cut)
    ]


def legacy_almost_interesting_vertices(graph):
    result = set()
    for cut in legacy_minimal_two_cuts(graph):
        for v in cut:
            (u,) = cut - {v}
            if legacy_second_condition(graph, u, cut):
                result.add(v)
    return result


def legacy_friends(graph, u):
    result = set()
    for cut in legacy_minimal_two_cuts(graph):
        if u in cut:
            (v,) = cut - {u}
            if legacy_is_globally_interesting(graph, u, cut):
                result.add(v)
    return result


# -- core/algorithm1.py phases, as of b490e27 ---------------------------------


def legacy_phase_sets(graph, policy):
    """The pre-rewrite `_phase_sets`, composed from the legacy pieces."""
    x_set = legacy_local_one_cuts(graph, policy.one_cut_radius)
    cuts = legacy_local_two_cuts(graph, policy.two_cut_radius, minimal=True)
    i_set = legacy_interesting_vertices_of_cuts(graph, cuts, policy.two_cut_radius)
    taken = x_set | i_set
    dominated = legacy_closed_neighborhood_of_set(graph, taken) if taken else set()
    undominated = set(graph.nodes) - dominated
    u_set = {
        u
        for u in dominated - taken
        if legacy_closed_neighborhood(graph, u) <= dominated
    }
    return x_set, i_set, u_set, undominated


def legacy_residual_components(graph, x_set, i_set, u_set, undominated):
    residual_nodes = set(graph.nodes) - x_set - i_set - u_set
    components = []
    for component in nx.connected_components(graph.subgraph(residual_nodes)):
        targets = undominated & set(component)
        if targets:
            components.append((set(component), targets))
    components.sort(key=lambda pair: repr(min(pair[0], key=repr)))
    return components


def legacy_algorithm1_solution(graph, policy):
    """The pre-rewrite Algorithm 1 pipeline, composed verbatim.

    Twin reduction, phase sets, residual components and span all use the
    legacy subgraph-walking pieces; the brute-force step uses the same
    exact solver as the production path (identical on both sides).
    """
    if graph.number_of_nodes() == 0:
        return set()
    reduced, _ = legacy_remove_true_twins(graph)
    x_set, i_set, u_set, undominated = legacy_phase_sets(reduced, policy)
    brute = set()
    span = 0
    for component, targets in legacy_residual_components(
        reduced, x_set, i_set, u_set, undominated
    ):
        brute |= minimum_b_dominating_set(reduced, targets)
        zone = component | legacy_closed_neighborhood_of_set(reduced, targets)
        span = max(span, legacy_weak_diameter(reduced, zone))
    return x_set | i_set | brute


# -- core/vertex_cover.py d2_vertex_cover, as of 7d872f5 ----------------------


def legacy_d2_vertex_cover(graph: nx.Graph) -> AlgorithmResult:
    if graph.number_of_edges() == 0:
        return AlgorithmResult(name="d2_vc", solution=set(), rounds=0)
    reduced, mapping = remove_true_twins(graph)
    base = d2_set(reduced)
    twins = {v for v in graph.nodes if mapping[v] != v}
    solution = twins | base
    patch: set = set()
    for u, v in sorted(graph.edges, key=repr):
        if u not in solution and v not in solution:
            pick = min(u, v, key=repr)
            patch.add(pick)
            solution.add(pick)
    assert is_vertex_cover(graph, solution)
    return AlgorithmResult(
        name="d2_vc",
        solution=solution,
        rounds=4,
        phases={"d2": set(base), "twins": twins, "patch": patch},
        metadata={"patched_vertices": len(patch)},
    )
