"""Verbatim copies of retired graph-layer implementations.

Each block is code a rewrite replaced, kept so tests (and the floor
benchmarks' ``legacy`` timings) pin the new code to its semantics.  A
block names the commit it copies; beyond the ``legacy_`` prefix and a
dropped unused parameter, it changes nothing unless its docstring says so.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import combinations

import networkx as nx

from repro.graphs.kernel import iter_bits
from repro.graphs.local_cuts import _ball_mask, _ball_masks, _is_local_two_cut_idx
from repro.graphs.minors import max_connectors


# -- graphs/util.py neighbourhoods, balls and distances, as of 064d9d6 --------


def legacy_closed_neighborhood(graph, v):
    result = set(graph.neighbors(v))
    result.add(v)
    return result


def legacy_closed_neighborhood_of_set(graph, vertices):
    result = set()
    for v in vertices:
        result.add(v)
        result.update(graph.neighbors(v))
    return result


def legacy_ball(graph, center, radius):
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


def legacy_ball_of_set(graph, centers, radius):
    if radius < 0:
        return set()
    seen = set(centers)
    frontier = deque((v, 0) for v in seen)
    while frontier:
        vertex, dist = frontier.popleft()
        if dist == radius:
            continue
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, dist + 1))
    return seen


def legacy_distances_from(graph, source):
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        vertex = frontier.popleft()
        d = dist[vertex]
        for neighbor in graph.neighbors(vertex):
            if neighbor not in dist:
                dist[neighbor] = d + 1
                frontier.append(neighbor)
    return dist


def legacy_weak_diameter(graph, vertices):
    vertex_list = list(vertices)
    if len(vertex_list) <= 1:
        return 0
    best = 0
    targets = set(vertex_list)
    for v in vertex_list:
        dist = legacy_distances_from(graph, v)
        for u in targets:
            if u not in dist:
                raise ValueError(f"vertices {v!r} and {u!r} are disconnected in G")
            if dist[u] > best:
                best = dist[u]
    return best


# -- graphs/cuts.py, as of b490e27 --------------------------------------------


def legacy_component_count(graph):
    return nx.number_connected_components(graph)


def legacy_is_cut(graph, cut):
    cut_set = set(cut)
    if not cut_set or not set(graph.nodes) - cut_set:
        return False
    before = nx.number_connected_components(graph)
    after = nx.number_connected_components(graph.subgraph(set(graph.nodes) - cut_set))
    return after > before


def legacy_is_minimal_cut(graph, cut):
    cut_set = set(cut)
    if not legacy_is_cut(graph, cut_set):
        return False
    for size in range(1, len(cut_set)):
        for subset in combinations(sorted(cut_set, key=repr), size):
            if legacy_is_cut(graph, subset):
                return False
    return True


def legacy_cut_vertices_by_definition(graph):
    return {v for v in graph.nodes if legacy_is_cut(graph, {v})}


def legacy_two_cuts(graph):
    nodes = sorted(graph.nodes, key=repr)
    result = []
    base = legacy_component_count(graph)
    for u, v in combinations(nodes, 2):
        rest = set(graph.nodes) - {u, v}
        if rest and legacy_component_count(graph.subgraph(rest)) > base:
            result.append(frozenset({u, v}))
    return result


def legacy_minimal_two_cuts(graph):
    ones = set(nx.articulation_points(graph))
    return [cut for cut in legacy_two_cuts(graph) if not (cut & ones)]


def legacy_components_after_removal(graph, cut):
    rest = set(graph.nodes) - set(cut)
    return [set(c) for c in nx.connected_components(graph.subgraph(rest))]


def legacy_crossing_two_cuts(graph, c1, c2):
    c1_set, c2_set = set(c1), set(c2)
    if len(c1_set) != 2 or len(c2_set) != 2 or c1_set & c2_set:
        return False

    def separated(cut, pair):
        comps = legacy_components_after_removal(graph, cut)
        homes = []
        for v in pair:
            home = next((i for i, comp in enumerate(comps) if v in comp), None)
            if home is None:
                return False
            homes.append(home)
        return homes[0] != homes[1]

    return separated(c2_set, c1_set) and separated(c1_set, c2_set)


def legacy_attached_components(graph, cut):
    cut_set = set(cut)
    boundary = set()
    for v in cut_set:
        boundary.update(graph.neighbors(v))
    return [
        comp
        for comp in legacy_components_after_removal(graph, cut_set)
        if comp & boundary
    ]


# -- graphs/local_cuts.py, as of b490e27 --------------------------------------


def legacy_local_cut_subgraph(graph, cut, r):
    return graph.subgraph(legacy_ball_of_set(graph, cut, r))


def legacy_is_local_one_cut(graph, v, r):
    arena = legacy_local_cut_subgraph(graph, {v}, r)
    return legacy_is_cut(arena, {v})


def legacy_local_one_cuts(graph, r):
    return {v for v in graph.nodes if legacy_is_local_one_cut(graph, v, r)}


def legacy_is_local_two_cut(graph, u, v, r, *, minimal=True):
    if u == v:
        return False
    if v not in legacy_ball(graph, u, r):
        return False
    cut = {u, v}
    arena = legacy_local_cut_subgraph(graph, cut, r)
    if minimal:
        return legacy_is_minimal_cut(arena, cut)
    return legacy_is_cut(arena, cut)


def legacy_local_two_cuts(graph, r, *, minimal=True):
    seen = set()
    result = []
    for u in sorted(graph.nodes, key=repr):
        for v in sorted(legacy_ball(graph, u, r), key=repr):
            if v == u:
                continue
            pair = frozenset({u, v})
            if pair in seen:
                continue
            seen.add(pair)
            if legacy_is_local_two_cut(graph, u, v, r, minimal=minimal):
                result.append(pair)
    return result


def legacy_certifies_interesting(graph, u, v, r):
    n_u = legacy_closed_neighborhood(graph, u)
    n_v = legacy_closed_neighborhood(graph, v)
    if n_v <= n_u:
        return False
    arena = legacy_local_cut_subgraph(graph, {u, v}, r)
    rest = set(arena.nodes) - {u, v}
    witnesses = 0
    for comp in nx.connected_components(arena.subgraph(rest)):
        if any(w not in n_u for w in comp):
            witnesses += 1
            if witnesses >= 2:
                return True
    return False


def legacy_is_interesting_vertex(graph, v, r):
    for u in sorted(legacy_ball(graph, v, r), key=repr):
        if u == v:
            continue
        if not legacy_is_local_two_cut(graph, u, v, r, minimal=True):
            continue
        if legacy_certifies_interesting(graph, u, v, r):
            return True
    return False


def legacy_interesting_vertices(graph, r):
    return {v for v in graph.nodes if legacy_is_interesting_vertex(graph, v, r)}


def legacy_interesting_vertices_of_cuts(graph, cuts, r):
    result = set()
    for cut in cuts:
        u, v = sorted(cut, key=repr)
        if v not in result and legacy_certifies_interesting(graph, u, v, r):
            result.add(v)
        if u not in result and legacy_certifies_interesting(graph, v, u, r):
            result.add(u)
    return result


# -- graphs/twins.py, as of b490e27 -------------------------------------------


def legacy_true_twin_classes(graph):
    buckets = {}
    for v in graph.nodes:
        key = frozenset(legacy_closed_neighborhood(graph, v))
        buckets.setdefault(key, set()).add(v)
    classes = list(buckets.values())
    classes.sort(key=lambda cls: repr(min(cls, key=repr)))
    return classes


def legacy_remove_true_twins(graph):
    mapping = {v: v for v in graph.nodes}
    current = graph.copy()
    while True:
        classes = legacy_true_twin_classes(current)
        removable = [cls for cls in classes if len(cls) > 1]
        if not removable:
            break
        for cls in removable:
            rep = min(cls, key=repr)
            for v in cls:
                if v != rep:
                    current.remove_node(v)
                    mapping[v] = rep
    for v in list(mapping):
        rep = mapping[v]
        while mapping[rep] != rep:
            rep = mapping[rep]
        mapping[v] = rep
    return current, mapping


# -- GraphKernel ingest, as of c1fc6a6 ----------------------------------------


def legacy_int_kernel(graph):
    """The int kernel's own row walk over the nx graph, as it was before
    every kernel came from one CSR builder, verbatim: ``(labels, indptr,
    indices, closed_bits, full_mask)``."""
    labels = sorted(graph.nodes, key=repr)
    index_of = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    indptr = array("q", [0])
    indices = array("q")
    closed_bits = []
    for i, label in enumerate(labels):
        row = sorted(index_of[u] for u in graph.neighbors(label))
        indices.extend(row)
        indptr.append(len(indices))
        bits = 1 << i
        for j in row:
            bits |= 1 << j
        closed_bits.append(bits)
    return labels, list(indptr), list(indices), closed_bits, (1 << n) - 1


# -- graphs/treewidth.py min-fill order, as of c1fc6a6 ------------------------


def legacy_min_fill_order(graph):
    """The min-fill loop that recomputed every vertex's fill at every
    step, verbatim except that it returns the elimination order instead
    of the decomposition built from it."""
    if graph.number_of_nodes() == 0:
        return []
    work = graph.copy()
    order = []
    while work.number_of_nodes():
        def fill_in(v):
            neighbors = list(work.neighbors(v))
            missing = 0
            for a, b in combinations(neighbors, 2):
                if not work.has_edge(a, b):
                    missing += 1
            return missing

        v = min(sorted(work.nodes, key=repr), key=fill_in)
        order.append(v)
        neighbors = list(work.neighbors(v))
        for a, b in combinations(neighbors, 2):
            work.add_edge(a, b)
        work.remove_node(v)
    return order


# -- graphs/minors.py singleton-hub search, as of f636bed ---------------------


def legacy_largest_k2t_minor_singleton_hubs(graph):
    """Largest ``t`` with a ``K_{2,t}`` minor whose hubs are single
    vertices: one max-flow per vertex pair, with no degree pruning."""
    best = 0
    nodes = sorted(graph.nodes, key=repr)
    for a, b in combinations(nodes, 2):
        best = max(best, max_connectors(graph, {a}, {b}))
    return best


# -- graphs/local_cuts.py per-pair 2-cut enumeration, as of 5bdc5b8 ----------


def legacy_two_cuts_uncached(kernel, r, minimal):
    """One to three flood fills per candidate pair, verbatim (a generator
    over the cuts of ``kernel``, a bitset kernel)."""
    table = _ball_masks(kernel, r)
    labels = kernel.labels
    for u in range(kernel.n):
        ball_u = _ball_mask(kernel, table, u, r)
        for dv in iter_bits(ball_u >> (u + 1)):
            v = u + 1 + dv
            if _is_local_two_cut_idx(kernel, table, u, v, r, minimal):
                yield frozenset({labels[u], labels[v]})


# -- graphs/minors.py max-flow connector count, as of 5bdc5b8 -----------------


def legacy_max_connectors(graph, hub_a, hub_b):
    """The node-split ``nx`` flow network and preflow-push, verbatim."""
    a_set, b_set = set(hub_a), set(hub_b)
    if a_set & b_set:
        raise ValueError("hub sets must be disjoint")
    rest = set(graph.nodes) - a_set - b_set
    sources = {v for v in rest if any(w in a_set for w in graph.neighbors(v))}
    sinks = {v for v in rest if any(w in b_set for w in graph.neighbors(v))}
    if not sources or not sinks:
        return 0

    flow_net = nx.DiGraph()
    source, sink = ("S",), ("T",)
    for v in rest:
        flow_net.add_edge(("in", v), ("out", v), capacity=1)
    for u, v in graph.subgraph(rest).edges:
        flow_net.add_edge(("out", u), ("in", v), capacity=1)
        flow_net.add_edge(("out", v), ("in", u), capacity=1)
    for v in sources:
        flow_net.add_edge(source, ("in", v), capacity=1)
    for v in sinks:
        flow_net.add_edge(("out", v), sink, capacity=1)
    value, _ = nx.maximum_flow(flow_net, source, sink)
    return int(value)
