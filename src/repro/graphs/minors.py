"""Minor detection, specialised for ``K_{2,t}`` (the paper's excluded minor).

``G`` contains ``K_{2,t}`` as a minor exactly when there are two disjoint
connected *hub* sets ``A, B ⊆ V(G)`` and ``t`` further pairwise-disjoint
connected sets, each adjacent to both hubs.  For **fixed** hubs the
maximum number of such connector sets equals, by Menger's theorem, the
maximum number of vertex-disjoint paths in ``G − (A ∪ B)`` from the
``A``-boundary to the ``B``-boundary — a max-flow computation.  We get:

* :func:`max_connectors` — exact for given hubs (flow with unit vertex
  capacities);
* :func:`largest_k2t_minor_singleton_hubs` — exact over singleton hubs,
  a fast and frequently tight lower bound on the largest ``t``;
* :func:`largest_k2t_minor` / :func:`has_k2t_minor` — exact search over
  connected hub sets (exponential; guarded by a size limit, meant for the
  test-scale graphs where ground truth matters);
* :func:`has_minor` — generic backtracking minor test for tiny graphs,
  used to cross-check the specialised routine;
* :func:`edge_density_certificate` — the extremal bound
  ``|E| ≤ (t+1)(n−1)/2`` for ``K_{2,t}``-minor-free graphs (Chudnovsky,
  Reed, Seymour), usable as a fast *has-minor* certificate.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.kernel import kernel_for

Vertex = Hashable


_NONE, _SOURCE, _SINK = -1, -2, -3


def max_connectors(graph: nx.Graph, hub_a: Iterable[Vertex], hub_b: Iterable[Vertex]) -> int:
    """Max number of disjoint connected sets adjacent to both hubs.

    Exact for the given hubs: the maximum number of vertex-disjoint paths
    in ``G − (A ∪ B)`` from the ``A``-boundary to the ``B``-boundary
    (Menger).  A single vertex adjacent to both hubs counts as one
    connector.

    The flow runs on the kernel's CSR rows with unit capacities, one
    breadth-first augmenting path at a time.  The node split (``v_in →
    v_out``, capacity 1) stays implicit: each vertex records where the
    flow through it comes from (``into``) and goes to (``out``), and a
    search state is ``2v`` for ``v_in`` or ``2v + 1`` for ``v_out``.  The
    search stops early once the flow reaches the smaller boundary.
    """
    a_set, b_set = set(hub_a), set(hub_b)
    if a_set & b_set:
        raise ValueError("hub sets must be disjoint")
    csr = kernel_for(graph).packed()
    index_of = csr.index_of
    indptr, indices = csr.rows()
    n = csr.n
    rest = bytearray(b"\x01") * n
    hubs = []
    for side, hub in ((1, a_set), (2, b_set)):
        for label in hub:
            i = index_of.get(label)
            if i is not None:
                rest[i] = 0
                hubs.append((side, i))
    boundary = bytearray(n)  # bit 1: next to A (a source), bit 2: next to B
    for side, i in hubs:
        for w in indices[indptr[i] : indptr[i + 1]]:
            if rest[w]:
                boundary[w] |= side
    sources = [v for v in range(n) if boundary[v] & 1]
    bound = min(len(sources), sum(1 for flags in boundary if flags & 2))
    into = [_NONE] * n
    out = [_NONE] * n
    flow = 0
    while flow < bound:
        parent = [_NONE] * (2 * n)
        queue = [2 * v for v in sources if into[v] != _SOURCE]
        for s in queue:
            parent[s] = _SOURCE
        end = _NONE
        for s in queue:
            v = s >> 1
            if not s & 1:  # v_in: through v if it is free, else back along its flow
                pred = into[v]
                if pred == _NONE:
                    t = s + 1
                elif pred >= 0:
                    t = 2 * pred + 1
                else:
                    continue
                if parent[t] == _NONE:
                    parent[t] = s
                    queue.append(t)
                continue
            if boundary[v] & 2 and out[v] != _SINK:
                end = s
                break
            nxt = out[v]
            for w in indices[indptr[v] : indptr[v + 1]]:
                t = 2 * w
                if rest[w] and w != v and w != nxt and parent[t] == _NONE:
                    parent[t] = s
                    queue.append(t)
            if into[v] != _NONE and parent[s - 1] == _NONE:
                parent[s - 1] = s
                queue.append(s - 1)
        if end == _NONE:
            break
        out[end >> 1] = _SINK
        s = end
        while True:
            p = parent[s]
            v = s >> 1
            if p == _SOURCE:
                into[v] = _SOURCE
                break
            u = p >> 1
            # Arcs are applied last to first; an arc inside one vertex
            # (v_in → v_out or back) leaves its state to the arcs around it.
            if u != v:
                if p & 1:  # u_out → v_in: new flow on u → v
                    out[u] = v
                    into[v] = u
                else:  # u_in → v_out: cancel the flow v → u
                    if out[v] == u:  # unless a later arc re-routed v
                        out[v] = _NONE
                    into[u] = _NONE
            s = p
        flow += 1
    return flow


def largest_k2t_minor_singleton_hubs(graph: nx.Graph) -> int:
    """Largest ``t`` with a ``K_{2,t}`` minor whose hubs are single vertices.

    This is a lower bound on the true largest ``t`` and is exact on many
    structured families (wheels, thetas, books); it runs one max-flow per
    vertex pair.  Each connector uses a distinct neighbour of each hub,
    so a pair whose smaller degree is at most the best ``t`` so far
    cannot beat it and is skipped.
    """
    best = 0
    degree = dict(graph.degree)
    nodes = sorted(graph.nodes, key=repr)
    for a, b in combinations(nodes, 2):
        if min(degree[a], degree[b]) <= best:
            continue
        best = max(best, max_connectors(graph, {a}, {b}))
    return best


def _connected_sets(graph: nx.Graph, max_size: int) -> list[frozenset[Vertex]]:
    """Enumerate all connected vertex sets of size up to ``max_size``.

    Standard canonical expansion: grow each set only through vertices
    larger (in sorted order) than its minimum to avoid duplicates, then
    deduplicate the remainder with a seen-set.
    """
    order = {v: i for i, v in enumerate(sorted(graph.nodes, key=repr))}
    results: set[frozenset[Vertex]] = set()
    stack: list[frozenset[Vertex]] = [frozenset({v}) for v in graph.nodes]
    while stack:
        current = stack.pop()
        if current in results:
            continue
        results.add(current)
        if len(current) == max_size:
            continue
        root_rank = min(order[v] for v in current)
        boundary = set()
        for v in current:
            boundary.update(graph.neighbors(v))
        for w in boundary - set(current):
            if order[w] > root_rank:
                extended = current | {w}
                if extended not in results:
                    stack.append(extended)
    return sorted(results, key=lambda s: (len(s), repr(sorted(s, key=repr))))


def largest_k2t_minor(
    graph: nx.Graph, *, max_hub_size: int | None = None, node_limit: int = 16
) -> int:
    """Largest ``t`` such that ``graph`` has a ``K_{2,t}`` minor (exact).

    Enumerates all pairs of disjoint connected hub sets up to
    ``max_hub_size`` (default: allow full range ``n − 2``) and maximises
    the connector flow.  Exponential — refuses graphs with more than
    ``node_limit`` vertices so the exact routine is only used at test
    scale; use :func:`largest_k2t_minor_singleton_hubs` beyond that.
    """
    n = graph.number_of_nodes()
    if n > node_limit:
        raise ValueError(
            f"exact K_2,t search limited to {node_limit} vertices (got {n}); "
            "use largest_k2t_minor_singleton_hubs for larger graphs"
        )
    if n < 3:
        return 0
    cap = max_hub_size if max_hub_size is not None else max(1, n - 2)
    hubs = _connected_sets(graph, cap)
    best = 0
    for i, hub_a in enumerate(hubs):
        for hub_b in hubs[i + 1 :]:
            if hub_a & hub_b:
                continue
            if len(hub_a) + len(hub_b) + best >= n:
                # Not enough vertices left to beat the current best.
                continue
            best = max(best, max_connectors(graph, hub_a, hub_b))
    return best


def has_k2t_minor(graph: nx.Graph, t: int, *, exact: bool = True, node_limit: int = 16) -> bool:
    """Return whether ``graph`` contains ``K_{2,t}`` as a minor.

    ``t ≤ 0`` is trivially present.  With ``exact=False`` only the
    singleton-hub lower bound and the density certificate are used, which
    can report false negatives but never false positives.
    """
    if t <= 0:
        return True
    if graph.number_of_nodes() < t + 2:
        return False
    if edge_density_certificate(graph, t):
        return True
    if largest_k2t_minor_singleton_hubs(graph) >= t:
        return True
    if not exact:
        return False
    return largest_k2t_minor(graph, node_limit=node_limit) >= t


def is_k2t_minor_free(graph: nx.Graph, t: int, **kwargs) -> bool:
    """Negation of :func:`has_k2t_minor` (same keyword arguments)."""
    return not has_k2t_minor(graph, t, **kwargs)


def edge_density_certificate(graph: nx.Graph, t: int) -> bool:
    """Return True when the edge count *forces* a ``K_{2,t}`` minor.

    ``K_{2,t}``-minor-free graphs satisfy ``|E| ≤ (t+1)(n−1)/2`` for
    ``t ≥ 2``; exceeding the bound certifies the minor's presence.
    """
    if t < 2:
        return False
    n, m = graph.number_of_nodes(), graph.number_of_edges()
    return n >= 2 and m > (t + 1) * (n - 1) / 2


def has_minor(graph: nx.Graph, pattern: nx.Graph, *, node_limit: int = 12) -> bool:
    """Generic (exponential) minor test by branch-set growth.

    Places one connected branch set per pattern vertex, in an order where
    every pattern vertex (after the first) is adjacent to an earlier one,
    pruning candidates that are not disjoint from, or not correctly
    adjacent to, the already-placed sets.  Only meant for cross-checking
    the specialised ``K_{2,t}`` routine on tiny graphs.
    """
    n = graph.number_of_nodes()
    if n > node_limit:
        raise ValueError(f"generic minor test limited to {node_limit} vertices (got {n})")
    p = pattern.number_of_nodes()
    if p == 0:
        return True
    if p > n or pattern.number_of_edges() > graph.number_of_edges():
        return False

    # Order pattern vertices so each is adjacent to an earlier one when
    # possible (pattern components are handled back to back).
    p_order: list[Vertex] = []
    for comp in nx.connected_components(pattern):
        start = min(comp, key=repr)
        p_order.extend(nx.bfs_tree(pattern.subgraph(comp), start).nodes)

    max_branch = n - p + 1
    candidates = _connected_sets(graph, max_branch)
    placed: list[frozenset[Vertex]] = []

    def adjacent_sets(a: frozenset[Vertex], b: frozenset[Vertex]) -> bool:
        return any(graph.has_edge(u, v) for u in a for v in b)

    def search(idx: int, used: set[Vertex]) -> bool:
        if idx == len(p_order):
            return True
        p_vertex = p_order[idx]
        needed = [
            i for i, earlier in enumerate(p_order[:idx])
            if pattern.has_edge(p_vertex, earlier)
        ]
        for candidate in candidates:
            if candidate & used:
                continue
            if any(not adjacent_sets(candidate, placed[i]) for i in needed):
                continue
            placed.append(candidate)
            if search(idx + 1, used | candidate):
                return True
            placed.pop()
        return False

    return search(0, set())
