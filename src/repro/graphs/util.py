"""Neighborhood, ball, and diameter utilities shared across the library.

The paper's notation (Section 2):

* ``N[v]`` — the closed neighborhood of ``v``;
* ``N^r[v]`` — all vertices at distance at most ``r`` from ``v``;
* *weak diameter* of ``S ⊆ V(G)`` — the largest distance **in G** between
  two vertices of ``S`` (distances are not restricted to ``G[S]``);
* an *r-component* of ``S`` — a maximal subset of ``S`` in which consecutive
  vertices can be linked by hops of length at most ``r`` in ``G``
  (equivalently: a connected component of the r-th power of ``G`` restricted
  to ``S``);
* ``S`` is *D-bounded* when its weak diameter is at most ``D``.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.kernel import GraphKernel, iter_bits, kernel_for

Vertex = Hashable


def closed_neighborhood(graph: nx.Graph, v: Vertex) -> set[Vertex]:
    """Return ``N[v]``, the closed neighborhood of ``v`` in ``graph``."""
    result = set(graph.neighbors(v))
    result.add(v)
    return result


def closed_neighborhood_of_set(graph: nx.Graph, vertices: Iterable[Vertex]) -> set[Vertex]:
    """Return ``N[S] = S ∪ {u : u adjacent to some v in S}``."""
    kernel = kernel_for(graph)
    return kernel.labels_of(kernel.union_closed_bits(vertices))


def ball(graph: nx.Graph, center: Vertex, radius: int) -> set[Vertex]:
    """Return ``N^r[center]``: all vertices at distance at most ``radius``.

    Implemented as a frontier BFS on the graph's bitset kernel;
    ``radius = 0`` returns ``{center}`` and negative radii return the
    empty set.
    """
    if radius < 0:
        return set()
    if radius == 0:
        return {center}
    return kernel_for(graph).ball_labels(center, radius)


def ball_of_set(graph: nx.Graph, centers: Iterable[Vertex], radius: int) -> set[Vertex]:
    """Return ``N^r[S] = ∪_{v∈S} N^r[v]`` via one multi-source frontier BFS."""
    if radius < 0:
        return set()
    if radius == 0:
        return set(centers)
    return kernel_for(graph).ball_labels_of_set(centers, radius)


def induced_ball(graph: nx.Graph, center: Vertex, radius: int) -> nx.Graph:
    """Return the induced subgraph ``G[N^r[center]]``."""
    return graph.subgraph(ball(graph, center, radius)).copy()


def induced_ball_of_set(graph: nx.Graph, centers: Iterable[Vertex], radius: int) -> nx.Graph:
    """Return the induced subgraph ``G[∪_{v∈S} N^r[v]]``."""
    return graph.subgraph(ball_of_set(graph, centers, radius)).copy()


def distances_from(graph: nx.Graph, source: Vertex, cutoff: int | None = None) -> dict[Vertex, int]:
    """Return BFS distances from ``source``, optionally truncated at ``cutoff``."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        vertex = frontier.popleft()
        d = dist[vertex]
        if cutoff is not None and d == cutoff:
            continue
        for neighbor in graph.neighbors(vertex):
            if neighbor not in dist:
                dist[neighbor] = d + 1
                frontier.append(neighbor)
    return dist


def weak_diameter_mask(kernel: GraphKernel, mask: int) -> int:
    """Weak diameter of the vertex bitset ``mask`` (mask-level core).

    From each source bit, frontiers expand by OR-ing closed-neighborhood
    rows until every target bit is seen; the expansion count when the
    last target lands is the source's eccentricity within the set.
    Raises ``ValueError`` on a pair separated across components.
    """
    if mask.bit_count() <= 1:
        return 0
    closed = kernel.closed_bits
    best = 0
    for i in iter_bits(mask):
        seen = 1 << i
        frontier = seen
        missing = mask & ~seen
        depth = 0
        while missing:
            reach = 0
            for j in iter_bits(frontier):
                reach |= closed[j]
            frontier = reach & ~seen
            if not frontier:
                u = kernel.labels[(missing & -missing).bit_length() - 1]
                raise ValueError(
                    f"vertices {kernel.labels[i]!r} and {u!r} are disconnected in G"
                )
            seen |= frontier
            missing &= ~seen
            depth += 1
        if depth > best:
            best = depth
    return best


_DIAMETER_BLOCK = 64
"""BFS sources per ``shortest_path`` call in :func:`graph_diameter`: the
distance block is ``64 × n``, never ``n × n``."""


def graph_diameter(graph: nx.Graph) -> int:
    """The largest finite distance in ``graph``: the maximum of
    ``nx.diameter`` over its connected components (0 with no edges).

    Unweighted BFS from every vertex over the kernel's CSR, through
    ``scipy.sparse.csgraph``, a fixed block of sources per call — O(n + m)
    memory beyond one ``block × n`` distance block, at any ``n``.
    """
    import numpy as np
    from scipy.sparse.csgraph import shortest_path

    packed = kernel_for(graph).packed()
    n = packed.n
    adjacency = packed.adjacency()
    best = 0
    for start in range(0, n, _DIAMETER_BLOCK):
        sources = np.arange(start, min(start + _DIAMETER_BLOCK, n))
        dist = shortest_path(adjacency, unweighted=True, indices=sources)
        finite = dist[np.isfinite(dist)]
        best = max(best, int(finite.max()))
    return best


def weak_diameter(graph: nx.Graph, vertices: Iterable[Vertex]) -> int:
    """Return the weak diameter of ``vertices``: max distance in ``graph``.

    Raises ``ValueError`` when two vertices of the set lie in different
    connected components of ``graph`` (their distance is infinite) — and
    likewise for a vertex missing from the graph entirely, so
    :func:`is_d_bounded` keeps reporting ``False`` on stale vertex sets.
    """
    vertex_list = list(vertices)
    if len(vertex_list) <= 1:
        return 0
    kernel = kernel_for(graph).bitsets()
    index_of = kernel.index_of
    mask = 0
    for v in vertex_list:
        i = index_of.get(v)
        if i is None:
            raise ValueError(f"vertex {v!r} is not in the graph")
        mask |= 1 << i
    return weak_diameter_mask(kernel, mask)


def is_d_bounded(graph: nx.Graph, vertices: Iterable[Vertex], bound: int) -> bool:
    """Return whether the weak diameter of ``vertices`` is at most ``bound``."""
    try:
        return weak_diameter(graph, vertices) <= bound
    except ValueError:
        return False


def r_components(graph: nx.Graph, vertices: Iterable[Vertex], r: int) -> list[set[Vertex]]:
    """Split ``vertices`` into its r-components (Section 3 of the paper).

    Two vertices of the set are in the same r-component when they are
    linked by a chain of set vertices with consecutive distances (in the
    full graph ``G``) at most ``r``.
    """
    remaining = set(vertices)
    components: list[set[Vertex]] = []
    while remaining:
        seed = next(iter(remaining))
        component = {seed}
        frontier = deque([seed])
        remaining.discard(seed)
        while frontier:
            vertex = frontier.popleft()
            nearby = ball(graph, vertex, r) & remaining
            for other in nearby:
                component.add(other)
                remaining.discard(other)
                frontier.append(other)
        components.append(component)
    return components


def connected_components_of_subset(graph: nx.Graph, vertices: Iterable[Vertex]) -> list[set[Vertex]]:
    """Connected components of the induced subgraph ``G[vertices]``."""
    sub = graph.subgraph(set(vertices))
    return [set(c) for c in nx.connected_components(sub)]


def relabel_to_integers(graph: nx.Graph) -> tuple[nx.Graph, dict[Vertex, int]]:
    """Relabel vertices to ``0..n-1`` (sorted by repr for determinism).

    Returns the relabelled graph and the old-to-new mapping.
    """
    ordering = sorted(graph.nodes, key=repr)
    mapping = {old: i for i, old in enumerate(ordering)}
    return nx.relabel_nodes(graph, mapping, copy=True), mapping
